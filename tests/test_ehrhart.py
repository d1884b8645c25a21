"""Fiber counting, exact polynomial fits, and the stabilization identities."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from rootfire import ehrhart
from rootfire.ehrhart import (
    REFERENCE_SYM_POLYS,
    REFERENCE_TR_POLYS,
    LatticePolynomial,
    count_fiber,
    decomposition_check,
    fit_ehrhart_like,
    full_dim_labels,
    iterate_check,
    perm_ehrhart,
    reference_poly,
)
from rootfire.errors import (
    DomainError,
    FitInconsistentError,
    PreconditionError,
    ResourceCapError,
)
from rootfire.firing import FiringParams, coord_box, fiber, stabilization_label
from rootfire.polytope import scoped_cap
from rootfire.rootsys import from_spec


def poly1(d):
    return LatticePolynomial.from_dict(1, d)


def test_polynomial_basics():
    p = poly1({(2,): 3, (1,): 3, (0,): 1})
    assert p.evaluate(2) == 19
    assert p.is_integer() and p.is_nonnegative()
    assert p.constant_term() == 1
    assert str(p) == "3*k^2 + 3*k + 1"
    q = LatticePolynomial.from_dict(2, {(1, 1): Fraction(1, 2), (0, 0): -1})
    assert q.evaluate(2, 3) == 2
    assert not q.is_integer() and not q.is_nonnegative()
    assert q.total_degree() == 2
    with pytest.raises(PreconditionError, match="^expected 1 arguments$"):
        p.evaluate(2, 3)


def _lagrange_interpolate(axes, values):
    """Tensor-grid interpolation through a rational Lagrange basis per axis."""

    def basis(xs):
        out = []
        for j, xj in enumerate(xs):
            b = [Fraction(1)]
            for xi in xs[:j] + xs[j + 1 :]:
                # multiply by (X - xi) / (xj - xi)
                b = [(lo - xi * hi) / (xj - xi) for lo, hi in zip([0, *b], [*b, 0])]
            out.append(b)
        return out

    bases = [basis(xs) for xs in axes]
    coeffs = {}
    for idx, v in zip(product(*(range(len(xs)) for xs in axes)), values):
        for terms in product(*(enumerate(b[i]) for b, i in zip(bases, idx))):
            c = Fraction(v)
            for _, ci in terms:
                c *= ci
            key = tuple(e for e, _ in terms)
            coeffs[key] = coeffs.get(key, 0) + c
    return {e: c for e, c in coeffs.items() if c}


def test_forward_differences_match_lagrange_interpolation():
    rng = random.Random(2201)
    for _ in range(300):
        axes = [
            list(range(start, start + rng.randint(1, 6)))
            for start in (rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        ]
        values = [rng.randint(-40, 40) for _ in product(*axes)]
        got = {e: c for e, c in ehrhart._interpolate(axes, values).items() if c}
        assert got == _lagrange_interpolate(axes, values), (axes, values)


def test_count_fiber_examples():
    a2 = from_spec("A2")
    assert count_fiber(a2, (0, 0), FiringParams.make("sym", 2)) == 19
    assert count_fiber(from_spec("B2"), (0, 0), FiringParams.make("sym", 1, 1)) == 12
    assert count_fiber(a2, (0, -1), FiringParams.make("tr", 3)) == 4


def test_fit_examples():
    a2 = from_spec("A2")
    rep = fit_ehrhart_like(a2, (1, 1), "sym")
    assert rep.polynomial == poly1({(1,): 6, (0,): 6})
    assert rep.verified_at  # held-out checks ran with zero residual
    rep = fit_ehrhart_like(a2, (1, -1), "tr")
    assert rep.polynomial == poly1({(1,): 2, (0,): 1})
    g2 = from_spec("G2")
    rep = fit_ehrhart_like(g2, (0, 0), "sym")
    assert rep.polynomial == reference_poly(REFERENCE_SYM_POLYS["G2"], (0, 0))
    # a negative degree bound is refused before any fiber is counted
    with pytest.raises(DomainError):
        fit_ehrhart_like(a2, (1, 1), "sym", degree_bound=-1)
    # a bound below the true degree (2 here) is a failed fit, not a refit at 2
    with pytest.raises(FitInconsistentError):
        fit_ehrhart_like(a2, (0, 0), "sym", degree_bound=1)
    # a two-variable fit interpolates a (d+1) x (d+1) grid, whose polynomial
    # can exceed total degree d; B2's label 0 has total degree 2
    with pytest.raises(FitInconsistentError) as exc:
        fit_ehrhart_like(from_spec("B2"), (0, 0), "sym", degree_bound=1)
    assert str(exc.value) == "sym fit for (0, 0) on B2 has total degree above 1"


def test_fit_kind_aliases():
    a2 = from_spec("A2")
    assert fit_ehrhart_like(a2, (1, 1), "symmetric") == fit_ehrhart_like(a2, (1, 1), "sym")
    assert fit_ehrhart_like(a2, (1, -1), "truncated") == fit_ehrhart_like(a2, (1, -1), "tr")
    with pytest.raises(DomainError, match="unknown firing kind 'sideways'"):
        fit_ehrhart_like(a2, (0, 0), "sideways")
    with pytest.raises(PreconditionError) as exc:
        fit_ehrhart_like(a2, (0, 0), "central")
    assert str(exc.value) == "central firing does not stabilize; explore its graph"


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def _zonotope_count(rs):
    """Stanley's count of the root lattice points of the sum of the [0, k_a * a].

    The sum is over the positive roots a, with k_a = k_short or k_long by
    a's length.  The count is the sum over the linearly independent sets S
    of positive roots of m(S) * prod(k_a for a in S), where m(S) is the gcd
    of the maximal minors of S in simple-root coordinates (Beck and Robins,
    *Computing the Continuous Discretely*, ch. 9).
    """
    two = not rs.simply_laced
    coeffs = {}
    for size in range(rs.rank + 1):
        for subset in combinations(range(len(rs.pos_roots)), size):
            rows = [rs.pos_roots[i] for i in subset]
            m = gcd(*(
                _det([[r[j] for j in cols] for r in rows])
                for cols in combinations(range(rs.rank), size)
            ))
            if m:
                longs = sum(rs.length_class[i] == "long" for i in subset)
                exp = (size - longs, longs) if two else (size,)
                coeffs[exp] = coeffs.get(exp, 0) + m
    return LatticePolynomial.from_dict(2 if two else 1, coeffs)


# the fiber of label 0 is the zonotope's lattice points, counted without the BFS
@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_label_zero_fit_is_stanleys_zonotope_count(spec):
    rs = from_spec(spec)
    want = _zonotope_count(rs)
    for kind in ("sym", "tr"):
        assert fit_ehrhart_like(rs, rs.zero(), kind).polynomial == want, kind


@pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
def test_sym_reference_table(spec):
    rs = from_spec(spec)
    for lam in REFERENCE_SYM_POLYS[spec]:
        rep = fit_ehrhart_like(rs, lam, "sym")
        assert rep.polynomial == reference_poly(REFERENCE_SYM_POLYS[spec], lam)


def test_tr_reference_table():
    a2 = from_spec("A2")
    for lam in REFERENCE_TR_POLYS["A2"]:
        rep = fit_ehrhart_like(a2, lam, "tr")
        assert rep.polynomial == reference_poly(REFERENCE_TR_POLYS["A2"], lam)
        assert rep.polynomial.constant_term() == 1


def test_reference_poly_reads_its_variable_count_off_the_row():
    # one variable on a one-length system, (k_short, k_long) on two lengths
    for tables, spec, n in (
        (REFERENCE_SYM_POLYS, "A2", 1),
        (REFERENCE_TR_POLYS, "A2", 1),
        (REFERENCE_SYM_POLYS, "B2", 2),
        (REFERENCE_SYM_POLYS, "G2", 2),
    ):
        table = tables[spec]
        assert {reference_poly(table, lam).variables for lam in table} == {n}, spec


def test_fit_samples_have_zero_residual():
    rs = from_spec("B2")
    rep = fit_ehrhart_like(rs, (0, 1), "sym")
    for s in rep.samples:
        if s.get("held_out"):
            continue
        assert rep.polynomial.evaluate(s["ks"], s["kl"]) == s["count"]


def _grid(ks, kls, counts):
    rows = [{"ks": a, "kl": b} for a in ks for b in kls]
    return [{**row, "count": c} for row, c in zip(rows, counts)]


def _monomials(coeffs):
    return [{"exp": list(e), "num": c, "den": 1} for e, c in sorted(coeffs.items())]


# the B2 count 4 + 4ks + 6kl + ks^2 + 4ks*kl + 2kl^2 of sym (0,1) and perm (0,1)
_B2_SYM_01 = {(0, 0): 4, (0, 1): 6, (0, 2): 2, (1, 0): 4, (1, 1): 4, (2, 0): 1}


def test_fit_reports_are_pinned():
    # whole reports: sample grids in order, held-out k = 0 rows, check points
    # and notes, not just the fitted polynomials
    a2, b2 = from_spec("A2"), from_spec("B2")
    assert fit_ehrhart_like(a2, (1, -1), "tr").to_json_obj() == {
        "system": "A2", "label": [1, -1], "kind": "tr", "variables": 1,
        "monomials": _monomials({(0,): 1, (1,): 2}),
        "integer": True, "nonnegative": True,
        "samples": [{"k": 0, "count": 1, "held_out": True}]
        + [{"k": k, "count": c} for k, c in ((1, 3), (2, 5), (3, 7))],
        "verified_at": [{"k": 4, "count": 9}, {"k": 5, "count": 11}],
        "notes": [],
    }
    assert fit_ehrhart_like(b2, (0, 1), "sym").to_json_obj() == {
        "system": "B2", "label": [0, 1], "kind": "sym", "variables": 2,
        "monomials": _monomials(_B2_SYM_01),
        "integer": True, "nonnegative": True,
        "samples": _grid((1, 2, 3), (0, 1, 2), (9, 21, 37, 16, 32, 52, 25, 45, 69)),
        "verified_at": [
            {"ks": 0, "kl": 0, "count": 4},
            {"ks": 4, "kl": 3, "count": 120},
            {"ks": 4, "kl": 0, "count": 36},
        ],
        "notes": [],
    }
    assert fit_ehrhart_like(b2, (0, 0), "tr").to_json_obj() == {
        "system": "B2", "label": [0, 0], "kind": "tr", "variables": 2,
        "monomials": _monomials(
            {(0, 0): 1, (0, 1): 2, (0, 2): 2, (1, 0): 2, (1, 1): 4, (2, 0): 1}
        ),
        "integer": True, "nonnegative": True,
        "samples": [{"ks": 0, "kl": 0, "count": 1, "held_out": True}]
        + _grid((1, 2, 3), (0, 1, 2), (4, 12, 24, 9, 21, 37, 16, 32, 52)),
        "verified_at": [
            {"ks": 4, "kl": 3, "count": 97},
            {"ks": 4, "kl": 0, "count": 25},
        ],
        "notes": ["two-length-truncated-fit-unproven"],
    }
    assert perm_ehrhart(b2, (0, 1)).to_json_obj() == {
        "system": "B2", "label": [0, 1], "kind": "perm", "variables": 2,
        "monomials": _monomials(_B2_SYM_01),
        "integer": True, "nonnegative": True,
        "samples": _grid((0, 1, 2), (0, 1, 2), (4, 12, 24, 9, 21, 37, 16, 32, 52)),
        "verified_at": [
            {"ks": 3, "kl": 3, "count": 97},
            {"ks": 3, "kl": 0, "count": 25},
        ],
        "notes": [],
    }


def test_perm_ehrhart_examples():
    assert perm_ehrhart(from_spec("A1"), (0,)).polynomial == poly1({(1,): 1, (0,): 1})
    rep = perm_ehrhart(from_spec("A2"), (0, 0))
    assert rep.polynomial == poly1({(2,): 3, (1,): 3, (0,): 1})
    rep = perm_ehrhart(from_spec("B2"), (0, 1))
    assert rep.polynomial == reference_poly(REFERENCE_SYM_POLYS["B2"], (0, 1))
    assert rep.polynomial.is_integer() and rep.polynomial.is_nonnegative()


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
def test_perm_ehrhart_nonnegative_integer(spec):
    rs = from_spec(spec)
    labels = [rs.zero()] + [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
    for lam in labels:
        rep = perm_ehrhart(rs, lam)
        poly = rep.polynomial
        assert poly.is_integer() and poly.is_nonnegative(), (spec, lam, str(poly))


def test_perm_ehrhart_matches_sym_fit_on_coset_reps():
    # saturated components: the fiber polynomial IS the permutohedron count
    for spec in ("A2", "B2"):
        rs = from_spec(spec)
        from rootfire.rootsys import minuscule_weights

        for lam in minuscule_weights(rs):
            assert (
                perm_ehrhart(rs, lam).polynomial
                == fit_ehrhart_like(rs, lam, "sym").polynomial
            )


def test_decomposition_check():
    a2 = from_spec("A2")
    rep = decomposition_check(a2, coord_box(a2, 4), FiringParams.make("sym", 1))
    assert rep.passed and rep.tr_asserted
    assert not rep.sym_failures and not rep.tr_failures
    b2 = from_spec("B2")
    rep = decomposition_check(b2, coord_box(b2, 3), FiringParams.make("sym", 1, 1))
    assert not rep.tr_asserted
    assert not rep.sym_failures


def _shift_label_under(monkeypatch, target):
    # every label stabilized under ``target`` moves by one in each coordinate
    real = stabilization_label

    def doctored(rs, mu, params):
        label = real(rs, mu, params)
        return tuple(x + 1 for x in label) if params == target else label

    monkeypatch.setattr(ehrhart, "stabilization_label", doctored)


@pytest.mark.parametrize("spec", ["A2", "B2"])
def test_decomposition_check_reports_each_identity_that_breaks(monkeypatch, spec):
    # at k = 1, sym k=0 is read only by the symmetric identity and tr k=2
    # only by the truncated one, so each doctored label breaks one identity
    rs = from_spec(spec)
    region = coord_box(rs, 1)
    sym1 = FiringParams.make("sym", 1)
    with monkeypatch.context() as m:
        _shift_label_under(m, FiringParams.make("sym", 0))
        rep = decomposition_check(rs, region, sym1)
    assert rep.sym_failures == tuple(region) and rep.tr_failures == ()
    assert not rep.passed
    _shift_label_under(monkeypatch, FiringParams.make("tr", 2))
    rep = decomposition_check(rs, region, sym1)
    assert rep.sym_failures == () and rep.tr_failures == tuple(region)
    # the truncated identity is proven, and so asserted, only for one root length
    assert rep.tr_asserted == rs.simply_laced
    assert rep.passed == (not rs.simply_laced)


def test_decomposition_check_takes_symmetric_params_only():
    # the symmetric label at k is read at the parameters given, never rebuilt
    # from another kind's k values; central parameters keep the central
    # refusal (test_central_stabilization_is_refused_alike)
    a2 = from_spec("A2")
    with pytest.raises(PreconditionError, match="takes sym firing, got tr"):
        decomposition_check(a2, coord_box(a2, 1), FiringParams.make("tr", 1))


def test_decomposition_check_labels_five_times_per_weight(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return stabilization_label(*args)

    monkeypatch.setattr(ehrhart, "stabilization_label", counting)
    for spec in ("A2", "B2"):
        rs = from_spec(spec)
        region = coord_box(rs, 2)
        calls.clear()
        decomposition_check(rs, region, FiringParams.make("sym", 1))
        assert len(calls) == 5 * len(region)


def test_sum_identity_sym_equals_sum_of_tr():
    # fibers of the symmetric label split into truncated fibers with the
    # same k, grouped by the k=0 symmetric label
    for spec, kmax, labels in [
        ("A2", 3, [(0, 0), (1, 1), (1, 0)]),
        ("A3", 3, [(0, 0, 0), (1, 0, 0)]),
    ]:
        rs = from_spec(spec)
        sym0 = FiringParams.make("sym", 0)
        for lam in labels:
            pre = fiber(rs, lam, sym0)
            for k in range(1, kmax + 1):
                sym_count = count_fiber(rs, lam, FiringParams.make("sym", k))
                tr_total = sum(
                    count_fiber(rs, mu, FiringParams.make("tr", k)) for mu in pre
                )
                assert sym_count == tr_total


def test_tr_symmetry_scan_reports_agreement():
    # empirical observation, surfaced by the conjectures suite: truncated
    # fibers appear to transport along the affine lattice-quotient symmetry
    from rootfire.ehrhart import tr_symmetry_scan

    a2 = from_spec("A2")
    rows = tr_symmetry_scan(a2, full_dim_labels(a2), FiringParams.make("tr", 1))
    assert rows and all(agrees for _, _, agrees in rows)
    g2 = from_spec("G2")
    assert tr_symmetry_scan(g2, full_dim_labels(g2), FiringParams.make("tr", 1)) == ()


@pytest.mark.parametrize("kind", ["sym", "central"])
def test_tr_symmetry_scan_refuses_other_kinds(kind):
    # the scan transports truncated fibers; any other kind is refused, not
    # silently read as truncated
    from rootfire.ehrhart import tr_symmetry_scan

    a2 = from_spec("A2")
    with pytest.raises(PreconditionError) as exc:
        tr_symmetry_scan(a2, full_dim_labels(a2), FiringParams.make(kind, 0))
    assert str(exc.value) == f"the affine symmetry scan takes tr firing, got {kind}"


def test_iterate_check():
    a2 = from_spec("A2")
    rep = iterate_check(a2, (0, 0), 3)
    assert rep.passed and rep.counts == (7, 19, 37)
    rep = iterate_check(a2, (1, 1), 3)
    assert rep.passed and rep.counts == (12, 18, 24)
    with pytest.raises(Exception):
        iterate_check(from_spec("B2"), (0, 0), 2)
    # k_max = 0 would compare two empty count lists
    with pytest.raises(PreconditionError):
        iterate_check(a2, (0, 0), 0)
    # a k-fold preimage set past the point cap is refused while it grows
    with scoped_cap(127):
        assert iterate_check(a2, (0, 0), 6).counts == (7, 19, 37, 61, 91, 127)
    with scoped_cap(126), pytest.raises(ResourceCapError, match="6-fold preimage set"):
        iterate_check(a2, (0, 0), 6)


def test_iterate_check_refuses_overlapping_unit_step_fibers(monkeypatch):
    # every unit-step fiber but the label's own gains one shared weight,
    # so the fit of label 0 is untouched and the second step overlaps
    real = ehrhart.fiber
    monkeypatch.setattr(
        ehrhart, "fiber",
        lambda rs, mu, params: real(rs, mu, params) + (((9, 9),) if any(mu) else ()),
    )
    with pytest.raises(FitInconsistentError) as exc:
        iterate_check(from_spec("A2"), (0, 0), 2)
    assert str(exc.value) == "unit-step fibers are not disjoint"


def test_tr_fit_notes_a_k0_count_off_its_constant_term(monkeypatch):
    # the k = 0 count of a truncated fit is held out, not interpolated: a
    # count off the constant term leaves the fit and adds a note
    real = ehrhart.count_fiber
    monkeypatch.setattr(
        ehrhart, "count_fiber",
        lambda rs, lam, params: real(rs, lam, params) + (params.k_short == 0),
    )
    rep = fit_ehrhart_like(from_spec("A2"), (1, -1), "tr")
    assert rep.polynomial == poly1({(1,): 2, (0,): 1})
    assert rep.samples[0] == {"k": 0, "count": 2, "held_out": True}
    assert rep.notes == ("constant-term-differs-at-k0",)


def test_full_dim_labels_obey_the_point_cap():
    # D4's orbits of 0/1 patterns hold 865 labels; the orbit of rho alone 192
    d4 = from_spec("D4")
    with scoped_cap(865):
        assert len(full_dim_labels(d4, dominant_only=False)) == 865
    # every orbit fits under a cap of 192, their union does not
    for cap in (100, 192, 864):
        with scoped_cap(cap), pytest.raises(ResourceCapError, match="label set of D4"):
            full_dim_labels(d4, dominant_only=False)


def test_conjecture_scan_reports():
    a2 = from_spec("A2")
    rows = [fit_ehrhart_like(a2, lam, "sym") for lam in full_dim_labels(a2, dominant_only=True)]
    assert {r.label for r in rows} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(r.polynomial.is_integer() and r.polynomial.is_nonnegative() for r in rows)
    rows = [fit_ehrhart_like(a2, lam, "tr") for lam in full_dim_labels(a2, dominant_only=False)]
    assert len(rows) == 13
    assert all(r.polynomial.constant_term() == 1 for r in rows)


def test_full_dim_labels():
    a2 = from_spec("A2")
    assert full_dim_labels(a2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(full_dim_labels(a2, dominant_only=False)) == 13
