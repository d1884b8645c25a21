"""Fiber counting, exact polynomial fits, and the stabilization identities."""

from fractions import Fraction

import pytest

from rootfire.ehrhart import (
    REFERENCE_SYM_POLYS,
    REFERENCE_TR_POLYS,
    LatticePolynomial,
    conjecture_scan,
    count_fiber,
    decomposition_check,
    fit_ehrhart_like,
    full_dim_labels,
    iterate_check,
    perm_ehrhart,
    reference_poly,
)
from rootfire.errors import DomainError
from rootfire.firing import FiringParams, coord_box, fiber
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
    assert rep.polynomial == reference_poly(REFERENCE_SYM_POLYS["G2"], 2, (0, 0))
    # a negative degree bound is refused before any fiber is counted
    with pytest.raises(DomainError):
        fit_ehrhart_like(a2, (1, 1), "sym", degree_bound=-1)
    with pytest.raises(DomainError):
        perm_ehrhart(a2, (0, 0), degree_bound=-1)


def test_fit_kind_aliases():
    a2 = from_spec("A2")
    assert fit_ehrhart_like(a2, (1, 1), "symmetric") == fit_ehrhart_like(a2, (1, 1), "sym")
    assert fit_ehrhart_like(a2, (1, -1), "truncated") == fit_ehrhart_like(a2, (1, -1), "tr")
    for kind in ("central", "sideways"):
        with pytest.raises(DomainError):
            fit_ehrhart_like(a2, (0, 0), kind)


@pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
def test_sym_reference_table(spec):
    rs = from_spec(spec)
    nvars = 1 if rs.simply_laced else 2
    for lam in REFERENCE_SYM_POLYS[spec]:
        rep = fit_ehrhart_like(rs, lam, "sym")
        assert rep.polynomial == reference_poly(REFERENCE_SYM_POLYS[spec], nvars, lam)


def test_tr_reference_table():
    a2 = from_spec("A2")
    for lam in REFERENCE_TR_POLYS["A2"]:
        rep = fit_ehrhart_like(a2, lam, "tr")
        assert rep.polynomial == reference_poly(REFERENCE_TR_POLYS["A2"], 1, lam)
        assert rep.polynomial.constant_term() == 1


def test_fit_samples_have_zero_residual():
    rs = from_spec("B2")
    rep = fit_ehrhart_like(rs, (0, 1), "sym")
    for s in rep.samples:
        if s.get("held_out"):
            continue
        assert rep.polynomial.evaluate(s["ks"], s["kl"]) == s["count"]


def test_perm_ehrhart_examples():
    assert perm_ehrhart(from_spec("A1"), (0,)).polynomial == poly1({(1,): 1, (0,): 1})
    rep = perm_ehrhart(from_spec("A2"), (0, 0))
    assert rep.polynomial == poly1({(2,): 3, (1,): 3, (0,): 1})
    rep = perm_ehrhart(from_spec("B2"), (0, 1))
    assert rep.polynomial == reference_poly(REFERENCE_SYM_POLYS["B2"], 2, (0, 1))
    assert rep.integer and rep.nonnegative


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
def test_perm_ehrhart_nonnegative_integer(spec):
    rs = from_spec(spec)
    labels = [rs.zero()] + [rs.fundamental_weight(i) for i in range(1, rs.rank + 1)]
    for lam in labels:
        rep = perm_ehrhart(rs, lam)
        assert rep.integer and rep.nonnegative, (spec, lam, str(rep.polynomial))


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


def test_iterate_check():
    a2 = from_spec("A2")
    rep = iterate_check(a2, (0, 0), 3)
    assert rep.passed and rep.counts == (7, 19, 37)
    rep = iterate_check(a2, (1, 1), 3)
    assert rep.passed and rep.counts == (12, 18, 24)
    with pytest.raises(Exception):
        iterate_check(from_spec("B2"), (0, 0), 2)


def test_conjecture_scan_reports():
    a2 = from_spec("A2")
    rows = conjecture_scan(a2, full_dim_labels(a2, dominant_only=True), "sym")
    assert {r.label for r in rows} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(r.integer and r.nonnegative for r in rows)
    rows = conjecture_scan(a2, full_dim_labels(a2, dominant_only=False), "tr")
    assert len(rows) == 13
    assert all(r.constant_term == 1 for r in rows)


def test_full_dim_labels():
    a2 = from_spec("A2")
    assert full_dim_labels(a2) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert len(full_dim_labels(a2, dominant_only=False)) == 13
