"""Acceptance suite: one test per exit criterion, desk scale, exact checks.

Each test prints a single ``criterion N: PASS`` line on success (run with
``pytest -s`` to see them) and asserts exactness with zero tolerance.
"""

import time
from itertools import product

from rootfire.ehrhart import (
    REFERENCE_SYM_POLYS,
    REFERENCE_TR_POLYS,
    decomposition_check,
    fit_ehrhart_like,
    iterate_check,
    perm_ehrhart,
    reference_poly,
)
from rootfire.firing import (
    FiringParams,
    coord_box,
    eta,
    eta_inverse,
    fiber,
    graph_symmetry_breaks,
    is_sink,
    labels_a_sink,
    neighbors,
    reachable_sinks,
    rho_of_k,
    stabilize,
)
from rootfire.polytope import enumerate_perm, traverse_bruteforce, traverse_formula
from rootfire.rootsys import from_spec, minuscule_weights, subgroup_C

RANK2 = ("A2", "B2", "G2")


def _announce(num, detail):
    print(f"criterion {num}: PASS - {detail}")


def test_criterion_01_symmetric_tables():
    t0 = time.time()
    rows = 0
    for spec, table in REFERENCE_SYM_POLYS.items():
        rs = from_spec(spec)
        for lam, want in table.items():
            rep = fit_ehrhart_like(rs, lam, "sym")
            assert rep.polynomial == reference_poly(table, lam), (spec, lam)
            rows += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _announce(1, f"{rows} symmetric table rows refit exactly in {elapsed:.1f}s")


def test_criterion_02_truncated_tables():
    a2 = from_spec("A2")
    table = REFERENCE_TR_POLYS["A2"]
    assert len(table) == 13
    for lam, want in table.items():
        rep = fit_ehrhart_like(a2, lam, "tr")
        assert rep.polynomial == reference_poly(table, lam), lam
        assert rep.polynomial.constant_term() == 1, lam
    _announce(2, "13 truncated table rows refit exactly, all constant terms 1")


def test_criterion_03_traverse_lengths():
    from rootfire.polytope import is_funny

    t0 = time.time()
    cases = 0
    funny_cases = {}
    for spec in ("A2", "B2", "G2", "A3", "B3", "C3"):
        rs = from_spec(spec)
        funny_cases[spec] = 0
        longs = rs.length_class.count("long")
        for lam in product(range(4), repeat=rs.rank):
            assert traverse_bruteforce(rs, lam) == traverse_formula(rs, lam), (spec, lam)
            cases += len(rs.pos_roots)
            if is_funny(rs, lam):
                funny_cases[spec] += longs
    elapsed = time.time() - t0
    # the deduction branch must actually run where it can apply
    assert funny_cases["B2"] > 0 and funny_cases["C3"] > 0
    assert elapsed < 120.0
    total_funny = sum(funny_cases.values())
    _announce(3, f"{cases} traverse cases ({total_funny} funny) agree in {elapsed:.1f}s")


def test_criterion_04_confluence():
    # reachable_sinks certifies every firing order, not a sample of them
    checked = 0
    for spec in RANK2:
        rs = from_spec(spec)
        for k in (0, 1, 2):
            box = coord_box(rs, 2 * k + 2)
            for kind in ("sym", "tr"):
                params = FiringParams.make(kind, k, k)
                for w, sinks in zip(box, reachable_sinks(rs, params, box)):
                    assert sinks == (stabilize(rs, w, params),), (spec, params, w)
                    checked += 1
    _announce(4, f"{checked} (weight, process) cells reach one sink in every order")


def test_criterion_05_sink_classification():
    checked = 0
    for spec in RANK2:
        rs = from_spec(spec)
        for k in (0, 1, 2):
            box = coord_box(rs, 2 * k + 2)
            for kind in ("sym", "tr"):
                params = FiringParams.make(kind, k, k)
                sinks = {w for w in box if is_sink(rs, w, params)}
                expected = set()
                for w in box:
                    lab = eta_inverse(rs, w, params)
                    if lab is None:
                        continue
                    if not labels_a_sink(rs, lab, params):
                        continue
                    expected.add(w)
                assert sinks == expected, (spec, kind, k)
                checked += 1
    _announce(5, f"{checked} sink sets equal their label classification exactly")


def test_criterion_06_nonescape_and_known_failure():
    perms = 0
    for spec in RANK2:
        rs = from_spec(spec)
        for k in (0, 1, 2):
            params = FiringParams.make("sym", k, k)
            for bits in product((0, 1), repeat=rs.rank):
                pts = enumerate_perm(rs, eta(rs, bits, params)).points
                perms += 1
                members = set(pts)
                for mu in pts:
                    for w, _ in neighbors(rs, mu, params):
                        assert w in members, (spec, k, bits, mu, w)
    b2 = from_spec("B2")
    bad = FiringParams.make("sym", 0, 1)
    perm = enumerate_perm(b2, rho_of_k(b2, bad))
    alpha1 = b2.pos_root_weights[b2.root_index((1, 0))]
    members = set(perm.points)
    outs = {w for w, _ in neighbors(b2, b2.zero(), bad)}
    assert b2.zero() in members and alpha1 in outs and alpha1 not in members
    _announce(6, f"{perms} permutohedra trap all edges; (0,1) escape reproduced on B2")


def test_criterion_07_component_structure():
    a2 = from_spec("A2")
    for k, size in [(0, 1), (1, 7), (2, 19)]:
        params = FiringParams.make("tr", k)
        fib = fiber(a2, a2.zero(), params)
        perm = enumerate_perm(a2, rho_of_k(a2, params))
        assert set(fib) == set(perm.points)
        assert len(fib) == size
    for spec in RANK2:
        rs = from_spec(spec)
        params = FiringParams.make("sym", 1, 1)
        for lam in minuscule_weights(rs):
            fib = fiber(rs, lam, params)
            perm = enumerate_perm(rs, eta(rs, lam, params))
            assert set(fib) == set(perm.points), (spec, lam)
        rho = rs.rho()  # never a coset representative
        fib = set(fiber(rs, rho, params))
        perm = set(enumerate_perm(rs, eta(rs, rho, params)).points)
        assert fib < perm, spec
    _announce(7, "truncated fibers fill rho_k permutohedra; saturation iff coset rep")


def test_criterion_08_eta_composition_injectivity():
    pairs = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    mixed = [((1, 0), (0, 1)), ((2, 1), (1, 2)), ((0, 2), (3, 0))]
    checked = 0
    for spec in ("A2", "B2", "G2", "A3", "B3", "C3"):
        rs = from_spec(spec)
        box = list(product(range(-5, 6), repeat=rs.rank))
        combos = [((a, a), (b, b)) for a, b in pairs]
        if not rs.simply_laced:
            combos += mixed
        for (ks1, kl1), (ks2, kl2) in combos:
            p1 = FiringParams.make("sym", ks1, kl1)
            p2 = FiringParams.make("sym", ks2, kl2)
            p12 = FiringParams.make("sym", ks1 + ks2, kl1 + kl2)
            for w in box:
                assert eta(rs, eta(rs, w, p1), p2) == eta(rs, w, p12)
                checked += 1
        for k in range(4):
            params = FiringParams.make("sym", k, k)
            images = {eta(rs, w, params) for w in box}
            assert len(images) == len(box), (spec, k)
    _announce(8, f"eta composition exact on {checked} cases; injective on all boxes")


def test_criterion_09_decomposition_and_iteration():
    for spec in RANK2:
        rs = from_spec(spec)
        for k in (1, 2):
            rep = decomposition_check(rs, coord_box(rs, 4), FiringParams.make("sym", k, k))
            assert not rep.sym_failures, (spec, k)
            if rs.simply_laced:
                assert not rep.tr_failures, (spec, k)
    for spec, box in [("A2", 4), ("A3", 3)]:
        rs = from_spec(spec)
        for k in (1, 2, 3):
            rep = decomposition_check(rs, coord_box(rs, box), FiringParams.make("sym", k))
            assert rep.passed and not rep.tr_failures, (spec, k)
        it = iterate_check(rs, rs.zero(), 3)
        assert it.passed, spec
    assert iterate_check(from_spec("A2"), (0, 0), 3).counts == (7, 19, 37)
    _announce(9, "decomposition identities and iterated preimage counts all exact")


def test_criterion_10_symmetry():
    # the certificate covers every weight, so each certified map is a graph symmetry
    maps = 0
    for spec in RANK2:
        rs = from_spec(spec)
        for k in (0, 1, 2):
            for kind in ("sym", "tr"):
                breaks = graph_symmetry_breaks(rs, FiringParams.make(kind, k, k))
                assert breaks == (), (spec, kind, k, breaks[:3])
                maps += rs.rank if kind == "sym" else len(subgroup_C(rs))
    _announce(10, f"{maps} symmetry maps certified on every weight")


def test_criterion_11_fit_consistency():
    fits = 0
    for spec in ("A2", "B2", "G2", "A3"):
        rs = from_spec(spec)
        labels = [rs.zero()] + [
            rs.fundamental_weight(i) for i in range(1, rs.rank + 1)
        ]
        for lam in labels:
            rep = perm_ehrhart(rs, lam)
            assert len(rep.verified_at) >= 2
            poly = rep.polynomial
            assert poly.is_integer() and poly.is_nonnegative(), (spec, lam, str(poly))
            fits += 1
        for lam in labels:
            rep = fit_ehrhart_like(rs, lam, "sym")
            assert len(rep.verified_at) >= 2
            fits += 1
    _announce(11, f"{fits} fits verified at held-out points with zero residual")
