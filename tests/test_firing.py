"""Firing relations, stabilization, labels, components, and symmetries."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfire import errors
from rootfire.firing import (
    FiringParams,
    build_graph,
    check_confluence_random,
    component,
    coord_box,
    eta,
    eta_inverse,
    fiber,
    fireable_roots,
    graph_symmetry_check,
    is_sink,
    matrix_firing_edges,
    neighbors,
    reachable_central_sinks,
    rho_of_k,
    stabilization_label,
    stabilize,
    stabilize_trace,
    sym_sink_labels_valid,
)
from rootfire.polytope import enumerate_perm
from rootfire.rootsys import from_spec, weyl_orbit

SYM0 = FiringParams.make("sym", 0)
SYM1 = FiringParams.make("sym", 1)
TR1 = FiringParams.make("tr", 1)
TR2 = FiringParams.make("tr", 2)


def test_firing_params_validation():
    with pytest.raises(errors.DomainError):
        FiringParams.make("sym", -1)
    with pytest.raises(errors.DomainError):
        FiringParams(kind="weird")
    assert FiringParams.make("sym", 0, 1).is_good(from_spec("B2")) is False
    assert FiringParams.make("sym", 0, 1).is_good(from_spec("A2")) is True
    assert FiringParams.make("sym", 1, 0).is_good(from_spec("B2")) is True


def test_rho_of_k_tracks_length_classes():
    assert rho_of_k(from_spec("B2"), FiringParams.make("sym", 1, 2)) == (2, 1)
    assert rho_of_k(from_spec("G2"), FiringParams.make("sym", 1, 2)) == (1, 2)
    assert rho_of_k(from_spec("A2"), SYM1) == (1, 1)


def test_fireable_examples():
    a2 = from_spec("A2")
    assert fireable_roots(a2, (0, 0), SYM0) == []
    assert fireable_roots(a2, (0, 0), TR1) == [0, 1, 2]
    assert fireable_roots(a2, (1, 1), SYM1) == []
    a1 = from_spec("A1")
    assert fireable_roots(a1, (0,), FiringParams.make("central", 0)) == [0]


def test_neighbors_examples():
    a2 = from_spec("A2")
    assert neighbors(a2, (0, 0), SYM0, "out") == []
    ins = {w for w, _ in neighbors(a2, (1, 1), SYM1, "in")}
    assert (-1, 2) in ins  # rho minus the first simple root
    a1 = from_spec("A1")
    both = neighbors(a1, (0,), TR1, "both")
    assert both == [((2,), 0)]  # no in-edge: the pairing at -alpha is -2
    sym_both = {w for w, _ in neighbors(a1, (0,), SYM1, "both")}
    assert sym_both == {(2,), (-2,)}


def test_eta_examples():
    a2 = from_spec("A2")
    assert eta(a2, (0, 0), SYM1) == (1, 1)
    assert eta(a2, (2, 1), SYM1) == (3, 2)  # dominant: just add rho_k
    assert eta(a2, (-1, 0), SYM1) == (-3, 1)
    b2 = from_spec("B2")
    assert eta(b2, (0, 0), FiringParams.make("sym", 1, 2)) == (2, 1)


def test_eta_inverse_examples():
    a2 = from_spec("A2")
    assert eta_inverse(a2, (1, 1), SYM1) == (0, 0)
    assert eta_inverse(a2, (-3, 1), SYM1) == (-1, 0)
    assert eta_inverse(a2, (1, 0), SYM1) is None
    # exhaustive oracle: no weight in a wide box maps to omega_1 at k=1
    for w in product(range(-6, 7), repeat=2):
        assert eta(a2, w, SYM1) != (1, 0)


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
def test_eta_composition_and_injectivity(spec):
    rs = from_spec(spec)
    box = list(product(range(-4, 5), repeat=rs.rank))
    for ks1, kl1, ks2, kl2 in [(1, 1, 2, 2), (0, 0, 1, 1), (1, 2, 2, 1), (0, 1, 1, 0)]:
        p1 = FiringParams.make("sym", ks1, kl1)
        p2 = FiringParams.make("sym", ks2, kl2)
        p12 = FiringParams.make("sym", ks1 + ks2, kl1 + kl2)
        seen = {}
        for w in box:
            assert eta(rs, eta(rs, w, p1), p2) == eta(rs, w, p12)
            img = eta(rs, w, p1)
            assert img not in seen
            seen[img] = w


@settings(max_examples=60, deadline=None)
@given(
    coords=st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    ks=st.integers(0, 3),
    kl=st.integers(0, 3),
)
def test_eta_inverse_round_trip(coords, ks, kl):
    rs = from_spec("B2")
    params = FiringParams.make("sym", ks, kl)
    assert eta_inverse(rs, eta(rs, coords, params), params) == coords


def test_sym_sink_labels():
    a2 = from_spec("A2")
    assert sym_sink_labels_valid(a2, (2, 1))
    assert not sym_sink_labels_valid(a2, (-1, 0))
    assert not sym_sink_labels_valid(a2, (1, -1))


def test_is_sink_examples():
    a2 = from_spec("A2")
    assert is_sink(a2, (1, 1), SYM1)  # rho_k
    assert not is_sink(a2, (0, 0), TR1)
    assert not is_sink(from_spec("A1"), (0,), FiringParams.make("central", 0))


def test_stabilize_examples():
    a2 = from_spec("A2")
    assert stabilize(a2, (1, 1), SYM1) == (1, 1)
    assert stabilize(a2, (-1, 0), SYM0) == (0, 1)
    assert stabilize(a2, (0, 0), TR1) == (1, 1)
    sink, steps = stabilize_trace(a2, (0, 0), TR1)
    assert sink == (1, 1) and steps >= 1
    with pytest.raises(errors.PreconditionError):
        stabilize(a2, (0, 0), FiringParams.make("central", 0))


def test_stabilize_potential_decreases_each_step():
    # termination witness: squared distance to rho_{k+1} drops every firing
    rs = from_spec("B2")
    params = FiringParams.make("sym", 2, 1)
    target = rho_of_k(rs, FiringParams.make("sym", 3, 2))
    for start in [(-3, 1), (0, 0), (2, -4), (-2, -2)]:
        v = start
        pot = rs.quad_norm(tuple(a - b for a, b in zip(target, v)))
        for _ in range(200):
            fire = fireable_roots(rs, v, params)
            if not fire:
                break
            step = rs.pos_root_weights[fire[0]]
            v = tuple(a + b for a, b in zip(v, step))
            new_pot = rs.quad_norm(tuple(a - b for a, b in zip(target, v)))
            assert new_pot < pot
            pot = new_pot
        else:
            pytest.fail("stabilization did not terminate")


def test_stabilization_label_examples():
    a2 = from_spec("A2")
    assert stabilization_label(a2, (0, 0), SYM1) == (0, 0)
    assert stabilization_label(a2, (-1, 0), SYM0) == (0, 1)
    for mu in weyl_orbit(a2, (1, 1)):
        assert stabilization_label(a2, mu, SYM0) == (1, 1)
    with pytest.raises(errors.NonGoodParamsError):
        stabilization_label(from_spec("B2"), (0, 0), FiringParams.make("sym", 0, 1))


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_sink_classification_rank3(spec):
    rs = from_spec(spec)
    for kind in ("sym", "tr"):
        params = FiringParams.make(kind, 1, 1)
        for w in coord_box(rs, 2):
            lab = eta_inverse(rs, w, params)
            expected = lab is not None and (
                kind == "tr" or sym_sink_labels_valid(rs, lab)
            )
            assert is_sink(rs, w, params) == expected, (spec, kind, w)


def test_component_examples():
    a2 = from_spec("A2")
    assert component(a2, (0, 0), SYM0) == ((0, 0),)
    assert len(component(a2, (1, 1), SYM0)) == 6
    comp = component(a2, (1, 1), TR1)
    assert len(comp) == 7
    assert set(comp) == set(enumerate_perm(a2, (1, 1)).points)


def test_component_cap():
    a2 = from_spec("A2")
    with pytest.raises(errors.ResourceCapError):
        component(a2, (0, 0), FiringParams.make("tr", 3), max_points=3)


def test_fiber_examples():
    a2 = from_spec("A2")
    assert len(fiber(a2, (0, 0), SYM1)) == 7
    assert fiber(a2, (-1, 0), SYM1) == ()
    assert fiber(a2, (-1, -1), TR2) == (eta(a2, (-1, -1), TR2),)
    with pytest.raises(errors.NonGoodParamsError):
        fiber(from_spec("B2"), (0, 0), FiringParams.make("sym", 0, 1))


def test_fiber_members_share_label():
    rs = from_spec("B2")
    params = FiringParams.make("sym", 1, 2)
    for lam in [(0, 0), (0, 1), (1, 1)]:
        for mu in fiber(rs, lam, params):
            assert stabilization_label(rs, mu, params) == lam


def test_fibers_partition_region():
    rs = from_spec("A2")
    params = SYM1
    region = coord_box(rs, 3)
    by_label = {}
    for w in region:
        by_label.setdefault(stabilization_label(rs, w, params), []).append(w)
    for lam, members in by_label.items():
        fib = set(fiber(rs, lam, params))
        assert set(members) <= fib


def test_confluence_random_examples():
    a2 = from_spec("A2")
    assert check_confluence_random(a2, (0, 0), SYM1, trials=50, seed=11)
    assert check_confluence_random(a2, (0, 0), TR2, trials=50, seed=11)
    a1 = from_spec("A1")
    assert check_confluence_random(a1, (-4,), SYM1, trials=5, seed=1)
    with pytest.raises(errors.PreconditionError):
        check_confluence_random(a2, (0, 0), SYM1, trials=1, seed=0)


def test_central_sinks():
    a1 = from_spec("A1")
    assert reachable_central_sinks(a1, (1,)).sinks == ((1,),)
    assert reachable_central_sinks(a1, (0,)).sinks == ((2,),)
    res = reachable_central_sinks(from_spec("A2"), (0, 0))
    assert res.complete and len(res.sinks) > 1
    partial = reachable_central_sinks(from_spec("A2"), (0, 0), budget=2)
    assert not partial.complete


def test_nonescape_good_and_known_failure():
    b2 = from_spec("B2")
    good = FiringParams.make("sym", 1, 1)
    perm = enumerate_perm(b2, eta(b2, (0, 0), good))
    for mu in perm.points:
        for w, _ in neighbors(b2, mu, good, "out"):
            assert w in perm
    # without the goodness guarantee the origin escapes along the long
    # simple root
    bad = FiringParams.make("sym", 0, 1)
    perm = enumerate_perm(b2, rho_of_k(b2, bad))
    alpha1 = b2.pos_root_weights[b2.root_index((1, 0))]
    outs = {w for w, _ in neighbors(b2, (0, 0), bad, "out")}
    assert (0, 0) in perm and alpha1 in outs and alpha1 not in perm


def test_component_escape_detection_on_non_good():
    # the bounding assertion is skipped under force, and the component may
    # legitimately be smaller than the permutohedron
    b2 = from_spec("B2")
    bad = FiringParams.make("sym", 0, 1)
    comp = component(b2, rho_of_k(b2, bad), bad, force=True)
    assert (0, 0) not in comp
    assert len(comp) == 4


def _parabolic_orbit(rs, weight, nodes):
    from rootfire.rootsys import reflect_simple

    seen = {tuple(weight)}
    queue = [tuple(weight)]
    while queue:
        v = queue.pop()
        for i in nodes:
            w = reflect_simple(rs, i, v)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def test_orbit_containment_in_fiber():
    # the component of a sink contains the sink's orbit under the parabolic
    # subgroup at the label's {0,1}-support (the full orbit when that
    # support is everything)
    from rootfire.rootsys import apply_word, dominant_rep, support_sets

    for spec in ("A2", "B2"):
        rs = from_spec(spec)
        params = FiringParams.make("sym", 1, 1)
        for lam in product(range(-2, 3), repeat=rs.rank):
            if not sym_sink_labels_valid(rs, lam):
                continue
            fib = set(fiber(rs, lam, params))
            lam_dom, word = dominant_rep(rs, lam)
            _, i01 = support_sets(rs, lam)
            orbit = _parabolic_orbit(rs, eta(rs, lam_dom, params), i01)
            expected = {apply_word(rs, word, v) for v in orbit}
            assert expected <= fib, (spec, lam)


def test_saturation_iff_minuscule_or_zero():
    for spec in ("A2", "B2"):
        rs = from_spec(spec)
        params = FiringParams.make("sym", 1, 1)
        full_dim = [
            lam for lam in product((0, 1), repeat=rs.rank)
        ]  # labels with all coordinates in {0,1}
        minus = {(0,) * rs.rank} | {
            tuple(1 if j == i - 1 else 0 for j in range(rs.rank))
            for i in rs.minuscule
        }
        for lam in full_dim:
            fib = set(fiber(rs, lam, params))
            perm = set(enumerate_perm(rs, eta(rs, lam, params)).points)
            assert (fib == perm) == (lam in minus), (spec, lam)


def test_graph_build_and_serialization():
    a2 = from_spec("A2")
    g = build_graph(a2, coord_box(a2, 2), SYM0)
    assert g.vertices == tuple(sorted(g.vertices))
    data = json.loads(g.to_json())
    assert data["system"] == "A2"
    assert data["params"] == {"kind": "symmetric", "k_short": 0, "k_long": 0}
    for e in data["edges"]:
        src = tuple(data["vertices"][e["s"]])
        tgt = tuple(data["vertices"][e["t"]])
        step = a2.pos_root_weights[e["root"]]
        assert tuple(a + b for a, b in zip(src, step)) == tgt
    dot = g.to_dot(a2)
    assert dot.startswith("digraph") and "a1+a2" in dot
    # empty region
    assert build_graph(a2, [], SYM0).vertices == ()


def test_graph_determinism():
    a2 = from_spec("A2")
    g1 = build_graph(a2, coord_box(a2, 3), TR1)
    g2 = build_graph(a2, coord_box(a2, 3), TR1)
    assert g1.to_json() == g2.to_json()
    assert g1.to_dot(a2) == g2.to_dot(a2)


@pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
def test_graph_symmetries(spec):
    rs = from_spec(spec)
    for k in (0, 1):
        rep = graph_symmetry_check(rs, FiringParams.make("sym", k, k), 2 * k + 2)
        assert rep.passed, rep.violations[:3]
        rep = graph_symmetry_check(rs, FiringParams.make("tr", k, k), 2 * k + 2)
        assert rep.passed, rep.violations[:3]


def test_matrix_firing_limit_on_ball():
    # near its sinks the symmetric process, reflected and translated,
    # reduces to simple-root-only firing driven by the Cartan matrix
    for spec, k in [("A2", 1), ("A2", 2), ("B2", 2)]:
        rs = from_spec(spec)
        params = FiringParams.make("sym", k, k)
        rho_k1 = rho_of_k(rs, FiringParams.make("sym", k + 1, k + 1))
        ball = [
            w
            for w in coord_box(rs, k + 1)
            if sum(abs(c - 1) for c in w) <= k
        ]
        for lam in ball:
            psi = tuple(a - b for a, b in zip(rho_k1, lam))
            expect = {
                tuple(a - b for a, b in zip(rho_k1, tgt))
                for tgt, _ in matrix_firing_edges(rs, lam)
            }
            got = {w for w, _ in neighbors(rs, psi, params, "out")}
            assert got == expect, (spec, k, lam)


def test_step_budget_guard():
    rs = from_spec("A2")
    from rootfire import kernel
    from rootfire.firing import _bounds

    lo, hi = _bounds(rs, TR1)
    with pytest.raises(errors.StepBudgetError):
        kernel.stabilize((0, 0), rs.pos_root_weights, rs.pos_coroots, lo, hi, 1)
