"""Firing relations, stabilization, labels, components, and symmetries."""

import json
from fractions import Fraction
from itertools import product
from operator import mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfire import errors
from rootfire.ehrhart import full_dim_labels
from rootfire.firing import (
    FiringParams,
    _bounds,
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
    neighbors,
    quotient_affine_image,
    reachable_central_sinks,
    rho_of_k,
    stabilization_label,
    stabilize,
    stabilize_trace,
    sym_sink_labels_valid,
)
from rootfire.polytope import enumerate_perm, scoped_cap
from rootfire.rootsys import apply_word, from_spec, subgroup_C, weyl_orbit

SYM0 = FiringParams.make("sym", 0)
SYM1 = FiringParams.make("sym", 1)
TR1 = FiringParams.make("tr", 1)
TR2 = FiringParams.make("tr", 2)


def test_firing_params_validation():
    with pytest.raises(errors.DomainError):
        FiringParams.make("sym", -1)
    with pytest.raises(errors.DomainError):
        FiringParams(kind="weird")
    for ks in [(3,), (0, 4), (2, 0)]:
        with pytest.raises(errors.DomainError, match="central firing takes no k"):
            FiringParams.make("central", *ks)
    assert FiringParams.make("central", 0) == FiringParams(kind="central")
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


def _in_neighbors(rs, v, params):
    """In-neighbors from their definition: ``u = v - alpha_j`` with
    ``alpha_j`` fireable at ``u``, its pairing taken at ``u`` itself."""
    lo, hi = _bounds(rs, params)
    ins = []
    for j, (step, coroot) in enumerate(zip(rs.pos_root_weights, rs.pos_coroots)):
        u = tuple(map(sub, v, step))
        if lo[j] <= sum(map(mul, coroot, u)) <= hi[j]:
            ins.append((u, j))
    return ins


def _undirected_neighbors(rs, v, params):
    return neighbors(rs, v, params) + _in_neighbors(rs, v, params)


def test_neighbors_examples():
    a2 = from_spec("A2")
    assert neighbors(a2, (0, 0), SYM0) == []
    assert neighbors(a2, (0, 0), TR1) == [((-1, 2), 0), ((2, -1), 1), ((1, 1), 2)]
    ins = {w for w, _ in _in_neighbors(a2, (1, 1), SYM1)}
    assert (-1, 2) in ins  # rho minus the first simple root
    a1 = from_spec("A1")
    both = _undirected_neighbors(a1, (0,), TR1)
    assert both == [((2,), 0)]  # no in-edge: the pairing at -alpha is -2
    sym_both = {w for w, _ in _undirected_neighbors(a1, (0,), SYM1)}
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
    with pytest.raises(errors.ResourceCapError), scoped_cap(3):
        component(a2, (0, 0), FiringParams.make("tr", 3))


def _neighbor_closure(rs, start, params):
    """The undirected firing closure of ``start``: out-edges from
    ``neighbors``, in-edges from their definition."""
    seen = {start}
    stack = [start]
    while stack:
        for w, _ in _undirected_neighbors(rs, stack.pop(), params):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return tuple(sorted(seen))


def _bfs_params(rs):
    ks = [(k, k) for k in range(3)] + ([] if rs.simply_laced else [(1, 2)])
    return [FiringParams.make(kind, s, l) for kind in ("sym", "tr") for s, l in ks]


@pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_component_matches_neighbor_closure(spec):
    # the BFS on pairing vectors against a closure that recomputes every
    # vertex's pairings from its coordinates, and each in-neighbor's at
    # the in-neighbor itself
    rs = from_spec(spec)
    for params in _bfs_params(rs):
        for lam in full_dim_labels(rs, dominant_only=False):
            start = eta(rs, lam, params)
            assert component(rs, start, params) == _neighbor_closure(rs, start, params), (
                params, lam
            )


def test_forced_component_matches_neighbor_closure():
    b2 = from_spec("B2")
    bad = FiringParams.make("sym", 0, 1)
    for lam in full_dim_labels(b2, dominant_only=False):
        start = eta(b2, lam, bad)
        assert component(b2, start, bad, force=True) == _neighbor_closure(b2, start, bad)


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
def test_component_cap_is_exact(spec):
    rs = from_spec(spec)
    for params in _bfs_params(rs):
        start = eta(rs, (1,) * rs.rank, params)
        size = len(component(rs, start, params))
        if size == 1:  # a cap below 1 is refused on its own
            continue
        with scoped_cap(size):
            assert len(component(rs, start, params)) == size
        with scoped_cap(size - 1), pytest.raises(errors.ResourceCapError) as exc:
            component(rs, start, params)
        assert str(exc.value) == f"component of {start} exceeds the cap of {size - 1} points"


def test_fiber_examples():
    a2 = from_spec("A2")
    assert len(fiber(a2, (0, 0), SYM1)) == 7
    assert fiber(a2, (-1, 0), SYM1) == ()
    assert fiber(a2, (-1, -1), TR2) == (eta(a2, (-1, -1), TR2),)
    with pytest.raises(errors.NonGoodParamsError):
        fiber(from_spec("B2"), (0, 0), FiringParams.make("sym", 0, 1))


def _height(rs, v):
    # <v, 2 rho^vee>: the sum of v's pairings with the positive coroots
    return sum(sum(r * x for r, x in zip(row, v)) for row in rs.pos_coroots)


def test_fiber_visits_members_from_the_highest_down(monkeypatch):
    import rootfire.firing as fi

    rs = from_spec("A3")
    real, visits = fi.stabilize, []

    def recording(rs_, v, params, seed=None, stop=None):
        if stop is not None:  # a member check, not the label's stabilization
            visits.append(v)
        return real(rs_, v, params, seed, stop)

    monkeypatch.setattr(fi, "stabilize", recording)
    fib = fiber(rs, (1, 1, 1), SYM1)
    assert visits[0] == eta(rs, (1, 1, 1), SYM1)
    assert sorted(visits) == list(fib)
    heights = [_height(rs, v) for v in visits]
    assert heights == sorted(heights, reverse=True)


@pytest.mark.parametrize("which", [0, -1])
def test_fiber_check_catches_a_member_sent_elsewhere(monkeypatch, which):
    # first visited (the highest, the sink itself) and last visited (lowest)
    import rootfire.firing as fi

    rs = from_spec("A3")
    label, params = (1, 1, 1), SYM1
    order = sorted(fiber(rs, label, params), key=lambda v: _height(rs, v), reverse=True)
    target, elsewhere = order[which], eta(rs, (0, 0, 0), params)
    real = fi.stabilize

    def wrong(rs_, v, params_, seed=None, stop=None):
        if v == target and stop is not None:
            return elsewhere
        return real(rs_, v, params_, seed, stop)

    monkeypatch.setattr(fi, "stabilize", wrong)
    with pytest.raises(errors.InvariantViolationError, match="stabilizes elsewhere"):
        fiber(rs, label, params)


def test_fiber_fires_each_member_once(monkeypatch):
    # one stabilization per member plus the label's, and one firing per
    # member other than the sink
    from rootfire import kernel

    real, steps = kernel.stabilize, []

    def counting(*args):
        out = real(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(kernel, "stabilize", counting)
    fib = fiber(from_spec("A3"), (1, 1, 1), SYM1)
    assert len(steps) == len(fib) + 1
    assert sum(steps) == len(fib) - 1


def test_stabilize_stops_in_the_stop_set():
    a2 = from_spec("A2")
    v = (-2, -1)
    sink, steps = stabilize_trace(a2, v, TR2)
    first = neighbors(a2, v, TR2)[0][0]
    assert steps >= 2
    # checked only after a firing: the start itself does not stop the run
    assert stabilize_trace(a2, v, TR2, stop={v}) == (sink, steps)
    assert stabilize_trace(a2, v, TR2, stop={first, sink}) == (first, 1)
    assert stabilize(a2, v, TR2, stop=set()) == sink
    with pytest.raises(errors.PreconditionError):
        stabilize(a2, v, TR2, seed=1, stop={sink})


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
    assert reachable_central_sinks(a1, (1,)) == ((1,),)
    assert reachable_central_sinks(a1, (0,)) == ((2,),)
    a2 = from_spec("A2")
    sinks = reachable_central_sinks(a2, (0, 0))
    assert len(sinks) > 1 and list(sinks) == sorted(sinks)
    assert all(is_sink(a2, v, FiringParams(kind="central")) for v in sinks)
    with pytest.raises(errors.ResourceCapError, match="cap of 2 points"), scoped_cap(2):
        reachable_central_sinks(a2, (0, 0))


def test_nonescape_good_and_known_failure():
    b2 = from_spec("B2")
    good = FiringParams.make("sym", 1, 1)
    perm = enumerate_perm(b2, eta(b2, (0, 0), good))
    pts = set(perm.points)
    for mu in perm.points:
        for w, _ in neighbors(b2, mu, good):
            assert w in pts
    # without the goodness guarantee the origin escapes along the long
    # simple root
    bad = FiringParams.make("sym", 0, 1)
    perm = enumerate_perm(b2, rho_of_k(b2, bad))
    alpha1 = b2.pos_root_weights[b2.root_index((1, 0))]
    pts = set(perm.points)
    outs = {w for w, _ in neighbors(b2, (0, 0), bad)}
    assert (0, 0) in pts and alpha1 in outs and alpha1 not in pts


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
    from rootfire.rootsys import apply_word, dominant_rep

    for spec in ("A2", "B2"):
        rs = from_spec(spec)
        params = FiringParams.make("sym", 1, 1)
        for lam in product(range(-2, 3), repeat=rs.rank):
            if not sym_sink_labels_valid(rs, lam):
                continue
            fib = set(fiber(rs, lam, params))
            lam_dom, word = dominant_rep(rs, lam)
            i01 = tuple(j + 1 for j, c in enumerate(lam_dom) if c in (0, 1))
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


@pytest.mark.parametrize("spec", ["A2", "A3", "D4", "E6"])
def test_quotient_affine_image_matches_rational_formula(spec):
    rs = from_spec(spec)
    shift = Fraction(1, rs.coxeter_number)
    for word in subgroup_C(rs):
        for v in product(range(-1, 2), repeat=rs.rank):
            # v -> w(v - rho/h) + rho/h, computed in exact rationals
            moved = apply_word(rs, word, tuple(Fraction(x) - shift for x in v))
            assert quotient_affine_image(rs, word, v) == tuple(x + shift for x in moved)
    with pytest.raises(errors.InvariantViolationError):
        quotient_affine_image(from_spec("A2"), (1,), (0, 0))


def matrix_firing_edges(rs, weight):
    """Moves of the Cartan-matrix chip-firing relation at one weight.

    Subtracts a simple root wherever the coordinate is at least 2; the
    symmetric process reproduces these moves near its sinks under the
    reflection-translation that sends ``rho + ball`` onto ``rho_k + ball``.
    """
    out = []
    for i in range(rs.rank):
        if weight[i] >= 2:
            row = rs.cartan[i]
            out.append((tuple(a - b for a, b in zip(weight, row)), i))
    return out


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
            got = {w for w, _ in neighbors(rs, psi, params)}
            assert got == expect, (spec, k, lam)


def test_step_budget_guard():
    rs = from_spec("A2")
    from rootfire import kernel
    from rootfire.firing import _bounds

    lo, hi = _bounds(rs, TR1)
    with pytest.raises(errors.StepBudgetError):
        kernel.stabilize(kernel.pairings(rs.pos_coroots, (0, 0)), rs.pos_gram, lo, hi, 1)
