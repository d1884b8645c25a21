"""Firing relations, stabilization, labels, components, and symmetries."""

import json
from fractions import Fraction
from functools import cache, partial
from itertools import product
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfire import errors, firing
from rootfire.ehrhart import decomposition_check, fit_ehrhart_like, full_dim_labels
from rootfire.firing import (
    FiringParams,
    _bounds,
    bounding_center,
    build_graph,
    check_confluence_random,
    component,
    coord_box,
    eta,
    eta_inverse,
    fiber,
    fireable_roots,
    graph_symmetry_breaks,
    is_sink,
    labels_a_sink,
    neighbors,
    quotient_affine_image,
    reachable_central_sinks,
    reachable_sinks,
    rho_of_k,
    stabilization_label,
    stabilize,
    stabilize_trace,
)
from rootfire.polytope import enumerate_perm, perm_contains, scoped_cap
from rootfire.rootsys import (
    apply_word,
    dominant_rep,
    from_spec,
    reflect_simple,
    subgroup_C,
    weyl_orbit,
)
from test_rootsys import CLASSIFICATION

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
    assert FiringParams(kind="central").label() == "central"
    assert FiringParams(kind="central").is_good(from_spec("A2")) is False
    assert FiringParams.make("sym", 0, 1).is_good(from_spec("B2")) is False
    assert FiringParams.make("sym", 1, 1).is_good(from_spec("A2")) is True
    # one root length takes one k, so (0, 1) is neither good nor not on A2
    with pytest.raises(errors.DomainError, match="A2 has one root length"):
        FiringParams.make("sym", 0, 1).is_good(from_spec("A2"))
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
        if rs.simply_laced and ks1 != kl1:
            # one root length takes one k, so p1 is refused before any weight
            with pytest.raises(errors.DomainError, match="takes one k"):
                eta(rs, box[0], p1)
            continue
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
    assert labels_a_sink(a2, (2, 1), SYM1)
    assert not labels_a_sink(a2, (-1, 0), SYM1)
    assert not labels_a_sink(a2, (1, -1), SYM0)
    # every label labels a truncated sink
    assert labels_a_sink(a2, (-1, 0), TR1)


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


CENTRAL = FiringParams(kind="central")
CENTRAL_CALLS = {
    "stabilize": lambda rs: stabilize(rs, (0, 0), CENTRAL),
    "stabilize_trace": lambda rs: stabilize_trace(rs, (0, 0), CENTRAL),
    "check_confluence_random": lambda rs: check_confluence_random(
        rs, (0, 0), CENTRAL, trials=2, seed=0
    ),
    "stabilization_label": lambda rs: stabilization_label(rs, (0, 0), CENTRAL),
    "fiber": lambda rs: fiber(rs, (0, 0), CENTRAL, force=True),
    "decomposition_check": lambda rs: decomposition_check(rs, [(0, 0)], CENTRAL),
    "fit_ehrhart_like": lambda rs: fit_ehrhart_like(rs, (0, 0), "central"),
    "labels_a_sink": lambda rs: labels_a_sink(rs, (0, 0), CENTRAL),
}


@pytest.mark.parametrize("name", sorted(CENTRAL_CALLS))
def test_central_stabilization_is_refused_alike(name):
    with pytest.raises(errors.PreconditionError) as exc:
        CENTRAL_CALLS[name](from_spec("A2"))
    assert type(exc.value) is errors.PreconditionError
    assert str(exc.value) == "central firing does not stabilize; explore its graph"


@pytest.mark.parametrize("spec", sorted(CLASSIFICATION))
def test_rho_of_k_matches_the_symmetrizer_rule(spec):
    # oracle: a node is long exactly when its symmetrizer is the largest
    rs = from_spec(spec)
    d_long = max(rs.symmetrizer)
    for ks, kl in product(range(3), repeat=2):
        oracle = tuple(kl if d == d_long else ks for d in rs.symmetrizer)
        for kind in ("sym", "tr"):
            params = FiringParams.make(kind, ks, kl)
            if rs.simply_laced and ks != kl:
                with pytest.raises(errors.DomainError, match=f"{spec} has one root length"):
                    rho_of_k(rs, params)
            else:
                assert rho_of_k(rs, params) == oracle


ONE_K_READERS = {
    "rho_of_k": lambda rs, p, w: rho_of_k(rs, p),
    "eta": lambda rs, p, w: eta(rs, w, p),
    "eta_inverse": lambda rs, p, w: eta_inverse(rs, w, p),
    "bounding_center": lambda rs, p, w: bounding_center(rs, w, p),
    "is_good": lambda rs, p, w: p.is_good(rs),
    "require_good": lambda rs, p, w: firing.require_good(rs, p, force=True),
    "fiber": lambda rs, p, w: fiber(rs, w, p, force=True),
    "stabilize": lambda rs, p, w: stabilize(rs, w, p),
    "stabilization_label": lambda rs, p, w: stabilization_label(rs, w, p),
    "component": lambda rs, p, w: component(rs, w, p),
    "neighbors": lambda rs, p, w: neighbors(rs, w, p),
    "reachable_sinks": lambda rs, p, w: reachable_sinks(rs, p, [w]),
    "build_graph": lambda rs, p, w: build_graph(rs, [w], p),
}


@pytest.mark.parametrize("name", sorted(ONE_K_READERS))
@pytest.mark.parametrize("spec, kind, ks, kl", [("A2", "sym", 1, 2), ("D4", "tr", 0, 1)])
def test_one_root_length_takes_one_k_in_every_reader(name, spec, kind, ks, kl):
    # FiringParams.k_of alone states the rule; no reader skips it or reads
    # k_long for both.  The weight (-1, 0, ...) labels no symmetric sink, so
    # a fiber that looked at the label first would return () unrefused.
    rs = from_spec(spec)
    weight = (-1,) + (0,) * (rs.rank - 1)
    with pytest.raises(errors.DomainError) as exc:
        ONE_K_READERS[name](rs, FiringParams.make(kind, ks, kl), weight)
    assert str(exc.value) == f"{spec} has one root length and takes one k, got k=({ks},{kl})"


@pytest.mark.parametrize("spec", sorted(s for s in CLASSIFICATION if int(s[1:]) <= 4))
def test_sink_labels_and_bounding_centers_match_their_oracles(spec):
    # labels_a_sink against is_sink, which reads the firing intervals, and
    # bounding_center against eta of the dominant label
    rs = from_spec(spec)
    for ks, kl in product(range(3), repeat=2):
        if rs.simply_laced and ks != kl:
            continue
        for kind in ("sym", "tr"):
            params = FiringParams.make(kind, ks, kl)
            if not params.is_good(rs):
                continue
            for lam in product((-1, 0, 1), repeat=rs.rank):
                sink = is_sink(rs, eta(rs, lam, params), params)
                assert labels_a_sink(rs, lam, params) == sink, (kind, ks, kl, lam)
                old = eta(rs, dominant_rep(rs, lam)[0], params)
                assert bounding_center(rs, lam, params) == old, (kind, ks, kl, lam)


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


def test_stabilization_label_refuses_an_unlabeled_sink(monkeypatch):
    # every sink of good firing is in eta's image; one that is not is a bug
    import rootfire.firing as fi

    monkeypatch.setattr(fi, "eta_inverse", lambda rs_, mu, params_: None)
    with pytest.raises(errors.InvariantViolationError) as exc:
        stabilization_label(from_spec("A2"), (-1, 0), SYM0)
    assert str(exc.value) == "stabilization of (-1, 0) under sym k=(0,0) is not a labeled sink"


@pytest.mark.parametrize("spec", ["A3", "B3"])
def test_sink_classification_rank3(spec):
    rs = from_spec(spec)
    for kind in ("sym", "tr"):
        params = FiringParams.make(kind, 1, 1)
        for w in coord_box(rs, 2):
            lab = eta_inverse(rs, w, params)
            expected = lab is not None and labels_a_sink(rs, lab, params)
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
    # non-good parameters need no force: the closure needs no confluence
    b2 = from_spec("B2")
    bad = FiringParams.make("sym", 0, 1)
    for lam in full_dim_labels(b2, dominant_only=False):
        start = eta(b2, lam, bad)
        assert component(b2, start, bad) == _neighbor_closure(b2, start, bad)


@pytest.mark.parametrize("spec, size_from_0", [("A2", 4), ("B2", 8), ("G2", 12), ("A3", 16)])
def test_central_component_matches_neighbor_closure(spec, size_from_0):
    # central firing is not confluent and has no labels, yet its graph has
    # components: the closure explores it as it does any other
    rs = from_spec(spec)
    starts = [rs.zero(), (1,) * rs.rank, (-1,) + (1,) * (rs.rank - 1)]
    for start in starts:
        assert component(rs, start, CENTRAL) == _neighbor_closure(rs, start, CENTRAL), start
    assert len(component(rs, rs.zero(), CENTRAL)) == size_from_0


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


def _far_starts(rs, params):
    """Weights far from 0 with negative coordinates: those near (-40, 25),
    mostly sinks, and the sinks labeled by wall points of the orbits of
    (0, 40) and (40, 0), whose components are root strings of up to k + 1
    weights."""
    walls = {*weyl_orbit(rs, (0, 40)), *weyl_orbit(rs, (40, 0))}
    labeled = [eta(rs, lam, params) for lam in sorted(walls) if min(lam) < 0]
    return [*product(range(-41, -38), range(24, 27)), *labeled]


@pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
def test_component_keys_hold_far_from_zero(spec):
    # the integer keys of the BFS offset each coordinate by max|start_i|
    # plus cap * c; starts with large negative and positive coordinates
    # exercise both digit ends, and B2 adds the forced sym (0, 1) row
    rs = from_spec(spec)
    forced = [FiringParams.make("sym", 0, 1)] if spec == "B2" else []
    for params in _bfs_params(rs) + forced:
        for start in _far_starts(rs, params):
            assert component(rs, start, params) == _neighbor_closure(
                rs, start, params
            ), (params, start)


def test_component_keys_hold_at_the_exact_cap():
    # scoped_cap(size) gives the least offset that holds the component;
    # G2's root steps reach 3 in weight coordinates
    g2 = from_spec("G2")
    assert max(abs(x) for r in g2.pos_root_weights for x in r) == 3
    sizes = set()
    for params in _bfs_params(g2):
        for start in _far_starts(g2, params) + [eta(g2, (-3, 2), params)]:
            closure = _neighbor_closure(g2, start, params)
            size = len(closure)
            sizes.add(size)
            if size == 1:  # a cap below 1 is refused on its own
                continue
            with scoped_cap(size):
                assert component(g2, start, params) == closure, (params, start)
            with scoped_cap(size - 1), pytest.raises(errors.ResourceCapError) as exc:
                component(g2, start, params)
            assert str(exc.value) == f"component of {start} exceeds the cap of {size - 1} points"
    assert max(sizes) > 10


def test_radix_keys_are_distinct_and_ordered_within_the_offset():
    # every weight with coordinates in [-off, off] gets its own key, and
    # keys sort as the weights do
    off = 3
    box = list(product(range(-off, off + 1), repeat=3))
    keys = [firing._radix_key(v, 2 * off + 1, off) for v in box]
    assert keys == sorted(keys) == list(range(len(box)))


def test_fiber_examples():
    a2 = from_spec("A2")
    assert len(fiber(a2, (0, 0), SYM1)) == 7
    assert fiber(a2, (-1, 0), SYM1) == ()
    assert fiber(a2, (-1, -1), TR2) == (eta(a2, (-1, -1), TR2),)
    with pytest.raises(errors.NonGoodParamsError):
        fiber(from_spec("B2"), (0, 0), FiringParams.make("sym", 0, 1))


def test_fiber_checks_each_member_once(monkeypatch):
    import rootfire.firing as fi

    rs = from_spec("A3")
    real, visits = fi.stabilize, []

    def recording(rs_, v, params, limit=None):
        if limit is not None:  # a member check, not the label's stabilization
            visits.append(v)
        return real(rs_, v, params, limit)

    monkeypatch.setattr(fi, "stabilize", recording)
    fib = fiber(rs, (1, 1, 1), SYM1)
    assert sorted(visits) == list(fib)


@pytest.mark.parametrize("which", [0, -1])
def test_fiber_check_catches_a_member_sent_elsewhere(monkeypatch, which):
    # the sink itself, and a member that is not the sink
    import rootfire.firing as fi

    rs = from_spec("A3")
    label, params = (1, 1, 1), SYM1
    sink = eta(rs, label, params)
    members = sorted(fiber(rs, label, params), key=lambda v: v != sink)
    target, elsewhere = members[which], eta(rs, (0, 0, 0), params)
    assert (target == sink) == (which == 0)
    real = fi.stabilize

    def wrong(rs_, v, params_, limit=None):
        if v == target and limit is not None:
            return elsewhere
        return real(rs_, v, params_, limit)

    monkeypatch.setattr(fi, "stabilize", wrong)
    with pytest.raises(errors.InvariantViolationError, match="stabilizes elsewhere"):
        fiber(rs, label, params)


def test_fiber_check_catches_a_second_stable_member(monkeypatch):
    # a component doctored to hold the sink of label (0, 1, 0) as well has
    # two stable weights, so not every firing order need end at the label's
    # sink; that sink lies in the label's permutohedron, so only the
    # one-firing check can catch it
    import rootfire.firing as fi

    rs = from_spec("A3")
    label, params = (1, 1, 1), SYM1
    second = eta(rs, (0, 1, 0), params)
    assert is_sink(rs, second, params)
    assert perm_contains(rs, bounding_center(rs, label, params), second)
    real = fi.component

    def doctored(rs_, weight, params_):
        return tuple(sorted(real(rs_, weight, params_) + (second,)))

    monkeypatch.setattr(fi, "component", doctored)
    with pytest.raises(errors.InvariantViolationError) as exc:
        fiber(rs, label, params)
    assert str(exc.value).startswith(f"{second} is connected")


def test_fiber_check_catches_a_member_outside_its_permutohedron(monkeypatch):
    # a member the membership test rejects is reported before it is fired
    import rootfire.firing as fi

    rs = from_spec("A3")
    label, params = (1, 1, 1), SYM1
    outside = fiber(rs, label, params)[-1]
    real = fi.perm_contains
    monkeypatch.setattr(fi, "perm_contains", lambda rs_, c, v: v != outside and real(rs_, c, v))
    with pytest.raises(errors.InvariantViolationError) as exc:
        fiber(rs, label, params)
    assert str(exc.value) == (
        f"fiber of {label} escapes its bounding permutohedron at {outside}"
    )


def test_fiber_fires_each_member_once(monkeypatch):
    # one stabilization per member, and one firing per member other than
    # the sink: `component` stabilizes nothing
    from rootfire import kernel

    real, steps = kernel.stabilize, []

    def counting(*args):
        out = real(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(kernel, "stabilize", counting)
    fib = fiber(from_spec("A3"), (1, 1, 1), SYM1)
    assert len(steps) == len(fib)
    assert sum(steps) == len(fib) - 1


def test_stabilize_stops_at_the_limit():
    a2 = from_spec("A2")
    v = (-2, -1)
    sink, steps = stabilize_trace(a2, v, TR2)
    assert steps >= 2
    assert stabilize_trace(a2, v, TR2, limit=0) == (v, 0)
    assert stabilize_trace(a2, v, TR2, limit=1) == (neighbors(a2, v, TR2)[0][0], 1)
    for limit in (steps, steps + 1, 10**9):
        assert stabilize_trace(a2, v, TR2, limit=limit) == (sink, steps)
        assert stabilize(a2, v, TR2, limit=limit) == sink
    # a seeded run stops after `limit` firings of its own draw order: each
    # prefix is one firing past the previous one
    end, seeded_steps = stabilize_trace(a2, v, TR2, seed=1)
    walk = [stabilize_trace(a2, v, TR2, seed=1, limit=t) for t in range(seeded_steps + 2)]
    assert [t for _, t in walk] == list(range(seeded_steps + 1)) + [seeded_steps]
    for (u, _), (w, _) in zip(walk, walk[1:-1]):
        assert w in {x for x, _ in neighbors(a2, u, TR2)}
    assert walk[-2][0] == walk[-1][0] == end
    with pytest.raises(errors.PreconditionError, match="nonnegative"):
        stabilize(a2, v, TR2, limit=-1)
    with pytest.raises(errors.PreconditionError, match="nonnegative"):
        stabilize_trace(a2, v, TR2, seed=1, limit=-1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_least_budget_never_exceeds_the_step_budget(data):
    # a run cut within the least budget skips the max|p| scan; that is
    # sound only if no pairing vector gets a smaller budget
    rs = from_spec(data.draw(st.sampled_from(sorted(CLASSIFICATION))))
    k_short = data.draw(st.integers(0, 3))
    k_long = k_short if rs.simply_laced else data.draw(st.integers(0, 3))
    params = FiringParams.make(data.draw(st.sampled_from(["sym", "tr"])), k_short, k_long)
    m = len(rs.pos_roots)
    pair = data.draw(st.lists(st.integers(-60, 60), min_size=m, max_size=m))
    least = firing._least_budget(m, params)
    assert least == firing._step_budget([0] * m, params)
    assert least <= firing._step_budget(pair, params)


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


def test_confluence_seeds_stay_in_64_bits(monkeypatch):
    # every trial's seed must lie in [0, 2^64); a run whose seeds would
    # leave it is refused before anything fires
    from rootfire import kernel

    a2, top = from_spec("A2"), 2**64 - 1
    assert check_confluence_random(a2, (0, 0), SYM1, trials=2, seed=top - 1)
    calls = []
    monkeypatch.setattr(kernel, "stabilize", lambda *args: calls.append(args))
    for seed, trials in ((top, 2), (top - 1, 3), (-1, 2)):
        with pytest.raises(errors.PreconditionError) as exc:
            check_confluence_random(a2, (0, 0), SYM1, trials=trials, seed=seed)
        last = seed + trials - 1
        assert str(exc.value) == f"seeds must lie in [0, 2**64), got {seed}..{last}"
    assert calls == []


def _confluence_grid(rs):
    """The rows of ``verify confluence``: k <= 1, and k <= 2 at rank <= 2."""
    k_max = 2 if rs.rank <= 2 else 1
    rows = [FiringParams.make(kind, k) for k in range(k_max + 1) for kind in ("sym", "tr")]
    if not rs.simply_laced:
        rows += [FiringParams.make("sym", 0, kl) for kl in range(1, k_max + 1)]
    return [(params, coord_box(rs, 2 * params.k_max() + 2)) for params in rows]


@pytest.mark.parametrize("spec", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_every_order_reaches_the_sink_that_stabilize_reaches(spec):
    # the certificate against the first-fireable order, which it does not
    # fire: each weight of each row reaches one sink, and it is that one
    rs = from_spec(spec)
    for params, box in _confluence_grid(rs):
        for w, sinks in zip(box, reachable_sinks(rs, params, box)):
            assert sinks == (stabilize(rs, w, params),), (params, w)


def test_the_walk_holds_every_order_to_the_step_budget(monkeypatch):
    # a budget of 0 lets no weight fire: the certificate refuses the first
    # weight that can, as a seeded order does
    from rootfire import cli

    monkeypatch.setattr(firing, "_step_budget", lambda pair, params: 0)
    message = "stabilization exceeded its step budget of 0"
    with pytest.raises(errors.StepBudgetError, match=message):
        cli.main(["verify", "confluence", "A2", "--k", "0", "--trials", "2"])
    with pytest.raises(errors.StepBudgetError, match=message):
        stabilize_trace(from_spec("A2"), (0, 0), SYM1, seed=3)
    a2 = from_spec("A2")
    assert reachable_sinks(a2, SYM1, [(1, 1)]) == [((1, 1),)]


def test_a_successor_on_the_walk_is_a_cycle(monkeypatch):
    a2 = from_spec("A2")
    # a zero first root: (0, 0), where every root is fireable, fires to itself
    zero = (0,) * len(a2.pos_gram)
    monkeypatch.setattr(a2, "pos_root_weights", ((0, 0), *a2.pos_root_weights[1:]))
    monkeypatch.setattr(a2, "pos_gram", (zero, *a2.pos_gram[1:]))
    with pytest.raises(errors.InvariantViolationError, match=r"\(0, 0\) runs in a cycle"):
        reachable_sinks(a2, SYM1, [(0, 0)])


def _forward_sinks(rs, start, params):
    """(sorted sinks, size) of the forward closure of ``start``: a set of
    weights, each fired from its own coordinates by ``fireable_roots``."""
    seen, todo, sinks = {start}, [start], set()
    while todo:
        w = todo.pop()
        fire = fireable_roots(rs, w, params)
        if not fire:
            sinks.add(w)
        for j in fire:
            u = tuple(map(add, w, rs.pos_root_weights[j]))
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return tuple(sorted(sinks)), len(seen)


def _walk_rows(rs):
    """sym and tr at k <= 1, and on two root lengths the non-good sym (0, 1)."""
    rows = [FiringParams.make(kind, k) for k in (0, 1) for kind in ("sym", "tr")]
    return rows + ([] if rs.simply_laced else [FiringParams.make("sym", 0, 1)])


# starts far from 0 on both sides: max|start_i| sets the walk's key offset
_WALK_FAR = [*product(range(-41, -38), range(24, 27)), *product(range(39, 42), range(-41, -38))]


@pytest.mark.parametrize("spec, central_split", [("A2", 1), ("B2", 0), ("G2", 1)])
def test_the_walk_matches_a_forward_closure(spec, central_split):
    # the memoized walk on radix keys and incremental vectors against a
    # closure that keeps every weight and every sink in a set; only central
    # firing reaches several sinks (from 0 on A2 and G2), while the non-good
    # sym (0, 1) reaches one from each weight here, as on the boxes of
    # verify confluence
    rs = from_spec(spec)
    rows = [(params, coord_box(rs, 4) + _WALK_FAR) for params in _walk_rows(rs)]
    rows.append((FiringParams(kind="central"), coord_box(rs, 2)))
    if spec == "B2":
        # walks many steps from near 0: a key offset without its cap term
        # (max|start_i| + 2c) lets two weights share a key and gives wrong sinks
        rows += [(FiringParams.make(kind, 4), coord_box(rs, 1)) for kind in ("sym", "tr")]
    for params, starts in rows:
        found = reachable_sinks(rs, params, starts)
        assert found == [_forward_sinks(rs, w, params)[0] for w in starts], params
        split = central_split if params.kind == "central" else 0
        assert sum(len(sinks) > 1 for sinks in found) == split, params


def test_the_walk_holds_at_the_exact_cap():
    # scoped_cap(n) gives the least key offset that holds a closure of n
    # weights; G2's root steps reach 3 in weight coordinates
    g2 = from_spec("G2")
    sizes = set()
    for params in _walk_rows(g2):
        for start in [(0, 0), (-3, 2), *_WALK_FAR]:
            sinks, size = _forward_sinks(g2, start, params)
            sizes.add(size)
            if size == 1:  # a cap below 1 is refused on its own
                continue
            with scoped_cap(size):
                assert reachable_sinks(g2, params, [start]) == [sinks], (params, start)
            with scoped_cap(size - 1), pytest.raises(errors.ResourceCapError) as exc:
                reachable_sinks(g2, params, [start])
            what = f"{params.short} firing from {start}"
            assert str(exc.value) == f"{what} exceeds the cap of {size - 1} points"
    assert max(sizes) > 10


def test_a_doctored_bound_fails_the_certificate(monkeypatch, capsys):
    # one more fireable pairing on the first root of A2 makes sym k=1 reach
    # two sinks from some weights, which the good row must report
    from rootfire import cli

    real = firing._bounds

    def wider(rs, params):
        lo, hi = real(rs, params)
        return lo, (hi[0] + 1, *hi[1:])

    monkeypatch.setattr(firing, "_bounds", wider)
    assert cli.main(["verify", "confluence", "A2", "--k", "1", "--trials", "10"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert (
        "FAIL - A2 sym k=(1,1) box 4: 81 weights, 2 x 10 orders fired, "
        "2 disagreements, 2 weights reach two or more sinks"
    ) in lines, lines


def test_confluence_fires_orders_only_where_two_sinks_are_reachable(monkeypatch, capsys):
    from rootfire import cli

    real_sinks, real_check = firing.reachable_sinks, firing.check_confluence_random
    checked = []

    def one_split(rs, params, starts):
        found = real_sinks(rs, params, starts)
        return [sinks + ((9, 9),) if w == (0, 0) else sinks for w, sinks in zip(starts, found)]

    def check(rs, weight, *args):
        checked.append(weight)
        return real_check(rs, weight, *args)

    monkeypatch.setattr(firing, "check_confluence_random", check)
    assert cli.main(["verify", "confluence", "A2", "--k", "0", "--trials", "3"]) == 0
    assert checked == []
    assert capsys.readouterr().out.splitlines()[:2] == [
        "ok - A2 sym k=(0,0) box 2: 25 weights, 0 x 3 orders fired, 0 disagreements",
        "ok - A2 tr k=(0,0) box 2: 25 weights, 0 x 3 orders fired, 0 disagreements",
    ]
    monkeypatch.setattr(firing, "reachable_sinks", one_split)
    assert cli.main(["verify", "confluence", "A2", "--k", "0", "--trials", "3"]) == 2
    assert checked == [(0, 0), (0, 0)]
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "FAIL - A2 sym k=(0,0) box 2: 25 weights, 1 x 3 orders fired, "
        "0 disagreements, 1 weights reach two or more sinks",
        "FAIL - A2 tr k=(0,0) box 2: 25 weights, 1 x 3 orders fired, "
        "0 disagreements, 1 weights reach two or more sinks",
        "suite confluence on A2: FAIL",
    ]


def test_central_sinks():
    a1 = from_spec("A1")
    assert reachable_central_sinks(a1, (1,)) == ((1,),)
    assert reachable_central_sinks(a1, (0,)) == ((2,),)
    a2 = from_spec("A2")
    sinks = reachable_central_sinks(a2, (0, 0))
    assert len(sinks) > 1 and list(sinks) == sorted(sinks)
    assert all(is_sink(a2, v, FiringParams(kind="central")) for v in sinks)
    with pytest.raises(errors.ResourceCapError) as exc, scoped_cap(2):
        reachable_central_sinks(a2, (0, 0))
    assert str(exc.value) == "central firing from (0, 0) exceeds the cap of 2 points"


# sinks of central firing from 0; in A_{n-1} with n even there is exactly
# one (Hopkins, McConville and Propp, Sorting via chip-firing, 2017)
CENTRAL_SINKS_FROM_ZERO = {
    "A1": 1, "A2": 3, "A3": 1, "A4": 12, "A5": 1,
    "B2": 1, "B3": 1, "C3": 3, "D4": 11, "G2": 2,
}


@pytest.mark.parametrize("spec", sorted(CENTRAL_SINKS_FROM_ZERO))
def test_central_sink_counts_from_zero(spec):
    rs = from_spec(spec)
    sinks = reachable_central_sinks(rs, rs.zero())
    assert len(sinks) == CENTRAL_SINKS_FROM_ZERO[spec]
    assert all(is_sink(rs, v, FiringParams(kind="central")) for v in sinks)


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
    # only a good fiber is held to its permutohedron, and a non-good
    # component may legitimately be smaller than it
    b2 = from_spec("B2")
    bad = FiringParams.make("sym", 0, 1)
    comp = component(b2, rho_of_k(b2, bad), bad)
    assert (0, 0) not in comp
    assert len(comp) == 4


def _parabolic_orbit(rs, weight, nodes):
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
    for spec in ("A2", "B2"):
        rs = from_spec(spec)
        params = FiringParams.make("sym", 1, 1)
        for lam in product(range(-2, 3), repeat=rs.rank):
            if not labels_a_sink(rs, lam, params):
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


def test_build_graph_refuses_a_region_as_it_passes_the_cap():
    # the region is read only until it passes the cap, never drained
    a2 = from_spec("A2")
    read = []

    def region():
        for i in range(10000):
            read.append(i)
            yield (i, 0)

    with scoped_cap(10), pytest.raises(errors.ResourceCapError) as exc:
        build_graph(a2, region(), SYM0)
    assert str(exc.value) == "region exceeds the cap of 10 points"
    assert len(read) == 11
    # repeated weights are one vertex and count once
    with scoped_cap(1):
        assert build_graph(a2, [(0, 0)] * 5, SYM0).vertices == ((0, 0),)


def test_graph_determinism():
    a2 = from_spec("A2")
    g1 = build_graph(a2, coord_box(a2, 3), TR1)
    g2 = build_graph(a2, coord_box(a2, 3), TR1)
    assert g1.to_json() == g2.to_json()
    assert g1.to_dot(a2) == g2.to_dot(a2)


def _undirected(rs, v, params):
    """The undirected neighbours of ``v``: its out-neighbours, and each
    ``v - alpha`` whose out-neighbours reach ``v``."""
    out = {w for w, _ in neighbors(rs, v, params)}
    for step in rs.pos_root_weights:
        u = tuple(map(sub, v, step))
        if any(w == v for w, _ in neighbors(rs, u, params)):
            out.add(u)
    return out


def _edge_oracle(rs, params, maps, bound):
    """The (map, weight) pairs of ``coord_box(rs, bound)`` where a map g does
    not carry the undirected neighbours of v onto those of g(v)."""
    around = cache(lambda v: _undirected(rs, v, params))
    return [
        (name, v)
        for name, g in maps
        for v in coord_box(rs, bound)
        if {g(w) for w in around(v)} != around(g(v))
    ]


def _weyl_maps(rs):
    return [(f"s{i}", partial(reflect_simple, rs, i)) for i in range(1, rs.rank + 1)]


def _quotient_maps(rs):
    return [(f"C[{i}]", partial(quotient_affine_image, rs, e)) for i, e in enumerate(subgroup_C(rs))]


# the largest k of each system's grid; D4's C is Z/2 x Z/2, the one C that is not cyclic
SYMMETRY_K_MAX = {"A2": 2, "B2": 2, "G2": 2, "A3": 1, "B3": 1, "D4": 1}


@pytest.mark.parametrize("spec", sorted(SYMMETRY_K_MAX))
def test_graph_symmetries(spec):
    # the certificate on the root data against a local edge oracle on a box:
    # W's generators for symmetric firing, C's affine maps for truncated
    rs = from_spec(spec)
    for k in range(SYMMETRY_K_MAX[spec] + 1):
        for kind, maps in (("sym", _weyl_maps(rs)), ("tr", _quotient_maps(rs))):
            params = FiringParams.make(kind, k)
            assert graph_symmetry_breaks(rs, params) == (), params
            assert _edge_oracle(rs, params, maps, k + 2) == [], params


def test_symmetry_check_fails_on_maps_that_are_not_symmetries(monkeypatch):
    real = firing.subgroup_C
    with pytest.raises(errors.PreconditionError, match="symmetric/truncated"):
        graph_symmetry_breaks(from_spec("A2"), FiringParams(kind="central"))
    # (map, root) pairs broken under truncated k = 1: by the simple reflections,
    # which do not fix rho/h, and by each w of C without its omega
    for spec, by_w, by_c in [("A2", 4, 8), ("D4", 8, 36)]:
        rs = from_spec(spec)
        simple = tuple((rs.zero(), (i,)) for i in range(1, rs.rank + 1))
        monkeypatch.setattr(firing, "subgroup_C", lambda rs: simple)
        assert len(graph_symmetry_breaks(rs, TR1)) == by_w, spec
        assert _edge_oracle(rs, TR1, _weyl_maps(rs), 3), spec
        # truncated k = 0 has no edge, so any map carries it: empty intervals are equal
        assert graph_symmetry_breaks(rs, FiringParams.make("tr", 0)) == (), spec
        linear = tuple((rs.zero(), w) for _, w in real(rs))
        monkeypatch.setattr(firing, "subgroup_C", lambda rs: linear)
        assert len(graph_symmetry_breaks(rs, TR1)) == by_c, spec
        maps = [(f"w{i}", partial(apply_word, rs, w)) for i, (_, w) in enumerate(linear)]
        assert _edge_oracle(rs, TR1, maps, 3), spec


@pytest.mark.parametrize("spec", ["A2", "A3", "D4", "E6"])
def test_quotient_affine_image_matches_rational_formula(spec):
    rs = from_spec(spec)
    shift = Fraction(1, rs.coxeter_number)
    for omega, word in subgroup_C(rs):
        for v in product(range(-1, 2), repeat=rs.rank):
            # v -> w(v - rho/h) + rho/h, computed in exact rationals
            moved = apply_word(rs, word, tuple(Fraction(x) - shift for x in v))
            assert quotient_affine_image(rs, (omega, word), v) == tuple(x + shift for x in moved)


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
        kernel.stabilize(kernel.pairings(rs._coroot_chain, (0, 0)), rs.pos_gram, lo, hi, 1)
