"""Discrete permutohedra, traverse lengths, and funny weights."""

import pickle
import tracemalloc
from itertools import product
from operator import add, mul

import pytest

from rootfire import errors, polytope
from rootfire.firing import FiringParams, fiber
from rootfire.polytope import (
    enumerate_perm,
    is_funny,
    perm_contains,
    scoped_cap,
    traverse_bruteforce,
    traverse_formula,
)
from rootfire.rootsys import RootSystem, dominant, from_spec, root_order_leq, weyl_orbit
from test_rootsys import CLASSIFICATION


def test_perm_contains_examples():
    a2 = from_spec("A2")
    assert perm_contains(a2, (1, 1), (0, 0))
    assert perm_contains(a2, (1, 1), (1, 1))
    assert not perm_contains(a2, (1, 0), (0, 1))  # different lattice coset
    with pytest.raises(errors.PreconditionError):
        perm_contains(a2, (-1, 0), (0, 0))


def test_enumerate_perm_sizes():
    a2 = from_spec("A2")
    assert len(enumerate_perm(a2, (1, 1)).points) == 7
    assert enumerate_perm(a2, (0, 0)).points == ((0, 0),)
    assert len(enumerate_perm(from_spec("B2"), (0, 1)).points) == 4


def test_enumerate_perm_agrees_with_membership():
    for spec, lam, bound in [("B2", (2, 1), 6), ("A3", (1, 0, 1), 3), ("G2", (1, 1), 7)]:
        rs = from_spec(spec)
        perm = enumerate_perm(rs, lam)
        box = list(product(range(-bound, bound + 1), repeat=rs.rank))
        assert set(perm.points) <= set(box)
        members = {w for w in box if perm_contains(rs, lam, w)}
        assert members == set(perm.points)


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_perm_contains_memo_matches_the_root_order_test(spec):
    # every center in [0, 2]^rank against a coordinate box holding points
    # of every lattice coset (four on A3), twice: the second pass must be
    # served from the memo alone
    rs = from_spec(spec)
    span = 3 if rs.rank == 2 else 2
    box = list(product(range(-span, span + 1), repeat=rs.rank))
    f = rs.index_of_connection
    assert len({tuple(x % f for x in rs.root_coords(mu)) for mu in box}) == f
    want = {
        (lam, mu): root_order_leq(rs, dominant(rs, mu), lam)
        for lam in product(range(3), repeat=rs.rank)
        for mu in box
    }
    assert True in want.values() and False in want.values()
    polytope._below.cache_clear()
    assert {key: perm_contains(rs, *key) for key in want} == want
    first = polytope._below.cache_info()
    assert {key: perm_contains(rs, *key) for key in want} == want
    second = polytope._below.cache_info()
    assert second.misses == first.misses and second.hits == first.hits + len(want)


def test_perm_contains_refuses_a_center_that_is_not_dominant_on_every_call():
    # the memo checks the center; a refusal is never cached
    rs = from_spec("A2")
    mu = (-1, 1)
    polytope._below.cache_clear()
    for _ in range(2):
        with pytest.raises(errors.PreconditionError, match="is not dominant"):
            perm_contains(rs, (2, -1), mu)
    assert polytope._below.cache_info().currsize == 0
    # a dominant center warms the memo for dom(mu) = (1, 0)
    assert perm_contains(rs, (1, 0), mu)
    assert perm_contains(rs, (1, 0), (1, 0))
    assert polytope._below.cache_info().currsize == 1
    for _ in range(2):
        with pytest.raises(errors.PreconditionError, match="is not dominant"):
            perm_contains(rs, (2, -1), mu)
        with pytest.raises(errors.PreconditionError, match="is not dominant"):
            perm_contains(rs, [2, -1], (1, 0))
    assert polytope._below.cache_info().currsize == 1


def test_the_membership_memo_is_bounded():
    # more distinct dominant representatives than the memo holds
    rs = from_spec("A2")
    size = polytope._below.cache_info().maxsize
    assert isinstance(size, int) and size > 0
    side = int(size**0.5) + 2
    polytope._below.cache_clear()
    for mu in product(range(side), repeat=2):
        perm_contains(rs, (side, side), mu)
    assert polytope._below.cache_info().currsize == size < side * side


def test_root_coords_runs_once_per_dominant_representative_of_a_fiber(monkeypatch):
    rs = from_spec("A3")
    seen = []
    root_coords = RootSystem.root_coords

    def counted(self, weight):
        seen.append(tuple(weight))
        return root_coords(self, weight)

    monkeypatch.setattr(RootSystem, "root_coords", counted)
    polytope._below.cache_clear()
    members = fiber(rs, (0, 0, 0), FiringParams.make("sym", 2))
    assert len(seen) == len({dominant(rs, v) for v in members}) < len(members)


def test_enumerate_perm_is_weyl_stable():
    rs = from_spec("G2")
    perm = enumerate_perm(rs, (1, 1))
    pts = set(perm.points)
    for v in perm.points:
        assert set(weyl_orbit(rs, v)) <= pts


def test_perm_size_monotone_in_root_order():
    rs = from_spec("A2")
    doms = [d for d in product(range(3), repeat=2)]
    for a in doms:
        for b in doms:
            if root_order_leq(rs, a, b):
                assert len(enumerate_perm(rs, a).points) <= len(enumerate_perm(rs, b).points)


def test_enumerate_perm_cap():
    rs = from_spec("A2")
    with pytest.raises(errors.ResourceCapError) as exc, scoped_cap(10):
        enumerate_perm(rs, (9, 9))
    assert str(exc.value) == "permutohedron of (9, 9) exceeds the cap of 10 points"
    for cap in (0, -5):
        with pytest.raises(errors.PreconditionError), scoped_cap(cap):
            enumerate_perm(rs, (1, 1))


def test_enumerate_perm_cap_holds_before_the_orbit_is_built():
    # the orbit of rho on E6 has 51840 points; a cap of 100 must refuse it
    # after about a hundred of them, not after building the whole orbit
    rs = from_spec("E6")
    tracemalloc.start()
    try:
        with pytest.raises(errors.ResourceCapError), scoped_cap(100):
            enumerate_perm(rs, (1,) * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.fixture
def fresh_orbits(monkeypatch):
    """An empty orbit memo and result cache, the process's own restored after."""
    monkeypatch.setattr(polytope, "_ORBITS", {})
    monkeypatch.setattr(polytope, "_orbit_points", 0)
    polytope._enumerate_perm_cached.cache_clear()
    yield
    polytope._enumerate_perm_cached.cache_clear()


def test_enumerate_perm_cap_is_the_same_from_the_orbit_memo(fresh_orbits, monkeypatch):
    rs = from_spec("A2")
    full = enumerate_perm(rs, (9, 9))
    size = len(full.points)
    held = dict(polytope._ORBITS)
    assert sum(map(len, held.values())) == size == polytope._orbit_points

    def no_walk(rs, nu):
        raise AssertionError(f"walked the orbit of {nu}")

    monkeypatch.setattr(polytope, "_iter_orbit", no_walk)
    for cap in (1, 6, 10, 50, size - 1):
        with pytest.raises(errors.ResourceCapError) as exc, scoped_cap(cap):
            enumerate_perm(rs, (9, 9))
        assert str(exc.value) == f"permutohedron of (9, 9) exceeds the cap of {cap} points"
    assert polytope._ORBITS == held
    with scoped_cap(size):
        assert enumerate_perm(rs, (9, 9)) == full


def test_a_walk_cut_by_the_cap_is_not_stored(fresh_orbits):
    e6 = from_spec("E6")
    with pytest.raises(errors.ResourceCapError), scoped_cap(100):
        enumerate_perm(e6, (1,) * 6)
    assert polytope._ORBITS == {}
    a2 = from_spec("A2")
    with scoped_cap(6):
        enumerate_perm(a2, (0, 0))
        # (1, 2)'s own orbit of 6 does not fit in the memo beside (0, 0);
        # the orbit of (0, 1) below it is cut after one point, which would
        # fit, and is not kept
        with pytest.raises(errors.ResourceCapError):
            enumerate_perm(a2, (1, 2))
    assert list(polytope._ORBITS) == [(a2, (0, 0))]
    # (9, 9)'s own orbit of 6 fits under a cap of 10; the next one is cut
    with pytest.raises(errors.ResourceCapError), scoped_cap(10):
        enumerate_perm(a2, (9, 9))
    assert list(polytope._ORBITS) == [(a2, (0, 0)), (a2, (9, 9))]
    for (rs, nu), orbit in polytope._ORBITS.items():
        assert tuple(sorted(orbit)) == weyl_orbit(rs, nu)


def test_the_orbit_memo_holds_at_most_the_cap(fresh_orbits):
    rs, cap = from_spec("B2"), 200
    walked = set()
    with scoped_cap(cap):
        for lam in product(range(6), repeat=2):
            try:
                enumerate_perm(rs, lam)
            except errors.ResourceCapError:
                pass
            walked.update(polytope._dominant_slice(rs, lam))
            held = sum(map(len, polytope._ORBITS.values()))
            assert held == polytope._orbit_points <= cap
    # the memo filled up to within one orbit (B2's have at most 8 points),
    # so later orbits were walked live and not kept
    assert len(polytope._ORBITS) < len(walked)
    assert cap - 8 < polytope._orbit_points


@pytest.mark.parametrize("spec,cmax", [("A2", 4), ("B2", 4), ("G2", 3), ("A3", 2), ("B3", 2)])
def test_enumerate_perm_is_the_same_with_a_cold_or_warm_memo(fresh_orbits, spec, cmax):
    # the seen-set rule: the sorted union of the orbits of the box slice
    rs = from_spec(spec)
    centers = list(product(range(cmax + 1), repeat=rs.rank))
    want = [
        tuple(sorted(p for nu in _box_slice(rs, lam) for p in weyl_orbit(rs, nu)))
        for lam in centers
    ]
    cold = [enumerate_perm(rs, lam) for lam in centers]
    polytope._enumerate_perm_cached.cache_clear()
    warm = [enumerate_perm(rs, lam) for lam in centers]
    assert polytope._orbit_points > 0
    for lam, pts, a, b in zip(centers, want, cold, warm):
        assert a.center == b.center == lam
        assert pickle.dumps(a.points) == pickle.dumps(b.points) == pickle.dumps(pts)


# point tuples recorded from the seen-set orbit enumeration
PINNED_POINTS = {
    ("B2", (1, 1)): (
        (-2, 1), (-2, 3), (-1, -1), (-1, 1), (-1, 3), (0, -1),
        (0, 1), (1, -3), (1, -1), (1, 1), (2, -3), (2, -1),
    ),
    ("G2", (0, 1)): (
        (-3, 1), (-3, 2), (-2, 1), (-1, 0), (-1, 1), (0, -1), (0, 0),
        (0, 1), (1, -1), (1, 0), (2, -1), (3, -2), (3, -1),
    ),
    ("A3", (1, 1, 0)): (
        (-2, 1, 1), (-2, 2, -1), (-1, -1, 2), (-1, 0, 0), (-1, 1, -2),
        (-1, 2, 0), (0, -2, 1), (0, -1, -1), (0, 0, 1), (0, 1, -1),
        (1, -2, 2), (1, -1, 0), (1, 0, -2), (1, 1, 0), (2, -1, 1), (2, 0, -1),
    ),
}


@pytest.mark.parametrize("spec,lam", sorted(PINNED_POINTS))
def test_enumerate_perm_points_are_pinned(spec, lam):
    assert enumerate_perm(from_spec(spec), lam).points == PINNED_POINTS[spec, lam]


def _box_slice(rs, lam):
    """The dominant slice by scanning the root-coordinate box of ``lam``.

    Every dominant weight below ``lam`` is ``lam`` minus a nonnegative
    integer combination of simple roots whose coefficients are at most
    ``lam``'s root coordinates.
    """
    f = rs.index_of_connection
    columns = tuple(zip(*rs.cartan))
    out = set()
    for a in product(*(range(b // f + 1) for b in rs.root_coords(lam))):
        nu = tuple(c - sum(map(mul, a, col)) for c, col in zip(lam, columns))
        if min(nu) >= 0:
            out.add(nu)
    return out


@pytest.mark.parametrize(
    "spec", [s for s in sorted(CLASSIFICATION) if from_spec(s).rank <= 4]
)
def test_dominant_slice_matches_the_box_scan(spec):
    rs = from_spec(spec)
    cmax = 3 if rs.rank <= 3 else 1
    for lam in product(range(cmax + 1), repeat=rs.rank):
        found = list(polytope._dominant_slice(rs, lam))
        assert len(found) == len(set(found)), (spec, lam)
        assert set(found) == _box_slice(rs, lam), (spec, lam)


def test_point_set_export():
    rs = from_spec("A2")
    perm = enumerate_perm(rs, (1, 1))
    assert perm.center == (1, 1)
    assert len(perm.points) == 7
    assert list(perm.points) == sorted(perm.points)


def test_traverse_examples():
    a2 = from_spec("A2")
    alpha1 = (1, 0)
    at1 = a2.root_index(alpha1)
    assert traverse_bruteforce(a2, (1, 1))[at1] == 1
    assert traverse_formula(a2, (1, 1))[at1] == 1
    assert traverse_bruteforce(a2, (0, 0))[at1] == 0
    b2 = from_spec("B2")
    long_simple = b2.root_index((1, 0))
    short_simple = b2.root_index((0, 1))
    # funny deduction
    assert traverse_bruteforce(b2, (1, 0))[long_simple] == 0
    assert traverse_formula(b2, (1, 0))[long_simple] == 0
    assert traverse_formula(b2, (1, 0))[short_simple] == 0


def test_traverse_bruteforce_rejects_a_negative_string_top(monkeypatch):
    # a doctored point set that is not Weyl-stable: A2's permutohedron of
    # (1, 1) without (-1, 2) = (1, 1) - alpha_1 (step (2, -1), coroot
    # pairing = first coordinate), so the slice point (1, 1) is a top
    # along -alpha_1 pairing to -1, and the search must report the -1
    # and not return a length
    a2 = from_spec("A2")
    points = tuple(p for p in enumerate_perm(a2, (1, 1)).points if p != (-1, 2))
    fake = (tuple(polytope._dominant_slice(a2, (1, 1))), points)
    monkeypatch.setattr(polytope, "_enumerate_perm_cached", lambda rs, lam, cap: fake)
    with pytest.raises(
        errors.InvariantViolationError,
        match="string boundary pairing cannot be negative",
    ):
        traverse_bruteforce(a2, (1, 1))


def test_funny_weights():
    assert not is_funny(from_spec("A2"), (1, 0))
    assert not is_funny(from_spec("A3"), (3, 0, 1))
    b2 = from_spec("B2")
    assert is_funny(b2, (1, 0))
    assert not is_funny(b2, (0, 1))
    assert not is_funny(b2, (1, 1))
    c3 = from_spec("C3")
    assert is_funny(c3, (0, 0, 1))  # zero next to the long end
    assert is_funny(c3, (2, 0, 1))
    assert not is_funny(c3, (0, 1, 1))
    b3 = from_spec("B3")
    assert is_funny(b3, (1, 1, 0))
    assert not is_funny(b3, (0, 1, 0))  # first long coordinate below the pair's
    g2 = from_spec("G2")
    assert is_funny(g2, (0, 1)) and not is_funny(g2, (1, 1))
    f4 = from_spec("F4")  # the long-short edge joins nodes 2 and 3
    assert is_funny(f4, (1, 1, 0, 1))
    assert not is_funny(f4, (0, 1, 0, 0)) and not is_funny(f4, (1, 0, 1, 0))


# largest center coordinate per system: 640 centers in all, funny ones
# among them on the two-length types
ORACLE_CMAX = {
    "A2": 5, "B2": 5, "G2": 5, "A3": 3, "B3": 3, "C3": 3,
    "A4": 2, "B4": 2, "C4": 2, "D4": 2, "F4": 1,
}


# F4's long-short edge is in the middle of its diagram, B's and C's at an end
@pytest.mark.parametrize("spec", list(ORACLE_CMAX))
def test_traverse_formula_matches_bruteforce(spec):
    rs = from_spec(spec)
    for lam in product(range(ORACLE_CMAX[spec] + 1), repeat=rs.rank):
        assert traverse_bruteforce(rs, lam) == traverse_formula(rs, lam), (spec, lam)


def _tuple_scan(rs, points):
    """Traverse lengths by a full scan of ``points``, one root at a time.

    Every point is tested as a string top along every positive root, so
    the oracle does not rest on the Weyl symmetry that the slice search
    of ``traverse_bruteforce`` uses.
    """
    members = set(points)
    return tuple(
        min(
            sum(map(mul, coroot, mu))
            for mu in points
            if tuple(map(add, mu, step)) not in members
        )
        for step, coroot in zip(rs.pos_root_weights, rs.pos_coroots)
    )


@pytest.mark.parametrize("spec", list(ORACLE_CMAX))
def test_a_walk_cached_by_the_search_serves_sorted_points(fresh_orbits, spec):
    # ``traverse_bruteforce`` leaves its walk-order slice and points in
    # the LRU; ``enumerate_perm`` served from there must still sort
    rs = from_spec(spec)
    cached = polytope._enumerate_perm_cached
    for lam in product(range(ORACLE_CMAX[spec] + 1), repeat=rs.rank):
        cached.cache_clear()
        cold = enumerate_perm(rs, lam)
        cached.cache_clear()
        traverse_bruteforce(rs, lam)
        hits = cached.cache_info().hits
        warm = enumerate_perm(rs, lam)
        assert cached.cache_info().hits == hits + 1
        assert warm == cold and list(warm.points) == sorted(warm.points), (spec, lam)
        dominants, _ = cached(rs, lam, polytope.point_cap())
        assert sorted(dominants) == [p for p in warm.points if min(p) >= 0], (spec, lam)


def test_traverse_bruteforce_refuses_like_enumerate_perm(fresh_orbits):
    a3 = from_spec("A3")
    with scoped_cap(27):
        with pytest.raises(errors.ResourceCapError) as want:
            enumerate_perm(a3, (0, 1, 2))
        with pytest.raises(errors.ResourceCapError) as got:
            traverse_bruteforce(a3, (0, 1, 2))
    assert str(got.value) == str(want.value)
    assert str(got.value) == "permutohedron of (0, 1, 2) exceeds the cap of 27 points"
    traverse_bruteforce(a3, (1, 0, 1))
    size = polytope._enumerate_perm_cached.cache_info().currsize
    assert size > 0
    with pytest.raises(errors.PreconditionError, match="is not dominant"):
        traverse_bruteforce(a3, (1, -1, 2))
    assert polytope._enumerate_perm_cached.cache_info().currsize == size


# the slice search of ``traverse_bruteforce`` against the full scan
@pytest.mark.parametrize("spec", list(ORACLE_CMAX))
def test_traverse_slice_search_matches_the_tuple_scan(spec):
    rs = from_spec(spec)
    for lam in product(range(ORACLE_CMAX[spec] + 1), repeat=rs.rank):
        want = _tuple_scan(rs, enumerate_perm(rs, lam).points)
        assert traverse_bruteforce(rs, lam) == want, (spec, lam)


def test_traverse_bruteforce_tops_every_root_step_off_the_set(monkeypatch):
    # a doctored set of the origin and (2, 1), which is no root step from
    # it: the slice of (0, 0) is the origin alone, so each ±β from it
    # (G2's first positive root steps by (-3, 2), past every coordinate
    # of the set) leaves the set, is a top pairing to 0, and every length
    # is 0; a point of the set off the origin's root steps hides no top
    g2 = from_spec("G2")
    assert g2.pos_root_weights[0] == (-3, 2)
    points = ((0, 0), (2, 1))
    fake = (((0, 0),), points)
    monkeypatch.setattr(polytope, "_enumerate_perm_cached", lambda rs, lam, cap: fake)
    assert _tuple_scan(g2, points) == (0,) * 6
    assert traverse_bruteforce(g2, (0, 0)) == (0,) * 6
