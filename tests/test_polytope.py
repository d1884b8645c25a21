"""Discrete permutohedra, traverse lengths, and funny weights."""

import tracemalloc
from itertools import product
from operator import add, mul

import pytest

from rootfire import errors, polytope
from rootfire.polytope import (
    DiscretePermutohedron,
    enumerate_perm,
    is_funny,
    perm_contains,
    scoped_cap,
    traverse_bruteforce,
    traverse_formula,
)
from rootfire.rootsys import from_spec, root_order_leq, weyl_orbit
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
                assert len(enumerate_perm(rs, a)) <= len(enumerate_perm(rs, b))


def test_enumerate_perm_cap():
    rs = from_spec("A2")
    with pytest.raises(errors.ResourceCapError), scoped_cap(10):
        enumerate_perm(rs, (9, 9))
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
    assert traverse_formula(a2, (1, 1), alpha1) == 1
    assert traverse_bruteforce(a2, (0, 0))[at1] == 0
    b2 = from_spec("B2")
    long_simple = (1, 0)
    short_simple = (0, 1)
    # funny deduction
    assert traverse_bruteforce(b2, (1, 0))[b2.root_index(long_simple)] == 0
    assert traverse_formula(b2, (1, 0), long_simple) == 0
    assert traverse_formula(b2, (1, 0), short_simple) == 0


def test_traverse_bruteforce_rejects_a_negative_string_top(monkeypatch):
    # a doctored point set that is not s_alpha-symmetric: along alpha_1 of
    # A2 (step (2, -1), coroot pairing = first coordinate) one string runs
    # (-4, 2) -> (-2, 1), whose top pairs to -2, and (1, 0) is a top
    # pairing to 1, so the scan must report the -2 and not return a length
    a2 = from_spec("A2")
    points = ((-4, 2), (-2, 1), (1, 0))
    fake = DiscretePermutohedron(center=(0, 0), points=points)
    monkeypatch.setattr(polytope, "enumerate_perm", lambda rs, lam: fake)
    with pytest.raises(
        errors.InvariantViolationError,
        match="string boundary pairing cannot be negative",
    ):
        traverse_bruteforce(a2, (0, 0))


def test_traverse_negative_root_folds_over():
    b2 = from_spec("B2")
    assert traverse_formula(b2, (2, 1), (-1, 0)) == traverse_formula(b2, (2, 1), (1, 0))


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


@pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
def test_traverse_formula_matches_bruteforce(spec):
    rs = from_spec(spec)
    for lam in product(range(4), repeat=rs.rank):
        for root, length in zip(rs.pos_roots, traverse_bruteforce(rs, lam)):
            assert length == traverse_formula(rs, lam, root), (spec, lam, root)


def _tuple_scan(rs, points):
    """Traverse lengths by a tuple-set scan of ``points``, one root at a time."""
    members = set(points)
    return tuple(
        min(
            sum(map(mul, coroot, mu))
            for mu in points
            if tuple(map(add, mu, step)) not in members
        )
        for step, coroot in zip(rs.pos_root_weights, rs.pos_coroots)
    )


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_traverse_keys_match_the_tuple_scan(spec):
    rs = from_spec(spec)
    for lam in product(range(4), repeat=rs.rank):
        want = _tuple_scan(rs, enumerate_perm(rs, lam).points)
        assert traverse_bruteforce(rs, lam) == want, (spec, lam)


def test_traverse_keys_leave_room_for_the_root_steps(monkeypatch):
    # G2's first positive root steps by (-3, 2), more than any coordinate
    # of these doctored points; a radix of 2 * 2 + 1 = 5 without the
    # root-step padding would give (0, 0) + (-3, 2) the key -3 + 2 * 5 = 7,
    # which is the key of the point (2, 1), and miss the top (0, 0)
    g2 = from_spec("G2")
    assert g2.pos_root_weights[0] == (-3, 2)
    points = ((0, 0), (2, 1))
    fake = DiscretePermutohedron(center=(0, 0), points=points)
    monkeypatch.setattr(polytope, "enumerate_perm", lambda rs, lam: fake)
    assert _tuple_scan(g2, points) == (0,) * 6
    assert traverse_bruteforce(g2, (0, 0)) == (0,) * 6
