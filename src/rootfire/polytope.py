"""Discrete permutohedra: membership, enumeration, and traverse lengths."""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from itertools import islice
from operator import add, sub

from . import kernel
from .errors import (
    InvariantViolationError,
    PreconditionError,
    ResourceCapError,
)
from .rootsys import (
    RootSystem,
    Weight,
    _iter_orbit,
    dominant,
    require_dominant,
    root_order_leq,
)

DEFAULT_MAX_POINTS = 10**6

_SCOPED_CAP: ContextVar[int | None] = ContextVar("rootfire_point_cap", default=None)


def _checked_cap(cap: int) -> int:
    if cap < 1:
        raise PreconditionError(f"the point cap must be at least 1, got {cap}")
    return cap


def point_cap() -> int:
    """Enumeration cap, taken from the first of these that is set:

    1. the cap of the innermost enclosing ``scoped_cap`` in this context;
    2. the ``ROOTFIRE_MAX_POINTS`` environment variable;
    3. ``DEFAULT_MAX_POINTS``.

    A cap below 1 is rejected, wherever it comes from.
    """
    scoped = _SCOPED_CAP.get()
    if scoped is not None:
        return scoped
    env = os.environ.get("ROOTFIRE_MAX_POINTS")
    if not env:
        return DEFAULT_MAX_POINTS
    try:
        cap = int(env)
    except ValueError:
        raise PreconditionError(
            f"ROOTFIRE_MAX_POINTS must be an integer, got {env!r}"
        ) from None
    return _checked_cap(cap)


def require_within_cap(size: int, what: str) -> None:
    """Refuse ``what``, of ``size`` points, when it passes the point cap."""
    cap = point_cap()
    if size > cap:
        raise ResourceCapError(f"{what} exceeds the cap of {cap} points")


@contextmanager
def scoped_cap(cap: int | None):
    """Hold a point cap for the code run inside this block.

    The cap lives in a context variable, so it holds in the current
    context only: a thread started inside the block does not see it, and
    nothing is written to the environment.  ``None`` keeps the cap that
    applies already.  The cap is resolved and checked on entry, so a bad
    cap fails before the block runs.
    """
    token = _SCOPED_CAP.set(point_cap() if cap is None else _checked_cap(cap))
    try:
        yield
    finally:
        _SCOPED_CAP.reset(token)


class DiscretePermutohedron(namedtuple("DiscretePermutohedron", "center points")):
    """Lattice points of a Weyl-orbit hull within the center's coset.

    ``points`` is sorted, and built afresh by each ``enumerate_perm``
    call from the walk-order points that its LRU holds.  Membership is
    the root-order test ``perm_contains(rs, center, mu)``, which needs no
    set of the points.
    """

    __slots__ = ()


# the root-order half of ``perm_contains``: the fits on A3, B3 and A4 of
# the benchmark's ``fit`` workload ask it 846 distinct (system, dominant
# weight, center) keys in all, for 35023 membership tests
@lru_cache(maxsize=4096)
def _below(rs: RootSystem, mu_dom: Weight, lam_dom: Weight) -> bool:
    require_dominant(lam_dom)
    return root_order_leq(rs, mu_dom, lam_dom)


def perm_contains(rs: RootSystem, lam_dom: Weight, mu: Weight) -> bool:
    """Whether ``mu`` lies in the discrete permutohedron centered at ``lam_dom``.

    That is, the dominant representative of ``mu`` lies below ``lam_dom``
    in the root order.  Each simple reflection moves ``mu`` by an integer
    multiple of a simple root, so this also tests the lattice coset.

    The root-order test depends only on the system, dom(``mu``) and the
    center, and a fiber check asks it for many points of one orbit,
    so its answers are kept in a bounded LRU memo (``_below``) keyed by
    those three.  The memo also checks that the center is dominant: a
    hit means that very center passed already, and a refusal raises,
    which ``lru_cache`` never stores, so a center that is not dominant
    is refused on every call.
    """
    return _below(rs, dominant(rs, mu), tuple(lam_dom))


def enumerate_perm(rs: RootSystem, lam_dom: Weight) -> DiscretePermutohedron:
    """All lattice points of the permutohedron of a dominant weight.

    Finds the dominant slice (the dominant weights below the center in the
    root order) by descent from the center, and expands each slice point
    by its Weyl orbit as soon as it is found.  Orbits are walked lazily,
    so the point cap is enforced as soon as it is passed, not after a
    whole orbit is built.

    Each complete orbit is walked once per process: later centers whose
    slices share a dominant weight reuse its tuple of points.  An orbit
    is kept only when its walk finished within the room left under the
    cap, and a kept orbit also adds at most one point past that room, so
    an overrun raises at the same point as without the memo.  The memo keeps at
    most the point cap in points and never evicts; once full, orbits are
    walked live.  The last few walks are also cached per (system,
    center, cap) by ``_enumerate_perm_cached``, in walk order; each call
    here sorts the cached points afresh.
    """
    require_dominant(lam_dom)
    _, points = _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())
    return DiscretePermutohedron(center=tuple(lam_dom), points=tuple(sorted(points)))


def _dominant_slice(rs: RootSystem, lam_dom: Weight):
    """Yield each dominant weight at or below ``lam_dom`` in the root order once.

    Stembridge (The partial order of dominant weights, 1998): each of
    them is reached from ``lam_dom`` by subtracting positive roots one at
    a time without leaving the dominant chamber, so this search visits
    the dominant slice and nothing else.
    """
    seen = {lam_dom}
    todo = [lam_dom]
    while todo:
        nu = todo.pop()
        yield nu
        for step in rs.pos_root_weights:
            below = tuple(map(sub, nu, step))
            if min(below) >= 0 and below not in seen:
                seen.add(below)
                todo.append(below)


# complete Weyl orbits by (system, dominant weight), and their point total
_ORBITS: dict[tuple[RootSystem, Weight], tuple[Weight, ...]] = {}
_orbit_points = 0


def _orbit_within(rs: RootSystem, nu: Weight, room: int, cap: int):
    """The Weyl orbit of dominant ``nu``, cut to its first ``room`` points.

    Served from ``_ORBITS`` when held there; a walk that finishes short
    of ``room`` is stored, while the memo stays within ``cap`` points.
    """
    global _orbit_points
    orbit = _ORBITS.get((rs, nu))
    if orbit is None:
        orbit = tuple(islice(_iter_orbit(rs, nu), room))
        if len(orbit) < room and _orbit_points + len(orbit) <= cap:
            _ORBITS[rs, nu] = orbit
            _orbit_points += len(orbit)
    return orbit[:room]


@lru_cache(maxsize=8)
def _enumerate_perm_cached(
    rs: RootSystem, lam_dom: Weight, cap: int
) -> tuple[tuple[Weight, ...], tuple[Weight, ...]]:
    """The dominant slice of ``lam_dom`` and the permutohedron's points.

    One walk of ``_dominant_slice`` gives both, in walk order and
    unsorted: each slice point, then its Weyl orbit appended to the
    points.  ``lam_dom`` must be a dominant tuple; the callers check it
    first.  Passing ``cap`` points raises ``ResourceCapError``.
    """
    dominants: list[Weight] = []
    points: list[Weight] = []
    for nu in _dominant_slice(rs, lam_dom):
        dominants.append(nu)
        # orbits of distinct dominant weights are disjoint, so taking one
        # point past the room left is enough to pass the cap
        points += _orbit_within(rs, nu, cap + 1 - len(points), cap)
        if len(points) > cap:
            require_within_cap(len(points), f"permutohedron of {lam_dom}")
    return tuple(dominants), tuple(points)


def traverse_bruteforce(rs: RootSystem, lam_dom: Weight) -> tuple[int, ...]:
    """Shortest maximal root string inside the permutohedron, by search.

    Returns one length per positive root, in ``rs.pos_roots`` order; a
    negative root has its positive's length (strings are
    reflection-symmetric).  The length along α is the least pairing
    ⟨μ, α^∨⟩ over the string tops μ, the points with μ + α outside the
    permutohedron.

    The permutohedron P is a union of Weyl orbits, so only its dominant
    slice is searched.  A point w(ν) with ν dominant is a top along α
    exactly when ν is a top along w⁻¹(α), with the same pairing, and
    w⁻¹(α) is ±β for a positive root β of α's length.  All roots of one
    length form one orbit, so every such ±β occurs for some w.  The
    length along α is therefore the least ±⟨ν, β^∨⟩ over the slice
    points ν and the positive roots β of α's length with ν ± β outside
    P, and it depends on α's length alone.

    One cached walk (``_enumerate_perm_cached``) gives both the slice
    and the points of P, which serve only as an unsorted membership set.
    """
    require_dominant(lam_dom)
    dominants, points = _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())
    members = set(points)
    least: dict[int, int] = {}
    for nu in dominants:
        pair = kernel.pairings(rs._coroot_chain, nu)
        for step, up, d in zip(rs.pos_root_weights, pair, rs.root_d):
            # a top can only lower the least pairing, so test it only then
            for val, top in ((up, map(add, nu, step)), (-up, map(sub, nu, step))):
                if val < least.get(d, val + 1) and tuple(top) not in members:
                    least[d] = val
    if any(least.get(d, -1) < 0 for d in rs.root_d):
        raise InvariantViolationError("string boundary pairing cannot be negative")
    return tuple(least[d] for d in rs.root_d)


def is_funny(rs: RootSystem, lam_dom: Weight) -> bool:
    """Whether the long-root traverse length drops below the generic value.

    Only possible with two root lengths, whose Dynkin diagram has one
    long-short edge.  In ``rs.dynkin_links`` the long node of that edge
    is the only node with a link of -2 or -3, and the link names its
    short node.  A weight is funny when its coordinate at the short node
    is 0 and its coordinate at the long node is at least 1 and the least
    at any long node.
    """
    require_dominant(lam_dom)
    if rs.simply_laced:
        return False
    [(l_node, s_node)] = [
        (i, k) for i, links in enumerate(rs.dynkin_links) for k, a in links if a < -1
    ]
    d_long = rs.symmetrizer[l_node]
    return lam_dom[s_node] == 0 and 1 <= lam_dom[l_node] == min(
        c for c, d in zip(lam_dom, rs.symmetrizer) if d == d_long
    )


def traverse_formula(rs: RootSystem, lam_dom: Weight) -> tuple[int, ...]:
    """Closed form for the shortest maximal root strings.

    Returns one length per positive root, in ``rs.pos_roots`` order, like
    ``traverse_bruteforce``.  Along a root the length is the least
    coordinate of ``lam_dom`` at a node of the root's length, less one
    for long roots when ``lam_dom`` is funny.
    """
    require_dominant(lam_dom)
    least: dict[int, int] = {}
    for c, d in zip(lam_dom, rs.symmetrizer):
        least[d] = min(c, least.get(d, c))
    if is_funny(rs, lam_dom):
        least[max(least)] -= 1
    return tuple(least[d] for d in rs.root_d)
