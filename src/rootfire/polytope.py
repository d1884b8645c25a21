"""Discrete permutohedra: membership, enumeration, and traverse lengths."""

from __future__ import annotations

import os
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
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
    _orbit_size,
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
    call from the dominant slice that its LRU holds.  Membership is the
    root-order test ``perm_contains(rs, center, mu)``, which needs no set
    of the points.
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
    """All lattice points of the permutohedron of a dominant weight, sorted.

    The orbits of the dominant slice, each walked once (``_iter_orbit``)
    and only after the slice count is found within the point cap.
    """
    dominants, _ = _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())
    points = sorted(p for nu in dominants for p in _iter_orbit(rs, nu))
    return DiscretePermutohedron(center=tuple(lam_dom), points=tuple(points))


def count_perm(rs: RootSystem, lam_dom: Weight) -> int:
    """Lattice points of the permutohedron, counted from its dominant slice."""
    return _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())[1]


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


@lru_cache(maxsize=8)
def _enumerate_perm_cached(
    rs: RootSystem, lam_dom: Weight, cap: int
) -> tuple[tuple[Weight, ...], int]:
    """The dominant slice of ``lam_dom`` in walk order, and the permutohedron's size.

    The size adds |W| / |W_ν| per slice point ν (orbits of distinct
    dominant weights are disjoint), and raises ``ResourceCapError`` once
    it passes ``cap``, before any point is built.  A center that is not
    dominant is refused, and so never cached.  The name is kept from when
    this held the points, as the benchmark's tests pin it.
    """
    require_dominant(lam_dom)
    dominants: list[Weight] = []
    size = 0
    for nu in _dominant_slice(rs, lam_dom):
        dominants.append(nu)
        size += _orbit_size(rs, nu)
        if size > cap:
            require_within_cap(size, f"permutohedron of {lam_dom}")
    return tuple(dominants), size


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
    length form one orbit, so every such ±β occurs for some w.  Only the
    +β tops need testing, as p = ⟨ν, β^∨⟩ ≥ 0:

    * at p ≥ 1, ν − β lies on the β-string from ν to s_β ν = ν − pβ, so
      it is in P (a lattice point of the coset on a segment in P's hull),
      and ν is no top along −β;
    * at p = 0, ν − β = s_β(ν + β), so ν is a top along −β exactly when
      it is one along β, with the same pairing 0.

    The length along α is thus the least ⟨ν, β^∨⟩ over the slice points
    ν and the positive roots β of α's length with dom(ν + β) outside the
    slice, so it depends on α's length alone.  No point of P is built.
    """
    dominants, _ = _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())
    members = set(dominants)
    least: dict[int, int] = {}
    for nu in dominants:
        pair = kernel.pairings(rs._coroot_chain, nu)
        for step, up, d in zip(rs.pos_root_weights, pair, rs.root_d):
            # a top can only lower the least pairing, so test it only then
            if up < least.get(d, up + 1) and dominant(rs, tuple(map(add, nu, step))) not in members:
                least[d] = up
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
