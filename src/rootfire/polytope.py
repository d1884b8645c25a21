"""Discrete permutohedra: membership, enumeration, and traverse lengths."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from operator import mul, sub

from .errors import (
    DomainError,
    InvariantViolationError,
    PreconditionError,
    ResourceCapError,
)
from .rootsys import (
    RootSystem,
    RootVec,
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


@dataclass(frozen=True)
class DiscretePermutohedron:
    """Lattice points of a Weyl-orbit hull within the center's coset.

    ``points`` is sorted.  Membership is the root-order test
    ``perm_contains(rs, center, mu)``, which needs no set of the points.
    """

    center: Weight
    points: tuple[Weight, ...]

    def __len__(self) -> int:
        return len(self.points)


def perm_contains(rs: RootSystem, lam_dom: Weight, mu: Weight) -> bool:
    """Whether ``mu`` lies in the discrete permutohedron centered at ``lam_dom``.

    That is, the dominant representative of ``mu`` lies below ``lam_dom``
    in the root order.  Each simple reflection moves ``mu`` by an integer
    multiple of a simple root, so this also tests the lattice coset.
    """
    require_dominant(lam_dom)
    return root_order_leq(rs, dominant(rs, mu), lam_dom)


def enumerate_perm(rs: RootSystem, lam_dom: Weight) -> DiscretePermutohedron:
    """All lattice points of the permutohedron of a dominant weight.

    Finds the dominant slice (the dominant weights below the center in the
    root order) by descent from the center, and expands each slice point
    by its Weyl orbit as soon as it is found.  Orbits are walked lazily,
    so the point cap is enforced as soon as it is passed, not after a
    whole orbit is built.  The last few results are cached per (system,
    center, cap).
    """
    require_dominant(lam_dom)
    return _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())


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
) -> DiscretePermutohedron:
    points: set[Weight] = set()
    for nu in _dominant_slice(rs, lam_dom):
        # orbits of distinct dominant weights are disjoint, so taking one
        # point past the room left is enough to pass the cap
        points.update(islice(_iter_orbit(rs, nu), cap + 1 - len(points)))
        if len(points) > cap:
            raise ResourceCapError(
                f"permutohedron of {lam_dom} exceeds the cap of {cap} points"
            )
    return DiscretePermutohedron(center=tuple(lam_dom), points=tuple(sorted(points)))


def traverse_bruteforce(rs: RootSystem, lam_dom: Weight) -> tuple[int, ...]:
    """Shortest maximal root string inside the permutohedron, by search.

    Returns one length per positive root, in ``rs.pos_roots`` order; a
    negative root has its positive's length (strings are
    reflection-symmetric).  The length along α is the least pairing
    ⟨μ, α^∨⟩ over the string tops μ, the points with μ + α outside the
    permutohedron.

    Each point μ is scanned by its integer key Σ μ_i·R^i.  With B the
    largest absolute coordinate of any point plus that of any positive
    root, every μ and every μ + α has coordinates in [-B, B]; those are
    the balanced digits of base R = 2B + 1, so the key is one-to-one on
    them.  The key is linear, so key(μ + α) = key(μ) + key(α), and
    μ + α is a point exactly when that sum is a point's key.
    """
    points = enumerate_perm(rs, lam_dom).points
    steps = rs.pos_root_weights
    bound = max(map(abs, chain.from_iterable(points))) + max(
        map(abs, chain.from_iterable(steps))
    )
    powers = [(2 * bound + 1) ** i for i in range(rs.rank)]
    keys = [sum(map(mul, mu, powers)) for mu in points]
    members = set(keys)
    lengths = []
    for step, coroot in zip(steps, rs.pos_coroots):
        shift = sum(map(mul, step, powers))
        best = None
        for key, mu in zip(keys, points):
            if key + shift in members:
                continue
            val = sum(map(mul, coroot, mu))
            if best is None or val < best:
                best = val
        if best is None or best < 0:
            raise InvariantViolationError("string boundary pairing cannot be negative")
        lengths.append(best)
    return tuple(lengths)


def is_funny(rs: RootSystem, lam_dom: Weight) -> bool:
    """Whether the long-root traverse length drops below the generic value.

    Only possible with two root lengths: requires coordinate 0 at the short
    node of the unique long-short Dynkin edge, at least 1 at its long node,
    and no smaller coordinate at any other long node.
    """
    require_dominant(lam_dom)
    if rs.simply_laced:
        return False
    d_long = max(rs.symmetrizer)
    pair = [
        (i, j)
        for i in range(rs.rank)
        for j in range(rs.rank)
        if rs.cartan[i][j] != 0
        and i != j
        and rs.symmetrizer[i] == d_long
        and rs.symmetrizer[j] < d_long
    ]
    if len(pair) != 1:
        raise DomainError("expected a unique adjacent long-short node pair")
    l_node, s_node = pair[0]
    c_l = lam_dom[l_node]
    if lam_dom[s_node] != 0 or c_l < 1:
        return False
    return all(
        lam_dom[i] >= c_l for i in range(rs.rank) if rs.symmetrizer[i] == d_long
    )


def traverse_formula(rs: RootSystem, lam_dom: Weight, alpha: RootVec) -> int:
    """Closed form for the shortest maximal root string."""
    require_dominant(lam_dom)
    if not rs.is_root(alpha):
        raise DomainError(f"{alpha} is not a root of {rs.spec}")
    if all(x <= 0 for x in alpha):
        alpha = tuple(-x for x in alpha)
    d_alpha = rs.root_d[rs.root_index(alpha)]
    m = min(c for c, d in zip(lam_dom, rs.symmetrizer) if d == d_alpha)
    is_long = d_alpha == max(rs.symmetrizer)
    if is_long and is_funny(rs, lam_dom):
        return m - 1
    return m
