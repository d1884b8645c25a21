"""Discrete permutohedra: membership, enumeration, and traverse lengths."""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, product
from operator import add, mul

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

    ``points`` is sorted; ``point_set`` holds the same points for
    membership tests.
    """

    center: Weight
    points: tuple[Weight, ...]
    point_set: frozenset[Weight] = field(compare=False, repr=False)

    def __contains__(self, weight) -> bool:
        return tuple(weight) in self.point_set

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

    Enumerates the dominant slice (differences of simple roots within the
    root-coordinate box of the center) and expands each slice point by its
    Weyl orbit.  Orbits are walked lazily, so the point cap is enforced as
    soon as it is passed, not after a whole orbit is built.  Results are
    cached per (system, center, cap); traverse scans hit the same center
    once per root.
    """
    require_dominant(lam_dom)
    return _enumerate_perm_cached(rs, tuple(lam_dom), point_cap())


@lru_cache(maxsize=64)
def _enumerate_perm_cached(
    rs: RootSystem, lam_dom: Weight, cap: int
) -> DiscretePermutohedron:
    bounds = rs.root_coords(lam_dom)
    if any(b < 0 for b in bounds):
        raise PreconditionError(f"{lam_dom} has negative root coordinates")
    # dominant slice points differ from the center by lattice vectors inside
    # the root-coordinate box, so flooring the (possibly fractional) bounds
    # b / f loses nothing
    f = rs.index_of_connection
    ranges = [range(b // f + 1) for b in bounds]
    columns = tuple(zip(*rs.cartan))
    points: set[Weight] = set()
    for a in product(*ranges):
        nu = tuple([c - sum(map(mul, a, col)) for c, col in zip(lam_dom, columns)])
        if min(nu) < 0:
            continue
        # orbits of distinct dominant weights are disjoint, so taking one
        # point past the room left is enough to pass the cap
        points.update(islice(_iter_orbit(rs, nu), cap + 1 - len(points)))
        if len(points) > cap:
            raise ResourceCapError(
                f"permutohedron of {lam_dom} exceeds the cap of {cap} points"
            )
    return DiscretePermutohedron(
        center=tuple(lam_dom), points=tuple(sorted(points)), point_set=frozenset(points)
    )


def traverse_bruteforce(rs: RootSystem, lam_dom: Weight, alpha: RootVec) -> int:
    """Shortest maximal root string inside the permutohedron, by search.

    Negative roots give the same answer as their positives (strings are
    reflection-symmetric), so they are folded over before searching.
    """
    if not rs.is_root(alpha):
        raise DomainError(f"{alpha} is not a root of {rs.spec}")
    if all(x <= 0 for x in alpha):
        alpha = tuple(-x for x in alpha)
    perm = enumerate_perm(rs, lam_dom)
    idx = rs.root_index(alpha)
    step = rs.pos_root_weights[idx]
    coroot = rs.pos_coroots[idx]
    members = perm.point_set
    best = None
    for mu in perm.points:
        if tuple(map(add, mu, step)) in members:
            continue
        val = sum(map(mul, coroot, mu))
        if best is None or val < best:
            best = val
    if best is None or best < 0:
        raise InvariantViolationError("string boundary pairing cannot be negative")
    return best


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
