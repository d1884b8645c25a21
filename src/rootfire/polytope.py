"""Discrete permutohedra: membership, enumeration, and traverse lengths."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import floor

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
    dominant_rep,
    is_dominant,
    pairing,
    weyl_orbit,
)

DEFAULT_MAX_POINTS = 10**6

_SCOPED_CAP: ContextVar[int | None] = ContextVar("rootfire_point_cap", default=None)


def point_cap(explicit: int | None = None) -> int:
    """Enumeration cap, taken from the first of these that is set:

    1. the explicit argument;
    2. the cap of the innermost enclosing ``scoped_cap`` in this context;
    3. the ``ROOTFIRE_MAX_POINTS`` environment variable;
    4. ``DEFAULT_MAX_POINTS``.

    A cap below 1 is rejected, wherever it comes from.
    """
    if explicit is None:
        explicit = _SCOPED_CAP.get()
    if explicit is not None:
        cap = explicit
    else:
        env = os.environ.get("ROOTFIRE_MAX_POINTS")
        if not env:
            return DEFAULT_MAX_POINTS
        try:
            cap = int(env)
        except ValueError:
            raise PreconditionError(
                f"ROOTFIRE_MAX_POINTS must be an integer, got {env!r}"
            ) from None
    if cap < 1:
        raise PreconditionError(f"the point cap must be at least 1, got {cap}")
    return cap


@contextmanager
def scoped_cap(cap: int | None):
    """Hold a point cap for the code run inside this block.

    The cap lives in a context variable, so it holds in the current
    context only: a thread started inside the block does not see it, and
    nothing is written to the environment.  ``None`` keeps the cap that
    applies already.  The cap is resolved and checked on entry, so a bad
    cap fails before the block runs.
    """
    token = _SCOPED_CAP.set(point_cap(cap))
    try:
        yield
    finally:
        _SCOPED_CAP.reset(token)


@dataclass(frozen=True)
class DiscretePermutohedron:
    """Lattice points of a Weyl-orbit hull within the center's coset."""

    center: Weight
    points: tuple[Weight, ...]

    def __contains__(self, weight) -> bool:
        return tuple(weight) in self._point_set

    def __len__(self) -> int:
        return len(self.points)

    @property
    def _point_set(self) -> frozenset:
        pts = self.__dict__.get("_pts")
        if pts is None:
            pts = frozenset(self.points)
            object.__setattr__(self, "_pts", pts)
        return pts

    def to_json(self, system: str) -> str:
        obj = {
            "system": system,
            "center": list(self.center),
            "vertices": [list(v) for v in self.points],
        }
        return json.dumps(obj, indent=2, sort_keys=True)


def perm_contains(rs: RootSystem, lam_dom: Weight, mu: Weight) -> bool:
    """Whether ``mu`` lies in the discrete permutohedron centered at ``lam_dom``.

    Requires the right coset (integral root coordinates of the difference)
    and dominance-order comparison of the dominant representatives.
    """
    if not is_dominant(lam_dom):
        raise PreconditionError(f"{lam_dom} is not dominant")
    diff = tuple(a - b for a, b in zip(lam_dom, mu))
    if any(x.denominator != 1 for x in rs.root_coords(diff)):
        return False
    mu_dom, _ = dominant_rep(rs, mu)
    gap = tuple(a - b for a, b in zip(lam_dom, mu_dom))
    return all(x >= 0 for x in rs.root_coords(gap))


def enumerate_perm(
    rs: RootSystem, lam_dom: Weight, max_points: int | None = None
) -> DiscretePermutohedron:
    """All lattice points of the permutohedron of a dominant weight.

    Enumerates the dominant slice (differences of simple roots within the
    root-coordinate box of the center) and expands each slice point by its
    Weyl orbit.  Results are cached per (system, center, cap); traverse
    scans hit the same center once per root.
    """
    if not is_dominant(lam_dom):
        raise PreconditionError(f"{lam_dom} is not dominant")
    return _enumerate_perm_cached(rs, tuple(lam_dom), point_cap(max_points))


@lru_cache(maxsize=64)
def _enumerate_perm_cached(
    rs: RootSystem, lam_dom: Weight, cap: int
) -> DiscretePermutohedron:
    bounds = rs.root_coords(lam_dom)
    if any(b < 0 for b in bounds):
        raise PreconditionError(f"{lam_dom} has negative root coordinates")
    # dominant slice points differ from the center by lattice vectors inside
    # the root-coordinate box, so flooring the (possibly fractional) bounds
    # loses nothing
    ranges = [range(floor(b) + 1) for b in bounds]
    points: set[Weight] = set()
    for a in product(*ranges):
        nu = tuple(
            c - sum(a[i] * rs.cartan[i][j] for i in range(rs.rank))
            for j, c in enumerate(lam_dom)
        )
        if not is_dominant(nu):
            continue
        points.update(weyl_orbit(rs, nu))
        if len(points) > cap:
            raise ResourceCapError(
                f"permutohedron of {lam_dom} exceeds the cap of {cap} points"
            )
    return DiscretePermutohedron(center=tuple(lam_dom), points=tuple(sorted(points)))


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
    step = rs.pos_root_weights[rs.root_index(alpha)]
    best = None
    for mu in perm.points:
        if tuple(a + b for a, b in zip(mu, step)) in perm:
            continue
        val = pairing(rs, mu, alpha)
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
    if not is_dominant(lam_dom):
        raise PreconditionError(f"{lam_dom} is not dominant")
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
    if not is_dominant(lam_dom):
        raise PreconditionError(f"{lam_dom} is not dominant")
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
