"""Interval root-firing: relations, stabilization, labels, and components.

Three relations on the weight lattice are supported, each firing a
positive root ``alpha`` from ``v`` to ``v + alpha``:

* symmetric:  allowed while the coroot pairing lies in [-k-1, k-1];
* truncated:  allowed while the pairing lies in [-k, k-1];
* central:    allowed exactly when the pairing is 0.

``k`` is Weyl-invariant, so one value per root-length class.  Symmetric
and truncated firing always terminate, and for good parameters
(k_short = 0 implies k_long = 0) they are confluent, which is what makes
stabilization labels and fibers well defined.  Central firing is not
confluent and is exposed only as an explorable relation.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Literal, NamedTuple

from . import kernel
from .errors import (
    DomainError,
    InvariantViolationError,
    NonGoodParamsError,
    PreconditionError,
    ResourceCapError,
)
from .polytope import perm_contains, point_cap
from .rootsys import (
    RootSystem,
    Weight,
    WeylWord,
    apply_word,
    dominant_rep,
    subgroup_C,
)

Kind = Literal["symmetric", "truncated", "central"]

_KIND_ALIASES = {
    "sym": "symmetric",
    "symmetric": "symmetric",
    "tr": "truncated",
    "truncated": "truncated",
    "central": "central",
}

_KIND_SHORT = {"symmetric": "sym", "truncated": "tr", "central": "central"}


@dataclass(frozen=True)
class FiringParams:
    """Process kind plus the Weyl-invariant parameter (one value per length)."""

    kind: Kind
    k_short: int = 0
    k_long: int = 0

    def __post_init__(self):
        if self.kind not in ("symmetric", "truncated", "central"):
            raise DomainError(f"unknown firing kind {self.kind!r}")
        if self.k_short < 0 or self.k_long < 0:
            raise DomainError("firing parameters must be nonnegative")

    @classmethod
    def make(cls, kind: str, k_short: int, k_long: int | None = None) -> "FiringParams":
        kind = _KIND_ALIASES.get(kind, kind)
        if k_long is None:
            k_long = k_short
        return cls(kind=kind, k_short=k_short, k_long=k_long)

    def k_of(self, rs: RootSystem, root_idx: int) -> int:
        return self.k_long if rs.length_class[root_idx] == "long" else self.k_short

    def is_good(self, rs: RootSystem) -> bool:
        """Whether confluence guarantees apply (trivially true if one length)."""
        if self.kind == "central":
            return False
        if rs.simply_laced:
            return True
        return not (self.k_short == 0 and self.k_long > 0)

    def k_max(self) -> int:
        return max(self.k_short, self.k_long)

    def label(self) -> str:
        short = _KIND_SHORT[self.kind]
        if self.kind == "central":
            return short
        return f"{short} k=({self.k_short},{self.k_long})"


def require_good(rs: RootSystem, params: FiringParams, force: bool = False) -> bool:
    """Gate for operations whose meaning rests on confluence; returns goodness.

    Central firing never passes.  Parameters that are not good pass only
    with ``force``, and the caller must then not rely on confluence.
    """
    if params.kind == "central":
        raise PreconditionError("central firing does not stabilize; explore its graph")
    good = params.is_good(rs)
    if not good and not force:
        raise NonGoodParamsError(
            f"{params.label()} is not good on {rs.spec}; force it to proceed anyway"
        )
    return good


def rho_of_k(rs: RootSystem, params: FiringParams) -> Weight:
    """The dominant weight whose node coordinates are the per-node k values."""
    d_long = max(rs.symmetrizer)
    return tuple(
        params.k_long if d == d_long else params.k_short for d in rs.symmetrizer
    )


def _bounds(rs: RootSystem, params: FiringParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-root closed pairing bounds [lo, hi] for fireability."""
    lo, hi = [], []
    for idx in range(len(rs.pos_roots)):
        if params.kind == "central":
            lo.append(0)
            hi.append(0)
        else:
            k = params.k_of(rs, idx)
            lo.append(-k - 1 if params.kind == "symmetric" else -k)
            hi.append(k - 1)
    return tuple(lo), tuple(hi)


def fireable_roots(rs: RootSystem, weight: Weight, params: FiringParams) -> list[int]:
    """Indices into ``pos_roots`` of the roots fireable at this weight."""
    lo, hi = _bounds(rs, params)
    pair = kernel.pairings(rs.pos_coroots, weight)
    return [j for j, p in enumerate(pair) if lo[j] <= p <= hi[j]]


def is_sink(rs: RootSystem, weight: Weight, params: FiringParams) -> bool:
    return not fireable_roots(rs, weight, params)


def neighbors(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    direction: Literal["out", "in", "both"] = "out",
) -> list[tuple[Weight, int]]:
    """Adjacent weights with the root index of the connecting edge.

    An in-neighbor of ``v`` along root ``alpha`` is ``v - alpha`` with
    ``alpha`` fireable there, i.e. with pairing ``p(v) - 2`` in bounds.
    """
    lo, hi = _bounds(rs, params)
    pair = kernel.pairings(rs.pos_coroots, weight)
    out: list[tuple[Weight, int]] = []
    if direction in ("out", "both"):
        for j, p in enumerate(pair):
            if lo[j] <= p <= hi[j]:
                step = rs.pos_root_weights[j]
                out.append((tuple(a + b for a, b in zip(weight, step)), j))
    if direction in ("in", "both"):
        for j, p in enumerate(pair):
            if lo[j] <= p - 2 <= hi[j]:
                step = rs.pos_root_weights[j]
                out.append((tuple(a - b for a, b in zip(weight, step)), j))
    return out


# -- the eta labeling map ----------------------------------------------------


def eta(rs: RootSystem, weight: Weight, params: FiringParams) -> Weight:
    """Dilation map labeling sinks: translate by the chamber image of rho_k."""
    _, word = dominant_rep(rs, weight)
    shift = apply_word(rs, word, rho_of_k(rs, params))
    return tuple(a + b for a, b in zip(weight, shift))


def eta_inverse(rs: RootSystem, mu: Weight, params: FiringParams) -> Weight | None:
    """The unique preimage under ``eta``, or None if not in the image."""
    _, word = dominant_rep(rs, mu)
    shift = apply_word(rs, word, rho_of_k(rs, params))
    cand = tuple(a - b for a, b in zip(mu, shift))
    return cand if eta(rs, cand, params) == mu else None


def sym_sink_labels_valid(rs: RootSystem, weight: Weight) -> bool:
    """Whether no positive root pairs to -1 (the symmetric sink-label test)."""
    return all(p != -1 for p in kernel.pairings(rs.pos_coroots, weight))


# -- stabilization -----------------------------------------------------------


def step_budget(rs: RootSystem, weight: Weight, params: FiringParams) -> int:
    """Crude quadratic-potential bound; exceeding it signals a bug."""
    reach = max((abs(p) for p in kernel.pairings(rs.pos_coroots, weight)), default=0)
    return 4 * len(rs.pos_roots) * (reach + params.k_max() + 2) ** 2


def stabilize_trace(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    seed: int | None = None,
) -> tuple[Weight, int]:
    """Fire until stable; returns (sink, number of firings).

    ``seed=None`` fires the first fireable root in positive-root order;
    a seed fires roots in a seeded-random order.
    """
    if params.kind == "central":
        raise PreconditionError("central firing has no stabilization; explore instead")
    lo, hi = _bounds(rs, params)
    return kernel.stabilize(
        tuple(weight),
        rs.pos_root_weights,
        rs.pos_coroots,
        lo,
        hi,
        step_budget(rs, weight, params),
        seed,
    )


def stabilize(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    seed: int | None = None,
) -> Weight:
    return stabilize_trace(rs, weight, params, seed)[0]


def stabilization_label(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    force: bool = False,
) -> Weight:
    """Label of the sink this weight stabilizes to (eta preimage of the sink)."""
    require_good(rs, params, force)
    sink = stabilize(rs, weight, params)
    lab = eta_inverse(rs, sink, params)
    if lab is None:
        raise InvariantViolationError(
            f"stabilization of {weight} under {params.label()} is not a labeled sink"
        )
    return lab


def check_confluence_random(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    trials: int,
    seed: int,
) -> bool:
    """Whether ``trials`` independent random firing orders agree."""
    if trials < 2:
        raise PreconditionError("need at least two trials")
    first = stabilize(rs, weight, params, seed=seed)
    return all(
        stabilize(rs, weight, params, seed=seed + t) == first
        for t in range(1, trials)
    )


# -- connected components and fibers ----------------------------------------


def component(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    force: bool = False,
    max_points: int | None = None,
) -> tuple[Weight, ...]:
    """Connected component of the firing graph through ``weight``.

    Undirected breadth-first closure.  For good parameters every visited
    weight is asserted to lie in the bounding permutohedron of the
    component's sink label; with ``force`` (non-good parameters) the
    assertion is skipped and only the point cap limits the search.
    """
    good = require_good(rs, params, force)
    center = None
    if good:
        lab = stabilization_label(rs, weight, params)
        lab_dom, _ = dominant_rep(rs, lab)
        center = eta(rs, lab_dom, params)
    cap = point_cap(max_points)
    start = tuple(weight)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if center is not None and not perm_contains(rs, center, v):
            raise InvariantViolationError(
                f"component of {weight} escapes its bounding permutohedron at {v}"
            )
        for w, _ in neighbors(rs, v, params, "both"):
            if w not in seen:
                seen.add(w)
                queue.append(w)
                if len(seen) > cap:
                    raise ResourceCapError(
                        f"component of {weight} exceeds the cap of {cap} points"
                    )
    return tuple(sorted(seen))


def fiber(
    rs: RootSystem,
    label: Weight,
    params: FiringParams,
    force: bool = False,
    check: bool = True,
    max_points: int | None = None,
) -> tuple[Weight, ...]:
    """All weights whose stabilization label is ``label``.

    Empty for symmetric labels that pair to -1 with some positive root
    (those never label a sink).  Otherwise the component of the labeled
    sink; with ``check`` every member is re-stabilized as a confluence
    cross-check.
    """
    good = require_good(rs, params, force)
    if params.kind == "symmetric" and not sym_sink_labels_valid(rs, label):
        return ()
    sink = eta(rs, label, params)
    comp = component(rs, sink, params, force=force, max_points=max_points)
    if check and good:
        for v in comp:
            if stabilize(rs, v, params) != sink:
                raise InvariantViolationError(
                    f"{v} is connected to sink {sink} but stabilizes elsewhere"
                )
    return comp


# -- explicit graphs ---------------------------------------------------------


@dataclass(frozen=True)
class FiringGraph:
    """Finite induced subgraph of a firing relation, deterministically ordered."""

    system: str
    params: FiringParams
    vertices: tuple[Weight, ...]
    edges: tuple[tuple[int, int, int], ...]  # (source idx, target idx, root idx)

    def to_json(self) -> str:
        obj = {
            "system": self.system,
            "params": {
                "kind": self.params.kind,
                "k_short": self.params.k_short,
                "k_long": self.params.k_long,
            },
            "vertices": [list(v) for v in self.vertices],
            "edges": [{"s": s, "t": t, "root": r} for s, t, r in self.edges],
        }
        return json.dumps(obj, indent=2, sort_keys=True)

    def to_dot(self, rs: RootSystem) -> str:
        lines = ["digraph firing {"]
        for i, v in enumerate(self.vertices):
            label = ",".join(str(c) for c in v)
            lines.append(f'  v{i} [label="{label}"];')
        for s, t, r in self.edges:
            lines.append(f'  v{s} -> v{t} [label="{root_label(rs, r)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def root_label(rs: RootSystem, root_idx: int) -> str:
    """Simple-root expansion of a positive root, e.g. ``a1+2a2``."""
    terms = []
    for i, a in enumerate(rs.pos_roots[root_idx], start=1):
        if a == 1:
            terms.append(f"a{i}")
        elif a > 1:
            terms.append(f"{a}a{i}")
    return "+".join(terms)


def coord_box(rs: RootSystem, bound: int) -> list[Weight]:
    """All weights with every coordinate in [-bound, bound], sorted.

    The size is checked against the point cap before the box is built.
    """
    if bound < 0:
        raise DomainError(f"box bound must be nonnegative, got {bound}")
    cap = point_cap()
    size = (2 * bound + 1) ** rs.rank
    if size > cap:
        raise ResourceCapError(f"box of {size} points exceeds the cap of {cap} points")
    return [tuple(v) for v in product(range(-bound, bound + 1), repeat=rs.rank)]


def build_graph(
    rs: RootSystem,
    region: Iterable[Weight],
    params: FiringParams,
    max_points: int | None = None,
) -> FiringGraph:
    """Graph induced on a finite region: edges with both endpoints inside."""
    cap = point_cap(max_points)
    vertices = tuple(sorted({tuple(v) for v in region}))
    if len(vertices) > cap:
        raise ResourceCapError(f"region exceeds the cap of {cap} points")
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for v in vertices:
        for w, j in neighbors(rs, v, params, "out"):
            if w in index:
                edges.append((index[v], index[w], j))
    return FiringGraph(
        system=rs.spec, params=params, vertices=vertices, edges=tuple(sorted(edges))
    )


# -- central firing exploration ----------------------------------------------


class CentralSinks(NamedTuple):
    sinks: tuple[Weight, ...]
    complete: bool


def reachable_central_sinks(
    rs: RootSystem, weight: Weight, budget: int = 10_000
) -> CentralSinks:
    """All central-firing sinks reachable from ``weight`` by forward moves.

    Central firing is not confluent in general, so the result may have
    several sinks.  ``complete`` is False when the budget cut the search.
    """
    params = FiringParams(kind="central")
    start = tuple(weight)
    seen = {start}
    queue = deque([start])
    sinks: set[Weight] = set()
    complete = True
    while queue:
        v = queue.popleft()
        outs = neighbors(rs, v, params, "out")
        if not outs:
            sinks.add(v)
            continue
        for w, _ in outs:
            if w not in seen:
                if len(seen) >= budget:
                    complete = False
                    continue
                seen.add(w)
                queue.append(w)
    return CentralSinks(tuple(sorted(sinks)), complete)


# -- Weyl and lattice symmetries of the graphs --------------------------------


@dataclass(frozen=True)
class SymmetryReport:
    system: str
    params: FiringParams
    num_vertices: int
    num_edges: int
    maps_checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def ball_region(rs: RootSystem, radius_sq: Fraction, center=None) -> list[Weight]:
    """Weights within a squared distance of a (possibly rational) center.

    Metric balls are exactly invariant under the relevant symmetries,
    unlike coordinate boxes.  The enclosing box is checked against the
    point cap before it is built.
    """
    center = tuple(Fraction(0) for _ in range(rs.rank)) if center is None else center
    bound = 1
    while Fraction(bound * bound) * min(rs.symmetrizer) < 4 * radius_sq + 4:
        bound += 1
    return [
        v
        for v in coord_box(rs, bound)
        if rs.quad_norm(tuple(Fraction(a) - b for a, b in zip(v, center))) <= radius_sq
    ]


def quotient_affine_image(rs: RootSystem, word: WeylWord, weight: Weight) -> Weight:
    """Apply the affine symmetry v -> w(v - rho/h) + rho/h of truncated firing.

    Only elements of the lattice-quotient subgroup map the weight lattice
    to itself; anything else trips the integrality check.
    """
    h = rs.coxeter_number
    shifted = tuple(Fraction(x) - Fraction(1, h) for x in weight)
    moved = apply_word(rs, word, shifted)
    back = tuple(x + Fraction(1, h) for x in moved)
    if any(x.denominator != 1 for x in back):
        raise InvariantViolationError(f"affine symmetry left the weight lattice at {weight}")
    return tuple(int(x) for x in back)


def _undirected_edges(rs, vertices, params):
    vset = set(vertices)
    edges = set()
    for v in vertices:
        for w, _ in neighbors(rs, v, params, "out"):
            if w in vset:
                edges.add((min(v, w), max(v, w)))
    return edges


def graph_symmetry_check(
    rs: RootSystem, params: FiringParams, radius: int
) -> SymmetryReport:
    """Verify the graph symmetries on an invariant metric ball.

    Symmetric kind: every simple reflection maps undirected edges to
    undirected edges (generators suffice for the full Weyl group).
    Truncated kind: every element of the lattice-quotient subgroup acts
    through the affine map fixing rho/h.
    """
    h = rs.coxeter_number
    r2 = Fraction(radius * radius) * max(rs.symmetrizer)
    violations: list[str] = []
    if params.kind == "symmetric":
        vertices = ball_region(rs, r2)
        edges = _undirected_edges(rs, vertices, params)
        maps = [(f"s{i}", (i,)) for i in range(1, rs.rank + 1)]

        def image(word, v):
            return apply_word(rs, word, v)

    elif params.kind == "truncated":
        center = tuple(Fraction(1, h) for _ in range(rs.rank))
        vertices = ball_region(rs, r2, center)
        edges = _undirected_edges(rs, vertices, params)
        maps = [(f"C[{i}]", word) for i, word in enumerate(subgroup_C(rs))]

        def image(word, v):
            return quotient_affine_image(rs, word, v)

    else:
        raise PreconditionError("symmetry check applies to symmetric/truncated kinds")

    for name, word in maps:
        for v, w in sorted(edges):
            iv, iw = image(word, v), image(word, w)
            if (min(iv, iw), max(iv, iw)) not in edges:
                violations.append(f"{name} breaks edge {v} -- {w}")
    return SymmetryReport(
        system=rs.spec,
        params=params,
        num_vertices=len(vertices),
        num_edges=len(edges),
        maps_checked=len(maps),
        violations=tuple(violations),
    )


# -- reference relation for the simple-root-only limit ------------------------


def matrix_firing_edges(rs: RootSystem, weight: Weight) -> list[tuple[Weight, int]]:
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
