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
from functools import lru_cache
from itertools import product
from operator import add, mul, sub
from typing import AbstractSet, Iterable, Literal

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
        if self.kind == "central" and (self.k_short or self.k_long):
            raise DomainError(
                f"central firing takes no k, got k=({self.k_short},{self.k_long})"
            )

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


@lru_cache(maxsize=None)
def _bounds(rs: RootSystem, params: FiringParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-root closed pairing bounds [lo, hi] for fireability.

    Built once per (system, params) pair and then served from the cache.
    A system with one root length has one k, so ``k_short`` and
    ``k_long`` must agree on it.
    """
    if rs.simply_laced and params.k_short != params.k_long:
        raise DomainError(
            f"{rs.spec} has one root length and takes one k, "
            f"got k=({params.k_short},{params.k_long})"
        )
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
    rs: RootSystem, weight: Weight, params: FiringParams
) -> list[tuple[Weight, int]]:
    """Out-neighbors: ``weight + alpha`` for each fireable root ``alpha``.

    Each comes with the index of ``alpha`` in ``pos_roots``, in that order.
    """
    steps = rs.pos_root_weights
    return [
        (tuple(map(add, weight, steps[j])), j)
        for j in fireable_roots(rs, weight, params)
    ]


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


def stabilize_trace(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    seed: int | None = None,
    stop: AbstractSet[Weight] | None = None,
) -> tuple[Weight, int]:
    """Fire until stable; returns (sink, number of firings).

    ``seed=None`` fires the first fireable root in positive-root order;
    a seed fires roots in a seeded-random order.  With ``stop`` (first
    fireable order only) firing also ends at the first weight reached
    that lies in ``stop``, which is then returned in place of the sink.
    The step budget is a crude quadratic-potential bound; exceeding it
    signals a bug.
    """
    if stop is not None and seed is not None:
        raise PreconditionError("a stop set applies only to the first-fireable order")
    pos = rs.simple_positions
    at_stop = None if stop is None else (lambda p: tuple(p[i] for i in pos) in stop)
    final, steps = _stabilizer(rs, weight, params)(seed, at_stop)
    return tuple(final[i] for i in pos), steps


def _stabilizer(rs: RootSystem, weight: Weight, params: FiringParams):
    """The kernel bound to one weight: seed -> (final pairing vector, steps).

    The initial pairings and the step budget depend only on the weight
    and the parameters, so repeated firing orders share them.
    """
    if params.kind == "central":
        raise PreconditionError("central firing has no stabilization; explore instead")
    lo, hi = _bounds(rs, params)
    pair = kernel.pairings(rs.pos_coroots, weight)
    reach = max(map(abs, pair), default=0)
    budget = 4 * len(pair) * (reach + params.k_max() + 2) ** 2
    return lambda seed, stop=None: kernel.stabilize(
        pair, rs.pos_gram, lo, hi, budget, seed, stop
    )


def stabilize(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    seed: int | None = None,
    stop: AbstractSet[Weight] | None = None,
) -> Weight:
    return stabilize_trace(rs, weight, params, seed, stop)[0]


def stabilization_label(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
) -> Weight:
    """Label of the sink this weight stabilizes to (eta preimage of the sink)."""
    require_good(rs, params)
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
    """Whether ``trials`` independent random firing orders agree.

    Final pairing vectors are compared directly: they are equal exactly
    when the sinks are.
    """
    if trials < 2:
        raise PreconditionError("need at least two trials")
    run = _stabilizer(rs, weight, params)
    first = run(seed)[0]
    return all(run(seed + t)[0] == first for t in range(1, trials))


# -- connected components and fibers ----------------------------------------


def component(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    force: bool = False,
) -> tuple[Weight, ...]:
    """Connected component of the firing graph through ``weight``.

    Undirected breadth-first closure.  Each queued weight carries its
    vector of coroot pairings, computed once at ``weight``: the roots
    with pairing in bounds give the out-edges, those with pairing - 2 in
    bounds the in-edges (``v - alpha`` pairs to ``p - 2`` with
    ``alpha``), and a new neighbor's vector is the current one plus or
    minus a row of ``rs.pos_gram``.  For good parameters every
    visited weight is asserted to lie in the bounding permutohedron of
    the component's sink label; with ``force`` (non-good parameters) the
    assertion is skipped and only the point cap limits the search.
    """
    good = require_good(rs, params, force)
    center = None
    if good:
        lab = stabilization_label(rs, weight, params)
        lab_dom, _ = dominant_rep(rs, lab)
        center = eta(rs, lab_dom, params)
    cap = point_cap()
    lo, hi = _bounds(rs, params)
    roots, gram = rs.pos_root_weights, rs.pos_gram
    start = tuple(weight)
    seen = {start}
    queue = deque([(start, kernel.pairings(rs.pos_coroots, start))])
    while queue:
        v, p = queue.popleft()
        if center is not None and not perm_contains(rs, center, v):
            raise InvariantViolationError(
                f"component of {weight} escapes its bounding permutohedron at {v}"
            )
        # out-edges, then in-edges: v - alpha_j fires into v exactly when
        # alpha_j is fireable at v - alpha_j, and there its pairing is
        # p_j - <alpha_j, alpha_j^vee> = p_j - 2
        edges = [(j, add) for j, pj in enumerate(p) if lo[j] <= pj <= hi[j]]
        edges += [(j, sub) for j, pj in enumerate(p) if lo[j] <= pj - 2 <= hi[j]]
        for j, op in edges:
            w = tuple(map(op, v, roots[j]))
            if w not in seen:
                seen.add(w)
                # a list: tuple vectors here measured ~3% more peak RSS on fits
                queue.append((w, list(map(op, p, gram[j]))))
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
) -> tuple[Weight, ...]:
    """All weights whose stabilization label is ``label``.

    Empty for symmetric labels that pair to -1 with some positive root
    (those never label a sink).  Otherwise the component of the labeled
    sink.  For good parameters every member is re-stabilized in
    first-fireable order as a confluence cross-check, and must end at
    the sink.  Each firing raises the height <v, 2 rho^vee> strictly, so
    the members are visited from the highest down, and a member's run
    stops at the first weight already verified: that weight's own run
    ends at the sink, so the member's does too.  This proves exactly
    what re-stabilizing every member to the end would, and each member
    fires at most once.
    """
    good = require_good(rs, params, force)
    if params.kind == "symmetric" and not sym_sink_labels_valid(rs, label):
        return ()
    sink = eta(rs, label, params)
    comp = component(rs, sink, params, force=force)
    if good:
        rho2 = [sum(col) for col in zip(*rs.pos_coroots)]
        reached = {sink}
        for v in sorted(comp, key=lambda v: sum(map(mul, v, rho2)), reverse=True):
            if stabilize(rs, v, params, stop=reached) not in reached:
                raise InvariantViolationError(
                    f"{v} is connected to sink {sink} but stabilizes elsewhere"
                )
            reached.add(v)
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
    rs: RootSystem, region: Iterable[Weight], params: FiringParams
) -> FiringGraph:
    """Graph induced on a finite region: edges with both endpoints inside."""
    cap = point_cap()
    vertices = tuple(sorted({tuple(v) for v in region}))
    if len(vertices) > cap:
        raise ResourceCapError(f"region exceeds the cap of {cap} points")
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for v in vertices:
        for w, j in neighbors(rs, v, params):
            if w in index:
                edges.append((index[v], index[w], j))
    return FiringGraph(
        system=rs.spec, params=params, vertices=vertices, edges=tuple(sorted(edges))
    )


# -- central firing exploration ----------------------------------------------


def reachable_central_sinks(rs: RootSystem, weight: Weight) -> tuple[Weight, ...]:
    """All central-firing sinks reachable from ``weight`` by forward moves, sorted.

    Central firing is not confluent in general, so there may be several
    sinks.  Its moves (pairing 0) are truncated k = 1 moves (pairing in
    [-1, 0]), and truncated firing terminates, so the search is finite;
    it stops at the point cap like every other search.
    """
    params = FiringParams(kind="central")
    cap = point_cap()
    start = tuple(weight)
    seen = {start}
    queue = deque([start])
    sinks = []
    while queue:
        v = queue.popleft()
        outs = neighbors(rs, v, params)
        if not outs:
            sinks.append(v)
        for w, _ in outs:
            if w not in seen:
                seen.add(w)
                queue.append(w)
                if len(seen) > cap:
                    raise ResourceCapError(
                        f"central firing from {weight} exceeds the cap of {cap} points"
                    )
    return tuple(sorted(sinks))


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
    # w is linear: w(v - rho/h) + rho/h = w(v) + (rho - w(rho))/h
    shift = tuple(a - b for a, b in zip(rs.rho(), apply_word(rs, word, rs.rho())))
    if any(x % h for x in shift):
        raise InvariantViolationError(f"affine symmetry left the weight lattice at {weight}")
    return tuple(a + b // h for a, b in zip(apply_word(rs, word, weight), shift))


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
        maps = [(f"s{i}", (i,)) for i in range(1, rs.rank + 1)]

        def image(word, v):
            return apply_word(rs, word, v)

    elif params.kind == "truncated":
        center = tuple(Fraction(1, h) for _ in range(rs.rank))
        vertices = ball_region(rs, r2, center)
        maps = [(f"C[{i}]", word) for i, word in enumerate(subgroup_C(rs))]

        def image(word, v):
            return quotient_affine_image(rs, word, v)

    else:
        raise PreconditionError("symmetry check applies to symmetric/truncated kinds")

    graph = build_graph(rs, vertices, params)
    pts = graph.vertices
    edges = {(min(pts[s], pts[t]), max(pts[s], pts[t])) for s, t, _ in graph.edges}
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
