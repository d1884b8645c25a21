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
from collections import deque, namedtuple
from collections.abc import Iterable
from functools import lru_cache
from itertools import product
from operator import add, mul, sub

from . import kernel
from .errors import (
    DomainError,
    InvariantViolationError,
    NonGoodParamsError,
    PreconditionError,
)
from .polytope import perm_contains, point_cap, require_within_cap
from .rootsys import (
    RootSystem,
    Weight,
    WeylWord,
    apply_word,
    dominant,
    dominant_rep,
    subgroup_C,
)

# each kind's short spelling; either spelling names the kind
_KIND_SHORT = {"symmetric": "sym", "truncated": "tr", "central": "central"}
_KIND_LONG = {short: kind for kind, short in _KIND_SHORT.items()}


class FiringParams(namedtuple("FiringParams", "kind k_short k_long")):
    """Process kind plus the Weyl-invariant parameter (one value per length)."""

    __slots__ = ()

    def __new__(cls, kind: str, k_short: int = 0, k_long: int = 0) -> "FiringParams":
        if kind not in _KIND_SHORT:
            raise DomainError(f"unknown firing kind {kind!r}")
        if k_short < 0 or k_long < 0:
            raise DomainError("firing parameters must be nonnegative")
        if kind == "central" and (k_short or k_long):
            raise DomainError(f"central firing takes no k, got k=({k_short},{k_long})")
        return super().__new__(cls, kind, k_short, k_long)

    @classmethod
    def _make(cls, iterable) -> "FiringParams":
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @classmethod
    def make(cls, kind: str, k_short: int, k_long: int | None = None) -> "FiringParams":
        kind = _KIND_LONG.get(kind, kind)
        if k_long is None:
            k_long = k_short
        return cls(kind=kind, k_short=k_short, k_long=k_long)

    def k_of(self, rs: RootSystem, root_idx: int) -> int:
        """The k of a root: one per root length, so one length takes one k."""
        if self.k_short != self.k_long and rs.simply_laced:
            raise DomainError(
                f"{rs.spec} has one root length and takes one k, "
                f"got k=({self.k_short},{self.k_long})"
            )
        return self.k_long if rs.length_class[root_idx] == "long" else self.k_short

    def is_good(self, rs: RootSystem) -> bool:
        """Whether confluence guarantees apply: not k_short = 0 < k_long."""
        if self.kind == "central":
            return False
        return not (self.k_of(rs, rs.highest_short_root) == 0 < self.k_of(rs, rs.highest_root))

    def k_max(self) -> int:
        return max(self.k_short, self.k_long)

    @property
    def short(self) -> str:
        return _KIND_SHORT[self.kind]

    def label(self) -> str:
        if self.kind == "central":
            return self.short
        return f"{self.short} k=({self.k_short},{self.k_long})"


def _require_stabilizing(params: FiringParams) -> None:
    """Refuse central firing, which is not confluent and has no stabilization."""
    if params.kind == "central":
        raise PreconditionError("central firing does not stabilize; explore its graph")


def require_good(rs: RootSystem, params: FiringParams, force: bool = False) -> bool:
    """Gate for operations whose meaning rests on confluence; returns goodness.

    Central firing never passes.  Parameters that are not good pass only
    with ``force``, and the caller must then not rely on confluence.
    """
    _require_stabilizing(params)
    good = params.is_good(rs)
    if not good and not force:
        raise NonGoodParamsError(
            f"{params.label()} is not good on {rs.spec}; force it to proceed anyway"
        )
    return good


def rho_of_k(rs: RootSystem, params: FiringParams) -> Weight:
    """The dominant weight whose node coordinates are the per-node k values."""
    return tuple(params.k_of(rs, j) for j in rs.simple_positions)


@lru_cache(maxsize=None)
def _bounds(rs: RootSystem, params: FiringParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-root closed pairing bounds [lo, hi] for fireability.

    Built once per (system, params) pair and then served from the cache.
    """
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


def graph_symmetry_breaks(
    rs: RootSystem, params: FiringParams
) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The (map, root) pairs at which a graph symmetry breaks; none proves them all.

    The maps are g(v) = w(v) + omega: the simple reflections (omega = 0),
    which generate W, for symmetric firing, and each (omega, w) of
    ``subgroup_C``, which fixes rho/h, for truncated firing.  For beta in
    Phi, the undirected edge {x, x + beta} is present exactly when
    <x, beta^vee> lies in I(beta): [lo, hi] from ``_bounds`` for a positive
    root, and [-hi - 2, -lo - 2] for its negative.  g sends that edge to
    {g(x), g(x) + w(beta)}, present exactly when <x, beta^vee> lies in
    I(w(beta)) - <omega, w(beta)^vee>.  The pairing takes every integer, so
    g carries the graph onto itself, at every weight, exactly when that
    interval is I(beta) for every beta; empty intervals are equal.  A
    broken root is given in simple-root coordinates.
    """
    if params.kind == "symmetric":
        maps = [(f"s{i}", rs.zero(), (i,)) for i in range(1, rs.rank + 1)]
    elif params.kind == "truncated":
        maps = [(f"C[{i}]", omega, word) for i, (omega, word) in enumerate(subgroup_C(rs))]
    else:
        raise PreconditionError("symmetry check applies to symmetric/truncated kinds")
    lo, hi = _bounds(rs, params)
    # each beta in Phi, keyed by its weight: (root, coroot row, I(beta), () if empty)
    phi = {}
    for r, w, c, a, b in zip(rs.pos_roots, rs.pos_root_weights, rs.pos_coroots, lo, hi):
        for sign, interval in ((1, (a, b)), (-1, (-b - 2, -a - 2))):
            phi[tuple(sign * x for x in w)] = (
                tuple(sign * x for x in r),
                tuple(sign * x for x in c),
                interval if a <= b else (),
            )
    breaks = []
    for name, omega, word in maps:
        for w, (root, _, interval) in phi.items():
            _, coroot, image = phi[apply_word(rs, word, w)]
            shift = sum(map(mul, coroot, omega))
            if tuple(x - shift for x in image) != interval:
                breaks.append((name, root))
    return tuple(breaks)


def quotient_affine_image(
    rs: RootSystem, element: tuple[Weight, WeylWord], weight: Weight
) -> Weight:
    """Apply the affine symmetry v -> w(v - rho/h) + rho/h of truncated firing.

    ``element`` is an (omega, w) pair of ``subgroup_C``, whose w(rho) is
    rho - h*omega, so the map is w(v) + omega.
    """
    omega, word = element
    return tuple(map(add, apply_word(rs, word, weight), omega))


def fireable_roots(rs: RootSystem, weight: Weight, params: FiringParams) -> list[int]:
    """Indices into ``pos_roots`` of the roots fireable at this weight."""
    lo, hi = _bounds(rs, params)
    pair = kernel.pairings(rs._coroot_chain, weight)
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


def _chamber_shift(rs: RootSystem, weight: Weight, params: FiringParams) -> Weight:
    """w(rho_k), for the ``w`` of ``dominant_rep`` carrying the chamber to ``weight``."""
    _, word = dominant_rep(rs, weight)
    return apply_word(rs, word, rho_of_k(rs, params))


def eta(rs: RootSystem, weight: Weight, params: FiringParams) -> Weight:
    """Dilation map labeling sinks: translate by the chamber image of rho_k."""
    return tuple(map(add, weight, _chamber_shift(rs, weight, params)))


def eta_inverse(rs: RootSystem, mu: Weight, params: FiringParams) -> Weight | None:
    """The unique preimage under ``eta``, or None if not in the image."""
    cand = tuple(map(sub, mu, _chamber_shift(rs, mu, params)))
    return cand if eta(rs, cand, params) == mu else None


def labels_a_sink(rs: RootSystem, label: Weight, params: FiringParams) -> bool:
    """Whether ``eta(rs, label, params)`` is a sink.

    Every label does under truncated firing.  Under symmetric firing a
    label does exactly when no positive root pairs to -1 with it.
    """
    _require_stabilizing(params)
    if params.kind != "symmetric":
        return True
    return -1 not in kernel.pairings(rs._coroot_chain, label)


def bounding_center(rs: RootSystem, label: Weight, params: FiringParams) -> Weight:
    """dom(label) + rho_k, the center of the permutohedron holding the fiber of ``label``."""
    return tuple(map(add, dominant(rs, label), rho_of_k(rs, params)))


# -- stabilization -----------------------------------------------------------


def stabilize_trace(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    seed: int | None = None,
    limit: int | None = None,
) -> tuple[Weight, int]:
    """Fire until stable; returns (sink, number of firings).

    ``seed=None`` fires the first fireable root in positive-root order;
    a seed fires roots in a seeded-random order.  In either order,
    ``limit`` ends the run after that many firings, at the weight then
    reached.  A run cut within the least step budget of any weight
    cannot overrun its own, so that budget is not computed (see
    ``_stabilize_inputs``).
    """
    lo, hi, least = _stabilize_inputs(rs, params)
    if limit is not None and limit < 0:
        raise PreconditionError(f"a firing limit must be nonnegative, got {limit}")
    pair = kernel.pairings(rs._coroot_chain, weight)
    budget = least if limit is not None and limit <= least else _step_budget(pair, params)
    final, steps = kernel.stabilize(pair, rs.pos_gram, lo, hi, budget, seed, limit)
    return rs.weight_of(final), steps


@lru_cache(maxsize=None)
def _stabilize_inputs(rs: RootSystem, params: FiringParams) -> tuple:
    """(lo bounds, hi bounds, least step budget), read once per (system, params).

    Refuses central firing.  A run cut at ``limit`` firings cannot overrun
    a budget of ``limit`` or more, so when ``limit`` is at most the least
    budget, ``stabilize_trace`` passes that and scans no pairings for
    ``_step_budget``: a one-firing check of ``fiber`` pays no scan.
    """
    _require_stabilizing(params)
    return (*_bounds(rs, params), _least_budget(len(rs.pos_roots), params))


def _step_budget(pair, params: FiringParams) -> int:
    """A crude quadratic-potential bound on firings from ``pair``; exceeding it is a bug."""
    return 4 * len(pair) * (max(map(abs, pair), default=0) + params.k_max() + 2) ** 2


def _least_budget(m: int, params: FiringParams) -> int:
    """``_step_budget`` at max|p| = 0: the least budget any weight with m pairings gets."""
    return 4 * m * (params.k_max() + 2) ** 2


def stabilize(
    rs: RootSystem, weight: Weight, params: FiringParams, limit: int | None = None
) -> Weight:
    """The weight reached by firing the first fireable root until stable.

    ``limit`` ends the run after that many firings.  A seeded-random
    order goes through ``stabilize_trace``.
    """
    return stabilize_trace(rs, weight, params, None, limit)[0]


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


def require_trials(trials: int, seed: int) -> None:
    """Refuse fewer than two trials, or any of their seeds outside [0, 2**64).

    The trials use the seeds ``seed`` to ``seed + trials - 1``.
    """
    if trials < 2:
        raise PreconditionError("need at least two trials")
    kernel.require_seeds(seed, trials)


def check_confluence_random(
    rs: RootSystem,
    weight: Weight,
    params: FiringParams,
    trials: int,
    seed: int,
) -> bool:
    """Whether ``trials`` seeded-random firing orders from ``weight`` agree.

    A sample, not a proof: ``reachable_sinks`` certifies every order at
    once, and ``verify confluence`` fires orders only from the weights of
    a good row that can reach two sinks, where they may disagree.  The
    orders use the seeds ``seed`` to ``seed + trials - 1`` (see
    ``require_trials``), one ``kernel.stabilize`` call each.  Final pairing
    vectors are compared directly: they are equal exactly when the sinks are.
    """
    _require_stabilizing(params)
    require_trials(trials, seed)
    lo, hi = _bounds(rs, params)
    pair = kernel.pairings(rs._coroot_chain, weight)
    budget = _step_budget(pair, params)
    finals = {
        kernel.stabilize(pair, rs.pos_gram, lo, hi, budget, s)[0]
        for s in range(seed, seed + trials)
    }
    return len(finals) == 1


# a weight's memo entry while its successors are walked; a finished entry
# packs (longest firing sequence << _SHIFT) | (index of its sink set)
_ON_STACK = -1
_SHIFT = 32


def reachable_sinks(
    rs: RootSystem, params: FiringParams, starts: Iterable[Weight]
) -> list[tuple[Weight, ...]]:
    """For each start, the sorted sinks that some firing order reaches from it.

    One memoized post-order walk of the forward closure of ``starts``, on
    pairing vectors, shared by every start of the call.  A sink reaches
    itself alone; any other weight reaches the union of what its
    successors reach, and their one tuple when they all share it.  One
    sink proves that every firing order from the start ends there, which
    no sample of orders does.  The memo is keyed by ``_radix_keys``, so a
    walked successor builds nothing, a new one only its vector and a sink
    its weight.  The walk keeps the seeded kernel's checks: the memo stops
    at the point cap; a successor still being walked is a cycle, which
    terminating firing never has; and each walked weight's longest firing
    sequence, 1 + the longest over its successors, is held to its own step
    budget (read only past the zero vector's, the least any weight gets)
    and overruns it as the kernel does.
    """
    lo, hi = _bounds(rs, params)
    gram, weight_of = rs.pos_gram, rs.weight_of
    cap = point_cap()
    starts = [tuple(start) for start in starts]
    off, base, deltas = _radix_keys(starts, rs.pos_root_weights)
    floor = _step_budget((0,) * len(gram), params)
    memo: dict[int, int] = {}
    sets: list[tuple[Weight, ...]] = []
    index: dict[tuple[Weight, ...], int] = {}
    low = (1 << _SHIFT) - 1

    def frame(key, v):
        """Stack entry of the weight keyed ``key``: its vector, fireable roots, and those left."""
        fire = [j for j, x in enumerate(v) if lo[j] <= x <= hi[j]]
        return key, v, fire, iter(fire)

    def finish(key, v, fire):
        if not fire:
            sets.append((weight_of(v),))
            return len(sets) - 1
        done = [memo[key + deltas[j]] for j in fire]
        longest = (max(done) >> _SHIFT) + 1
        if longest > floor and longest > (budget := _step_budget(v, params)):
            raise kernel._overrun(budget)
        ids = {x & low for x in done}
        idx = ids.pop()
        if ids:
            found = tuple(sorted(set(sets[idx]).union(*(sets[i] for i in ids))))
            idx = index.setdefault(found, len(sets))
            if idx == len(sets):
                sets.append(found)
        return (longest << _SHIFT) | idx

    roots = [_radix_key(start, base, off) for start in starts]
    for start, root in zip(starts, roots):
        if root not in memo:
            memo[root] = _ON_STACK
            stack = [frame(root, kernel.pairings(rs._coroot_chain, start))]
            while stack:
                key, v, fire, todo = stack[-1]
                for j in todo:
                    got = memo.get(w_key := key + deltas[j])
                    if got is None:
                        memo[w_key] = _ON_STACK
                        if len(memo) > cap:
                            what = f"{params.short} firing from {start}"
                            require_within_cap(len(memo), what)
                        stack.append(frame(w_key, [*map(add, v, gram[j])]))
                        break
                    if got == _ON_STACK:
                        raise InvariantViolationError(
                            f"{params.label()} firing from {start} runs in a cycle"
                        )
                else:
                    stack.pop()
                    memo[key] = finish(key, v, fire)
    return [sets[memo[root] & low] for root in roots]


# -- connected components and fibers ----------------------------------------


def component(rs: RootSystem, weight: Weight, params: FiringParams) -> tuple[Weight, ...]:
    """Connected component of the firing graph through ``weight``.

    Undirected breadth-first closure, for any parameters, central ones
    included: it needs neither confluence nor a label, and only the point
    cap limits it.  Each queued weight carries its vector of coroot
    pairings, computed once at ``weight``: the roots with pairing in
    bounds [lo, hi] give the out-edges, those with pairing - 2 in bounds
    the in-edges (``v - alpha`` pairs to ``p - 2`` with ``alpha``), and a
    new neighbor's vector is the current one plus or minus a row of
    ``rs.pos_gram``.  Each pairing is tested once, against the union
    [lo, hi + 2] of the two windows; only inside it does a table give the
    side or sides that hold, none where both windows are empty.

    The seen set holds one integer per weight (``_radix_keys``).  A
    neighbor's key is the current key plus the key step of its root, so
    an edge back to a seen weight builds nothing; a weight and its
    pairings are built only when it is new.
    """
    cap = point_cap()
    lo, hi = _bounds(rs, params)
    roots, gram = rs.pos_root_weights, rs.pos_gram
    m = len(roots)
    # one signed step table: out-edge t = j adds root j, in-edge t = j + m
    # its negative; v - alpha_j fires into v exactly when alpha_j is
    # fireable at v - alpha_j, and there its pairing is p_j -
    # <alpha_j, alpha_j^vee> = p_j - 2, so the in-window is [lo + 2, hi + 2]
    steps = roots + tuple(tuple(-x for x in r) for r in roots)
    rows = gram + tuple(tuple(-x for x in g) for g in gram)
    top = tuple(x + 2 for x in hi)
    # sides[j][x - lo[j]]: the edges t that hold at pairing x of the union
    sides = [
        [(j,) * (x <= b) + (j + m,) * (x >= a + 2) for x in range(a, b + 3)]
        for j, (a, b) in enumerate(zip(lo, hi))
    ]
    start = tuple(weight)
    off, base, deltas = _radix_keys([start], steps)
    key = _radix_key(start, base, off)
    seen = {key}
    members = [start]
    queue = deque([(start, kernel.pairings(rs._coroot_chain, start), key)])
    while queue:
        v, p, key = queue.popleft()
        for j, x in enumerate(p):
            if lo[j] <= x <= top[j]:
                for t in sides[j][x - lo[j]]:
                    if (w_key := key + deltas[t]) not in seen:
                        seen.add(w_key)
                        w = tuple(map(add, v, steps[t]))
                        members.append(w)
                        # a list: tuple vectors here measured ~3% more peak RSS on fits
                        queue.append((w, list(map(add, p, rows[t])), w_key))
                        if len(seen) > cap:
                            require_within_cap(len(seen), f"component of {weight}")
    return tuple(sorted(members))


def _radix_keys(starts: list[Weight], steps) -> tuple[int, int, list[int]]:
    """(off, base, the key of each step) for a search from ``starts``.

    A weight's key holds the digits of ``v + off`` in radix base =
    2 * off + 1 (``_radix_key``), so a step adds its own key.  With off =
    max|start_i| + cap * c, c the largest |coordinate| of a step, a search
    that stops past ``cap`` weights keys none more than ``cap`` steps from
    a start: its digits lie in [0, base), so distinct weights get distinct
    keys, which sort as the weights do.
    """
    off = max((abs(x) for s in starts for x in s), default=0)
    off += point_cap() * max(abs(x) for s in steps for x in s)
    base = 2 * off + 1
    return off, base, [_radix_key(step, base, 0) for step in steps]


def _radix_key(v, base: int, off: int) -> int:
    """sum((v_i + off) * base**(n - 1 - i)): the key of a weight (``_radix_keys``)."""
    key = 0
    for x in v:
        key = key * base + x + off
    return key


def fiber(
    rs: RootSystem,
    label: Weight,
    params: FiringParams,
    force: bool = False,
) -> tuple[Weight, ...]:
    """All weights whose stabilization label is ``label``.

    Empty for labels that label no sink (see ``labels_a_sink``).
    Otherwise the component of the labeled sink, certified for good
    parameters member by member.  Each member must lie in the bounding
    permutohedron of dom(label) + rho_k.  Each member ``v`` fires at most
    once, to ``w``; ``w`` must be a member, equal to ``v`` (``v`` is
    stable) exactly when ``v`` is the sink.  That certifies the sink under
    every firing order: the search adds every out-edge, so the component
    is closed under forward moves, and firing terminates, so any order
    from any member ends at a stable member, and the sink is the only one.
    The kernel finds each firing on fresh pairings, which cross-checks
    ``component``'s incremental ones along one edge per member.  With
    ``force`` (non-good parameters) neither check runs.
    """
    good = require_good(rs, params, force)
    if not labels_a_sink(rs, label, params):
        return ()
    sink = eta(rs, label, params)
    comp = component(rs, sink, params)
    if good:
        center = bounding_center(rs, label, params)
        members = set(comp)
        for v in comp:
            if not perm_contains(rs, center, v):
                raise InvariantViolationError(
                    f"fiber of {label} escapes its bounding permutohedron at {v}"
                )
            w = stabilize(rs, v, params, limit=1)
            if w not in members or (w == v) != (v == sink):
                raise InvariantViolationError(
                    f"{v} is connected to sink {sink} but stabilizes elsewhere"
                )
    return comp


# -- explicit graphs ---------------------------------------------------------


class FiringGraph(namedtuple("FiringGraph", "system params vertices edges")):
    """Finite induced subgraph of a firing relation, deterministically ordered.

    ``vertices`` is sorted, so index order is weight order; each of
    ``edges`` is a (source index, target index, root index) triple.
    """

    __slots__ = ()

    def to_json(self) -> str:
        obj = {
            "system": self.system,
            "params": self.params._asdict(),
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
    size = (2 * bound + 1) ** rs.rank
    require_within_cap(size, f"box of {size} points")
    return list(product(range(-bound, bound + 1), repeat=rs.rank))


def build_graph(
    rs: RootSystem, region: Iterable[Weight], params: FiringParams
) -> FiringGraph:
    """Graph induced on a finite region: edges with both endpoints inside.

    The region is read only until it passes the point cap, which refuses it.
    """
    cap = point_cap()
    seen: set[Weight] = set()
    for v in region:
        seen.add(tuple(v))
        if len(seen) > cap:
            require_within_cap(len(seen), "region")
    vertices = tuple(sorted(seen))
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
    [-1, 0]), and truncated firing terminates, so the walk of
    ``reachable_sinks`` is finite; it stops at the point cap like every
    other search.
    """
    [sinks] = reachable_sinks(rs, FiringParams(kind="central"), [weight])
    return sinks
