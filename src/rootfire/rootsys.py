"""Exact arithmetic for the irreducible crystallographic root systems.

Conventions, fixed across the whole package:

* Weights are tuples of integers in the fundamental-weight basis, so
  coordinate ``i`` of a weight is its pairing with the i-th simple coroot.
* Roots are tuples of integers in the simple-root basis.
* ``RootSystem.root_coords`` returns simple-root coordinates scaled by the
  index of connection f (``index_of_connection``), so they are integers
  for every integer weight; a weight lies in the root lattice exactly
  when all of them are divisible by f.
* ``cartan[i][j]`` is the pairing of the i-th simple root with the j-th
  simple coroot; consequently row ``i`` of the Cartan matrix is the i-th
  simple root written in weight coordinates.
* Node indices in the public API (simple reflections, Weyl words, support
  sets, minuscule nodes) are 1-based, following the standard Bourbaki
  numbering of Dynkin diagrams.  Positions into ``pos_roots`` are plain
  0-based list indices.

Everything here is integer or ``fractions.Fraction`` arithmetic; no floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import itemgetter, mul, sub

from .errors import (
    ClassificationError,
    DomainError,
    InvariantViolationError,
    PreconditionError,
)

Weight = tuple[int, ...]
RootVec = tuple[int, ...]
WeylWord = tuple[int, ...]

_VALID_RANKS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def parse_system(spec: str) -> tuple[str, int]:
    """Parse a specifier like ``"A2"`` or ``"b3"`` into (letter, rank)."""
    m = re.fullmatch(r"\s*([A-Za-z])\s*([0-9]+)\s*", spec or "")
    if not m:
        raise ClassificationError(f"cannot parse root-system specifier {spec!r}")
    letter = m.group(1).upper()
    rank = int(m.group(2))
    if letter not in _VALID_RANKS or not _VALID_RANKS[letter](rank):
        raise ClassificationError(f"no irreducible root system of type {letter}{rank}")
    return letter, rank


def _dynkin_edges(letter: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, cij, cji) of the Dynkin diagram, 0-based nodes."""
    path = [(i, i + 1, -1, -1) for i in range(rank - 1)]
    if letter == "A":
        return path
    if letter == "B":  # short root at node n
        path[-1] = (rank - 2, rank - 1, -2, -1)
        return path
    if letter == "C":  # long root at node n
        path[-1] = (rank - 2, rank - 1, -1, -2)
        return path
    if letter == "D":
        return path[:-1] + [(rank - 3, rank - 1, -1, -1)]
    if letter == "E":  # node 2 hangs off node 4; chain 1-3-4-5-...
        chain = [(0, 2, -1, -1), (1, 3, -1, -1)]
        chain += [(i, i + 1, -1, -1) for i in range(2, rank - 1)]
        return chain
    if letter == "F":
        return [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]
    if letter == "G":
        return [(0, 1, -1, -3)]
    raise ClassificationError(letter)


def _cartan_matrix(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in _dynkin_edges(letter, rank):
        c[i][j] = cij
        c[j][i] = cji
    return tuple(tuple(row) for row in c)


def _symmetrizer(cartan) -> tuple[int, ...]:
    """Positive integers d with d[j]*C[i][j] symmetric, normalized min = 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                # d[j] * C[i][j] = d[i] * C[j][i]
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                queue.append(j)
    if any(x is None for x in d):
        raise InvariantViolationError("Dynkin diagram is not connected")
    lo = min(d)
    out = tuple(int(x / lo) for x in d)
    if any(x / lo != int(x / lo) for x in d):
        raise InvariantViolationError("non-integer symmetrizer")
    return out


def _scaled_inverse_transpose(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The index of connection f and the integer matrix f * (C^T)^-1.

    One exact Gauss-Jordan pass over ``[C^T | I]``; the product of its
    pivots is det C up to sign, and f = |det C|.
    """
    n = len(cartan)
    aug = [
        [Fraction(cartan[j][i]) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        det *= scale
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    f = abs(det)
    scaled = [[f * x for x in row[n:]] for row in aug]
    if f.denominator != 1 or any(x.denominator != 1 for row in scaled for x in row):
        raise InvariantViolationError("f * (C^T)^-1 is not an integer matrix")
    return int(f), tuple(tuple(int(x) for x in row) for row in scaled)


def _coroot_chain(coroots) -> tuple[tuple[int, int, int], ...]:
    """The positive coroots as a chain that ``kernel.pairings`` reads.

    One entry ``(i, parent, j)`` per coroot, in coroot-height order:
    coroot i is coroot ``parent`` plus the j-th simple coroot, so a
    weight pairs with it to its pairing with ``parent`` plus its
    coordinate j.  A simple coroot's parent is ``len(coroots)``, a slot
    past the last position that stands for the zero coroot.  Every
    non-simple positive coroot is a positive coroot plus a simple one
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    10.2), so a parent always exists in a root system; a coroot list
    without one is refused.
    """
    m = len(coroots)
    position = {c: i for i, c in enumerate(coroots)}
    position[(0,) * len(coroots[0])] = m
    chain = []
    for i in sorted(range(m), key=lambda i: (sum(coroots[i]), i)):
        c = coroots[i]
        for j, x in enumerate(c):
            parent = position.get(c[:j] + (x - 1,) + c[j + 1 :])
            if parent is not None:
                chain.append((i, parent, j))
                break
        else:
            raise InvariantViolationError(
                f"coroot {c} is not a positive coroot plus a simple one"
            )
    return tuple(chain)


class RootSystem:
    """Immutable bundle of Cartan data for one irreducible root system.

    Attributes
    ----------
    type_letter, rank : classification data ("A".."G", positive int).
    cartan : Cartan matrix as a tuple of integer row tuples.
    dynkin_links : ``dynkin_links[i]`` holds the pairs ``(k, cartan[i][k])``
        for the Dynkin neighbours k of node i; the i-th simple reflection
        changes coordinate i and these coordinates only.
    symmetrizer : per-node half squared lengths d_i, normalized min 1.
    pos_roots : positive roots in simple-root coordinates, sorted by
        (height, lexicographic).
    pos_root_weights : the same roots in fundamental-weight coordinates.
    pos_coroots : integer rows r with ``pairing(v, alpha) = r . v``.
    pos_gram : ``pos_gram[i][j]`` is the pairing of root i with coroot j;
        row i is what firing root i adds to a weight's pairing vector.
    simple_positions : ``simple_positions[i]`` is the index in ``pos_roots``
        of the (i+1)-th simple root.  A weight's pairing vector holds its
        coordinates at these positions.
    weight_of : the weight of a pairing vector, the tuple of its entries
        at ``simple_positions``.
    root_d : per-root half squared length d_alpha = <alpha, alpha>/2 under
        the symmetrized form, read from ``quad_norm`` of the root's weight
        coordinates; ``length_class`` tags long/short.
    highest_root, highest_short_root : indices into ``pos_roots``.
    coxeter_number, index_of_connection : the invariants h and f.
    minuscule : frozenset of 1-based node indices of minuscule weights: the
        nodes where the highest coroot ``pos_coroots[highest_short_root]``,
        which bounds every coroot entrywise, has coefficient 1.
    """

    def __init__(self, type_letter: str, rank: int):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan = _cartan_matrix(type_letter, rank)
        self.dynkin_links = tuple(
            tuple((k, a) for k, a in enumerate(row) if a and k != i)
            for i, row in enumerate(self.cartan)
        )
        self.symmetrizer = _symmetrizer(self.cartan)
        self.index_of_connection, self._scaled_inv_t = _scaled_inverse_transpose(
            self.cartan
        )

        self.pos_roots = self._generate_pos_roots()
        self._root_index = {r: i for i, r in enumerate(self.pos_roots)}
        self.simple_positions = tuple(
            self.root_index(tuple(int(j == i) for j in range(rank))) for i in range(rank)
        )
        # at rank 1 the one root is simple, so the vector is the weight
        # (and itemgetter of one index would return a bare entry)
        self.weight_of = itemgetter(*self.simple_positions) if rank > 1 else tuple
        self.pos_root_weights = tuple(
            tuple(sum(a * self.cartan[i][j] for i, a in enumerate(r)) for j in range(rank))
            for r in self.pos_roots
        )
        self.root_d = tuple(map(self._half_norm, self.pos_root_weights))
        long_d = max(self.root_d)
        self.length_class = tuple("long" if d == long_d else "short" for d in self.root_d)
        self.pos_coroots = tuple(
            self._coroot_coords(r, d) for r, d in zip(self.pos_roots, self.root_d)
        )
        self.pos_gram = tuple(
            tuple(sum(map(mul, cor, w)) for cor in self.pos_coroots)
            for w in self.pos_root_weights
        )
        # what ``kernel.pairings`` reads in place of ``pos_coroots``
        self._coroot_chain = _coroot_chain(self.pos_coroots)

        dominant = [
            i for i, cw in enumerate(self.pos_root_weights) if all(c >= 0 for c in cw)
        ]
        longs = [i for i in dominant if self.length_class[i] == "long"]
        shorts = [i for i in dominant if self.length_class[i] == "short"]
        if len(longs) != 1 or len(shorts) > 1:
            raise InvariantViolationError("dominant roots are not as classified")
        self.highest_root = longs[0]
        self.highest_short_root = shorts[0] if shorts else longs[0]

        top = self.pos_coroots[self.highest_short_root]
        self.coxeter_number = 1 + sum(top)
        self.minuscule = frozenset(j + 1 for j, c in enumerate(top) if c == 1)
        self._validate()

    # -- construction internals -------------------------------------------

    def _generate_pos_roots(self):
        """Closure of the simple roots under simple reflections."""
        n = self.rank
        simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
        seen = set(simple)
        queue = list(simple)
        while queue:
            v = queue.pop()
            for j in range(n):
                c = sum(v[i] * self.cartan[i][j] for i in range(n))
                w = v[:j] + (v[j] - c,) + v[j + 1 :]
                if w not in seen and all(x >= 0 for x in w):
                    seen.add(w)
                    queue.append(w)
        return tuple(sorted(seen, key=lambda r: (sum(r), r)))

    def _half_norm(self, root_weight: Weight) -> int:
        """d_alpha = <alpha, alpha>/2, from alpha in weight coordinates.

        ``quad_norm`` gives f * <alpha, alpha>, so d_alpha is that over 2f.
        """
        d_alpha, rest = divmod(self.quad_norm(root_weight), 2 * self.index_of_connection)
        if d_alpha <= 0 or rest:
            raise InvariantViolationError(f"bad squared length for {root_weight}")
        return d_alpha

    def _coroot_coords(self, root: RootVec, d_alpha: int) -> tuple[int, ...]:
        out = []
        for j, a in enumerate(root):
            num = self.symmetrizer[j] * a
            if num % d_alpha:
                raise InvariantViolationError(f"non-integral coroot for {root}")
            out.append(num // d_alpha)
        return tuple(out)

    def _validate(self):
        n, h = self.rank, self.coxeter_number
        if 2 * len(self.pos_roots) != n * h:
            raise InvariantViolationError("positive-root count disagrees with n*h/2")
        theta = self.pos_roots[self.highest_root]
        if h != 1 + sum(theta):
            raise InvariantViolationError("Coxeter number mismatch")
        if any(a > b for r in self.pos_roots for a, b in zip(r, theta)):
            raise InvariantViolationError("highest root is not a root-order maximum")
        if len(self.minuscule) != self.index_of_connection - 1:
            raise InvariantViolationError("minuscule count disagrees with f - 1")

    # -- small conveniences ------------------------------------------------

    @property
    def spec(self) -> str:
        return f"{self.type_letter}{self.rank}"

    @property
    def simply_laced(self) -> bool:
        return min(self.symmetrizer) == max(self.symmetrizer)

    def zero(self) -> Weight:
        return (0,) * self.rank

    def fundamental_weight(self, i: int) -> Weight:
        """The i-th fundamental weight (1-based node index)."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def rho(self) -> Weight:
        return (1,) * self.rank

    def root_index(self, root: RootVec) -> int:
        """Index of a positive root in ``pos_roots``."""
        try:
            return self._root_index[tuple(root)]
        except KeyError:
            raise DomainError(f"{root} is not a positive root of {self.spec}") from None

    def root_coords(self, weight) -> tuple[int, ...]:
        """Simple-root coordinates of a weight-coordinate vector, times f.

        Integers for an integer weight; ``f = index_of_connection``.
        """
        return tuple([sum(map(mul, row, weight)) for row in self._scaled_inv_t])

    def quad_norm(self, weight) -> int:
        """f times the squared length of an integer weight-coordinate vector.

        In the symmetrized form that is sum_j d_j * r_j * weight_j with
        r = ``root_coords(weight)``, an integer; ``f = index_of_connection``.
        """
        r = self.root_coords(weight)
        return sum(map(mul, map(mul, self.symmetrizer, r), weight))

    def __repr__(self):
        return f"RootSystem({self.spec})"


@lru_cache(maxsize=None)
def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct (and cache) the irreducible root system of a given type."""
    letter, n = parse_system(f"{type_letter}{rank}")
    return RootSystem(letter, n)


def from_spec(spec: str) -> RootSystem:
    return build_root_system(*parse_system(spec))


# -- elementary operations ---------------------------------------------------


def pairing(rs: RootSystem, weight: Weight, root: RootVec) -> int:
    """Pairing of a weight with the coroot of ``root`` (root coordinates)."""
    root = tuple(root)
    neg = tuple(-x for x in root)
    if root in rs._root_index:
        row = rs.pos_coroots[rs._root_index[root]]
        return sum(r * c for r, c in zip(row, weight))
    if neg in rs._root_index:
        row = rs.pos_coroots[rs._root_index[neg]]
        return -sum(r * c for r, c in zip(row, weight))
    raise DomainError(f"{root} is not a root of {rs.spec}")


def reflect_simple(rs: RootSystem, i: int, weight):
    """Apply the i-th simple reflection (1-based) in weight coordinates.

    Works on integer weights and on exact-rational vectors alike.
    """
    if not 1 <= i <= rs.rank:
        raise DomainError(f"simple-reflection index {i} out of range for {rs.spec}")
    c = weight[i - 1]
    row = rs.cartan[i - 1]
    return tuple(x - c * a for x, a in zip(weight, row))


def apply_word(rs: RootSystem, word: WeylWord, weight):
    """Apply a Weyl word to a vector, leftmost reflection first."""
    v = tuple(weight)
    for i in word:
        v = reflect_simple(rs, i, v)
    return v


def _to_dominant(rs: RootSystem, v: list, word: list | None) -> None:
    """Reflect ``v`` in place at its first negative coordinate until dominant.

    Appends each reflected node (1-based) to ``word`` unless it is None.
    """
    links = rs.dynkin_links
    limit = len(rs.pos_roots) + 1
    steps = 0
    while True:
        for j, c in enumerate(v):
            if c < 0:
                break
        else:
            return
        v[j] = -c
        for k, a in links[j]:
            v[k] -= c * a
        if word is not None:
            word.append(j + 1)
        steps += 1
        if steps > limit:
            raise InvariantViolationError("dominant_rep failed to terminate")


def dominant_rep(rs: RootSystem, weight: Weight) -> tuple[Weight, WeylWord]:
    """Dominant representative and the minimal word carrying it back.

    Returns ``(dom, w)``: ``dom`` is the unique dominant weight in the
    Weyl orbit of ``weight``, and ``apply_word(rs, w, dom) == weight``.
    The word is built greedily: reflect at the first (lowest-index)
    negative coordinate until dominant, then reverse the reflected
    nodes; ``_iter_orbit``'s parent map is this same rule.  The word is
    reduced (its length is the number of positive roots pairing
    negatively with ``weight``); minimality is pinned by the
    inversion-count tests.
    """
    v = list(weight)
    recorded: list[int] = []
    _to_dominant(rs, v, recorded)
    return tuple(v), tuple(reversed(recorded))


def dominant(rs: RootSystem, weight: Weight) -> Weight:
    """The dominant weight of ``dominant_rep``, without recording the word."""
    v = list(weight)
    _to_dominant(rs, v, None)
    return tuple(v)


def require_dominant(weight: Weight) -> None:
    """Precondition of everything centered at a dominant weight."""
    if any(c < 0 for c in weight):
        raise PreconditionError(f"{weight} is not dominant")


def root_order_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """Whether ``lam - mu`` is a nonnegative integer sum of simple roots."""
    diff = tuple(map(sub, lam, mu))
    f = rs.index_of_connection
    return all(x >= 0 and x % f == 0 for x in rs.root_coords(diff))


def _iter_orbit(rs: RootSystem, weight: Weight):
    """Yield each point of the Weyl orbit of ``weight`` once, unsorted.

    The orbit is walked as a tree rooted at its dominant point.  The parent
    of a non-dominant ``w`` is ``s_j w`` for the first negative coordinate
    j of ``w`` (one step of ``dominant_rep``'s greedy rule), so the
    children of ``v`` are the ``s_i v`` with ``v_i > 0`` whose coordinates
    before i are all nonnegative.  Every point has exactly one parent, so
    no point is produced twice and no seen-set is kept.
    """
    links = rs.dynkin_links
    n = rs.rank
    # (point, index of its first negative coordinate, n if dominant)
    stack = [(dominant(rs, weight), n)]
    while stack:
        v, first = stack.pop()
        yield v
        for i in range(n):
            c = v[i]
            if c > 0:
                w = list(v)
                w[i] = -c
                for k, a in links[i]:
                    w[k] -= c * a
                # s_i with v_i > 0 raises or keeps every coordinate but i,
                # so those before ``first`` stay nonnegative
                if i < first or min(w[first:i]) >= 0:
                    stack.append((tuple(w), i))


@lru_cache(maxsize=None)  # at most 2^rank node sets per system
def _parabolic_order(rs: RootSystem, nodes: tuple[int, ...]) -> int:
    """|W_J| = Π_h (h+1)^(n_h − n_{h+1}), J the 0-based ``nodes``.

    n_h counts the positive roots of height h supported on J (Kostant
    1959; Humphreys, *Reflection Groups and Coxeter Groups*, §3.20).
    """
    n = [0] * (len(rs.pos_roots) + 2)
    for root in rs.pos_roots:
        if all(c == 0 or i in nodes for i, c in enumerate(root)):
            n[sum(root)] += 1
    return prod((h + 1) ** (n[h] - n[h + 1]) for h in range(1, len(n) - 1))


def _orbit_size(rs: RootSystem, nu_dom: Weight) -> int:
    """The Weyl orbit size |W| / |W_J| of a dominant weight with zero nodes J.

    Its stabilizer is the parabolic subgroup W_J (Humphreys, §1.12).
    """
    zeros = tuple(i for i, c in enumerate(nu_dom) if c == 0)
    return _parabolic_order(rs, tuple(range(rs.rank))) // _parabolic_order(rs, zeros)


def weyl_orbit(rs: RootSystem, weight: Weight) -> tuple[Weight, ...]:
    """The full Weyl orbit, as a tuple sorted by coordinates.

    Walks the tree whose parent map reflects at the first negative
    coordinate (see ``_iter_orbit``), so each point is built once.  An
    orbit past the point cap is refused by its size before the walk.
    """
    from .polytope import require_within_cap  # polytope imports this module

    require_within_cap(_orbit_size(rs, dominant(rs, weight)), f"Weyl orbit of {tuple(weight)}")
    return tuple(sorted(_iter_orbit(rs, weight)))


def minuscule_weights(rs: RootSystem) -> tuple[Weight, ...]:
    """Zero together with the minuscule fundamental weights, sorted."""
    out = [rs.zero()] + [rs.fundamental_weight(i) for i in sorted(rs.minuscule)]
    return tuple(sorted(out))


def subgroup_C(rs: RootSystem) -> tuple[tuple[Weight, WeylWord], ...]:
    """The lattice-quotient subgroup inside the Weyl group, as (omega, w) pairs.

    One pair per coset representative omega in ``minuscule_weights``, zero
    (the identity) first: w is the unique element with w(rho) = rho - h*omega,
    so that w(v - rho/h) + rho/h = w(v) + omega.
    """
    h, rho = rs.coxeter_number, rs.rho()
    out = []
    for omega in minuscule_weights(rs):
        target = tuple(r - h * o for r, o in zip(rho, omega))
        dom, word = dominant_rep(rs, target)
        if dom != rho:
            raise InvariantViolationError("subgroup element does not move rho correctly")
        out.append((omega, word))
    return tuple(out)
