"""Counting stabilization fibers and fitting their Ehrhart-like polynomials.

All interpolation is exact rational arithmetic.  One-variable fits cover
the single-length (simply laced) systems; two-length systems get a
two-variable fit in (k_short, k_long) on a tensor grid of good parameter
values.  Every fit is verified at held-out points with zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import DomainError, FitInconsistentError, PreconditionError
from .firing import (
    _KIND_ALIASES,
    _KIND_SHORT,
    FiringParams,
    fiber,
    rho_of_k,
    stabilization_label,
)
from .polytope import enumerate_perm
from .rootsys import RootSystem, Weight, is_dominant, weyl_orbit

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class LatticePolynomial:
    """Polynomial with exact rational coefficients in 1 or 2 variables.

    Exponent keys are ``(e,)`` for one variable (k) and ``(e_s, e_l)``
    for two (k_short, k_long).
    """

    variables: int
    coeffs: tuple[tuple[Exponent, Fraction], ...]

    @classmethod
    def from_dict(cls, variables: int, coeffs: dict) -> "LatticePolynomial":
        cleaned = {
            tuple(e): Fraction(c) for e, c in coeffs.items() if Fraction(c) != 0
        }
        return cls(variables, tuple(sorted(cleaned.items())))

    def as_dict(self) -> dict[Exponent, Fraction]:
        return dict(self.coeffs)

    def evaluate(self, *ks: int) -> Fraction:
        if len(ks) != self.variables:
            raise PreconditionError(f"expected {self.variables} arguments")
        total = Fraction(0)
        for exp, c in self.coeffs:
            term = c
            for e, k in zip(exp, ks):
                term *= Fraction(k) ** e
            total += term
        return total

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for _, c in self.coeffs)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for _, c in self.coeffs)

    def constant_term(self) -> Fraction:
        return self.as_dict().get((0,) * self.variables, Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.coeffs), default=0)

    def monomials_json(self) -> list[dict]:
        return [
            {"exp": list(e), "num": c.numerator, "den": c.denominator}
            for e, c in self.coeffs
        ]

    def __str__(self) -> str:
        names = ("k",) if self.variables == 1 else ("ks", "kl")
        parts = []
        for exp, c in sorted(self.coeffs, key=lambda t: (-sum(t[0]), t[0])):
            factors = []
            for name, e in zip(names, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            coef = str(c) if (not body or abs(c) != 1) else ("-" if c < 0 else "")
            parts.append(coef + ("*" if coef not in ("", "-") and body else "") + body)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _lagrange_1d(points: list[tuple[int, Fraction]]) -> list[Fraction]:
    """Coefficients (ascending degree) of the interpolant through points."""
    coeffs = [Fraction(0)] * len(points)
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for i, (xi, _) in enumerate(points):
            if i == j:
                continue
            # multiply basis by (X - xi)
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xi * basis[t + 1]
            denom *= xj - xi
        for t, b in enumerate(basis):
            coeffs[t] += yj * b / denom
    return coeffs


def _basis_1d(xs: list[int], j: int) -> list[Fraction]:
    vals = [(x, Fraction(1 if i == j else 0)) for i, x in enumerate(xs)]
    return _lagrange_1d(vals)


def _fit_tensor(xs, ys, value) -> dict[Exponent, Fraction]:
    """Bidegree tensor interpolation on the grid xs (k_s) by ys (k_l)."""
    bx = [_basis_1d(xs, a) for a in range(len(xs))]
    by = [_basis_1d(ys, b) for b in range(len(ys))]
    coeffs: dict[Exponent, Fraction] = {}
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            v = Fraction(value[(x, y)])
            if v == 0:
                continue
            for es, cs in enumerate(bx[a]):
                if cs == 0:
                    continue
                for el, cl in enumerate(by[b]):
                    if cl == 0:
                        continue
                    key = (es, el)
                    coeffs[key] = coeffs.get(key, Fraction(0)) + v * cs * cl
    return {k: c for k, c in coeffs.items() if c != 0}


@dataclass(frozen=True)
class FitReport:
    """A fitted counting polynomial plus the evidence behind it."""

    system: str
    label: Weight
    kind: str
    variables: int
    degree_bound: int
    polynomial: LatticePolynomial
    samples: tuple[dict, ...]
    verified_at: tuple[dict, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def integer(self) -> bool:
        return self.polynomial.is_integer()

    @property
    def nonnegative(self) -> bool:
        return self.polynomial.is_nonnegative()

    def to_json_obj(self) -> dict:
        return {
            "system": self.system,
            "label": list(self.label),
            "kind": self.kind,
            "variables": self.variables,
            "monomials": self.polynomial.monomials_json(),
            "integer": self.integer,
            "nonnegative": self.nonnegative,
            "samples": list(self.samples),
            "verified_at": list(self.verified_at),
            "notes": list(self.notes),
        }


def count_fiber(rs: RootSystem, label: Weight, params: FiringParams) -> int:
    """Number of weights whose stabilization label is ``label``."""
    return len(fiber(rs, label, params))


def _count_perm(rs: RootSystem, lam_dom: Weight, params: FiringParams) -> int:
    shifted = tuple(a + b for a, b in zip(lam_dom, rho_of_k(rs, params)))
    return len(enumerate_perm(rs, shifted).points)


def _fit_once(rs, label, flavor, counter, d) -> FitReport:
    notes: list[str] = []
    if rs.simply_laced:
        if flavor == "tr":
            sample_ks = list(range(1, d + 2))
            verify_ks = [d + 2, d + 3]
        else:
            sample_ks = list(range(d + 1))
            verify_ks = [d + 1, d + 2]
        points = []
        samples = []
        for k in sample_ks:
            c = counter(k, k)
            points.append((k, Fraction(c)))
            samples.append({"k": k, "count": c})
        poly = LatticePolynomial.from_dict(
            1, {(e,): c for e, c in enumerate(_lagrange_1d(points))}
        )
        verified = []
        for k in verify_ks:
            c = counter(k, k)
            if poly.evaluate(k) != c:
                raise FitInconsistentError(
                    f"{flavor} fit for {label} on {rs.spec} misses at k={k}"
                )
            verified.append({"k": k, "count": c})
        if flavor == "tr":
            c0 = counter(0, 0)
            samples.insert(0, {"k": 0, "count": c0, "held_out": True})
            if poly.constant_term() != c0:
                notes.append("constant-term-differs-at-k0")
        return FitReport(
            system=rs.spec,
            label=tuple(label),
            kind=flavor,
            variables=1,
            degree_bound=d,
            polynomial=poly,
            samples=tuple(samples),
            verified_at=tuple(verified),
            notes=tuple(notes),
        )

    # two root lengths: tensor grid in (k_short, k_long)
    if flavor == "perm":
        xs = list(range(d + 1))
        ys = list(range(d + 1))
        verify_pts = [(d + 1, d + 1), (d + 1, 0)]
        mandatory: list[tuple[int, int]] = []
    else:
        xs = list(range(1, d + 2))  # k_short >= 1 keeps the grid good
        ys = list(range(d + 1))
        verify_pts = [(d + 2, d + 1), (d + 2, 0)]
        mandatory = [(0, 0)] if flavor == "sym" else []
    if flavor == "tr":
        notes.append("two-length-truncated-fit-unproven")
    value = {}
    samples = []
    for ks, kl in product(xs, ys):
        c = counter(ks, kl)
        value[(ks, kl)] = c
        samples.append({"ks": ks, "kl": kl, "count": c})
    poly = LatticePolynomial.from_dict(2, _fit_tensor(xs, ys, value))
    if poly.total_degree() > d:
        raise FitInconsistentError(
            f"{flavor} fit for {label} on {rs.spec} has total degree above {d}"
        )
    verified = []
    for ks, kl in mandatory + verify_pts:
        c = counter(ks, kl)
        if poly.evaluate(ks, kl) != c:
            raise FitInconsistentError(
                f"{flavor} fit for {label} on {rs.spec} misses at ({ks},{kl})"
            )
        verified.append({"ks": ks, "kl": kl, "count": c})
    if flavor == "tr":
        c0 = counter(0, 0)
        samples.insert(0, {"ks": 0, "kl": 0, "count": c0, "held_out": True})
        if poly.constant_term() != c0:
            notes.append("constant-term-differs-at-k0")
    return FitReport(
        system=rs.spec,
        label=tuple(label),
        kind=flavor,
        variables=2,
        degree_bound=d,
        polynomial=poly,
        samples=tuple(samples),
        verified_at=tuple(verified),
        notes=tuple(notes),
    )


def _fit_with_retry(rs, label, flavor, counter, degree_bound) -> FitReport:
    d = rs.rank if degree_bound is None else degree_bound
    try:
        return _fit_once(rs, label, flavor, counter, d)
    except FitInconsistentError:
        return _fit_once(rs, label, flavor, counter, d + 1)


def fit_ehrhart_like(
    rs: RootSystem, label: Weight, kind: str, degree_bound: int | None = None
) -> FitReport:
    """Fit the fiber-count polynomial of one stabilization label."""
    full_kind = _KIND_ALIASES.get(kind)
    flavor = _KIND_SHORT.get(full_kind)
    if flavor not in ("sym", "tr"):
        raise DomainError(f"Ehrhart-like fits need kind sym or tr, got {kind!r}")

    def counter(ks: int, kl: int) -> int:
        return count_fiber(rs, label, FiringParams.make(full_kind, ks, kl))

    return _fit_with_retry(rs, label, flavor, counter, degree_bound)


def perm_ehrhart(
    rs: RootSystem, lam_dom: Weight, degree_bound: int | None = None
) -> FitReport:
    """Fit the lattice-point count of the permutohedron of ``lam_dom + rho_k``.

    The coefficients are nonnegative integers for every dominant center;
    a fit that is not is a bug, so callers should assert the flags.
    """
    if not is_dominant(lam_dom):
        raise PreconditionError(f"{lam_dom} is not dominant")

    def counter(ks: int, kl: int) -> int:
        return _count_perm(rs, lam_dom, FiringParams.make("symmetric", ks, kl))

    return _fit_with_retry(rs, lam_dom, "perm", counter, degree_bound)


# -- identity checks ----------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """Pointwise check of the two stabilization decomposition identities."""

    system: str
    k_short: int
    k_long: int
    num_weights: int
    sym_failures: tuple[Weight, ...]
    tr_failures: tuple[Weight, ...]
    tr_asserted: bool  # proven only with a single root length

    @property
    def passed(self) -> bool:
        if self.sym_failures:
            return False
        return not (self.tr_asserted and self.tr_failures)


def decomposition_check(
    rs: RootSystem, region, params: FiringParams
) -> DecompositionReport:
    """Verify label identities relating symmetric and truncated firing.

    Checked pointwise over the region: the symmetric label at k factors
    through the truncated label at k followed by symmetric at 0; and the
    truncated label at k+1 factors through symmetric at k followed by
    truncated at 1 (asserted only for single-length systems, reported
    otherwise).
    """
    if not params.is_good(rs):
        raise PreconditionError("decomposition identities need good parameters")
    sym_k = FiringParams.make("symmetric", params.k_short, params.k_long)
    sym_0 = FiringParams.make("symmetric", 0, 0)
    tr_k = FiringParams.make("truncated", params.k_short, params.k_long)
    tr_k1 = FiringParams.make("truncated", params.k_short + 1, params.k_long + 1)
    tr_1 = FiringParams.make("truncated", 1, 1)
    sym_fail, tr_fail = [], []
    count = 0
    for mu in region:
        mu = tuple(mu)
        count += 1
        if stabilization_label(rs, mu, sym_k) != stabilization_label(
            rs, stabilization_label(rs, mu, tr_k), sym_0
        ):
            sym_fail.append(mu)
        if stabilization_label(rs, mu, tr_k1) != stabilization_label(
            rs, stabilization_label(rs, mu, sym_k), tr_1
        ):
            tr_fail.append(mu)
    return DecompositionReport(
        system=rs.spec,
        k_short=params.k_short,
        k_long=params.k_long,
        num_weights=count,
        sym_failures=tuple(sym_fail),
        tr_failures=tuple(tr_fail),
        tr_asserted=rs.simply_laced,
    )


@dataclass(frozen=True)
class IterateReport:
    """Iterated unit-step preimage counts against the fitted polynomial."""

    system: str
    label: Weight
    counts: tuple[int, ...]  # sizes of the k-fold preimages, k = 1..k_max
    fitted: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.counts == self.fitted


def iterate_check(rs: RootSystem, label: Weight, k_max: int) -> IterateReport:
    """Check that k-fold unit-step preimages grow like the fitted polynomial."""
    if not rs.simply_laced:
        raise PreconditionError("iterated preimages are only guaranteed single-length")
    fit = fit_ehrhart_like(rs, label, "sym")
    params1 = FiringParams.make("symmetric", 1, 1)
    current = {tuple(label)}
    counts = []
    for _ in range(k_max):
        nxt: set[Weight] = set()
        for mu in sorted(current):
            pre = fiber(rs, mu, params1, check=False)
            if nxt & set(pre):
                raise FitInconsistentError("unit-step fibers are not disjoint")
            nxt.update(pre)
        current = nxt
        counts.append(len(current))
    fitted = [int(fit.polynomial.evaluate(k)) for k in range(1, k_max + 1)]
    return IterateReport(
        system=rs.spec, label=tuple(label), counts=tuple(counts), fitted=tuple(fitted)
    )


@dataclass(frozen=True)
class ConjectureRow:
    label: Weight
    polynomial: LatticePolynomial
    integer: bool
    nonnegative: bool
    constant_term: Fraction
    notes: tuple[str, ...]


def full_dim_labels(rs: RootSystem, dominant_only: bool = True) -> tuple[Weight, ...]:
    """Labels of full-dimensional components: 0/1 coordinate patterns.

    With ``dominant_only=False`` the full Weyl orbits of those patterns
    are returned (every label whose dominant representative has all
    coordinates in {0, 1}).
    """
    doms = [tuple(bits) for bits in product((0, 1), repeat=rs.rank)]
    if dominant_only:
        return tuple(sorted(doms))
    out: set[Weight] = set()
    for dom in doms:
        out.update(weyl_orbit(rs, dom))
    return tuple(sorted(out))


def conjecture_scan(rs: RootSystem, labels, kind: str) -> tuple[ConjectureRow, ...]:
    """Fit every label and report coefficient signs; asserts nothing."""
    rows = []
    for lam in labels:
        rep = fit_ehrhart_like(rs, lam, kind)
        rows.append(
            ConjectureRow(
                label=tuple(lam),
                polynomial=rep.polynomial,
                integer=rep.integer,
                nonnegative=rep.nonnegative,
                constant_term=rep.polynomial.constant_term(),
                notes=rep.notes,
            )
        )
    return tuple(rows)


def tr_symmetry_scan(
    rs: RootSystem, labels, params: FiringParams
) -> tuple[tuple[Weight, int, bool], ...]:
    """Observed-only check: do truncated fibers respect the affine symmetry?

    For each label and each nontrivial element of the lattice-quotient
    subgroup, compares the fiber of the transported label with the
    transported fiber.  This is empirical data, never asserted by the
    library.
    """
    from .firing import quotient_affine_image
    from .rootsys import subgroup_C

    tr = FiringParams.make("truncated", params.k_short, params.k_long)
    out = []
    for lam in labels:
        base = fiber(rs, lam, tr)
        for idx, word in enumerate(subgroup_C(rs)):
            if not word:
                continue
            moved_label = quotient_affine_image(rs, word, tuple(lam))
            moved_fiber = {quotient_affine_image(rs, word, v) for v in base}
            agrees = set(fiber(rs, moved_label, tr)) == moved_fiber
            out.append((tuple(lam), idx, agrees))
    return tuple(out)


# -- reference tables ----------------------------------------------------------

# Known closed forms for the rank-2 systems; the `verify tables` suite
# refits them from scratch and requires exact agreement.  One-variable
# exponents are (e,); two-variable exponents are (e_short, e_long).

REFERENCE_SYM_POLYS: dict[str, dict[Weight, dict[Exponent, int]]] = {
    "A2": {
        (0, 0): {(2,): 3, (1,): 3, (0,): 1},
        (1, 0): {(2,): 3, (1,): 6, (0,): 3},
        (0, 1): {(2,): 3, (1,): 6, (0,): 3},
        (1, 1): {(1,): 6, (0,): 6},
    },
    "B2": {
        (0, 0): {(0, 2): 2, (1, 1): 4, (2, 0): 1, (0, 1): 2, (1, 0): 2, (0, 0): 1},
        (1, 0): {(0, 1): 4, (1, 0): 4, (0, 0): 4},
        (0, 1): {(0, 2): 2, (1, 1): 4, (2, 0): 1, (0, 1): 6, (1, 0): 4, (0, 0): 4},
        (1, 1): {(0, 1): 4, (1, 0): 4, (0, 0): 8},
    },
    "G2": {
        (0, 0): {(0, 2): 9, (1, 1): 12, (2, 0): 3, (0, 1): 3, (1, 0): 3, (0, 0): 1},
        (1, 0): {(0, 1): 12, (1, 0): 6, (0, 0): 6},
        (0, 1): {(0, 1): 6, (1, 0): 6, (0, 0): 6},
        (1, 1): {(0, 1): 6, (1, 0): 6, (0, 0): 12},
    },
}

REFERENCE_TR_POLYS: dict[str, dict[Weight, dict[Exponent, int]]] = {
    "A2": {
        (0, 0): {(2,): 3, (1,): 3, (0,): 1},
        (1, 0): {(2,): 3, (1,): 3, (0,): 1},
        (-1, 1): {(1,): 2, (0,): 1},
        (0, -1): {(1,): 1, (0,): 1},
        (0, 1): {(2,): 3, (1,): 3, (0,): 1},
        (1, -1): {(1,): 2, (0,): 1},
        (-1, 0): {(1,): 1, (0,): 1},
        (1, 1): {(1,): 2, (0,): 1},
        (-1, 2): {(1,): 1, (0,): 1},
        (2, -1): {(1,): 1, (0,): 1},
        (-2, 1): {(1,): 1, (0,): 1},
        (1, -2): {(1,): 1, (0,): 1},
        (-1, -1): {(0,): 1},
    },
}


def reference_poly(table: dict, variables: int, label: Weight) -> LatticePolynomial:
    return LatticePolynomial.from_dict(variables, table[tuple(label)])
