"""Counting stabilization fibers and fitting their Ehrhart-like polynomials.

Fits are exact, by integer forward differences.  One-variable fits cover the
single-length (simply laced) systems; two-length systems get a two-variable
fit in (k_short, k_long) on a tensor grid of good parameter values.  Every
fit is verified at held-out points with zero residual.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import product
from math import prod

from .errors import DomainError, FitInconsistentError, PreconditionError
from .firing import (
    FiringParams,
    bounding_center,
    fiber,
    quotient_affine_image,
    require_good,
    stabilization_label,
)
from .polytope import count_perm, require_within_cap
from .rootsys import RootSystem, Weight, require_dominant, subgroup_C, weyl_orbit

Exponent = tuple[int, ...]


class LatticePolynomial(namedtuple("LatticePolynomial", "variables coeffs")):
    """Polynomial with exact rational coefficients in 1 or 2 variables.

    ``coeffs`` is a sorted tuple of (exponent, Fraction) pairs.  Exponent
    keys are ``(e,)`` for one variable (k) and ``(e_s, e_l)`` for two
    (k_short, k_long).
    """

    __slots__ = ()

    @classmethod
    def from_dict(cls, variables: int, coeffs: dict) -> "LatticePolynomial":
        cleaned = {
            tuple(e): Fraction(c) for e, c in coeffs.items() if Fraction(c) != 0
        }
        return cls(variables, tuple(sorted(cleaned.items())))

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
        return dict(self.coeffs).get((0,) * self.variables, Fraction(0))

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


def _binomial_basis(start: int, n: int) -> list[list[Fraction]]:
    """Ascending monomial coefficients of C(X - start, i) for i < n."""
    out = [[Fraction(1)]]
    for i in range(1, n):
        # C(X - start, i) = C(X - start, i - 1) * (X - start - i + 1) / i
        row, shift = out[-1], start + i - 1
        out.append([(lo - shift * hi) / i for lo, hi in zip([0, *row], [*row, 0])])
    return out


def _interpolate(axes: list[list[int]], values: list[int]) -> dict[Exponent, Fraction]:
    """Exact tensor-grid interpolation over unit-step axes, in Newton's forward form.

    ``values`` (integers, in ``product(*axes)`` order) are differenced along each
    axis and become monomials through C(k - axis[0], i), of degree below len(axis).
    """
    shape = [len(xs) for xs in axes]
    diffs, stride = list(values), 1
    for n in reversed(shape):
        for i in range(1, n):
            # descending, so each difference reads the previous order's value
            for p in reversed(range(len(diffs))):
                if p // stride % n >= i:
                    diffs[p] -= diffs[p - stride]
        stride *= n
    bases = [_binomial_basis(xs[0], len(xs)) for xs in axes]
    coeffs: dict[Exponent, Fraction] = defaultdict(Fraction)
    for idx, v in zip(product(*map(range, shape)), diffs):
        if v:
            for terms in product(*(enumerate(b[i]) for b, i in zip(bases, idx))):
                coeffs[tuple(e for e, _ in terms)] += v * prod(c for _, c in terms)
    return coeffs


class FitReport(
    namedtuple(
        "FitReport",
        "system label kind polynomial samples verified_at notes",
        defaults=((),),
    )
):
    """A label's fitted polynomial, its samples, the points it was verified at, notes.

    A truncated fit's k = 0 count is held out: it leads ``samples``, marked ``held_out``.
    """

    __slots__ = ()

    def to_json_obj(self) -> dict:
        poly = self.polynomial
        return {
            "system": self.system,
            "label": list(self.label),
            "kind": self.kind,
            "variables": poly.variables,
            "monomials": poly.monomials_json(),
            "integer": poly.is_integer(),
            "nonnegative": poly.is_nonnegative(),
            "samples": list(self.samples),
            "verified_at": list(self.verified_at),
            "notes": list(self.notes),
        }


def count_fiber(rs: RootSystem, label: Weight, params: FiringParams) -> int:
    """Number of weights whose stabilization label is ``label``."""
    return len(fiber(rs, label, params))


def _fit(rs, label, flavor, counter, degree_bound) -> FitReport:
    """Sample a grid, interpolate, and verify at held-out points.

    Single-length systems fit one variable k (sampled as counter(k, k));
    two-length systems fit (k_short, k_long) with a k_long axis 0..d.
    The k (or k_short) axis is s..s+d.  s = 1 for truncated fits, whose
    k = 0 count is only held out, and for two-length symmetric fits,
    where k_short >= 1 keeps the grid good.  The degree bound d defaults
    to the rank; a count that is not a polynomial of total degree at
    most d raises ``FitInconsistentError``, and no larger d is tried.
    """
    d = rs.rank if degree_bound is None else degree_bound
    if d < 0:
        raise DomainError(f"the degree bound must be nonnegative, got {d}")
    two = not rs.simply_laced
    s = 0 if flavor == "perm" or (flavor == "sym" and not two) else 1
    axes = [list(range(s, s + d + 1))] + ([list(range(d + 1))] if two else [])
    if two:
        checks = [(0, 0)] if flavor == "sym" else []
        checks += [(s + d + 1, d + 1), (s + d + 1, 0)]
    else:
        checks = [(s + d + 1,), (s + d + 2,)]
    keys = ("ks", "kl") if two else ("k",)
    notes = ["two-length-truncated-fit-unproven"] if two and flavor == "tr" else []

    def sample(pt) -> dict:
        # pt[-1] is k_long, or k again for a single length
        return {**dict(zip(keys, pt)), "count": counter(pt[0], pt[-1])}

    samples = [sample(pt) for pt in product(*axes)]
    counts = [row["count"] for row in samples]
    poly = LatticePolynomial.from_dict(len(axes), _interpolate(axes, counts))
    if poly.total_degree() > d:
        raise FitInconsistentError(
            f"{flavor} fit for {label} on {rs.spec} has total degree above {d}"
        )
    verified = []
    for pt in checks:
        row = sample(pt)
        if poly.evaluate(*pt) != row["count"]:
            where = f"k={pt[0]}" if len(pt) == 1 else "({},{})".format(*pt)
            raise FitInconsistentError(
                f"{flavor} fit for {label} on {rs.spec} misses at {where}"
            )
        verified.append(row)
    if flavor == "tr":
        zero = {**sample((0,) * len(axes)), "held_out": True}
        samples.insert(0, zero)
        if poly.constant_term() != zero["count"]:
            notes.append("constant-term-differs-at-k0")
    return FitReport(
        system=rs.spec,
        label=tuple(label),
        kind=flavor,
        polynomial=poly,
        samples=tuple(samples),
        verified_at=tuple(verified),
        notes=tuple(notes),
    )


def fit_ehrhart_like(
    rs: RootSystem, label: Weight, kind: str, degree_bound: int | None = None
) -> FitReport:
    """Fit the fiber-count polynomial of one stabilization label."""
    params = FiringParams.make(kind, 0)
    require_good(rs, params)  # refuses central before any sample

    def counter(ks: int, kl: int) -> int:
        return count_fiber(rs, label, FiringParams.make(params.kind, ks, kl))

    return _fit(rs, label, params.short, counter, degree_bound)


def perm_ehrhart(rs: RootSystem, lam_dom: Weight) -> FitReport:
    """Fit the lattice-point count of the permutohedron of ``lam_dom + rho_k``.

    The coefficients are nonnegative integers for every dominant center;
    a fit that is not is a bug, so callers should assert the flags.
    """
    require_dominant(lam_dom)

    def counter(ks: int, kl: int) -> int:
        center = bounding_center(rs, lam_dom, FiringParams.make("symmetric", ks, kl))
        return count_perm(rs, center)

    return _fit(rs, lam_dom, "perm", counter, None)


# -- identity checks ----------------------------------------------------------


class DecompositionReport(
    namedtuple("DecompositionReport", "num_weights sym_failures tr_failures tr_asserted")
):
    """The weights checked, and those that break each decomposition identity.

    ``tr_asserted``: the truncated identity is proven only with a single root length.
    """

    __slots__ = ()

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
    otherwise).  ``params`` are the symmetric parameters at k.
    """
    require_good(rs, params)
    if params.kind != "symmetric":
        raise PreconditionError(f"the decomposition check takes sym firing, got {params.short}")
    sym_0 = FiringParams.make("symmetric", 0, 0)
    tr_k = FiringParams.make("truncated", params.k_short, params.k_long)
    tr_k1 = FiringParams.make("truncated", params.k_short + 1, params.k_long + 1)
    tr_1 = FiringParams.make("truncated", 1, 1)
    sym_fail, tr_fail = [], []
    count = 0
    for mu in region:
        mu = tuple(mu)
        count += 1
        sym_label = stabilization_label(rs, mu, params)
        if sym_label != stabilization_label(rs, stabilization_label(rs, mu, tr_k), sym_0):
            sym_fail.append(mu)
        if stabilization_label(rs, mu, tr_k1) != stabilization_label(rs, sym_label, tr_1):
            tr_fail.append(mu)
    return DecompositionReport(
        num_weights=count,
        sym_failures=tuple(sym_fail),
        tr_failures=tuple(tr_fail),
        tr_asserted=rs.simply_laced,
    )


class IterateReport(namedtuple("IterateReport", "counts fitted")):
    """Sizes of the k-fold unit-step preimages and the fit's values, k = 1..k_max."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.counts == self.fitted


def iterate_check(rs: RootSystem, label: Weight, k_max: int) -> IterateReport:
    """Check that k-fold unit-step preimages grow like the fitted polynomial."""
    if not rs.simply_laced:
        raise PreconditionError("iterated preimages are only guaranteed single-length")
    if k_max < 1:
        # k = 0 would compare two empty lists, which checks nothing
        raise PreconditionError(f"iterating needs k_max >= 1, got {k_max}")
    fit = fit_ehrhart_like(rs, label, "sym")
    params1 = FiringParams.make("symmetric", 1, 1)
    current = {tuple(label)}
    counts = []
    for k in range(1, k_max + 1):
        nxt: set[Weight] = set()
        for mu in sorted(current):
            pre = fiber(rs, mu, params1)
            if nxt & set(pre):
                raise FitInconsistentError("unit-step fibers are not disjoint")
            nxt.update(pre)
            require_within_cap(len(nxt), f"{k}-fold preimage set of {tuple(label)}")
        current = nxt
        counts.append(len(current))
    fitted = [int(fit.polynomial.evaluate(k)) for k in range(1, k_max + 1)]
    return IterateReport(counts=tuple(counts), fitted=tuple(fitted))


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
        require_within_cap(len(out), f"full-dimensional label set of {rs.spec}")
    return tuple(sorted(out))


def tr_symmetry_scan(
    rs: RootSystem, labels, params: FiringParams
) -> tuple[tuple[Weight, int, bool], ...]:
    """Observed-only check: do truncated fibers respect the affine symmetry?

    For each label and each nontrivial element of the lattice-quotient
    subgroup, compares the fiber of the transported label with the
    transported fiber.  This is empirical data, never asserted by the
    library.  ``params`` must be truncated.
    """
    if params.kind != "truncated":
        raise PreconditionError(f"the affine symmetry scan takes tr firing, got {params.short}")
    elements = subgroup_C(rs)
    out = []
    for lam in labels:
        base = fiber(rs, lam, params)
        for idx, element in enumerate(elements[1:], 1):  # C[0] is the identity
            moved_label = quotient_affine_image(rs, element, tuple(lam))
            moved_fiber = {quotient_affine_image(rs, element, v) for v in base}
            agrees = set(fiber(rs, moved_label, params)) == moved_fiber
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


def reference_poly(table: dict, label: Weight) -> LatticePolynomial:
    """The tabulated polynomial of ``label``, in as many variables as its exponents."""
    row = table[tuple(label)]
    return LatticePolynomial.from_dict(len(next(iter(row))), row)
