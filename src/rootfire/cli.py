"""Command-line surface: info, stabilize, graph, fiber, ehrhart, verify.

Exit codes: 0 success, 1 usage error, 2 verification failure,
3 resource cap exceeded.  Output is deterministic for identical
invocations (fixed seeds, sorted iteration everywhere).

A ``verify`` suite prints one line per check, each starting with ``ok``,
``FAIL`` or ``note``, and then ``suite S on X: PASS`` (or ``FAIL``).  A
suite passes iff it printed no ``FAIL`` line; ``note`` lines report
observations that carry no guarantee and never fail.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import cache
from itertools import product

from . import ehrhart as eh
from . import firing as fi
from . import polytope as pt
from . import rootsys as rsys
from .errors import (
    ClassificationError,
    DomainError,
    FitInconsistentError,
    NonGoodParamsError,
    PreconditionError,
    ResourceCapError,
)

USAGE_EXIT, VERIFY_EXIT, CAP_EXIT = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # weights like "-3,2" must parse as positionals, not option strings;
        # none of our options look like negative numbers
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$")

    def error(self, message):  # argparse would exit(2); we want exit(1)
        raise UsageError(message)


def _parse_weight(rs, text: str):
    try:
        coords = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}") from None
    if len(coords) != rs.rank:
        raise UsageError(f"weight {text!r} has {len(coords)} coordinates, need {rs.rank}")
    return coords


def _params(kind: str, ktext: str) -> fi.FiringParams:
    try:
        ks = [int(x) for x in ktext.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse firing parameter {ktext!r}") from None
    if len(ks) not in (1, 2):
        raise UsageError(f"firing parameter {ktext!r} must be k or k_short,k_long")
    return fi.FiringParams.make(kind, *ks)


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _wfmt(w) -> str:
    return ",".join(str(c) for c in w)


# -- info ----------------------------------------------------------------------


def cmd_info(args) -> int:
    rs = rsys.from_spec(args.system)
    theta = fi.root_label(rs, rs.highest_root)
    theta_s = fi.root_label(rs, rs.highest_short_root)
    if args.format == "json":
        obj = {
            "system": rs.spec,
            "rank": rs.rank,
            "simply_laced": rs.simply_laced,
            "cartan": [list(r) for r in rs.cartan],
            "symmetrizer": list(rs.symmetrizer),
            "pos_roots": [list(r) for r in rs.pos_roots],
            "length_class": list(rs.length_class),
            "highest_root": rs.highest_root,
            "highest_short_root": rs.highest_short_root,
            "coxeter_number": rs.coxeter_number,
            "index_of_connection": rs.index_of_connection,
            "minuscule_nodes": sorted(rs.minuscule),
            "subgroup_C_size": len(rsys.subgroup_C(rs)),
        }
        _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args.out)
        return 0
    lines = [
        f"system {rs.spec}  rank {rs.rank}  simply laced: {'yes' if rs.simply_laced else 'no'}",
        "cartan matrix:",
    ]
    lines += ["  " + " ".join(f"{x:3d}" for x in row) for row in rs.cartan]
    lines.append(f"positive roots ({len(rs.pos_roots)}):")
    for i, _ in enumerate(rs.pos_roots):
        lines.append(f"  [{i}] {fi.root_label(rs, i)} ({rs.length_class[i]})")
    lines.append(f"coxeter number h = {rs.coxeter_number}")
    lines.append(f"index of connection f = {rs.index_of_connection}")
    lines.append(f"highest root = {theta}; highest short root = {theta_s}")
    minus = ",".join(str(i) for i in sorted(rs.minuscule)) or "none"
    lines.append(f"minuscule nodes: {minus}")
    lines.append(f"|C| = {len(rsys.subgroup_C(rs))}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- stabilize -------------------------------------------------------------------


def cmd_stabilize(args) -> int:
    rs = rsys.from_spec(args.system)
    params = _params(args.kind, args.k)
    weight = _parse_weight(rs, args.weight)
    good = fi.require_good(rs, params, args.force)
    sink, steps = fi.stabilize_trace(rs, weight, params, args.seed)
    label = fi.eta_inverse(rs, sink, params)
    lines = []
    if not good:
        lines.append("warning: parameters are not good; result has unverified confluence")
    lines.append(f"sink {_wfmt(sink)}")
    lines.append(f"label {_wfmt(label) if label is not None else 'none'}")
    lines.append(f"steps {steps}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- graph -----------------------------------------------------------------------


_SVG_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_render(rs, graph: fi.FiringGraph) -> str:
    b = [
        [rs.symmetrizer[j] * rs.cartan[i][j] for j in range(2)] for i in range(2)
    ]
    e1 = (math.sqrt(b[0][0]), 0.0)
    off = b[0][1] / e1[0]
    e2 = (off, math.sqrt(b[1][1] - off * off))

    f = rs.index_of_connection

    def xy(w):
        r0, r1 = (c / f for c in rs.root_coords(w))
        x = r0 * e1[0] + r1 * e2[0]
        y = r0 * e1[1] + r1 * e2[1]
        return x, -y  # svg y grows downward

    # a weight's coset of the root lattice is its root_coords mod f; each
    # coset's colour is its representative's place in minuscule_weights
    def residue(w):
        return tuple(x % f for x in rs.root_coords(w))

    coset = {residue(om): i for i, om in enumerate(rsys.minuscule_weights(rs))}

    pts = {v: xy(v) for v in graph.vertices}
    xs = [p[0] for p in pts.values()] or [0.0]
    ys = [p[1] for p in pts.values()] or [0.0]
    pad, scale = 20.0, 40.0
    w = (max(xs) - min(xs)) * scale + 2 * pad
    h = (max(ys) - min(ys)) * scale + 2 * pad

    def at(v):
        x, y = pts[v]
        return (x - min(xs)) * scale + pad, (y - min(ys)) * scale + pad

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.1f}" height="{h:.1f}" '
        f'viewBox="0 0 {w:.1f} {h:.1f}">',
        "<defs><marker id='tip' markerWidth='7' markerHeight='7' refX='6' refY='3' "
        "orient='auto'><path d='M0,0 L6,3 L0,6 z' fill='#444'/></marker></defs>",
    ]
    for s, t, _ in graph.edges:
        x1, y1 = at(graph.vertices[s])
        x2, y2 = at(graph.vertices[t])
        # stop the arrow a bit short of the target disc
        dx, dy = x2 - x1, y2 - y1
        norm = math.hypot(dx, dy) or 1.0
        x2 -= dx / norm * 6.0
        y2 -= dy / norm * 6.0
        out.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#444" stroke-width="1" marker-end="url(#tip)"/>'
        )
    for v in graph.vertices:
        x, y = at(v)
        color = _SVG_COLORS[coset[residue(v)] % len(_SVG_COLORS)]
        sink = fi.is_sink(rs, v, graph.params)
        fill = color if sink else "white"
        out.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{fill}" '
            f'stroke="{color}" stroke-width="1.5"><title>{_wfmt(v)}</title></circle>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_graph(args) -> int:
    rs = rsys.from_spec(args.system)
    if args.format == "svg" and rs.rank != 2:
        raise UsageError("svg rendering requires a rank-2 system")
    params = _params(args.kind, args.k)
    region = fi.coord_box(rs, args.box)
    graph = fi.build_graph(rs, region, params)
    if args.format == "json":
        _emit(graph.to_json() + "\n", args.out)
    elif args.format == "dot":
        _emit(graph.to_dot(rs), args.out)
    else:
        _emit(_svg_render(rs, graph), args.out)
    return 0


# -- fiber -----------------------------------------------------------------------


def cmd_fiber(args) -> int:
    rs = rsys.from_spec(args.system)
    params = _params(args.kind, args.k)
    label = _parse_weight(rs, args.label)
    pts = fi.fiber(rs, label, params, force=args.force)
    if args.format == "json":
        obj = {
            "system": rs.spec,
            "label": list(label),
            "params": params._asdict(),
            "size": len(pts),
            "weights": [list(v) for v in pts],
        }
        _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [f"fiber of {_wfmt(label)} under {params.label()}: {len(pts)} weights"]
        lines += ["  " + _wfmt(v) for v in pts]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- ehrhart ----------------------------------------------------------------------


def cmd_ehrhart(args) -> int:
    rs = rsys.from_spec(args.system)
    label = _parse_weight(rs, args.label)
    rep = eh.fit_ehrhart_like(rs, label, args.kind, args.degree)
    poly = rep.polynomial
    if args.format == "json":
        _emit(json.dumps(rep.to_json_obj(), indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [
            f"{rs.spec} {rep.kind} label {_wfmt(label)}: {poly}",
            f"integer coefficients: {poly.is_integer()}; nonnegative: {poly.is_nonnegative()}",
        ]
        if rep.notes:
            lines.append("notes: " + ", ".join(rep.notes))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- verify suites -----------------------------------------------------------------
#
# A suite yields (status, text) checks: True is ok, False is FAIL, and None is
# a note, which never fails.  cmd_verify alone prints them and gives the verdict.


def _equal_k_grid(k_max):
    """(k, params) for symmetric and truncated firing with k_short = k_long = k."""
    for k in range(k_max + 1):
        for kind in ("sym", "tr"):
            yield k, fi.FiringParams.make(kind, k, k)


def _suite_confluence(rs, args):
    # the orders are fired from few weights, or none: refuse bad ones up front
    fi.require_trials(args.trials, args.seed)
    runs = list(_equal_k_grid(args.k_max))
    if not rs.simply_laced:
        runs += [(kl, fi.FiringParams.make("sym", 0, kl)) for kl in range(1, args.k_max + 1)]
    for k, params in runs:
        box = fi.coord_box(rs, 2 * k + 2)
        # one reachable sink is reached by every order; only the rest can disagree
        split = [
            w for w, sinks in zip(box, fi.reachable_sinks(rs, params, box)) if len(sinks) > 1
        ]
        if params.is_good(rs):
            fails = sum(
                not fi.check_confluence_random(rs, w, params, args.trials, args.seed)
                for w in split
            )
            many = f", {len(split)} weights reach two or more sinks" if split else ""
            yield not split, (
                f"{rs.spec} {params.label()} box {2*k+2}: "
                f"{len(box)} weights, {len(split)} x {args.trials} orders fired, "
                f"{fails} disagreements{many}"
            )
        else:
            # no guarantee without goodness; the certificate's count is reported only
            yield None, (
                f"{rs.spec} {params.label()} (not good): "
                f"{len(split)} of {len(box)} weights reach two or more sinks"
            )


def _suite_sinks(rs, args):
    for k, params in _equal_k_grid(args.k_max):
        box = fi.coord_box(rs, 2 * k + 3)
        sinks = {w for w in box if fi.is_sink(rs, w, params)}
        labels = ((w, fi.eta_inverse(rs, w, params)) for w in box)
        expected = {w for w, lab in labels if lab is not None and fi.labels_a_sink(rs, lab, params)}
        yield sinks == expected, (
            f"{rs.spec} {params.label()} sinks: "
            f"{len(sinks)} found, {len(expected)} expected from labels"
        )


def _suite_traverse(rs, args):
    size = (args.cmax + 1) ** rs.rank
    pt.require_within_cap(size, f"label grid of {size} points")
    mism = [
        (lam, root)
        for lam in product(range(args.cmax + 1), repeat=rs.rank)
        for root, brute, formula in zip(
            rs.pos_roots, pt.traverse_bruteforce(rs, lam), pt.traverse_formula(rs, lam)
        )
        if brute != formula
    ]
    cases = size * len(rs.pos_roots)
    for lam, root in mism:
        yield False, f"{rs.spec} traverse mismatch at {lam} along {root}"
    yield not mism, f"{rs.spec} traverse: {cases} cases, {len(mism)} mismatches"


def _escaping_lengths(rs, params, center) -> set[str]:
    """The root lengths whose traverse length in P = Π^Q(center) is below their k.

    Under symmetric firing an edge, either way, joins P to its outside
    along exactly these.  P and the graph are W-invariant (``verify
    symmetry``), so such an edge has a dominant end ν in P, and by
    ``traverse_bruteforce``'s argument (at ⟨ν, β^∨⟩ = 0, s_β swaps ν ± β)
    it is some {ν, ν + β} with β > 0 and ν a string top.  It is present iff
    −k_β − 1 ≤ ⟨ν, β^∨⟩ ≤ k_β − 1, so one exists iff the least top pairing,
    the traverse length along β's length, is below k_β.
    """
    lengths = pt.traverse_bruteforce(rs, center)
    return {rs.length_class[j] for j, t in enumerate(lengths) if t < params.k_of(rs, j)}


def _suite_nonescape(rs, args):
    for k in range(args.k_max + 1):
        params = fi.FiringParams.make("sym", k, k)
        centers = [fi.bounding_center(rs, bits, params) for bits in eh.full_dim_labels(rs)]
        escapes = [(center, _escaping_lengths(rs, params, center)) for center in centers]
        for center, lengths in escapes:
            if lengths:
                yield False, f"{rs.spec} {params.label()} escapes {center}: {sorted(lengths)} roots"
        yield not any(lengths for _, lengths in escapes), (
            f"{rs.spec} {params.label()} non-escaping on {2**rs.rank} permutohedra"
        )
    if rs.spec == "B2":
        params = fi.FiringParams.make("sym", 0, 1)  # not good
        center, a1 = fi.rho_of_k(rs, params), rs.root_index((1, 0))
        alpha1, zero = rs.pos_root_weights[a1], rs.zero()
        inside = pt.perm_contains(rs, center, zero) and not pt.perm_contains(rs, center, alpha1)
        fires = (alpha1, a1) in fi.neighbors(rs, zero, params)
        if inside and fires and _escaping_lengths(rs, params, center) == {"long"}:
            yield True, "B2 sym k=(0,1) reproduces the known escaping edge 0 -> a1"
        else:
            yield False, "B2 sym k=(0,1) does not reproduce the known escaping edge"


def _suite_symmetry(rs, args):
    for _, params in _equal_k_grid(args.k_max):
        breaks = fi.graph_symmetry_breaks(rs, params)
        # a root with an empty interval carries no edge; with none there is nothing to map
        lo, hi = fi._bounds(rs, params)
        edged = 2 * sum(a <= b for a, b in zip(lo, hi))
        yield not breaks if edged else None, (
            f"{rs.spec} {params.label()}: {edged} of {2 * len(lo)} roots carry edges, "
            f"{len(breaks)} breaks at any weight"
        )


def _suite_decompose(rs, args):
    for k in range(args.k_max + 1):
        params = fi.FiringParams.make("sym", k, k)
        rep = eh.decomposition_check(rs, fi.coord_box(rs, args.box), params)
        extra = "" if rep.tr_asserted else " (truncated identity reported only)"
        yield rep.passed, (
            f"{rs.spec} k={k} decomposition on {rep.num_weights} weights: "
            f"{len(rep.sym_failures)} sym fails, {len(rep.tr_failures)} tr fails{extra}"
        )


def _suite_iterate(rs, args):
    # each label once: on A1, rho is omega_1
    omegas = (rs.fundamental_weight(i) for i in range(1, rs.rank + 1))
    for lam in dict.fromkeys([rs.zero(), *omegas, rs.rho()]):
        rep = eh.iterate_check(rs, lam, args.k_max)
        yield rep.passed, (
            f"{rs.spec} iterate {_wfmt(lam)}: "
            f"counts {list(rep.counts)} vs fitted {list(rep.fitted)}"
        )


def _suite_tables(rs, args):
    if rs.spec not in eh.REFERENCE_SYM_POLYS:
        raise UsageError(f"no reference table for {rs.spec}")
    for kind, tables in (("sym", eh.REFERENCE_SYM_POLYS), ("tr", eh.REFERENCE_TR_POLYS)):
        table = tables.get(rs.spec, {})
        for lam in sorted(table):
            poly = eh.fit_ehrhart_like(rs, lam, kind).polynomial
            good = poly == eh.reference_poly(table, lam)
            # a truncated fit must also have constant term 1
            yield good and (kind == "sym" or poly.constant_term() == 1), (
                f"{rs.spec} {kind} {_wfmt(lam)}: {poly}"
            )


def _suite_conjectures(rs, args):
    # findings are data, never a failure
    rows = {
        kind: [
            eh.fit_ehrhart_like(rs, lam, kind)
            for lam in eh.full_dim_labels(rs, dominant_only=kind == "sym")
        ]
        for kind in ("sym", "tr")
    }
    for kind, scanned in rows.items():
        for row in scanned:
            poly = row.polynomial
            extra = f" constant={poly.constant_term()}" if kind == "tr" else ""
            yield None, (
                f"{rs.spec} {kind} {_wfmt(row.label)}: {poly} "
                f"integer={poly.is_integer()} nonnegative={poly.is_nonnegative()}{extra}"
            )
    sym_checks = eh.tr_symmetry_scan(
        rs, eh.full_dim_labels(rs), fi.FiringParams.make("tr", 1, 1)
    )
    for lam, idx, agrees in sym_checks:
        yield None, (
            f"{rs.spec} tr k=1 fiber of {_wfmt(lam)} under C[{idx}]: "
            f"{'respects' if agrees else 'breaks'} the affine symmetry"
        )
    yield True, f"{rs.spec} scanned {len(rows['sym'])} sym and {len(rows['tr'])} tr rows"


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# every option a suite may read; each suite's parser offers only its own
_SUITE_OPTIONS = {
    "k": (
        ("--k",),
        dict(dest="k_max", type=_nonnegative, default=2, help="largest k checked"),
    ),
    "trials": (("--trials",), dict(type=int, default=25)),
    "seed": (("--seed",), dict(type=int, default=2024)),
    "box": (("--box",), dict(type=int, default=4)),
    "cmax": (("--cmax",), dict(type=_nonnegative, default=3)),
}

SUITES = {
    "confluence": (_suite_confluence, ("k", "trials", "seed")),
    "sinks": (_suite_sinks, ("k",)),
    "traverse": (_suite_traverse, ("cmax",)),
    "nonescape": (_suite_nonescape, ("k",)),
    "symmetry": (_suite_symmetry, ("k",)),
    "decompose": (_suite_decompose, ("k", "box")),
    "iterate": (_suite_iterate, ("k",)),
    "tables": (_suite_tables, ()),
    "conjectures": (_suite_conjectures, ()),
}


def cmd_verify(args) -> int:
    rs = rsys.from_spec(args.system)
    if rs.rank > 4 and not args.force:
        raise UsageError(
            f"verification suites enumerate exhaustively and default to rank <= 4; "
            f"pass --force to run on {rs.spec}"
        )
    checks = [
        ("note" if status is None else "ok" if status else "FAIL", text)
        for status, text in SUITES[args.suite][0](rs, args)
    ]
    passed = all(word != "FAIL" for word, _ in checks)
    lines = [f"{word} - {text}" for word, text in checks]
    lines.append(f"suite {args.suite} on {rs.spec}: {'PASS' if passed else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if passed else VERIFY_EXIT


# -- entry point --------------------------------------------------------------------


@cache  # one tree per process, built at the first main call
def build_parser() -> _Parser:
    p = _Parser(prog="rootfire", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run):
        sp.add_argument("--out", help="write output to a file instead of stdout")
        sp.add_argument("--max-points", type=int, help="enumeration cap override")
        sp.set_defaults(run=run)

    sp = sub.add_parser("info", help="print root-system data")
    sp.add_argument("system")
    sp.add_argument("--format", default="text", choices=("text", "json"))
    common(sp, cmd_info)

    sp = sub.add_parser("stabilize", help="fire a weight until stable")
    sp.add_argument("system")
    sp.add_argument("kind", help="sym or tr")
    sp.add_argument("k", help="k or k_short,k_long")
    sp.add_argument("weight", help="comma-separated coordinates")
    sp.add_argument("--seed", type=int, help="use a seeded-random firing order")
    sp.add_argument("--force", action="store_true", help="allow non-good parameters")
    common(sp, cmd_stabilize)

    sp = sub.add_parser("graph", help="export the firing graph on a box")
    sp.add_argument("system")
    sp.add_argument("kind", help="sym, tr, or central")
    sp.add_argument("k", help="k or k_short,k_long")
    sp.add_argument("--box", type=int, default=3, help="coordinate box bound")
    sp.add_argument("--format", default="dot", choices=("dot", "json", "svg"))
    common(sp, cmd_graph)

    sp = sub.add_parser("fiber", help="list weights with a given stabilization label")
    sp.add_argument("system")
    sp.add_argument("kind")
    sp.add_argument("k")
    sp.add_argument("label")
    sp.add_argument("--force", action="store_true")
    sp.add_argument("--format", default="text", choices=("text", "json"))
    common(sp, cmd_fiber)

    sp = sub.add_parser("ehrhart", help="fit a stabilization-count polynomial")
    sp.add_argument("system")
    sp.add_argument("kind", help="sym or tr")
    sp.add_argument("label")
    sp.add_argument("--degree", type=int, help="degree bound (default: rank)")
    sp.add_argument("--format", default="text", choices=("text", "json"))
    common(sp, cmd_ehrhart)

    sp = sub.add_parser("verify", help="run a named verification suite")
    suites = sp.add_subparsers(dest="suite", required=True, metavar="suite")
    for name, (_, options) in SUITES.items():
        ssp = suites.add_parser(name)
        ssp.add_argument("system")
        for option in options:
            flags, kwargs = _SUITE_OPTIONS[option]
            ssp.add_argument(*flags, **kwargs)
        ssp.add_argument("--force", action="store_true", help="lift the rank <= 4 default")
        common(ssp, cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # the scope checks the cap on entry, so a bad cap fails every command
        with pt.scoped_cap(args.max_points):
            return args.run(args)
    except (
        UsageError,
        ClassificationError,
        DomainError,
        PreconditionError,
        NonGoodParamsError,
    ) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except FitInconsistentError as exc:
        print(f"fit failed verification: {exc}", file=sys.stderr)
        return VERIFY_EXIT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return CAP_EXIT


if __name__ == "__main__":
    sys.exit(main())
