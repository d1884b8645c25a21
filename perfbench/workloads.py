"""Workload job lists and the correctness gate for each job's output.

A workload is a fixed list of ``rootfire`` CLI jobs.  Each job is the
argument vector for ``rootfire.cli.main`` plus the check its captured
output must pass.  Only ``confluence`` uses the workload seed: it is
passed through to the CLI as ``--seed``.
"""

from __future__ import annotations

import json
from itertools import combinations

# Fitted polynomials recorded from the seed, as {exponent tuple: coefficient}.
# One-variable exponents are (e,); two-variable ones are (e_short, e_long).
A3_ZERO = {(3,): 16, (2,): 15, (1,): 6, (0,): 1}
EXPECTED_FITS = {
    ("A3", "sym", "0,0,0"): A3_ZERO,
    ("A3", "tr", "0,0,0"): A3_ZERO,
    # 36 kl^2 + 36 ks kl + 6 ks^2 + 24 kl + 12 ks + 6
    ("B3", "sym", "1,0,0"): {
        (0, 2): 36, (1, 1): 36, (2, 0): 6, (0, 1): 24, (1, 0): 12, (0, 0): 6,
    },
    ("A4", "sym", "1,1,1,1"): {(2,): 90, (1,): 240, (0,): 120},
}

WORKLOADS = ("fit", "confluence", "traverse")


def _is_forest(n: int, edges) -> bool:
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def forest_counts(n: int) -> list[int]:
    """Forests on n labeled vertices, by number of edges (brute force).

    The coefficient of k^i in the symmetric fit of label 0 on A_{n-1} is
    the number of i-edge forests on n vertices (Stanley), an oracle that
    shares no code with the firing BFS.
    """
    edges = list(combinations(range(n), 2))
    return [sum(_is_forest(n, s) for s in combinations(edges, size)) for size in range(n)]


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument vectors of one pass of a workload, in order."""
    if workload == "fit":
        return [
            ["ehrhart", system, kind, label, "--format", "json"]
            for system, kind, label in EXPECTED_FITS
        ]
    if workload == "confluence":
        return [
            ["verify", "confluence", "A3", "--k", "2", "--trials", "10", "--seed", str(seed)],
            ["verify", "confluence", "B3", "--k", "1", "--trials", "10", "--seed", str(seed)],
        ]
    if workload == "traverse":
        return [
            ["verify", "traverse", "B3", "--cmax", "4"],
            ["verify", "traverse", "A3", "--cmax", "5"],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def systems(workload: str) -> list[str]:
    """Root systems built during set-up, in first-use order."""
    specs = (argv[2] if argv[0] == "verify" else argv[1] for argv in jobs(workload, 0))
    return list(dict.fromkeys(specs))


def check(argv: list[str], code: int, out: str) -> str | None:
    """Why a job's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    if argv[0] == "verify":
        lines = out.strip().splitlines()
        want = f"suite {argv[1]} on {argv[2]}: PASS"
        if not lines or lines[-1] != want:
            return f"last line is not {want!r}"
        return None
    if argv[0] == "ehrhart":
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        system, kind, label = argv[1:4]
        got = {
            tuple(m["exp"]): (m["num"], m["den"]) for m in report.get("monomials", ())
        }
        if (system, kind, label) == ("A3", "sym", "0,0,0"):
            forests = {(e,): (c, 1) for e, c in enumerate(forest_counts(4))}
            if got != forests:
                return f"A3 sym 0,0,0: monomials {got} differ from forest counts {forests}"
        if (system, kind, label) not in EXPECTED_FITS:
            return f"no recorded fit for {system} {kind} {label}"
        want = {e: (c, 1) for e, c in EXPECTED_FITS[(system, kind, label)].items()}
        if got != want:
            return f"{system} {kind} {label}: monomials {got} differ from {want}"
        return None
    return f"no check for command {argv[0]!r}"
