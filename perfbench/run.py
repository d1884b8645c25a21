#!/usr/bin/env python3
"""Benchmark for rootfire: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each pass runs in a fresh interpreter (``child.py``): it imports
``rootfire``, builds the workload's root systems (set-up), then calls
``rootfire.cli.main`` once per job, back to back, and checks every
output.  Passes repeat while another still fits in ``--seconds``.  Job
times are also taken in units of a reference computation sampled during
each job (``wall_ref``), so a change in the machine's speed cancels.  With
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported instead of the end-to-end ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES_PER_PASS = 8  # set-up-only interpreters before each pass
RUN_LIMIT_S = 170  # a run must end within 180 s

UNITS = {"wall_s": "s", "wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
# the end-to-end metrics of the result line; raw wall_s is printed and recorded only
E2E = ("wall_ref", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """The environment of every pass: default cap and backend, sources from src/.

    Bytecode is always cached (under .bench_build/), so set-up times a
    warm import whatever the caller's PYTHONDONTWRITEBYTECODE says.
    """
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("ROOTFIRE_MAX_POINTS", "ROOTFIRE_PURE", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its JSON report."""
    argv = [spec["mode"], ",".join(spec["systems"]), json.dumps(spec["jobs"])]
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *argv],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {spec['mode']} pass did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(report["package_file"]).resolve().parent != ROOT / "src" / "rootfire":
        raise BenchError(f"imported rootfire from {report['package_file']}, not from src/")
    if any(report["caches_at_start"].values()):
        raise BenchError(f"caches were warm at the start of a pass: {report['caches_at_start']}")
    return report


def environment(backend: str) -> dict:
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def job_time(job: dict, normalize: bool) -> float:
    """A job's wall time, in seconds or in units of the reference run beside it."""
    return job["seconds"] / job["ref_s"] if normalize else job["seconds"]


def job_medians(passes: list[dict], normalize: bool) -> float:
    """Sum over the jobs of each job's median time across the passes.

    Noise on a shared machine comes in bursts of a few seconds, shorter
    than a pass; a per-job median drops a burst that hit one job of one
    pass, where the median of whole-pass sums would not.
    """
    return sum(statistics.median(times) for times in zip(*(
        [job_time(j, normalize) for j in p["jobs"]] for p in passes
    )))


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    """Run one workload and return its record (result, samples, environment)."""
    base = {"systems": workloads.systems(workload), "jobs": workloads.jobs(workload, seed)}

    def child(mode):
        report = run_child({**base, "mode": mode}, deadline - time.monotonic())
        report["mode"] = mode
        return report

    warm = ROOT / ".bench_build" / f"warm-{workload}"
    if not warm.exists():
        # the first run in a checkout compiles the bytecode that every pass
        # imports, some of it lazily during the jobs; this pass is not timed
        child("run")
        warm.touch()
    probes: list[dict] = []
    passes: list[dict] = []
    start = last = time.monotonic()
    # start another pass only if one as long as the last still fits in the window
    while len(passes) < 1 + trace or 2 * time.monotonic() - last - start <= seconds:
        last = time.monotonic()
        probes += [child("setup") for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(child("trace" if trace and len(passes) % 2 else "run"))

    backends = {r["backend"] for r in probes + passes}
    if len(backends) != 1:
        raise BenchError(f"passes ran different kernel backends: {sorted(backends)}")
    attempted = sum(len(p["jobs"]) for p in passes)
    errors = [j for p in passes for j in p["jobs"] if j["error"]]
    ok = [p for p in passes if not any(j["error"] for j in p["jobs"])]
    plain = [p for p in ok if p["mode"] == "run"]
    traced = [p for p in ok if p["mode"] == "trace"]
    if not plain or (trace and not traced):
        raise BenchError(f"no pass of {workload} succeeded: {errors[0]['error']}")
    samples = {  # per pass; wall_s and wall_ref as whole-pass sums
        "wall_s": [p["wall_s"] for p in plain],
        "wall_ref": [sum(job_time(j, True) for j in p["jobs"]) for p in plain],
        "setup_s": [r["setup_s"] for r in probes + plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    values = {
        "wall_s": job_medians(plain, normalize=False),
        "wall_ref": job_medians(plain, normalize=True),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    if trace:
        metrics = layer_summary(traced, values["wall_ref"])
    else:
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in E2E}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(backends.pop()),
        "errors": sorted({j["error"] for j in errors}),
        "values": values,
        "samples": samples,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": len(errors),
            "metrics": metrics,
        },
    }


def layer_summary(traced: list[dict], untraced_wall_ref: float) -> dict:
    """Per-layer metrics: medians of times, counts checked to repeat exactly."""
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name.startswith("trace."):
            continue
        values = [p["layers"][name] for p in traced]
        if unit == "count" and len(set(values)) != 1:
            raise BenchError(f"count {name} differs between traced passes: {values}")
        value = values[0] if unit == "count" else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    overhead = job_medians(traced, normalize=True) / untraced_wall_ref
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    out["trace.coverage"] = {
        "value": statistics.median(p["covered_s"] / p["wall_s"] for p in traced),
        "unit": "ratio",
    }
    return out


def summary(record: dict) -> str:
    """One human-readable line: every end-to-end metric by name with its unit."""
    r, samples = record["result"], record["samples"]
    parts = []
    for name, unit in UNITS.items():
        values = samples[name]
        q1, _, q3 = quartiles(values)
        parts.append(
            f"{name} {record['values'][name]:.4g} {unit} "
            f"(q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)})"
        )
    rate = r["failed"] / r["attempted"]
    parts.append(f"error_rate {rate:.4g} ratio ({r['failed']}/{r['attempted']} jobs)")
    return f"{record['workload']}: " + "; ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each workload's full record to this JSON-lines file")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rootfire" / "__init__.py").is_file():
        print(f"error: no rootfire sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, args.seconds, bool(args.trace), deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("env: " + json.dumps(records[0]["env"], sort_keys=True))
    for record in records:
        print(summary(record))
        for error in record["errors"]:
            print(f"  failed job: {error}")
    if args.out:
        with open(args.out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": value
                for r in records for name, value in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
