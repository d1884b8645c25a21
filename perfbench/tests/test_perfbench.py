"""Tests for the benchmark's tracer, correctness gate and fresh-process passes.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, instrumented  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.t += 2

    def mid():
        clock.t += 1
        tr.span("leaf", leaf, (), {})
        clock.t += 3
        tr.span("leaf", leaf, (), {})

    def top():
        tr.span("mid", mid, (), {})
        clock.t += 5

    tr.span("top", top, (), {})
    assert dict(tr.calls) == {"top": 1, "mid": 1, "leaf": 2}
    assert dict(tr.total_s) == {"top": 13, "mid": 8, "leaf": 4}
    assert dict(tr.self_s) == {"top": 5, "mid": 4, "leaf": 4}
    assert tr.covered_s() == 13


def test_gate_accepts_the_recorded_fits_and_a_pass_line():
    for system, kind, label in workloads.EXPECTED_FITS:
        poly = workloads.EXPECTED_FITS[(system, kind, label)]
        out = json.dumps({"monomials": [
            {"exp": list(e), "num": c, "den": 1} for e, c in poly.items()
        ]})
        argv = ["ehrhart", system, kind, label, "--format", "json"]
        assert workloads.check(argv, 0, out) is None
    argv = ["verify", "traverse", "A3", "--cmax", "5"]
    assert workloads.check(argv, 0, "ok - A3 traverse\nsuite traverse on A3: PASS\n") is None


def test_gate_rejects_a_wrong_polynomial():
    argv = ["ehrhart", "A4", "sym", "1,1,1,1", "--format", "json"]
    wrong = {"monomials": [
        {"exp": [0], "num": 120, "den": 1},
        {"exp": [1], "num": 240, "den": 1},
        {"exp": [2], "num": 91, "den": 1},
    ]}
    assert workloads.check(argv, 0, json.dumps(wrong)) is not None
    assert workloads.check(argv, 2, "") is not None


def test_forest_oracle_catches_a_wrong_a3_fit():
    assert workloads.forest_counts(4) == [1, 6, 15, 16]
    argv = ["ehrhart", "A3", "sym", "0,0,0", "--format", "json"]
    off_by_one = {"monomials": [
        {"exp": [e], "num": c, "den": 1} for e, c in enumerate([1, 6, 15, 17])
    ]}
    assert "forest" in workloads.check(argv, 0, json.dumps(off_by_one))


def test_gate_rejects_a_fail_suite_line():
    argv = ["verify", "confluence", "A3", "--k", "2", "--trials", "10", "--seed", "1"]
    out = "FAIL - A3 sym k=(0,0)\nsuite confluence on A3: FAIL\n"
    assert workloads.check(argv, 0, out) is not None
    assert workloads.check(argv, 2, out) is not None
    assert workloads.check(argv, 0, "") is not None


def test_every_binding_is_wrapped_and_restored():
    import rootfire
    import rootfire.firing
    import rootfire.polytope
    import rootfire.rootsys

    original = rootfire.polytope.perm_contains
    root_coords = rootfire.rootsys.RootSystem.root_coords
    tr = Tracer()
    with instrumented(tr):
        assert rootfire.firing.perm_contains is not original
        assert rootfire.perm_contains is rootfire.polytope.perm_contains
        assert rootfire.rootsys.RootSystem.root_coords is not root_coords
        rs = rootfire.rootsys.from_spec("A2")
        rootfire.firing.fiber(rs, (0, 0), rootfire.firing.FiringParams.make("sym", 1))
    assert rootfire.firing.perm_contains is original
    assert rootfire.rootsys.RootSystem.root_coords is root_coords
    assert tr.calls["polytope.perm_contains"] == tr.counts["component.vertices"] > 0
    assert tr.calls["rootsys.root_coords"] > 0
    assert tr.counts["fiber.restabilize"] == tr.counts["fiber.points"]


def test_a_missing_function_fails_the_traced_run(monkeypatch):
    monkeypatch.setitem(LAYERS, "kernel", ("stabilize", "no_such_function"))
    import rootfire.kernel

    original = rootfire.kernel.stabilize
    with pytest.raises(LookupError, match="no_such_function"):
        with instrumented(Tracer()):
            pass
    assert rootfire.kernel.stabilize is original


def test_each_pass_starts_with_cold_caches():
    spec = {
        "mode": "run",
        "systems": ["A2"],
        "jobs": [
            ["ehrhart", "A2", "sym", "0,0", "--format", "json"],
            ["verify", "traverse", "A2", "--cmax", "1"],
        ],
    }
    reports = [run.run_child(spec, timeout=60) for _ in range(2)]
    for report in reports:
        start, end = report["caches_at_start"], report["caches_at_end"]
        assert "rootfire.rootsys.build_root_system" in start
        assert "rootfire.polytope._enumerate_perm_cached" in start
        assert not any(start.values())
        assert end["rootfire.rootsys.build_root_system"] > 0
        assert end["rootfire.polytope._enumerate_perm_cached"] > 0
        # A2 has no recorded fit, so the gate reports the first job as unchecked
        assert report["jobs"][0]["error"] is not None
        assert report["jobs"][1]["error"] is None


def test_set_up_pays_for_the_standard_library_rootfire_imports():
    # the pass loads nothing but sys and time before rootfire, so modules
    # that both rootfire and the harness need are first loaded by rootfire
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(HERE / "child.py"), "setup", "A2", "[]"],
        capture_output=True, text=True, env=run.child_env(), check=True,
    )
    done = [  # module names in the order their imports completed
        line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    ]
    assert max(done.index("fractions"), done.index("json")) < done.index("rootfire")
    assert done.index("rootfire") < done.index("statistics") < done.index("harness")


def test_compare_refuses_records_from_different_backends(tmp_path, capsys):
    import compare

    def record(backend):
        return {"workload": "fit", "trace": False, "env": {"backend": backend},
                "result": {"metrics": {}}}

    base, new = tmp_path / "base.jsonl", tmp_path / "new.jsonl"
    base.write_text(json.dumps(record("pure")) + "\n")
    new.write_text(json.dumps(record("compiled")) + "\n")
    assert compare.main(["--base", str(base), "--new", str(new)]) == 1
    assert "backends differ" in capsys.readouterr().err


def test_wall_is_the_sum_of_per_job_medians_raw_or_in_reference_units():
    def job(seconds, ref_s):
        return {"seconds": seconds, "ref_s": ref_s}

    # the slow second pass runs at half speed: twice the time, twice the reference
    passes = [
        {"jobs": [job(1.0, 0.001), job(3.0, 0.001)]},
        {"jobs": [job(2.0, 0.002), job(6.0, 0.002)]},
        {"jobs": [job(1.2, 0.001), job(2.8, 0.001)]},
    ]
    assert run.job_medians(passes, normalize=False) == pytest.approx(1.2 + 3.0)
    assert run.job_medians(passes, normalize=True) == pytest.approx(1000 + 3000)
