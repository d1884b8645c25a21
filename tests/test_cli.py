"""CLI surface: parsing, output determinism, exit codes."""

import json
import os
import threading

import pytest

from rootfire import errors
from rootfire import firing as fi
from rootfire import polytope as pt
from rootfire.cli import main
from rootfire.ehrhart import decomposition_check
from rootfire.rootsys import from_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "A2")
    assert code == 0
    assert "coxeter number h = 3" in out
    assert "index of connection f = 3" in out
    assert "|C| = 3" in out


def test_info_g2(capsys):
    code, out, _ = run(capsys, "info", "G2")
    assert code == 0
    assert "index of connection f = 1" in out
    assert "minuscule nodes: none" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "B3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coxeter_number"] == 6
    assert data["minuscule_nodes"] == [3]


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "info", "Z9")[0] == 1
    assert run(capsys, "stabilize", "A2", "weird", "1", "0,0")[0] == 1
    assert run(capsys, "stabilize", "A2", "sym", "1", "0,0,0")[0] == 1
    assert run(capsys, "stabilize", "A2", "sym", "x", "0,0")[0] == 1
    assert run(capsys, "verify", "nosuchsuite", "A2")[0] == 1
    assert run(capsys, "graph", "A3", "sym", "1", "--format", "svg")[0] == 1
    assert run(capsys, "verify", "iterate", "B2")[0] == 1
    assert run(capsys, "verify", "tables", "A3")[0] == 1
    assert run(capsys, "graph", "A2", "sym", "1", "--box", "-1")[0] == 1
    # a verify run that would check nothing is refused, not passed
    for suite in ("confluence", "sinks", "iterate", "decompose"):
        code, out, _ = run(capsys, "verify", suite, "A2", "--k", "-1")
        assert code == 1 and "PASS" not in out
    code, out, _ = run(capsys, "verify", "traverse", "A2", "--cmax", "-1")
    assert code == 1 and "PASS" not in out
    assert run(capsys, "ehrhart", "A2", "sym", "0,0", "--degree", "-1")[0] == 1
    # an option the suite does not read is refused, not ignored
    code, out, _ = run(capsys, "verify", "traverse", "A2", "--k", "7")
    assert code == 1 and "PASS" not in out
    code, out, _ = run(capsys, "verify", "tables", "A2", "--trials", "0")
    assert code == 1 and "PASS" not in out


def test_stabilize_output(capsys):
    code, out, _ = run(capsys, "stabilize", "A2", "sym", "1", "0,0")
    assert code == 0
    assert "sink 1,1" in out and "label 0,0" in out
    code, out, _ = run(capsys, "stabilize", "A2", "tr", "1", "0,0")
    assert code == 0 and "sink 1,1" in out


def test_negative_weight_positionals(capsys):
    # arguments like -3,2 are weights, not option strings
    code, out, _ = run(capsys, "stabilize", "A2", "sym", "0", "-1,0")
    assert code == 0 and "sink 0,1" in out
    code, out, _ = run(capsys, "fiber", "A2", "tr", "2", "-1,-1")
    assert code == 0 and "1 weights" in out
    code, out, _ = run(capsys, "ehrhart", "A2", "tr", "-1,1")
    assert code == 0 and "2*k + 1" in out


def test_stabilize_non_good_needs_force(capsys):
    code, _, err = run(capsys, "stabilize", "B2", "sym", "0,1", "0,0")
    assert code == 1 and "force" in err
    code, out, _ = run(capsys, "stabilize", "B2", "sym", "0,1", "0,0", "--force")
    assert code == 0 and "unverified confluence" in out
    code, _, err = run(capsys, "fiber", "B2", "sym", "0,1", "0,0")
    assert code == 1 and "force" in err
    assert run(capsys, "fiber", "B2", "sym", "0,1", "0,0", "--force")[0] == 0
    assert run(capsys, "stabilize", "A2", "central", "0", "0,0")[0] == 1
    b2 = from_spec("B2")
    with pytest.raises(errors.NonGoodParamsError):
        decomposition_check(b2, [(0, 0)], fi.FiringParams.make("sym", 0, 1))


def test_graph_formats_and_determinism(capsys, tmp_path):
    code, dot1, _ = run(capsys, "graph", "A2", "sym", "1", "--box", "3", "--format", "dot")
    code2, dot2, _ = run(capsys, "graph", "A2", "sym", "1", "--box", "3", "--format", "dot")
    assert code == code2 == 0 and dot1 == dot2
    assert dot1.startswith("digraph")

    code, out, _ = run(capsys, "graph", "A2", "tr", "1", "--box", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["kind"] == "truncated"
    assert len(data["vertices"]) == 25

    target = tmp_path / "g.svg"
    code, out, _ = run(
        capsys, "graph", "B2", "tr", "0", "--box", "2", "--format", "svg",
        "--out", str(target),
    )
    assert code == 0 and target.read_text().startswith("<svg")


def test_graph_cap_exit_3(capsys, monkeypatch):
    # an over-cap box is refused from its size alone, before any point is made
    def no_points(*args, **kwargs):
        raise AssertionError("the box was built")

    monkeypatch.setattr(fi, "product", no_points)
    code, _, err = run(
        capsys, "graph", "A2", "sym", "1", "--box", "9", "--max-points", "10"
    )
    assert code == 3 and "cap" in err
    code, _, err = run(
        capsys, "graph", "A3", "sym", "1", "--box", "30", "--max-points", "1000"
    )
    assert code == 3 and "box of 226981 points" in err
    # the cap bounds the boxes the verify suites build, too
    code, _, err = run(
        capsys, "verify", "decompose", "A2", "--box", "9", "--max-points", "10"
    )
    assert code == 3 and "box of 361 points" in err
    # and the box around the metric balls of the symmetry suite
    code, _, err = run(
        capsys, "verify", "symmetry", "A2", "--k", "1", "--max-points", "10"
    )
    assert code == 3 and "cap" in err


def test_svg_rank_is_checked_before_the_box(capsys, monkeypatch):
    def no_points(*args, **kwargs):
        raise AssertionError("the box was built")

    monkeypatch.setattr(fi, "product", no_points)
    code, _, err = run(
        capsys, "graph", "A3", "sym", "1", "--box", "30", "--format", "svg"
    )
    assert code == 1 and "rank-2" in err


def test_cap_holds_only_in_the_command_thread(capsys, monkeypatch):
    monkeypatch.delenv("ROOTFIRE_MAX_POINTS", raising=False)
    seen = {}
    real_build_graph = fi.build_graph

    def recording_build_graph(*args, **kwargs):
        seen["caller"] = pt.point_cap()
        other = threading.Thread(target=lambda: seen.update(other=pt.point_cap()))
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        return real_build_graph(*args, **kwargs)

    monkeypatch.setattr(fi, "build_graph", recording_build_graph)
    code, _, _ = run(
        capsys, "graph", "A2", "sym", "1", "--box", "1", "--max-points", "50"
    )
    assert code == 0
    assert seen == {"caller": 50, "other": pt.DEFAULT_MAX_POINTS}
    assert "ROOTFIRE_MAX_POINTS" not in os.environ
    assert pt.point_cap() == pt.DEFAULT_MAX_POINTS


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "A2", "sym", "1", "0,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 7 and len(data["weights"]) == 7


def test_ehrhart_text_and_json(capsys):
    code, out, _ = run(capsys, "ehrhart", "A2", "sym", "1,1")
    assert code == 0 and "6*k + 6" in out
    code, out, _ = run(capsys, "ehrhart", "B2", "sym", "0,0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["integer"] and data["nonnegative"]
    assert {"exp": [1, 1], "num": 4, "den": 1} in data["monomials"]


def test_verify_rank_guard(capsys):
    code, _, err = run(capsys, "verify", "sinks", "E6", "--k", "0")
    assert code == 1 and "rank" in err
    # constructing-only commands have no such guard
    assert run(capsys, "info", "E6")[0] == 0


def test_bad_env_cap_is_rejected(capsys, monkeypatch):
    monkeypatch.setenv("ROOTFIRE_MAX_POINTS", "many")
    code, _, err = run(capsys, "fiber", "A2", "sym", "1", "0,0")
    assert code == 1 and "ROOTFIRE_MAX_POINTS" in err
    for cap in ("0", "-5"):
        monkeypatch.setenv("ROOTFIRE_MAX_POINTS", cap)
        code, _, err = run(capsys, "fiber", "A2", "sym", "1", "0,0")
        assert code == 1 and "at least 1" in err
    monkeypatch.delenv("ROOTFIRE_MAX_POINTS")
    for cap in ("0", "-5"):
        code, _, err = run(capsys, "graph", "A2", "sym", "1", "--max-points", cap)
        assert code == 1 and "at least 1" in err
        # rejected even by a command that enumerates nothing
        assert run(capsys, "info", "A2", "--max-points", cap)[0] == 1


def test_too_small_degree_exits_2(capsys):
    code, _, err = run(capsys, "ehrhart", "A2", "sym", "0,0", "--degree", "0")
    assert code == 2 and "fit failed" in err


def test_confluence_suite_reports_non_good(capsys):
    code, out, _ = run(capsys, "verify", "confluence", "B2", "--k", "1", "--trials", "5")
    assert code == 0
    assert "note - B2 sym k=(0,1) (not good)" in out


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "tables", "A2")
    assert code == 0 and out.rstrip().endswith("PASS")
    code, out, _ = run(
        capsys, "verify", "confluence", "A1", "--k", "1", "--trials", "3"
    )
    assert code == 0


def test_verify_output_deterministic(capsys):
    args = ("verify", "sinks", "A2", "--k", "1")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2


SUITE_ARGS = {
    "confluence": ("--k", "1", "--trials", "5"),
    "sinks": ("--k", "1"),
    "traverse": ("--cmax", "2"),
    "nonescape": ("--k", "1"),
    "symmetry": ("--k", "1"),
    "decompose": ("--k", "1", "--box", "3"),
    "iterate": ("--k", "2"),
    "tables": (),
    "conjectures": (),
}


@pytest.mark.parametrize("suite", sorted(SUITE_ARGS))
def test_every_suite_passes_on_a2(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "A2", *SUITE_ARGS[suite])
    assert code == 0, out
    assert out.rstrip().endswith("PASS")
