"""CLI surface: parsing, output determinism, exit codes."""

import dataclasses
import json
import os
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from rootfire import ehrhart as eh
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
    # iterate at k = 0 would compare empty count lists
    code, out, _ = run(capsys, "verify", "iterate", "A2", "--k", "0")
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


def test_central_firing_refuses_a_k(capsys):
    for k in ("3", "0,4"):
        code, out, err = run(capsys, "graph", "A2", "central", k, "--box", "1")
        assert code == 1 and out == ""
        assert err.startswith("usage error: central firing takes no k")
    code, out, _ = run(capsys, "graph", "A2", "central", "0", "--box", "1")
    assert code == 0 and "v4 -> v8" in out


def test_single_length_system_refuses_two_ks(capsys):
    for argv in (
        ("stabilize", "A2", "sym", "1,2", "0,0"),
        ("fiber", "A2", "sym", "1,2", "0,0"),
        ("graph", "A2", "sym", "1,2", "--box", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert "A2 has one root length and takes one k" in err, argv
    code, out, _ = run(capsys, "stabilize", "B2", "sym", "1,2", "0,0")
    assert code == 0 and out.startswith("sink ")


def test_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "info.txt"
    code, out, err = run(capsys, "info", "A2", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: cannot write {target}")
    assert len(err.splitlines()) == 1 and not target.exists()


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
    # the count 3k^2 + 3k + 1 has degree 2; a lower bound is a failed fit
    for degree in ("0", "1"):
        code, out, err = run(capsys, "ehrhart", "A2", "sym", "0,0", "--degree", degree)
        assert code == 2 and "fit failed" in err and out == ""


def test_confluence_suite_reports_non_good(capsys):
    # non-good parameters give note rows (confluence) and the known escaping
    # edge (nonescape); neither fails its suite
    code, out, _ = run(capsys, "verify", "confluence", "B2", "--k", "1", "--trials", "5")
    assert code == 0
    assert out == (
        "ok - B2 sym k=(0,0) box 2: 25 weights x 5 orders, 0 disagreements\n"
        "ok - B2 tr k=(0,0) box 2: 25 weights x 5 orders, 0 disagreements\n"
        "ok - B2 sym k=(1,1) box 4: 81 weights x 5 orders, 0 disagreements\n"
        "ok - B2 tr k=(1,1) box 4: 81 weights x 5 orders, 0 disagreements\n"
        "note - B2 sym k=(0,1) (not good): 0 of 81 weights disagreed across orders\n"
        "suite confluence on B2: PASS\n"
    )
    code, out, _ = run(capsys, "verify", "nonescape", "B2", "--k", "1")
    assert code == 0
    assert out == (
        "ok - B2 sym k=(0,0) non-escaping on 4 permutohedra\n"
        "ok - B2 sym k=(1,1) non-escaping on 4 permutohedra\n"
        "ok - B2 sym k=(0,1) reproduces the known escaping edge 0 -> a1\n"
        "suite nonescape on B2: PASS\n"
    )


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


# stdout of each suite on A2 with SUITE_ARGS
A2_OUTPUT = {
    "confluence": (
        "ok - A2 sym k=(0,0) box 2: 25 weights x 5 orders, 0 disagreements\n"
        "ok - A2 tr k=(0,0) box 2: 25 weights x 5 orders, 0 disagreements\n"
        "ok - A2 sym k=(1,1) box 4: 81 weights x 5 orders, 0 disagreements\n"
        "ok - A2 tr k=(1,1) box 4: 81 weights x 5 orders, 0 disagreements\n"
        "suite confluence on A2: PASS\n"
    ),
    "sinks": (
        "ok - A2 sym k=(0,0) sinks: 32 found, 32 expected from labels\n"
        "ok - A2 tr k=(0,0) sinks: 49 found, 49 expected from labels\n"
        "ok - A2 sym k=(1,1) sinks: 46 found, 46 expected from labels\n"
        "ok - A2 tr k=(1,1) sinks: 65 found, 65 expected from labels\n"
        "suite sinks on A2: PASS\n"
    ),
    "traverse": (
        "ok - A2 traverse: 27 cases, 0 mismatches\n"
        "suite traverse on A2: PASS\n"
    ),
    "nonescape": (
        "ok - A2 sym k=(0,0) non-escaping on 4 permutohedra\n"
        "ok - A2 sym k=(1,1) non-escaping on 4 permutohedra\n"
        "suite nonescape on A2: PASS\n"
    ),
    "symmetry": (
        "ok - A2 sym k=(0,0): 2 maps on 12 edges, 0 violations\n"
        "ok - A2 tr k=(0,0): 3 maps on 0 edges, 0 violations\n"
        "ok - A2 sym k=(1,1): 2 maps on 84 edges, 0 violations\n"
        "ok - A2 tr k=(1,1): 3 maps on 57 edges, 0 violations\n"
        "suite symmetry on A2: PASS\n"
    ),
    "decompose": (
        "ok - A2 k=0 decomposition on 49 weights: 0 sym fails, 0 tr fails\n"
        "ok - A2 k=1 decomposition on 49 weights: 0 sym fails, 0 tr fails\n"
        "suite decompose on A2: PASS\n"
    ),
    "iterate": (
        "ok - A2 iterate 0,0: counts [7, 19] vs fitted [7, 19]\n"
        "ok - A2 iterate 1,0: counts [12, 27] vs fitted [12, 27]\n"
        "ok - A2 iterate 0,1: counts [12, 27] vs fitted [12, 27]\n"
        "ok - A2 iterate 1,1: counts [12, 18] vs fitted [12, 18]\n"
        "suite iterate on A2: PASS\n"
    ),
    "tables": (
        "ok - A2 sym 0,0: 3*k^2 + 3*k + 1\n"
        "ok - A2 sym 0,1: 3*k^2 + 6*k + 3\n"
        "ok - A2 sym 1,0: 3*k^2 + 6*k + 3\n"
        "ok - A2 sym 1,1: 6*k + 6\n"
        "ok - A2 tr -2,1: k + 1\n"
        "ok - A2 tr -1,-1: 1\n"
        "ok - A2 tr -1,0: k + 1\n"
        "ok - A2 tr -1,1: 2*k + 1\n"
        "ok - A2 tr -1,2: k + 1\n"
        "ok - A2 tr 0,-1: k + 1\n"
        "ok - A2 tr 0,0: 3*k^2 + 3*k + 1\n"
        "ok - A2 tr 0,1: 3*k^2 + 3*k + 1\n"
        "ok - A2 tr 1,-2: k + 1\n"
        "ok - A2 tr 1,-1: 2*k + 1\n"
        "ok - A2 tr 1,0: 3*k^2 + 3*k + 1\n"
        "ok - A2 tr 1,1: 2*k + 1\n"
        "ok - A2 tr 2,-1: k + 1\n"
        "suite tables on A2: PASS\n"
    ),
    "conjectures": (
        "note - A2 sym 0,0: 3*k^2 + 3*k + 1 integer=True nonnegative=True\n"
        "note - A2 sym 0,1: 3*k^2 + 6*k + 3 integer=True nonnegative=True\n"
        "note - A2 sym 1,0: 3*k^2 + 6*k + 3 integer=True nonnegative=True\n"
        "note - A2 sym 1,1: 6*k + 6 integer=True nonnegative=True\n"
        "note - A2 tr -2,1: k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr -1,-1: 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr -1,0: k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr -1,1: 2*k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr -1,2: k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 0,-1: k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 0,0: 3*k^2 + 3*k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 0,1: 3*k^2 + 3*k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 1,-2: k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 1,-1: 2*k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 1,0: 3*k^2 + 3*k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 1,1: 2*k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr 2,-1: k + 1 integer=True nonnegative=True constant=1\n"
        "note - A2 tr k=1 fiber of 0,0 under C[1]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 0,0 under C[2]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 0,1 under C[1]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 0,1 under C[2]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 1,0 under C[1]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 1,0 under C[2]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 1,1 under C[1]: respects the affine symmetry\n"
        "note - A2 tr k=1 fiber of 1,1 under C[2]: respects the affine symmetry\n"
        "ok - A2 scanned 4 sym and 13 tr rows\n"
        "suite conjectures on A2: PASS\n"
    ),
}


@pytest.mark.parametrize("suite", sorted(SUITE_ARGS))
def test_every_suite_passes_on_a2(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "A2", *SUITE_ARGS[suite])
    assert code == 0, out
    assert out == A2_OUTPUT[suite]


def test_decompose_checks_k_zero(capsys):
    code, out, _ = run(capsys, "verify", "decompose", "A2", "--k", "0", "--box", "3")
    assert code == 0, out
    assert [line for line in out.splitlines() if line.startswith("ok - ")] == [
        "ok - A2 k=0 decomposition on 49 weights: 0 sym fails, 0 tr fails"
    ]


def _escape_at_k1(real):
    # one extra out-edge far outside every permutohedron, for k = 1 only
    def neighbors(rs, weight, params):
        extra = [((99,) * rs.rank, 0)] if params.k_short == 1 else []
        return real(rs, weight, params) + extra

    return neighbors


# suite -> (module, function, stub built from the real function, lines it must print)
FAILING_CHECKS = {
    "confluence": (
        fi, "check_confluence_random", lambda real: lambda *a: False,
        ["FAIL - A2 sym k=(0,0) box 2: 25 weights x 5 orders, 25 disagreements"],
    ),
    "sinks": (
        fi, "is_sink", lambda real: lambda *a: not real(*a),
        ["FAIL - A2 sym k=(0,0) sinks: 17 found, 32 expected from labels"],
    ),
    "traverse": (
        pt, "traverse_formula", lambda real: lambda *a: real(*a) + 1,
        ["FAIL - A2 traverse: 27 cases, 27 mismatches"],
    ),
    # only k = 1 escapes: its summary is FAIL, the summary of k = 0 stays ok
    "nonescape": (
        fi, "neighbors", _escape_at_k1,
        [
            "ok - A2 sym k=(0,0) non-escaping on 4 permutohedra",
            "FAIL - A2 sym k=(1,1) non-escaping on 4 permutohedra",
        ],
    ),
    "symmetry": (
        fi, "graph_symmetry_check",
        lambda real: lambda *a: dataclasses.replace(real(*a), violations=("stub",)),
        ["FAIL - A2 sym k=(0,0): 2 maps on 12 edges, 1 violations"],
    ),
    "decompose": (
        eh, "decomposition_check",
        lambda real: lambda *a: dataclasses.replace(real(*a), sym_failures=((0, 0),)),
        ["FAIL - A2 k=1 decomposition on 49 weights: 1 sym fails, 0 tr fails"],
    ),
    "iterate": (
        eh, "iterate_check",
        lambda real: lambda *a: dataclasses.replace(real(*a), fitted=(0, 0)),
        ["FAIL - A2 iterate 0,0: counts [7, 19] vs fitted [0, 0]"],
    ),
    "tables": (
        eh, "reference_poly",
        lambda real: lambda table, n, label: eh.LatticePolynomial.from_dict(n, {}),
        ["FAIL - A2 sym 0,0: 3*k^2 + 3*k + 1"],
    ),
}


@pytest.mark.parametrize("suite", sorted(FAILING_CHECKS))
def test_each_suite_fails_on_a_failed_check(capsys, monkeypatch, suite):
    module, name, stub, expected = FAILING_CHECKS[suite]
    monkeypatch.setattr(module, name, stub(getattr(module, name)))
    code, out, _ = run(capsys, "verify", suite, "A2", *SUITE_ARGS[suite])
    lines = out.splitlines()
    assert code == 2, out
    assert set(expected) <= set(lines), out
    assert lines[-1] == f"suite {suite} on A2: FAIL"


def test_conjectures_never_fail(capsys, monkeypatch):
    # a fit that is neither integer nor nonnegative, and a broken symmetry,
    # are findings: note rows, never a failed suite
    real_fit = eh.fit_ehrhart_like
    odd = eh.LatticePolynomial.from_dict(1, {(1,): Fraction(-1, 2)})
    monkeypatch.setattr(
        eh, "fit_ehrhart_like",
        lambda *a: dataclasses.replace(real_fit(*a), polynomial=odd),
    )
    monkeypatch.setattr(
        eh, "tr_symmetry_scan", lambda rs, labels, params: (((0, 0), 1, False),)
    )
    code, out, _ = run(capsys, "verify", "conjectures", "A2")
    assert code == 0, out
    assert "note - A2 sym 0,0: -1/2*k integer=False nonnegative=False" in out
    assert "breaks the affine symmetry" in out
    assert "FAIL" not in out and out.endswith("suite conjectures on A2: PASS\n")


def _readme_cli_examples():
    """(argv, trailing comment) for each ``rootfire`` line of the README's CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = command.split()
        if argv[:1] == ["rootfire"]:
            out.append((argv[1:], comment.strip()))
    return out


def test_readme_cli_examples_run(tmp_path):
    results = {}
    for i, (argv, comment) in enumerate(_readme_cli_examples()):
        if "--out" in argv:
            at = argv.index("--out")
            argv = argv[:at] + argv[at + 2:]
        target = tmp_path / f"example{i}.out"
        assert main(argv + ["--out", str(target)]) == 0, argv
        results[tuple(argv)] = (target.read_text(), comment)
    # the README's comment on this line states its result
    text, comment = results[("stabilize", "A2", "sym", "1", "0,0")]
    assert text.split() == comment.split() == ["sink", "1,1", "label", "0,0", "steps", "2"]
