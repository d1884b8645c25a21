"""CLI surface: parsing, output determinism, exit codes."""

import argparse
import json
import os
import re
import threading
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from rootfire import cli
from rootfire import ehrhart as eh
from rootfire import errors
from rootfire import firing as fi
from rootfire import polytope as pt
from rootfire import rootsys as rsys
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


def _leaf_parsers(parser, path=()):
    """(command path, parser) for each parser that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def test_every_command_parser_carries_its_run():
    # the parser is the command table: main runs whatever the parsed leaf names
    runs = {path: sub.get_default("run") for path, sub in _leaf_parsers(cli.build_parser())}
    commands = ("info", "stabilize", "graph", "fiber", "ehrhart")
    expected = {(name,): getattr(cli, f"cmd_{name}") for name in commands}
    expected.update({("verify", suite): cli.cmd_verify for suite in cli.SUITES})
    assert runs == expected


def test_one_parser_serves_every_call_of_a_process(capsys):
    # main builds the argparse tree once; no call, a usage error included,
    # leaves it changed for the next
    calls = [
        ("verify", "confluence", "A2", "--k", "0", "--trials", "2"),
        ("verify", "confluence", "A2", "--trials", "1"),
        ("verify", "confluence", "A2", "--bogus"),
        ("stabilize", "A2", "sym", "1", "-3,1", "--seed", "3"),
        ("verify", "confluence", "A2", "--k", "0", "--trials", "2"),
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in fresh] == [0, 1, 1, 0, 0]
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert cli.build_parser.cache_info().misses == 1


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
    # a weight or a firing parameter that does not parse
    code, out, err = run(capsys, "fiber", "A2", "sym", "1", "1,x")
    assert (code, out, err) == (1, "", "usage error: cannot parse weight '1,x'\n")
    code, out, err = run(capsys, "fiber", "A2", "sym", "1,2,3", "0,0")
    assert (code, out) == (1, "")
    assert err == "usage error: firing parameter '1,2,3' must be k or k_short,k_long\n"
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
    # --kmax is no longer a spelling of --k
    code, out, _ = run(capsys, "verify", "sinks", "A2", "--kmax", "1")
    assert code == 1 and "PASS" not in out


def test_seeds_outside_64_bits_exit_1(capsys):
    # -1 used to fire the same roots as 2^64 - 1
    code, out, err = run(capsys, "stabilize", "A2", "sym", "1", "-3,1", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == "usage error: seeds must lie in [0, 2**64), got -1\n"
    code, out, _ = run(capsys, "stabilize", "A2", "sym", "1", "-3,1", "--seed", str(2**64 - 1))
    assert code == 0 and "sink" in out
    code, out, err = run(capsys, "verify", "confluence", "A2", "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == "usage error: seeds must lie in [0, 2**64), got -1..23\n"


def test_confluence_refuses_fewer_than_two_trials(capsys):
    # refused before any weight is walked, though no weight of A2 needs an order
    for trials in ("1", "0", "-3"):
        code, out, err = run(capsys, "verify", "confluence", "A2", "--trials", trials)
        assert (code, out) == (1, "")
        assert err == "usage error: need at least two trials\n"


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


def test_central_stabilization_is_refused_alike_by_every_command(capsys):
    for argv in (
        ("stabilize", "A2", "central", "0", "0,0"),
        ("fiber", "A2", "central", "0", "0,0"),
        ("ehrhart", "A2", "central", "0,0"),
    ):
        assert run(capsys, *argv) == (
            1,
            "",
            "usage error: central firing does not stabilize; explore its graph\n",
        )


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
    # -1,0 labels no symmetric sink, yet its k is refused before that is known
    code, out, err = run(capsys, "fiber", "A2", "sym", "1,2", "-1,0")
    assert (code, out) == (1, "")
    assert err == "usage error: A2 has one root length and takes one k, got k=(1,2)\n"
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


_CIRCLE = re.compile(
    r'<circle [^>]*fill="([^"]+)" stroke="([^"]+)"[^>]*><title>([-0-9,]+)</title>'
)


# circles per stroke colour: A2 has three cosets of the root lattice, B2 two, G2 one
@pytest.mark.parametrize("spec,sizes", [("A2", [9, 8, 8]), ("B2", [15, 10]), ("G2", [25])])
def test_svg_colours_cosets_and_fills_sinks(capsys, spec, sizes):
    rs = from_spec(spec)
    code, out, _ = run(capsys, "graph", spec, "sym", "1", "--box", "2", "--format", "svg")
    circles = [
        (fill, stroke, tuple(map(int, w.split(","))))
        for fill, stroke, w in _CIRCLE.findall(out)
    ]
    assert code == 0 and len(circles) == 25
    strokes = Counter(stroke for _, stroke, _ in circles)
    assert sorted(strokes.values(), reverse=True) == sizes
    # one colour per coset: each colour's weights share one coset, no two colours one
    f = rs.index_of_connection
    cosets = {
        stroke: {tuple(x % f for x in rs.root_coords(w)) for _, s, w in circles if s == stroke}
        for stroke in strokes
    }
    assert all(len(c) == 1 for c in cosets.values())
    assert len(set().union(*cosets.values())) == len(strokes)
    # a sink is filled with its stroke colour, every other weight white
    assert all(fill in ("white", stroke) for fill, stroke, _ in circles)
    filled = sorted(w for fill, _, w in circles if fill != "white")
    sym1 = fi.FiringParams.make("sym", 1)
    sinks = [w for w in fi.coord_box(rs, 2) if fi.is_sink(rs, w, sym1)]
    assert filled == sinks and len(sinks) == 4


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
    # the symmetry suite reads the roots alone, so no cap refuses it
    code, _, _ = run(capsys, "verify", "symmetry", "A2", "--k", "1", "--max-points", "10")
    assert code == 0


def test_traverse_grid_cap_exit_3(capsys, monkeypatch):
    # the label grid is refused from its size alone, before any label or
    # permutohedron is made
    import rootfire.cli as cli

    def no_labels(*args, **kwargs):
        raise AssertionError("the label grid was built")

    monkeypatch.setattr(cli, "product", no_labels)
    code, out, err = run(
        capsys, "verify", "traverse", "A4", "--cmax", "30", "--max-points", "100"
    )
    assert (code, out) == (3, "")
    assert err == (
        "resource cap: label grid of 923521 points exceeds the cap of 100 points\n"
    )


def test_iterate_checks_each_label_once(capsys):
    # on A1, rho is omega_1: the suite checks 0 and 1, each once
    code, out, _ = run(capsys, "verify", "iterate", "A1", "--k", "2")
    assert (code, out) == (
        0,
        "ok - A1 iterate 0: counts [2, 3] vs fitted [2, 3]\n"
        "ok - A1 iterate 1: counts [3, 4] vs fitted [3, 4]\n"
        "suite iterate on A1: PASS\n",
    )


def test_iterate_cap_exit_3(capsys):
    # A2's preimage sets of label 0 have 7, 19, 37, 61, 91, 127 points
    code, _, err = run(capsys, "verify", "iterate", "A2", "--k", "6", "--max-points", "100")
    assert code == 3
    assert err == (
        "resource cap: 6-fold preimage set of (0, 0) exceeds the cap of 100 points\n"
    )


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
    code, out, _ = run(capsys, "ehrhart", "B2", "tr", "0,0")
    assert code == 0
    assert out.splitlines()[-1] == "notes: two-length-truncated-fit-unproven"


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
        "ok - B2 sym k=(0,0) box 2: 25 weights, 0 x 5 orders fired, 0 disagreements\n"
        "ok - B2 tr k=(0,0) box 2: 25 weights, 0 x 5 orders fired, 0 disagreements\n"
        "ok - B2 sym k=(1,1) box 4: 81 weights, 0 x 5 orders fired, 0 disagreements\n"
        "ok - B2 tr k=(1,1) box 4: 81 weights, 0 x 5 orders fired, 0 disagreements\n"
        "note - B2 sym k=(0,1) (not good): 0 of 81 weights reach two or more sinks\n"
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


def test_confluence_non_good_row_counts_split_weights(capsys, monkeypatch):
    # every weight reaches two sinks: the non-good row reports that count from
    # the certificate alone, and only the good rows fire seeded orders
    monkeypatch.setattr(
        fi, "reachable_sinks", lambda rs, params, starts: [((0, 0), (1, 1))] * len(starts)
    )
    fired = set()
    real = fi.check_confluence_random

    def recording(rs, weight, params, *rest):
        fired.add(params.label())
        return real(rs, weight, params, *rest)

    monkeypatch.setattr(fi, "check_confluence_random", recording)
    code, out, _ = run(capsys, "verify", "confluence", "B2", "--k", "1", "--trials", "2")
    assert code == 2
    assert out.splitlines()[-2:] == [
        "note - B2 sym k=(0,1) (not good): 81 of 81 weights reach two or more sinks",
        "suite confluence on B2: FAIL",
    ]
    assert fired == {"sym k=(0,0)", "tr k=(0,0)", "sym k=(1,1)", "tr k=(1,1)"}


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
        "ok - A2 sym k=(0,0) box 2: 25 weights, 0 x 5 orders fired, 0 disagreements\n"
        "ok - A2 tr k=(0,0) box 2: 25 weights, 0 x 5 orders fired, 0 disagreements\n"
        "ok - A2 sym k=(1,1) box 4: 81 weights, 0 x 5 orders fired, 0 disagreements\n"
        "ok - A2 tr k=(1,1) box 4: 81 weights, 0 x 5 orders fired, 0 disagreements\n"
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
        "ok - A2 sym k=(0,0): 6 of 6 roots carry edges, 0 breaks at any weight\n"
        "note - A2 tr k=(0,0): 0 of 6 roots carry edges, 0 breaks at any weight\n"
        "ok - A2 sym k=(1,1): 6 of 6 roots carry edges, 0 breaks at any weight\n"
        "ok - A2 tr k=(1,1): 6 of 6 roots carry edges, 0 breaks at any weight\n"
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


# suite -> (module, function, stub built from the real function, lines it must print)
FAILING_CHECKS = {
    # every weight reaches two sinks; its seeded orders still agree
    "confluence": (
        fi, "reachable_sinks",
        lambda real: lambda rs, params, starts: [((0, 0), (1, 1))] * len(starts),
        [
            "FAIL - A2 sym k=(0,0) box 2: 25 weights, 25 x 5 orders fired, "
            "0 disagreements, 25 weights reach two or more sinks"
        ],
    ),
    "sinks": (
        fi, "is_sink", lambda real: lambda *a: not real(*a),
        ["FAIL - A2 sym k=(0,0) sinks: 17 found, 32 expected from labels"],
    ),
    "traverse": (
        pt, "traverse_formula", lambda real: lambda *a: tuple(x + 1 for x in real(*a)),
        ["FAIL - A2 traverse: 27 cases, 27 mismatches"],
    ),
    # each positive traverse length one shorter: only k = 1 reads one below
    # its k, so its summary is FAIL and the summary of k = 0 stays ok
    "nonescape": (
        pt, "traverse_bruteforce",
        lambda real: lambda *a: tuple(max(x - 1, 0) for x in real(*a)),
        [
            "ok - A2 sym k=(0,0) non-escaping on 4 permutohedra",
            "FAIL - A2 sym k=(1,1) non-escaping on 4 permutohedra",
        ],
    ),
    "symmetry": (
        fi, "graph_symmetry_breaks",
        lambda real: lambda *a: real(*a) + (("s1", (1, 0)),),
        ["FAIL - A2 sym k=(0,0): 6 of 6 roots carry edges, 1 breaks at any weight"],
    ),
    "decompose": (
        eh, "decomposition_check",
        lambda real: lambda *a: real(*a)._replace(sym_failures=((0, 0),)),
        ["FAIL - A2 k=1 decomposition on 49 weights: 1 sym fails, 0 tr fails"],
    ),
    "iterate": (
        eh, "iterate_check",
        lambda real: lambda *a: real(*a)._replace(fitted=(0, 0)),
        ["FAIL - A2 iterate 0,0: counts [7, 19] vs fitted [0, 0]"],
    ),
    "tables": (
        eh, "reference_poly",
        lambda real: lambda table, label: eh.LatticePolynomial.from_dict(1, {}),
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


def test_b2_nonescape_fails_without_the_known_escaping_edge(capsys, monkeypatch):
    # the origin fires nowhere under the non-good sym k=(0,1), so its known
    # escaping edge 0 -> a1 is gone; the good rows are untouched
    real = fi.neighbors
    bad = fi.FiringParams.make("sym", 0, 1)
    monkeypatch.setattr(
        fi, "neighbors",
        lambda rs, v, params: [] if params == bad and not any(v) else real(rs, v, params),
    )
    code, out, _ = run(capsys, "verify", "nonescape", "B2", "--k", "0")
    assert code == 2, out
    assert out.splitlines() == [
        "ok - B2 sym k=(0,0) non-escaping on 4 permutohedra",
        "FAIL - B2 sym k=(0,1) does not reproduce the known escaping edge",
        "suite nonescape on B2: FAIL",
    ]


def _leaving_lengths(rs, params, center):
    """The root lengths of the edges, out- or in-, that join the permutohedron to its outside.

    An oracle over every point: x -> x + beta is an edge when beta fires at
    x, and x - beta -> x when beta fires at x - beta.
    """
    points = pt.enumerate_perm(rs, center).points
    inside = set(points)
    found = set()
    for x in points:
        for j, step in enumerate(rs.pos_root_weights):
            up = tuple(a + b for a, b in zip(x, step))
            down = tuple(a - b for a, b in zip(x, step))
            out_edge = j in fi.fireable_roots(rs, x, params) and up not in inside
            in_edge = j in fi.fireable_roots(rs, down, params) and down not in inside
            if out_edge or in_edge:
                found.add(rs.length_class[j])
    return found


def _sym_rows(rs, k_max):
    """Symmetric parameters with each k at most k_max.

    With two root lengths, every (k_short, k_long) pair, the non-good
    (0, k_long) ones included.
    """
    rows = [(k, k) for k in range(k_max + 1)]
    if not rs.simply_laced:
        rows += [(ks, kl) for ks in range(k_max + 1) for kl in range(k_max + 1) if ks != kl]
    return [fi.FiringParams.make("sym", ks, kl) for ks, kl in rows]


@pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_escaping_lengths_match_an_undirected_point_oracle(spec):
    # an edge leaves in either direction exactly along the root lengths
    # whose traverse length is below their k
    rs = from_spec(spec)
    base = 3 if rs.rank == 2 else 2
    labels = list(product(range(base), repeat=rs.rank))
    escaping = 0
    for params in _sym_rows(rs, 2):
        for lam in labels:
            center = fi.bounding_center(rs, lam, params)
            short = cli._escaping_lengths(rs, params, center)
            assert short == _leaving_lengths(rs, params, center), (params, lam)
            escaping += bool(short)
    # the two non-good rows, at the labels that are 0 at both long-short nodes
    assert escaping == (0 if rs.simply_laced else 2 * len(labels) // base**2)


ALL_UP_TO_RANK_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]


@pytest.mark.parametrize("spec", ALL_UP_TO_RANK_4)
def test_escapes_are_the_non_good_funny_labels(spec):
    # goodness corollary: P(dom(lambda) + rho_k) lets an edge out exactly
    # when k_short = 0 < k_long and lambda is 0 at both nodes of the
    # long-short Dynkin edge
    rs = from_spec(spec)
    k_max = 1 if rs.rank == 4 else 2
    links = [(i, j) for i, row in enumerate(rs.dynkin_links) for j, a in row if a < -1]
    for params in _sym_rows(rs, k_max):
        for lam in product(range(k_max + 1), repeat=rs.rank):
            center = fi.bounding_center(rs, lam, params)
            escapes = bool(cli._escaping_lengths(rs, params, center))
            funny = any(lam[i] == lam[j] == 0 for i, j in links)
            assert escapes == (params.k_short == 0 < params.k_long and funny), (params, lam)


def test_nonescape_builds_no_permutohedron_point(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a permutohedron point was built")

    for module, name in ((rsys, "_iter_orbit"), (pt, "_iter_orbit"), (pt, "enumerate_perm")):
        monkeypatch.setattr(module, name, refuse)
    pt._enumerate_perm_cached.cache_clear()
    code, out, _ = run(capsys, "verify", "nonescape", "B2", "--k", "1")
    assert code == 0 and out.splitlines()[-2:] == [
        "ok - B2 sym k=(0,1) reproduces the known escaping edge 0 -> a1",
        "suite nonescape on B2: PASS",
    ]
    code, out, _ = run(capsys, "verify", "nonescape", "D4")
    assert code == 0 and out.endswith("suite nonescape on D4: PASS\n")


def test_b2_nonescape_fails_when_the_traverse_misses_the_long_roots(capsys, monkeypatch):
    # the known edge is still there, but a traverse search that flags no
    # root under sym k=(0,1) contradicts it
    real = pt.traverse_bruteforce
    monkeypatch.setattr(
        pt, "traverse_bruteforce", lambda rs, center: tuple(x + 1 for x in real(rs, center))
    )
    code, out, _ = run(capsys, "verify", "nonescape", "B2", "--k", "0")
    assert code == 2, out
    assert out.splitlines()[-2:] == [
        "FAIL - B2 sym k=(0,1) does not reproduce the known escaping edge",
        "suite nonescape on B2: FAIL",
    ]


def test_conjectures_never_fail(capsys, monkeypatch):
    # a fit that is neither integer nor nonnegative, and a broken symmetry,
    # are findings: note rows, never a failed suite
    real_fit = eh.fit_ehrhart_like
    odd = eh.LatticePolynomial.from_dict(1, {(1,): Fraction(-1, 2)})
    monkeypatch.setattr(
        eh, "fit_ehrhart_like",
        lambda *a: real_fit(*a)._replace(polynomial=odd),
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
