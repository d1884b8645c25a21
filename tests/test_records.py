"""The result records: immutable named tuples, validated params, a light import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootfire import ehrhart as eh
from rootfire import firing as fi
from rootfire import polytope as pt
from rootfire.errors import DomainError
from rootfire.rootsys import from_spec

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def records():
    """One record of each class, as its producer returns it, on A2."""
    rs = from_spec("A2")
    sym1 = fi.FiringParams.make("sym", 1)
    fit = eh.fit_ehrhart_like(rs, (0, 0), "sym")
    return {
        "FiringParams": sym1,
        "FiringGraph": fi.build_graph(rs, fi.coord_box(rs, 1), sym1),
        "DiscretePermutohedron": pt.enumerate_perm(rs, (1, 1)),
        "LatticePolynomial": fit.polynomial,
        "FitReport": fit,
        "DecompositionReport": eh.decomposition_check(rs, fi.coord_box(rs, 1), sym1),
        "IterateReport": eh.iterate_check(rs, (0, 0), 1),
    }


@pytest.mark.parametrize(
    "name",
    [
        "FiringParams", "FiringGraph", "DiscretePermutohedron",
        "LatticePolynomial", "FitReport", "DecompositionReport", "IterateReport",
    ],
)
def test_records_are_immutable_and_replace_keeps_the_class(records, name):
    rec = records[name]
    assert type(rec).__name__ == name
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
    with pytest.raises(AttributeError):
        rec.extra = 1
    copy = rec._replace(**{rec._fields[0]: getattr(rec, rec._fields[0])})
    assert type(copy) is type(rec)
    assert copy == rec


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: fi.FiringParams("weird"), "unknown firing kind 'weird'"),
        (lambda: fi.FiringParams.make("sym", -1), "firing parameters must be nonnegative"),
        (lambda: fi.FiringParams._make(("weird", 0, 0)), "unknown firing kind 'weird'"),
        (
            lambda: fi.FiringParams.make("sym", 1)._replace(k_short=-1),
            "firing parameters must be nonnegative",
        ),
        (
            lambda: fi.FiringParams("central")._replace(k_long=1),
            "central firing takes no k, got k=(0,1)",
        ),
    ],
    ids=["constructor", "make", "_make", "_replace", "_replace-central"],
)
def test_firing_params_refuse_bad_input_on_every_construction_path(build, message):
    with pytest.raises(DomainError) as exc:
        build()
    assert str(exc.value) == message


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hook preloads anything, so sys.modules holds only what the import pulls in
    probe = "import sys, rootfire, rootfire.cli; print(*sys.modules, sep=chr(10))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(out.split())
    assert "rootfire.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
