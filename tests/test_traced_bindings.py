"""The benchmark's tracer and the stage script wrap module attributes of
d8span by name; a name that is gone fails them only when they run.  Each
file is loaded by path, as written, and each binding it names is looked up
on the d8span modules."""

import importlib.util
from pathlib import Path

import pytest

from d8span import analysis, builder, delaunay, geometry, pointio, report

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "geometry": geometry,
    "pointio": pointio,
    "delaunay": delaunay,
    "builder": builder,
    "analysis": analysis,
    "report": report,
}


def _load(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(f"_bindings_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    tracing = _load("perfbench/tracing.py")
    stages = _load("scripts/bench_stages.py")
    tables = {
        "TIMED": tracing.TIMED,
        "TIMED_BINDINGS": tracing.TIMED_BINDINGS,
        "COUNTED": tracing.COUNTED,
        "STAGES": stages.STAGES,
    }
    return [
        pytest.param(home, attr, id=f"{table}-{home}.{attr}")
        for table, bindings in tables.items()
        for home, attr in bindings
    ]


@pytest.mark.parametrize("home, attr", _bindings())
def test_traced_binding_resolves(home, attr):
    assert callable(getattr(MODULES[home], attr))


def test_point_objects_binding_resolves():
    # the counting round wraps PointSet.__getitem__ for its point-object count
    assert "__getitem__" in vars(geometry.PointSet)
