"""The benchmark tracer still finds every engine function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import invforge
from invforge.rings import Polynomial

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    mods = [importlib.import_module(f"invforge.{m}") for m in tracer.MODULES] + [invforge]
    mul = Polynomial.__dict__["__mul__"]
    t = tracer.Tracer()
    try:
        t.install()
        assert tracer.unpatched_references(mods, t._saved) == []
        assert Polynomial.__dict__["__mul__"] is not mul
    finally:
        t.uninstall()
    assert Polynomial.__dict__["__mul__"] is mul
