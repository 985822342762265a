"""The benchmark tracer still finds every engine function it wraps."""

import importlib
import importlib.util
from pathlib import Path

import invforge
from invforge import fixtures, syzygies
from invforge.exponents import powers
from invforge.invariants import invariant_basis
from invforge.rings import Polynomial

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
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


def test_tracer_counts_the_sparse_systems():
    # invariant bases run on the exact Eliminator, the class the tracer
    # wraps: its one system is counted with every row and its full rank
    t = load_tracer().Tracer()
    try:
        t.install()
        basis = invariant_basis(4, 6)
    finally:
        t.uninstall()
    got = t.metrics()
    ncols = len(powers(4, 6))
    assert got["linalg.systems"] == 1
    assert got["linalg.cols"] == ncols
    assert got["linalg.rows"] > 0
    assert got["linalg.rank"] == ncols - len(basis)
    assert got["linalg.max_pivot_bits"] > 0


def test_tracer_counts_every_relation_basis_and_check():
    # minimal_syzygies reads its basis through syzygy_basis, and
    # load_fixtures checks each bundled relation through check_syzygy, so
    # the traced counts include the calls the library makes itself; a
    # bundled reference set is one strict generator-dir load, with no check
    ref5 = fixtures.fixture_generator_set(5)
    tracer = load_tracer()
    for call, expected in (
            (lambda: syzygies.minimal_syzygies(ref5, [36]), {"syzygies.basis_calls": 1}),
            (lambda: fixtures.load_fixtures(5), {"syzygies.check_calls": 1}),
            (lambda: fixtures.fixture_generator_set(5),
             {"syzygies.check_calls": 0, "fixtures.gen_dir_loads": 1})):
        t = tracer.Tracer()
        try:
            t.install()
            call()
        finally:
            t.uninstall()
        got = t.metrics()
        assert {metric: got[metric] for metric in expected} == expected
