"""Smoke test: the reproduction scripts run against the current API."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,summaries", [
    ("reproduce_generators",
     ["n=5: 4 generators of degrees (4, 8, 12, 18) in ",
      "  subring agrees with the bundled reference generators: True"]),
    ("reproduce_syzygies",
     ["n=5: 1 minimal relations at degrees [36] in ",
      "  bundled syzygy-1 expands to zero on the reference set: True"]),
])
def test_script_runs(name, summaries, capsys):
    load(name).run(5)
    lines = capsys.readouterr().out.splitlines()
    for summary in summaries:
        assert any(line.startswith(summary) for line in lines), summary
