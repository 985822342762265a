"""Smoke test: the reproduction scripts run against the current API."""

import importlib.util
from pathlib import Path

import pytest

from invforge import syzygies

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


def test_reproduce_syzygies_requests_every_degree(monkeypatch, capsys):
    # every degree up to the top one, each filtered from its own basis, and
    # the degrees of the minimal relations are asserted
    script = load("reproduce_syzygies")
    requested = []
    minimal = script.minimal_syzygies

    def spy(gens, degrees):
        requested.append(list(degrees))
        return minimal(gens, requested[-1])

    monkeypatch.setattr(script, "minimal_syzygies", spy)
    script.run(5)
    assert requested == [list(range(1, 49))]
    monkeypatch.setitem(script.RELATION_DEGREES, 5, [36, 40])
    with pytest.raises(AssertionError):
        script.run(5)


MINIMAL = syzygies._minimal


def keeps_multiples_of_the_first_generator(gens, d, basis):
    # misses one generator's consequences: it also keeps every basis
    # relation that is a multiple of the first generator, f4*R36 at n = 5
    # d40 and f2*R30 at n = 6 d32
    kept = MINIMAL(gens, d, basis)
    return [s for s in basis if s in kept or all(e[0] for e in s.relation.terms)]


WRONG_FILTERS = {"keeps every basis relation": lambda gens, d, basis: basis,
                 "keeps none": lambda gens, d, basis: [],
                 "keeps the multiples of the first generator":
                     keeps_multiples_of_the_first_generator}


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("wrong", sorted(WRONG_FILTERS))
def test_reproduce_syzygies_checks_the_hilbert_numerator(n, wrong, monkeypatch):
    # a filter that keeps the products of the one relation, or only those
    # with the first generator, or drops the relation itself, disagrees with
    # N(t) = 1 - t^r0 in some degree
    script = load("reproduce_syzygies")
    monkeypatch.setattr(syzygies, "_minimal", WRONG_FILTERS[wrong])
    with pytest.raises(AssertionError, match="the Hilbert numerator asks"):
        script.run(n)


END_TO_END = [{"name": "wall_ref_s", "better": "lower", "bound": 0.15},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def canned_runs(parent_walls, change_walls, parent_rss=30.0, change_rss=30.0,
                change_failed=0):
    runs = []
    for seed, (pw, cw) in enumerate(zip(parent_walls, change_walls), start=1):
        for side, wall, rss in (("parent", pw, parent_rss), ("change", cw, change_rss)):
            runs.append({"workload": "generators", "seed": seed, "side": side,
                         "metrics": {"wall_ref_s": wall, "peak_rss_mb": rss},
                         "passes": 20 if side == "parent" else 25,
                         "failed": change_failed if side == "change" else 0,
                         "attempted": 60})
    return runs


def test_bench_pairs_summary_counts_wins_and_applies_the_rule():
    bench = load("bench_pairs")
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.80, 0.81, 0.79, 0.82, 0.80, 0.78, 0.83, 0.80, 0.81, 0.98]
    summary = bench.summarize(canned_runs(parent, change), END_TO_END)["generators"]
    assert summary["seeds"] == list(range(1, 11))
    assert summary["parent"]["passes"] == [20] * 10
    assert summary["change"]["failed_ratio"] == 0
    wall = summary["pairs"]["wall_ref_s"]
    # the last pair is a tie and counts for neither side
    assert (wall["change_wins"], wall["parent_wins"], wall["ties"]) == (9, 0, 1)
    assert wall["parent_median"] == 1.0 and wall["change_median"] == 0.805
    assert summary["parent"]["quartiles"]["wall_ref_s"] == pytest.approx([0.9825, 1.0175])
    assert wall["gain_rule_met"] and wall["verdict"] == "gain met"
    rss = summary["pairs"]["peak_rss_mb"]
    assert (rss["change_wins"], rss["ties"]) == (0, 10)
    assert not rss["gain_rule_met"] and rss["verdict"] == "no gain; within bound"


def test_bench_pairs_summary_needs_nine_wins_and_the_iqr():
    bench = load("bench_pairs")
    parent = [1.0] * 10
    eight = bench.summarize(canned_runs(parent, [0.5] * 8 + [1.0, 1.1]),
                            END_TO_END)["generators"]["pairs"]["wall_ref_s"]
    assert eight["change_wins"] == 8 and not eight["gain_rule_met"]
    spread = [0.8, 1.2, 0.8, 1.2, 0.8, 1.2, 0.8, 1.2, 0.8, 1.2]
    small = bench.summarize(canned_runs(spread, [s - 0.01 for s in spread]),
                            END_TO_END)["generators"]["pairs"]["wall_ref_s"]
    assert small["change_wins"] == 10 and not small["gain_rule_met"]
    worse = bench.summarize(canned_runs(parent, [1.0] * 10, 30.0, 34.0),
                            END_TO_END)["generators"]["pairs"]["peak_rss_mb"]
    assert not worse["within_bound"] and worse["verdict"] == "regression past bound"


def test_bench_pairs_summary_meets_no_gain_with_more_failed_operations():
    bench = load("bench_pairs")
    runs = canned_runs([1.0] * 10, [0.5] * 10, change_failed=1)
    summary = bench.summarize(runs, END_TO_END)["generators"]
    assert summary["change"]["failed"] == 10 and summary["parent"]["failed"] == 0
    wall = summary["pairs"]["wall_ref_s"]
    assert wall["change_wins"] == 10 and not wall["gain_rule_met"]
    assert wall["verdict"] == summary["pairs"]["peak_rss_mb"]["verdict"] == "more failed operations"


def test_bench_pairs_pairs_only_seeds_run_on_both_sides():
    bench = load("bench_pairs")
    runs = canned_runs([1.0, 1.0, 1.0], [0.9, 0.9, 0.9])
    runs = [r for r in runs if not (r["seed"] == 3 and r["side"] == "change")]
    summary = bench.summarize(runs, END_TO_END)["generators"]
    assert summary["seeds"] == [1, 2]
    assert summary["parent"]["runs"]["wall_ref_s"] == [1.0, 1.0]
    assert bench.parse_seeds("1-3,7,10-11") == [1, 2, 3, 7, 10, 11]


def test_bench_pairs_reports_median_passes_and_the_rss_slope_per_pass():
    bench = load("bench_pairs")
    runs = []
    for seed, passes in enumerate([(10, 14), (12, 15), (11, 19)], start=1):
        for side, k in zip(bench.SIDES, passes):
            runs.append({"workload": "queries", "seed": seed, "side": side,
                         "metrics": {"wall_ref_s": 0.2, "peak_rss_mb": 24.0 + 0.25 * k},
                         "passes": k, "failed": 0, "attempted": 99 * k})
    summary = bench.summarize(runs, END_TO_END)["queries"]
    assert summary["parent"]["median_passes"] == 11
    assert summary["change"]["median_passes"] == 15
    assert summary["peak_rss_mb_per_pass"] == pytest.approx(0.25)
    # an unpaired run takes no part, and one pass count fits no slope
    runs.append(dict(runs[0], seed=4, passes=40, metrics={"peak_rss_mb": 0.0}))
    assert bench.summarize(runs, END_TO_END)["queries"]["peak_rss_mb_per_pass"] == (
        pytest.approx(0.25))
    level = [dict(r, passes=12) for r in runs]
    assert bench.summarize(level, END_TO_END)["queries"]["peak_rss_mb_per_pass"] is None


def test_bench_pairs_rss_gain_ceiling():
    bench = load("bench_pairs")
    # the parent's figures at the time the ceiling was added: relations
    # runs about 440 passes at 0.0118 MB each, generators 32 at 0.46 MB
    assert bench.rss_gain_ceiling(440, 0.0118, 26.0, 0.1) == pytest.approx(0.334, abs=1e-3)
    assert bench.rss_gain_ceiling(32, 0.46, 36.55, 0.1) == pytest.approx(0.199, abs=1e-3)
    # at the ceiling the extra passes fill the bound exactly
    g = bench.rss_gain_ceiling(20, 0.5, 30.0, 0.1)
    assert 0.5 * (20 / (1 - g) - 20) == pytest.approx(0.1 * 30.0)
    assert bench.rss_gain_ceiling(20, None, 30.0, 0.1) is None
    assert bench.rss_gain_ceiling(20, -0.1, 30.0, 0.1) is None
    # summarize reports it per workload from the parent's median passes
    runs = []
    for seed, passes in enumerate([(10, 14), (12, 15), (11, 19)], start=1):
        for side, k in zip(bench.SIDES, passes):
            runs.append({"workload": "queries", "seed": seed, "side": side,
                         "metrics": {"wall_ref_s": 0.2, "peak_rss_mb": 24.0 + 0.25 * k},
                         "passes": k, "failed": 0, "attempted": 99 * k})
    summary = bench.summarize(runs, END_TO_END)["queries"]
    parent_rss = summary["parent"]["median"]["peak_rss_mb"]
    assert summary["rss_gain_ceiling"] == pytest.approx(
        bench.rss_gain_ceiling(11, 0.25, parent_rss, 0.1))
    level = [dict(r, passes=12) for r in runs]
    assert bench.summarize(level, END_TO_END)["queries"]["rss_gain_ceiling"] is None


def test_code_lines_leave_out_docstrings_and_comments():
    text = ('"""Module.\n\nMore."""\n\n# a comment\nimport os  # kept\n\n\n'
            'class A:\n    """One line."""\n\n    def f(self):\n'
            '        """Two\n        lines."""\n        return "not a docstring"\n')
    assert load("code_lines").code_lines(text) == 4
