#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

Extracts the parent revision's committed files (``git archive``) into a
temporary directory, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the ``run_seconds`` of BENCHMARK.json, once there and once in the
working tree for every workload and seed, one run at a time.  Odd seeds run
the parent first, even seeds the change.  Writes one BENCH JSON file
(rewritten after every pair, so an interrupted run keeps what it measured)
with every run's end-to-end metrics, pass count and failed operations; per
workload each side's median passes per run, the least-squares slope of
``peak_rss_mb`` against the pass count and the largest ``wall_ref_s`` gain
that the ``peak_rss_mb`` bound admits at that slope (``rss_gain_ceiling``);
and per workload and metric the medians, quartiles, pair wins and
verdicts.  The temporary directory is removed on exit, also on error.

    python3 scripts/bench_pairs.py --parent HEAD~1 --out BENCH_x.json
    python3 scripts/bench_pairs.py --workloads generators --seeds 11 --out x.json

Verdicts follow BENCHMARK.json.  A gain is met when the change wins at
least 9 of 10 pairs (ties count for neither side), its median is better
than the parent's by more than the parent's interquartile range, and it
fails no larger share of its operations than the parent.  A metric
regresses when the change's median is worse than the parent's by more than
the metric's relative bound.  Every metric's verdict is "more failed
operations" when the change fails a larger share of its operations.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """'1-10' or '1,3,5' or '11' (and mixes of them) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent: list, change: list, better: str, bound: float,
            failed_ratio: tuple = (0, 0)) -> dict:
    """Pair wins, medians and verdicts of one metric; runs pair up by index.

    ``failed_ratio`` is each side's (parent, change) share of failed
    operations over the same runs.
    """
    sign = 1 if better == "lower" else -1
    change_wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (med_p - med_c)
    more_failed = failed_ratio[1] > failed_ratio[0]
    gain_met = (change_wins >= math.ceil(WIN_SHARE * len(parent))
                and gain > q3 - q1 and not more_failed)
    within = -gain <= bound * abs(med_p)
    if more_failed:
        verdict = "more failed operations"
    elif gain_met:
        verdict = "gain met"
    elif within:
        verdict = "no gain; within bound"
    else:
        verdict = "regression past bound"
    return {"change_wins": change_wins, "parent_wins": parent_wins,
            "ties": len(parent) - change_wins - parent_wins,
            "parent_median": med_p, "change_median": med_c,
            "parent_iqr": q3 - q1,
            "median_change_rel": (med_c - med_p) / med_p if med_p else None,
            "bound": bound, "gain_rule_met": gain_met, "within_bound": within,
            "verdict": verdict}


def rss_per_pass(runs: list):
    """Least-squares slope of peak_rss_mb against the pass count, in MB.

    perfbench keeps every pass's results until its check, so a run's peak
    grows with its passes; the slope says how much of a gap in
    ``peak_rss_mb`` the pass counts alone explain.  None without two
    distinct pass counts.
    """
    if len({r["passes"] for r in runs}) < 2:
        return None
    return statistics.linear_regression(
        [r["passes"] for r in runs], [r["metrics"]["peak_rss_mb"] for r in runs]).slope


def rss_gain_ceiling(passes, mb_per_pass, parent_rss, bound):
    """Largest wall_ref_s gain, as a fraction, that the peak_rss_mb bound admits.

    A run lasts a fixed time, so a change that cuts wall_ref_s by g runs
    P / (1 - g) passes where the parent runs its median P, and each extra
    pass adds s MB to the peak.  The rise s * P * g / (1 - g) stays within
    bound * R, R the parent's median peak_rss_mb, up to g = x / (1 + x)
    with x = bound * R / (s * P).  None without a positive slope.
    """
    if not passes or not mb_per_pass or mb_per_pass <= 0 or bound is None or not parent_rss:
        return None
    x = bound * parent_rss / (mb_per_pass * passes)
    return x / (1 + x)


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: each side's runs, medians and quartiles, and the pairs.

    ``runs`` holds one dict per run with ``workload``, ``seed``, ``side``,
    ``metrics`` (end-to-end name -> value), ``passes``, ``failed`` and
    ``attempted``; ``end_to_end`` is BENCHMARK.json's list of metrics.
    Only seeds measured on both sides take part.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_side = {side: {r["seed"]: r for r in runs
                          if r["workload"] == workload and r["side"] == side}
                   for side in SIDES}
        seeds = sorted(set(by_side["parent"]) & set(by_side["change"]))
        entry = {"seeds": seeds}
        for side in SIDES:
            picked = [by_side[side][s] for s in seeds]
            passes = [r["passes"] for r in picked]
            values = {m["name"]: [r["metrics"][m["name"]] for r in picked]
                      for m in end_to_end}
            failed = sum(r["failed"] for r in picked)
            attempted = sum(r["attempted"] for r in picked)
            entry[side] = {
                "runs": values,
                "passes": passes,
                "median_passes": statistics.median(passes) if passes else None,
                "failed": failed, "attempted": attempted,
                "failed_ratio": failed / attempted if attempted else None,
                "median": {k: statistics.median(v) for k, v in values.items() if v},
                "quartiles": {k: quartiles(v) for k, v in values.items() if v},
            }
        entry["peak_rss_mb_per_pass"] = rss_per_pass(
            [by_side[side][s] for side in SIDES for s in seeds])
        rss_bound = {m["name"]: m["bound"] for m in end_to_end}.get("peak_rss_mb")
        entry["rss_gain_ceiling"] = rss_gain_ceiling(
            entry["parent"]["median_passes"], entry["peak_rss_mb_per_pass"],
            entry["parent"]["median"].get("peak_rss_mb"), rss_bound)
        if seeds:
            entry["pairs"] = {
                m["name"]: compare(entry["parent"]["runs"][m["name"]],
                                   entry["change"]["runs"][m["name"]],
                                   m["better"], m["bound"],
                                   (entry["parent"]["failed_ratio"] or 0,
                                    entry["change"]["failed_ratio"] or 0))
                for m in end_to_end}
        out[workload] = entry
    return out


def run_once(tree: Path, workload: str, seed: int, seconds) -> dict:
    """One perfbench run in ``tree``: its end-to-end metrics and counts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} in {tree} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "passes": record["run"]["count"], "failed": result["failed"],
            "attempted": result["attempted"], "git_sha": record["git_sha"],
            "cpu_model": record["cpu_model"], "nproc": record["nproc"],
            "python": record["python"]}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="revision to compare against")
    ap.add_argument("--workloads", help="comma-separated (default: BENCHMARK.json's)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 11 or 1,3,5")
    ap.add_argument("--out", required=True, help="BENCH JSON file to write")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    parent_sha = git("rev-parse", args.parent)
    out = Path(args.out)
    doc = {"label": out.stem.removeprefix("BENCH_"),
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      f"--seconds {seconds} --trace 0",
           "parent": parent_sha, "change": "working tree of " + git("rev-parse", "HEAD"),
           "order": "odd seeds: parent first; even seeds: change first",
           "rule": f"gain: the change wins at least {WIN_SHARE:.0%} of the pairs "
                   "and its median beats the parent's by more than the parent's "
                   "IQR, and it fails no larger share of its operations; "
                   "regression: the change's median is worse than the "
                   "parent's by more than the BENCHMARK.json bound (relative)",
           "complete": False}
    runs = []

    def write():
        doc["machine"] = ({k: runs[-1][k] for k in ("cpu_model", "nproc", "python")}
                          if runs else {"python": platform.python_version()})
        doc["runs"] = runs
        doc["workloads"] = summarize(runs, bench["end_to_end"])
        out.write_text(json.dumps(doc, indent=1) + "\n")

    tree = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        trees = {"parent": tree, "change": ROOT}
        for workload in workloads:
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds)
                    run["side"] = side
                    runs.append(run)
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                          + f" passes={run['passes']} failed={run['failed']}",
                          flush=True)
                write()
        doc["complete"] = True
        write()
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    for workload, entry in doc["workloads"].items():
        slope, ceiling = entry["peak_rss_mb_per_pass"], entry["rss_gain_ceiling"]
        print(f"{workload} passes per run (median): "
              f"{entry['parent']['median_passes']} -> {entry['change']['median_passes']};"
              " peak_rss_mb per pass: "
              + ("n/a" if slope is None else f"{slope:.3g} MB")
              + "; largest wall_ref_s gain within the peak_rss_mb bound: "
              + ("n/a" if ceiling is None else f"{ceiling:.1%}"))
        for name, pair in entry.get("pairs", {}).items():
            print(f"{workload} {name}: {pair['parent_median']:.4g} -> "
                  f"{pair['change_median']:.4g} ({pair['change_wins']} wins of "
                  f"{len(entry['seeds'])}): {pair['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
