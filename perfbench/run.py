"""invforge benchmark: one command, every metric with its unit, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload generators --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):
  generators  mingenset for n = 5, 6, 8
  relations   minimal_syzygies and check_syzygy on the bundled generators
  queries     closed loop of small ``invforge.cli.main`` requests, one client

Each run starts fresh interpreters: ``SETUP_PROBES`` that only set up (their
median wall time is ``setup_s``), then one measured process.  With
``--trace 1`` a second process replays the same passes or requests with
spans and counters recorded, and the per-layer metrics are printed instead.
Every process runs single-threaded with INVFORGE_THREADS=1.  The last line
of standard output is the result object; the line before it is the run
record with every raw value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from worker import WORK_DIR, WORKLOADS, tail_percentile  # noqa: E402

SETUP_PROBES = 5
PROCESS_TIMEOUT_S = 170

# end-to-end metrics in BENCHMARK.json: reported on every workload
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"))

# a traced run of each workload must see at least these layers
LAYERS_REQUIRED = {
    "generators": ("exponents", "derivations", "rings", "linalg", "invariants"),
    "relations": ("exponents", "rings", "linalg", "syzygies", "fixtures"),
    "queries": ("derivations", "invariants", "textio", "fixtures", "cli"),
}

ENV = {"INVFORGE_THREADS": "1", "PYTHONHASHSEED": "0"}


def spawn(root: Path, args: list) -> tuple:
    """Run one worker to completion; (wall seconds, parsed last line)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **ENV)
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha(root: Path):
    """HEAD of a git checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def task_metrics(workload: str, run: dict) -> list:
    """Metrics printed but not bounded: (name, value, unit)."""
    out = [("wall_s", run["wall_s"], "s"),
           ("failed_ratio", run["failed"] / run["attempted"], "failed/op")]
    if workload != "queries":
        for name, values in run["tasks"].items():
            out.append((name, statistics.median(values), "s"))
        return out
    lat = sorted(run["tasks"]["latency_s"])
    p, k = tail_percentile(len(lat))
    out.append(("query_p50_ms", statistics.median(lat) * 1000, "ms"))
    if p is not None:
        out.append(("query_tail_ms", lat[k] * 1000, f"ms@p{p:g}"))
    out.append(("queries_per_s", len(lat) / run["timed_s"], "req/s"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its worker: subprocess.run kills the
    # child when an exception, here SystemExit, unwinds through it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "invforge" / "__init__.py").is_file():
        print(f"error: no invforge sources under {root / 'src'}; run from the "
              "root of an invforge checkout", file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setup_walls = [spawn(root, common + ["--mode", "setup"])[0]
                       for _ in range(SETUP_PROBES)]
        _, run = spawn(root, common + ["--mode", "run",
                                       "--seconds", str(args.seconds)])
        traced = None
        if args.trace:
            spans = root / WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            _, traced = spawn(root, common + ["--mode", "trace",
                                              "--count", str(run["count"]),
                                              "--spans", str(spans)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    e2e = {"setup_s": statistics.median(setup_walls),
           "wall_ref_s": run["wall_ref_s"], "peak_rss_mb": run["peak_rss_mb"]}
    attempted, failed = run["attempted"], run["failed"]
    failures = list(run["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "env": ENV,
        "setup_probe_s": setup_walls, "run": run,
    }
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    if traced is not None:
        layers = dict(traced.pop("layers"))
        layers["trace.overhead_ratio"] = traced["timed_s"] / run["timed_s"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
        self_test = []
        missing = sorted(set(LAYERS_REQUIRED[args.workload]) - set(traced["layers_seen"]))
        if missing:
            self_test.append(f"no spans recorded for layers {missing}")
        if traced["digest"] != run["digest"]:
            self_test.append("traced outputs differ from the untraced run")
        attempted += 2
        failed += len(self_test)
        failures += [f"trace self-test: {msg}" for msg in self_test]
        traced["spans_file"] = str(spans.relative_to(root))
        traced["mul_timing"] = ("Polynomial.__mul__ is counted and timed "
                                "without spans; its time stays in the "
                                "caller's self time")
        record["traced"] = traced
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}

    correct = failed == 0
    record["failures"] = failures
    for name, value, unit in ([(n, e2e[n], u) for n, u in END_TO_END]
                              + task_metrics(args.workload, run)):
        print(f"{name} = {value:.6g} {unit}")
    if args.workload == "queries":
        n = len(run["tasks"]["latency_s"])
        print(f"queries: {n} requests, tail percentile p{tail_percentile(n)[0]}")
    if traced is not None:
        for name, unit, _ in LAYER_METRICS:
            print(f"{name} = {layers[name]:.6g} {unit}")
    for msg in failures:
        print(f"FAILED {msg}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
