"""One measured invforge process: set up a workload, time it, check it.

``run.py`` starts this file in a fresh interpreter for every set-up probe,
every measured run and every traced run, with ``src`` on ``PYTHONPATH``.
The last line of standard output is one JSON object.

Modes:
  setup  import invforge and build the workload's inputs, then exit
  run    set up, then time whole passes for ``--seconds`` while
         ``SpeedProbe`` samples the core's speed
  trace  set up and replay exactly ``--count`` passes with spans and
         counters recorded
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks

WORK_DIR = ".perfbench_work"


class Workload:
    """A timed phase split into ops; every op is checked after timing."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.setup()

    def check(self, results):
        """Digest every task output against golden.json; checks must be True."""
        from invforge.textio import format_poly
        golden = checks.load_golden()
        failures, parts = [], []
        for key, value in results:
            if isinstance(value, Exception):
                parts.append(f"{key}:raised")
                failures.append(f"{key}: raised {type(value).__name__}: {value}")
            elif isinstance(value, bool):
                parts.append(f"{key}:{value}")
                if not value:
                    failures.append(f"{key}: check_syzygy returned False")
            else:
                digest = checks.sha256(self.render(value, format_poly))
                parts.append(f"{key}:{digest}")
                if digest != golden[key]:
                    failures.append(f"{key}: output digest {digest[:12]} differs from golden")
        return failures, parts


def attempt(fn, *args):
    """An op that raises is a failed op, not a failed run."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


# -- generators ---------------------------------------------------------------

class Generators(Workload):
    """mingenset for n = 5, 6 and 8, fresh every pass."""

    CASES = (5, 6, 8)
    render = staticmethod(checks.generators_text)

    def setup(self):
        from invforge import invariants
        self.invariants = invariants

    def run_pass(self, times, results):
        inv = self.invariants
        for n in self.CASES:
            t0 = perf_counter()
            gens = attempt(inv.mingenset, n, *inv.known_degree_table(n))
            times.setdefault(f"mingenset_n{n}_s", []).append(perf_counter() - t0)
            results.append((f"mingenset_n{n}", gens))


# -- relations ----------------------------------------------------------------

class Relations(Workload):
    """minimal_syzygies on the bundled generators, then exact validation."""

    CASES = ((5, 36), (6, 30), (8, 16))
    render = staticmethod(checks.syzygies_text)

    def setup(self):
        from invforge import syzygies
        from invforge.fixtures import fixture_root, load_generator_dir
        from invforge.textio import parse_poly
        self.syzygies = syzygies
        self.gens = {}
        self.relation = {}
        for n, _ in self.CASES:
            folder = fixture_root() / f"n{n}"
            gens = load_generator_dir(n, folder)
            self.gens[n] = gens
            body = (folder / "syzygy-1.gen").read_text().strip()
            self.relation[n] = parse_poly(body, gens.gen_context())

    def run_pass(self, times, results):
        syz = self.syzygies
        for n, d in self.CASES:
            t0 = perf_counter()
            found = attempt(syz.minimal_syzygies, self.gens[n], [d])
            times.setdefault(f"syzygies_n{n}_s", []).append(perf_counter() - t0)
            results.append((f"syzygies_n{n}_d{d}", found))
        t0 = perf_counter()
        for n, _ in self.CASES:
            results.append((f"check_n{n}_syzygy-1",
                            attempt(syz.check_syzygy, self.gens[n], self.relation[n])))
        times.setdefault("validate_s", []).append(perf_counter() - t0)


# -- queries ------------------------------------------------------------------

INVARIANT_CASES = ((2, 2), (2, 6), (3, 4), (3, 8), (4, 3), (4, 6), (4, 8),
                   (5, 4), (5, 6), (5, 8), (5, 12), (6, 2), (6, 4), (6, 6),
                   (6, 8), (8, 2), (8, 3), (8, 4), (8, 5), (8, 6))
MEMBER_CASES = ((4, 6), (4, 12), (5, 8), (5, 12), (6, 6), (6, 8), (8, 4),
                (8, 6))
CONVERT_CASES = ((3, 4), (4, 6), (5, 8), (6, 6), (8, 4), (8, 5))
MALFORMED = ("3*u2^^2 + x0", "x0*u2 +", "2*x0*(u2 + u3", "u2 + q7", "x0**")
POOL = 3            # seeded variants per case, built in set-up

# One round sends every slot once, in seeded order, with a seeded format and
# instance per slot; the timed phase runs whole rounds, so every run sends
# the same mix of request kinds and costs and only the instances differ.
ROUND = tuple(
    [("invariants", case, coords) for case in INVARIANT_CASES for coords in "ux"]
    + [(kind, case) for case in MEMBER_CASES for kind in ("member_yes", "member_no")]
    + [(kind, case) for case in CONVERT_CASES
       for kind in ("verify_u_yes", "verify_u_no", "verify_x_yes", "verify_x_no",
                    "u2x", "x2u")]
    + [("fixtures", 4), ("fixtures", 5)]
    + [("malformed", k) for k in range(len(MALFORMED))])


class Request:
    __slots__ = ("label", "argv", "expect", "kind", "data")

    def __init__(self, label, argv, expect, kind, data=None):
        self.label, self.argv, self.expect = label, argv, expect
        self.kind, self.data = kind, data


class Queries(Workload):
    """A closed loop of small CLI requests, one client, seeded."""

    def setup(self):
        from invforge import cli
        from invforge.derivations import expand_u_to_x
        from invforge.fixtures import fixture_root, load_generator_dir
        from invforge.invariants import invariant_basis, verify_invariant_u
        from invforge.rings import Polynomial, u_ring, x_ring
        from invforge.exponents import grad, powers
        from invforge.syzygies import expand_in_generators

        self.cli = cli
        rng = random.Random(self.seed)
        self.rng = random.Random(rng.random())
        self.files = 0

        def coeff():
            return rng.choice((-1, 1)) * rng.randint(1, 9)

        def combination(polys):
            picked = rng.sample(polys, rng.randint(1, len(polys)))
            total = Polynomial.zero(picked[0].context)
            for p in picked:
                total = total + p.scale(coeff())
            return total

        def non_invariant_u_monomial(n, d):
            ctx = u_ring(n)
            exps = powers(n, d)
            rng.shuffle(exps)
            for e in exps:
                m = Polynomial.monomial(ctx, e)
                if not verify_invariant_u(n, m):
                    return m
            raise RuntimeError(f"no non-invariant monomial for n={n}, d={d}")

        def x_monomial(n, d):
            # no nonconstant x-monomial is killed by both derivations
            exps = [0] * (n + 1)
            for _ in range(d):
                exps[rng.randint(0, n)] += 1
            return Polynomial.monomial(x_ring(n), exps)

        self.roots = {n: fixture_root() / f"n{n}" for n in (4, 5, 6, 8)}
        self.gens = {n: load_generator_dir(n, root) for n, root in self.roots.items()}

        self.members = {}
        for n, d in MEMBER_CASES:
            gens = self.gens[n]
            gctx = gens.gen_context()
            cands = grad(gens.profile(), (d, n * d // 2))
            monos = [Polynomial.monomial(gctx, e) for e in cands]
            yes, no = [], []
            for _ in range(POOL):
                target = expand_in_generators(gens, combination(monos))
                yes.append((self.write(target), target))
                bad = target + non_invariant_u_monomial(n, d).scale(coeff())
                no.append((self.write(bad), bad))
            self.members[n, d] = (yes, no)

        self.forms = {}
        for n, d in CONVERT_CASES:
            basis = list(invariant_basis(n, d))
            variants = []
            for _ in range(POOL):
                fu = combination(basis)
                fx = expand_u_to_x(fu, n)
                bad_u = fu + non_invariant_u_monomial(n, d).scale(coeff())
                bad_x = fx + x_monomial(n, d).scale(coeff())
                variants.append({
                    "u": (self.write(fu), fu), "x": (self.write(fx), fx),
                    "bad_u": self.write(bad_u), "bad_x": self.write(bad_x)})
            self.forms[n, d] = variants

        self.malformed = [self.write_text(t) for t in MALFORMED]
        self.round_stream = self.rounds()

    def write(self, poly) -> str:
        from invforge.textio import format_poly
        return self.write_text(format_poly(poly))

    def write_text(self, text: str) -> str:
        self.files += 1
        path = self.tmp / f"q{self.files}.poly"
        path.write_text(text + "\n")
        return str(path)

    def rounds(self):
        rng = self.rng
        while True:
            slots = list(ROUND)
            rng.shuffle(slots)
            yield [self.request(slot, rng) for slot in slots]

    def request(self, slot, rng) -> Request:
        kind, case = slot[0], slot[1]
        fmt = rng.choice(("text", "json"))
        if kind == "invariants":
            n, d = case
            coords = slot[2]
            argv = ["invariants", "--n", str(n), "--degree", str(d),
                    "--coords", coords, "--format", fmt]
            return Request(f"invariants n={n} d={d} {coords} {fmt}", argv, 0,
                           kind, (n, d, coords, fmt))
        if kind in ("member_yes", "member_no"):
            n, d = case
            yes, no = self.members[n, d]
            k = rng.randrange(POOL)
            path, target = (yes if kind == "member_yes" else no)[k]
            argv = ["member", "--n", str(n), "--gens", str(self.roots[n]),
                    "--target", path, "--format", fmt]
            return Request(f"{kind} n={n} d={d} #{k} {fmt}", argv,
                           0 if kind == "member_yes" else 1, kind,
                           (n, target, fmt))
        if kind == "fixtures":
            return Request(f"fixtures n={case}", ["fixtures", "--n", str(case)],
                           0, kind, case)
        if kind == "malformed":
            return self.malformed_request(case, rng)
        n, d = case
        k = rng.randrange(POOL)
        forms = self.forms[n, d][k]
        tag = f"n={n} d={d} #{k}"
        if kind.startswith("verify_"):
            coords = kind[7]
            good = kind.endswith("yes")
            path = forms[coords][0] if good else forms[f"bad_{coords}"]
            argv = ["verify", "--n", str(n), "--coords", coords, path]
            return Request(f"{kind} {tag}", argv, 0 if good else 1, kind)
        src = forms[kind[0]][0]
        argv = ["convert", "--n", str(n), "--direction", kind,
                "--format", fmt, src]
        return Request(f"convert {kind} {tag} {fmt}", argv, 0, kind,
                       (n, forms["u"][1], forms["x"][1], fmt))

    def malformed_request(self, k, rng) -> Request:
        argv = rng.choice((
            ["verify", "--n", "4", self.malformed[k]],
            ["convert", "--n", "5", "--direction", "u2x", self.malformed[k]],
            ["member", "--n", "5", "--gens", str(self.roots[5]),
             "--target", self.malformed[k]]))
        return Request(f"malformed {argv[0]} #{k}", argv, 2, "malformed")

    def run_pass(self, times, results):
        """One round, closed loop: each request goes out when the last returns."""
        cli = self.cli
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            for req in next(self.round_stream):
                out = io.StringIO()
                t0 = perf_counter()
                try:
                    rc = cli.main(req.argv, out=out)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an op that raises is a failed op
                    rc = f"{type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
                times.setdefault("latency_s", []).append(dt)
                results.append((req, rc, out.getvalue()))
                sink.seek(0)
                sink.truncate()

    def check(self, results):
        failures, parts = [], []
        for req, rc, out in results:
            why = self.check_one(req, rc, out)
            if why:
                failures.append(f"{req.label}: {why}")
            parts.append(f"{req.label}|{rc}|{checks.sha256(out)}")
        return failures, parts

    def check_one(self, req, rc, out):
        """None when the answer is right, else a one-line reason."""
        from invforge.derivations import expand_u_to_x, project_x_to_u
        from invforge.invariants import verify_invariant_u, verify_invariant_x
        from invforge.rings import degree, u_ring, x_ring
        from invforge.syzygies import expand_in_generators
        from invforge.textio import parse_poly, parse_poly_json

        if rc != req.expect:
            return f"exit {rc!r}, expected {req.expect}"
        kind = req.kind

        def parse(text, ctx, fmt):
            return parse_poly_json(text, ctx) if fmt == "json" else parse_poly(text, ctx)

        if kind == "invariants":
            n, d, coords, fmt = req.data
            lines = out.splitlines()
            want = checks.cayley_sylvester(n, d)
            if len(lines) != want:
                return f"{len(lines)} invariants, Cayley-Sylvester count is {want}"
            ctx = u_ring(n) if coords == "u" else x_ring(n)
            verify = verify_invariant_u if coords == "u" else verify_invariant_x
            for line in lines:
                f = parse(line, ctx, fmt)
                if f.is_zero() or degree(f) != d or not verify(n, f):
                    return "an answer is not a degree-d invariant"
            return None
        if kind == "member_yes":
            n, target, fmt = req.data
            rep = parse(out.strip(), self.gens[n].gen_context(), fmt)
            if expand_in_generators(self.gens[n], rep) != target:
                return "representation does not expand to the target"
            return None
        if kind in ("u2x", "x2u"):
            n, fu, fx, fmt = req.data
            if kind == "u2x":
                got = parse(out.strip(), x_ring(n), fmt)
                ok = got == fx and project_x_to_u(got) == fu
            else:
                got = parse(out.strip(), u_ring(n), fmt)
                ok = got == fu and expand_u_to_x(got, n) == fx
            return None if ok else "conversion does not round-trip"
        if kind == "fixtures":
            folder = self.roots[req.data]
            files = len(list(folder.glob("*.poly"))) + len(list(folder.glob("*.gen")))
            lines = out.splitlines()
            if len(lines) != files or not all(l.endswith(" validated") for l in lines):
                return "fixtures not all validated"
            return None
        expected = {"member_no": "not a member\n", "verify_u_yes": "invariant\n",
                    "verify_x_yes": "invariant\n",
                    "verify_u_no": "not an invariant\n",
                    "verify_x_no": "not an invariant\n", "malformed": ""}[kind]
        return None if out == expected else f"output {out[:40]!r}"


WORKLOADS = {"generators": Generators, "relations": Relations,
             "queries": Queries}


def tail_percentile(n: int):
    """Highest reported percentile with at least ten samples beyond it."""
    for p in (99.9, 99.5, 99, 98, 97.5, 95, 90, 75, 50):
        k = -(-p * n // 100) - 1        # nearest-rank index
        if n - 1 - k >= 10:
            return p, int(k)
    return None, None


# -- timing and entry point --------------------------------------------------

REFERENCE_LOOP_S = 1e-4     # reference-loop time that defines the reference speed


def reference_loop() -> float:
    """Time one fixed pure-Python loop: a sample of the core's current speed."""
    t0 = perf_counter()
    s = 0
    for i in range(1500):
        s += i * i % 7
    return perf_counter() - t0


class SpeedProbe:
    """Samples the core's speed every 20 ms from a timer signal.

    The benchmark host shares its cores with other tenants, and the speed of
    one core drifts by up to 1.7x over minutes, so a pass timed in a slow
    minute reads up to 1.7x longer.  ``rescale`` converts a pass time into
    seconds at the reference speed: the time the pass itself used (the
    samples excluded) times the mean speed the samples saw during the pass,
    relative to REFERENCE_LOOP_S.
    """

    def __init__(self, interval_s=0.02):
        self.interval_s = interval_s
        self.samples = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        self.samples.append(reference_loop())

    def rescale(self, elapsed: float, first: int) -> float:
        taken = self.samples[first:] or self.samples
        speed = statistics.fmean(REFERENCE_LOOP_S / t for t in taken)
        return (elapsed - sum(self.samples[first:])) * speed


def timed_passes(work, seconds=None, count=None, probe=None):
    """Whole passes until ``seconds`` have passed, or exactly ``count``."""
    times, results, pass_times, ref_times = {}, [], [], []
    start = perf_counter()
    while True:
        first = len(probe.samples) if probe else 0
        t0 = perf_counter()
        work.run_pass(times, results)
        pass_times.append(perf_counter() - t0)
        if probe:
            ref_times.append(probe.rescale(pass_times[-1], first))
        if count is not None:
            if len(pass_times) >= count:
                break
        elif perf_counter() - start >= seconds:
            break
    return times, results, pass_times, ref_times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--count", type=int, help="passes to run (trace mode)")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    work_root = Path.cwd() / WORK_DIR
    work_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        work = WORKLOADS[args.workload](args.seed, tmp)
        if args.mode == "setup":
            print(json.dumps({"setup": "ok"}))
            return 0
        if tracer is not None:
            tracer.begin("timed")
            times, results, pass_times, ref_times = timed_passes(work, count=args.count)
        else:
            with SpeedProbe() as probe:
                times, results, pass_times, ref_times = timed_passes(
                    work, args.seconds, probe=probe)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = {"wall_s": statistics.median(pass_times),
                  "timed_s": sum(pass_times), "pass_s": pass_times,
                  "count": len(pass_times), "tasks": times,
                  "peak_rss_mb": rss_mb}
        if ref_times:
            result.update(wall_ref_s=statistics.median(ref_times),
                          pass_ref_s=ref_times,
                          probe_samples=len(probe.samples),
                          probe_median_s=statistics.median(probe.samples))
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["layers_seen"] = sorted(tracer.layers_seen())
            result["spans"] = len(tracer.spans)
            if args.spans:
                tracer.dump(args.spans)
        # every check runs here, after the timed phase
        failures, parts = work.check(results)
        result.update(attempted=len(results), failed=len(failures),
                      failures=failures[:20],
                      digest=checks.sha256("\n".join(parts)))
        if not isinstance(work, Queries):
            result["digests"] = parts
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
