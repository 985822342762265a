"""Spans and counters recorded around invforge's public functions.

The engine's modules import each other by name (``from .linalg import
nullspace_sparse``), so a wrapper installed on the defining module alone
would miss every call made through another module.  ``install`` therefore
rebinds each wrapped function in every invforge module that holds it, and
patches methods such as ``Polynomial.__mul__`` and ``Eliminator.add_row``
on their class.  Nothing under ``src/`` changes.

A span is (id, parent id, name, start, end, run id).  A layer is the
module part of a span name; its self time is span time minus the time of
child spans.  ``Polynomial.__mul__`` runs millions of times per workload,
so it records counts and its own elapsed time but opens no span: its time
stays inside the self time of whatever called it.
"""

from __future__ import annotations

import functools
import importlib
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("rings", "linalg", "exponents", "derivations", "invariants",
           "syzygies", "textio", "fixtures", "cli")

# per-layer metrics: (name, unit, better)
LAYER_METRICS = (
    ("exponents.calls", "count", "lower"),
    ("exponents.candidates", "count", "lower"),
    ("exponents.self_s", "s", "lower"),
    ("derivations.apply_calls", "count", "lower"),
    ("derivations.apply_s", "s", "lower"),
    ("derivations.u2x_calls", "count", "lower"),
    ("derivations.u2x_s", "s", "lower"),
    ("derivations.u2x_terms_out", "count", "lower"),
    ("rings.mul_calls", "count", "lower"),
    ("rings.mul_term_pairs", "count", "lower"),
    ("rings.mul_s", "s", "lower"),
    ("rings.substitute_s", "s", "lower"),
    ("linalg.systems", "count", "lower"),
    ("linalg.rows", "count", "lower"),
    ("linalg.cols", "count", "lower"),
    ("linalg.nonzeros", "count", "lower"),
    ("linalg.rank", "count", "lower"),
    ("linalg.row_yield", "ratio", "higher"),
    ("linalg.max_pivot_bits", "bits", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("invariants.basis_calls", "count", "lower"),
    ("invariants.basis_s", "s", "lower"),
    ("invariants.member_calls", "count", "lower"),
    ("invariants.member_found_ratio", "ratio", "higher"),
    ("invariants.member_s", "s", "lower"),
    ("invariants.expand_candidate_calls", "count", "lower"),
    ("invariants.expand_candidate_s", "s", "lower"),
    ("invariants.verify_s", "s", "lower"),
    ("syzygies.basis_calls", "count", "lower"),
    ("syzygies.basis_s", "s", "lower"),
    ("syzygies.filter_s", "s", "lower"),
    ("syzygies.relations", "count", "lower"),
    ("syzygies.check_calls", "count", "lower"),
    ("syzygies.check_s", "s", "lower"),
    ("textio.parse_calls", "count", "lower"),
    ("textio.parse_s", "s", "lower"),
    ("textio.format_s", "s", "lower"),
    ("textio.bytes_out", "bytes", "lower"),
    ("fixtures.gen_dir_loads", "count", "lower"),
    ("fixtures.gen_dir_s", "s", "lower"),
    ("fixtures.load_s", "s", "lower"),
    ("cli.requests", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.exit_0", "count", "higher"),
    ("cli.exit_1", "count", "higher"),
    ("cli.exit_2", "count", "higher"),
    ("cli.unexpected_exit", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# inclusive span time behind each "<layer>.<x>_s" metric (outermost spans only)
_INCLUSIVE = {
    "derivations.apply_s": ("derivations.apply_derivation",),
    "derivations.u2x_s": ("derivations.expand_u_to_x",),
    "rings.substitute_s": ("rings.substitute",),
    "invariants.basis_s": ("invariants.invariant_basis",),
    "invariants.member_s": ("invariants.is_member",),
    "invariants.expand_candidate_s": ("invariants.expand_candidate",),
    "invariants.verify_s": ("invariants.verify_invariant_u",
                            "invariants.verify_invariant_x"),
    "syzygies.basis_s": ("syzygies.syzygy_basis",),
    "syzygies.check_s": ("syzygies.check_syzygy",),
    "textio.parse_s": ("textio.parse",),
    "textio.format_s": ("textio.format",),
    "fixtures.gen_dir_s": ("fixtures.load_generator_dir",),
    "fixtures.load_s": ("fixtures.load_fixtures",),
}


class Tracer:
    """Span stack plus counters; spans stay in memory until ``dump``."""

    def __init__(self):
        self.run_id = "setup"
        self.spans = []
        self.stack = []          # open spans: [id, name, start, child_time, eliminators]
        self.open_names = Counter()
        self.counters = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.name_self = defaultdict(float)
        self.name_incl = defaultdict(float)
        self.name_count = Counter()
        self._next_id = 0
        self._saved = []
        self._pending = []   # eliminators made outside any span
        self._seen_before = set()

    def begin(self, run_id):
        """Start a new run id: aggregates restart, spans are kept."""
        self._seen_before = self.layers_seen()
        self.run_id = run_id
        for agg in (self.counters, self.layer_self, self.name_self,
                    self.name_incl, self.name_count):
            agg.clear()

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        self._next_id += 1
        self.open_names[name] += 1
        self.stack.append([self._next_id, name, perf_counter(), 0.0, None])

    def _exit(self):
        end = perf_counter()
        sid, name, start, child, elims = self.stack.pop()
        dur = end - start
        self.open_names[name] -= 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.layer_self[name.split(".", 1)[0]] += dur - child
        self.name_self[name] += dur - child
        self.name_count[name] += 1
        if not self.open_names[name]:
            self.name_incl[name] += dur
        self.spans.append((sid, parent[0] if parent else 0, name, start, end,
                           self.run_id))
        if elims:
            for e in elims:
                self._close_system(e)

    def wrap(self, name, fn, after=None, raised=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit()
                if raised is not None:
                    raised(tracer.counters, exc)
                raise
            tracer._exit()
            if after is not None:
                after(tracer.counters, args, result)
            return result

        return wrapper

    # -- linear systems ----------------------------------------------------

    def _open_system(self, elim):
        # an eliminator is closed (rank, pivot size) with the span that made it
        owner = self.stack[-1] if self.stack else None
        if owner is None:
            self._pending.append(elim)
            return
        if owner[4] is None:
            owner[4] = []
        owner[4].append(elim)

    def _close_system(self, elim):
        c = self.counters
        c["linalg.systems"] += 1
        c["linalg.cols"] += elim.ncols
        c["linalg.rank"] += len(elim.pivots)
        bits = 0
        for row in elim.pivots.values():
            for v in row.values():
                b = abs(v).bit_length()
                if b > bits:
                    bits = b
        if bits > c["linalg.max_pivot_bits"]:
            c["linalg.max_pivot_bits"] = bits

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every traced name in every invforge module that holds it."""
        mods = {m: importlib.import_module(f"invforge.{m}") for m in MODULES}
        mods_all = list(mods.values()) + [importlib.import_module("invforge")]
        for home, name, span, after, raised in _function_specs():
            orig = getattr(mods[home], name)
            fn = _drain(orig) if name in _STREAMING else orig
            wrapped = self.wrap(span, fn, after, raised)
            for mod in mods_all:
                if mod.__dict__.get(name) is orig:
                    self._saved.append((mod, name, orig))
                    setattr(mod, name, wrapped)
        self._patch_methods(mods)
        leftover = unpatched_references(mods_all, self._saved)
        if leftover:
            self.uninstall()
            raise RuntimeError(f"tracer missed call sites: {leftover}")

    def _patch_methods(self, mods):
        Polynomial = mods["rings"].Polynomial
        Eliminator = mods["linalg"].Eliminator
        counters = self.counters
        orig_mul = Polynomial.__mul__

        def mul(a, b):
            t0 = perf_counter()
            r = orig_mul(a, b)
            counters["rings.mul_s"] += perf_counter() - t0
            counters["rings.mul_calls"] += 1
            if isinstance(b, Polynomial):
                counters["rings.mul_term_pairs"] += len(a.terms) * len(b.terms)
            return r

        orig_init = Eliminator.__init__
        tracer = self

        def init(elim, ncols):
            orig_init(elim, ncols)
            tracer._open_system(elim)

        orig_add = Eliminator.add_row

        def count_row(c, args, result):
            c["linalg.rows"] += 1
            c["linalg.nonzeros"] += len(args[1])

        for cls, name, new in ((Polynomial, "__mul__", mul),
                               (Polynomial, "__rmul__", mul),
                               (Eliminator, "__init__", init),
                               (Eliminator, "add_row",
                                self.wrap("linalg.add_row", orig_add, count_row))):
            self._saved.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, new)

    def uninstall(self):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved = []
        for elim in self._pending:
            self._close_system(elim)
        self._pending = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric except the overhead ratio, by name."""
        c = self.counters
        out = {name: c.get(name, 0) for name, _, _ in LAYER_METRICS}
        for metric, names in _INCLUSIVE.items():
            out[metric] = sum(self.name_incl[n] for n in names)
        out["exponents.self_s"] = self.layer_self["exponents"]
        out["linalg.self_s"] = self.layer_self["linalg"]
        out["syzygies.filter_s"] = self.name_self["syzygies.minimal_syzygies"]
        out["cli.self_s"] = self.name_self["cli.main"]
        out["linalg.row_yield"] = c["linalg.rank"] / c["linalg.rows"] if c["linalg.rows"] else 0.0
        calls = c["invariants.member_calls"]
        out["invariants.member_found_ratio"] = c["invariants.member_found"] / calls if calls else 0.0
        return out

    def layers_seen(self) -> set:
        """Layers with at least one span, or one counted multiplication."""
        seen = self._seen_before | {name.split(".", 1)[0] for name in self.name_count}
        if self.counters["rings.mul_calls"]:
            seen.add("rings")
        return seen

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "run": run}))
                fh.write("\n")


def unpatched_references(modules, saved) -> list:
    """Module attributes still bound to a function the tracer wrapped."""
    originals = {id(orig) for owner, _, orig in saved
                 if isinstance(owner, types.ModuleType)}
    return sorted(f"{m.__name__}.{k}" for m in modules
                  for k, v in vars(m).items() if id(v) in originals)


def _count(key):
    def after(c, args, result):
        c[key] += 1
    return after


def _count_len(calls, items):
    def after(c, args, result):
        c[calls] += 1
        c[items] += len(result)
    return after


def _u2x(c, args, result):
    c["derivations.u2x_calls"] += 1
    c["derivations.u2x_terms_out"] += len(result.terms)


def _member(c, args, result):
    c["invariants.member_calls"] += 1
    if result is not None:
        c["invariants.member_found"] += 1


def _drain(fn):
    """The text/JSON formatters stream; time them by draining the stream."""
    @functools.wraps(fn)
    def drained(*args, **kwargs):
        return list(fn(*args, **kwargs))
    return drained


_STREAMING = ("iter_format_text", "iter_format_json")


def _bytes(c, args, result):
    c["textio.bytes_out"] += sum(map(len, result))


def _cli_exit(c, args, result):
    c["cli.requests"] += 1
    c[f"cli.exit_{result}" if result in (0, 1, 2) else "cli.unexpected_exit"] += 1


def _cli_raised(c, exc):
    c["cli.requests"] += 1
    code = exc.code if isinstance(exc, SystemExit) else None
    c["cli.exit_2" if code == 2 else "cli.unexpected_exit"] += 1


def _function_specs():
    """(module, function, span name, result hook, raise hook) per traced call."""
    def minimal(c, args, result):
        c["syzygies.relations"] += len(result)

    specs = (
        ("exponents", "powers", "exponents.powers",
         _count_len("exponents.calls", "exponents.candidates")),
        ("exponents", "powers2", "exponents.powers2",
         _count_len("exponents.calls", "exponents.candidates")),
        ("exponents", "grad", "exponents.grad",
         _count_len("exponents.calls", "exponents.candidates")),
        ("derivations", "apply_derivation", "derivations.apply_derivation",
         _count("derivations.apply_calls")),
        ("derivations", "expand_u_to_x", "derivations.expand_u_to_x", _u2x),
        ("derivations", "project_x_to_u", "derivations.project_x_to_u", None),
        ("rings", "substitute", "rings.substitute", None),
        ("linalg", "nullspace_sparse", "linalg.nullspace_sparse", None),
        ("linalg", "solve_affine_sparse", "linalg.solve_affine_sparse", None),
        ("linalg", "rank_sparse", "linalg.rank_sparse", None),
        ("invariants", "invariant_basis", "invariants.invariant_basis",
         _count("invariants.basis_calls")),
        ("invariants", "is_member", "invariants.is_member", _member),
        ("invariants", "expand_candidate", "invariants.expand_candidate",
         _count("invariants.expand_candidate_calls")),
        ("invariants", "verify_invariant_u", "invariants.verify_invariant_u", None),
        ("invariants", "verify_invariant_x", "invariants.verify_invariant_x", None),
        ("invariants", "mingenset", "invariants.mingenset", None),
        ("syzygies", "syzygy_basis", "syzygies.syzygy_basis",
         _count("syzygies.basis_calls")),
        ("syzygies", "minimal_syzygies", "syzygies.minimal_syzygies", minimal),
        ("syzygies", "check_syzygy", "syzygies.check_syzygy",
         _count("syzygies.check_calls")),
        ("syzygies", "expand_in_generators", "syzygies.expand_in_generators", None),
        ("textio", "parse_poly", "textio.parse", _count("textio.parse_calls")),
        ("textio", "parse_poly_json", "textio.parse", _count("textio.parse_calls")),
        ("textio", "iter_format_text", "textio.format", _bytes),
        ("textio", "iter_format_json", "textio.format", _bytes),
        ("textio", "format_poly", "textio.format", None),
        ("fixtures", "load_generator_dir", "fixtures.load_generator_dir",
         _count("fixtures.gen_dir_loads")),
        ("fixtures", "load_fixtures", "fixtures.load_fixtures", None),
    )
    return [spec + (None,) for spec in specs] + [
        ("cli", "main", "cli.main", _cli_exit, _cli_raised)]
