"""The traced run: spans around every public-layer call the benchmark makes.

Spans (name, parent, start, duration, interval) are kept in memory and
written out when the run ends. A layer's self time is its spans' duration
minus the part covered by their child spans, scaled by the host-speed factor
of the interval the span ran in. Spans exist only in the benchmark's files;
the program itself is not instrumented.

Every traced run, whatever ``--workload`` says, measures every layer the
same way, on the inputs of the workload that layer's metric is meant to
move (serve inputs for model and canonical, batch lines for cli, sweep
strings for verifier and oracle). The model, canonical and cli layers run
pinned to one CPU, as serve and batch do; the verifier and oracle layers run
unpinned, as verify does. ``--workload`` chooses which workload's tracing
overhead is reported: its traced unit of work run with and without spans,
alternately.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

import gen
import workloads as wl_mod
from hostclock import HostClock, Interval, pin_one_cpu, restore_cpus
import pathguard
import pathguard.cli
from pathguard import (
    CanonicalPath,
    EnumerationSpec,
    canonicalize,
    enumerate_all,
    load_whitelist,
    preimages_of,
    rewrite_canonicalize,
    sanitize,
    validate_raw,
    verify_no_residue,
)

TRACE_POOL = 5_000  # serve lines per traced pass
CLI_CHUNK = 20_000  # batch lines fed to the in-process CLI
COUNT_CHUNK = 2_000  # batch lines used to count canonicalize calls
TINY_MAX_LEN = 7  # sweep strings over "/.ab" for the tiny-path layers
STARTUP_REPEATS = 5
OVERHEAD_REPEATS = 3

UNITS = {
    "model.validate_raw_ns": "ns",
    "model.canonical_path_ns": "ns",
    "model.load_whitelist_us_per_entry": "us",
    "model.whitelist_bytes_per_entry": "B",
    "canonical.canonicalize_short_ns": "ns",
    "canonical.canonicalize_long_ns": "ns",
    "canonical.canonicalize_tiny_ns": "ns",
    "canonical.sanitize_ns": "ns",
    "canonical.lookup_ns": "ns",
    "cli.startup_s.check": "s",
    "cli.startup_s.canon": "s",
    "cli.check_ns_per_line": "ns",
    "cli.canon_ns_per_line": "ns",
    "cli.canonicalize_calls_per_line": "calls/line",
    "verifier.enumerate_ns_per_string": "ns",
    "verifier.no_residue_s": "s",
    "verifier.preimages_s": "s",
    "oracle.rewrite_ns": "ns",
    "bench.trace_overhead_pct": "%",
}


class Tracer:
    """Spans in flat arrays, one entry per public-layer call."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.in_interval = array("l")
        self.start = array("q")
        self.dur = array("q")  # ns, sampler time excluded
        self.factors: List[float] = []
        self._iv: Optional[Interval] = None
        self._index = -1  # interval the next span belongs to; -1 for none

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def interval(self, sampled: bool = False) -> Iterator[Interval]:
        """Spans opened inside share this interval's host-speed factor."""
        cm = self.clock.sampled() if sampled else self.clock.bracketed()
        index = len(self.factors)
        self.factors.append(1.0)
        with cm as iv:
            self._iv, self._index = iv, index
            try:
                yield iv
            finally:
                self._iv, self._index = None, -1
        self.factors[index] = iv.factor

    def open(self, name: str, parent: int = -1) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.in_interval.append(self._index)
        self.start.append(time.perf_counter_ns())
        self.dur.append(int(self._iv.busy * 1e9) if self._iv else 0)
        return i

    def close(self, i: int) -> None:
        busy_then = self.dur[i]
        busy_now = int(self._iv.busy * 1e9) if self._iv else 0
        self.dur[i] = time.perf_counter_ns() - self.start[i] - (busy_now - busy_then)

    def call(self, name: str, fn: Callable, *args, parent: int = -1):
        """``fn(*args)`` in a span timed as tightly as Python allows."""
        iv = self._iv
        busy = iv.busy if iv else 0.0
        t0 = time.perf_counter_ns()
        out = fn(*args)
        t1 = time.perf_counter_ns()
        if iv:
            busy = iv.busy - busy
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.in_interval.append(self._index)
        self.start.append(t0)
        self.dur.append(t1 - t0 - int(busy * 1e9))
        return out

    def record_child(self, name: str, run) -> None:
        """A span for a child process: its CPU time and its own factor."""
        self.factors.append(run.factor)
        self.name.append(self._id(name))
        self.parent.append(-1)
        self.in_interval.append(len(self.factors) - 1)
        self.start.append(time.perf_counter_ns())
        self.dur.append(int(run.cpu * 1e9))

    def corrected_ns(self, i: int) -> float:
        k = self.in_interval[i]
        return self.dur[i] * (self.factors[k] if k >= 0 else 1.0)

    def mean_ns(self, name: str, first: int = 0) -> float:
        nid = self._ids[name]
        vals = [self.corrected_ns(i) for i in range(first, len(self.dur)) if self.name[i] == nid]
        return statistics.fmean(vals)

    def last_ns(self, name: str) -> float:
        nid = self._ids[name]
        i = max(i for i in range(len(self.dur)) if self.name[i] == nid)
        return self.corrected_ns(i)

    def self_times(self) -> Dict[str, List[float]]:
        """name -> [spans, corrected self ns in total]."""
        child = [0.0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.corrected_ns(i)
        table: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for i in range(len(self.dur)):
            row = table[self.names[self.name[i]]]
            row[0] += 1
            row[1] += self.corrected_ns(i) - child[i]
        return dict(table)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "interval", "start_ns", "dur_ns"],
                    "names": self.names,
                    "interval_factors": self.factors,
                    "spans": [
                        [self.name[i], self.parent[i], self.in_interval[i], self.start[i], self.dur[i]]
                        for i in range(len(self.dur))
                    ],
                },
                fh,
            )


@contextlib.contextmanager
def _stdio(text: str) -> Iterator[io.StringIO]:
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        yield sys.stdout
    finally:
        sys.stdin, sys.stdout = saved


@contextlib.contextmanager
def _counting_canonicalize() -> Iterator[List[int]]:
    """Count calls to the public ``canonicalize`` from every pathguard module."""
    calls = [0]
    original = pathguard.canonicalize

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    patched = [
        m for name, m in list(sys.modules.items())
        if (name == "pathguard" or name.startswith("pathguard."))
        and getattr(m, "canonicalize", None) is original
    ]
    for m in patched:
        m.canonicalize = counted
    try:
        yield calls
    finally:
        for m in patched:
            m.canonicalize = original


class _Inputs:
    """Seeded inputs shared by every round of a traced run."""

    def __init__(self, ctx: wl_mod.Context) -> None:
        self.entries = gen.make_whitelist(ctx.seed, wl_mod.WHITELIST_ENTRIES)
        self.allowed = frozenset(self.entries)
        self.wl_path = ctx.write("whitelist.txt", gen.whitelist_text(self.entries))
        with open(self.wl_path, encoding="utf-8") as fh:
            self.wl = load_whitelist(fh)
        pool = gen.make_lines(ctx.seed, "serve", self.entries, wl_mod.SERVE_POOL)
        self.pool = pool[:TRACE_POOL]
        self.raws = [validate_raw(line.text) for line in self.pool]
        self.chunk = gen.make_lines(ctx.seed, "batch-chunk", self.entries, CLI_CHUNK)
        self.chunk_text = gen.lines_text(self.chunk)
        self.empty = ctx.write("empty.txt", "")
        self.tiny = list(gen.shortlex_chunks("/.ab", TINY_MAX_LEN, 6))
        self.spec = EnumerationSpec()
        self.preimages = gen.normpath_preimages(
            self.spec.alphabet, self.spec.max_len, wl_mod.PREIMAGE_TARGET
        )


def _serve_pass(tr: Tracer, inp: _Inputs, res: wl_mod.Result, traced: bool) -> float:
    """One pass over the traced pool, as serve runs it; corrected seconds."""
    total = 0.0
    half = len(inp.pool) // 2
    for part in (inp.pool[:half], inp.pool[half:]):
        chunk = [(line.text, line.target in inp.allowed) for line in part]
        with tr.interval() as iv:
            if traced:
                wrong = 0
                for text, expect in chunk:
                    req = tr.open("serve.request")
                    raw = tr.call("model.validate_raw", validate_raw, text, parent=req)
                    ok = tr.call("canonical.sanitize", sanitize, raw, inp.wl, parent=req)
                    tr.close(req)
                    wrong += ok is not expect
            else:
                wrong = wl_mod.decide_chunk(chunk, inp.wl)[1]
        total += iv.corrected
        if wrong:
            res.problems.append(f"{wrong} wrong decisions in a traced pass")
        res.attempted += len(part)
    return total


def _agreement_pass(tr: Tracer, chunks, res: wl_mod.Result, traced: bool) -> float:
    """The verify agreement sweep over ``chunks``; corrected seconds."""
    total = 0.0
    for chunk in chunks:
        with tr.interval() as iv:
            if traced:
                stack, oracle = [], []
                for s in chunk:
                    raw = validate_raw(s)
                    stack.append(tr.call("canonical.canonicalize/tiny", canonicalize, raw).text)
                    oracle.append(tr.call("oracle.rewrite_canonicalize", rewrite_canonicalize, raw).text)
            else:
                stack, oracle = wl_mod.agree_chunk(chunk)
        total += iv.corrected
        res.attempted += 2 * len(chunk)
        bad = wl_mod.agreement_mismatches(chunk, stack, oracle)
        if bad:
            res.problems.append(f"{bad} tiny strings disagree with the oracle or posixpath")
    return total


def _cli_main(tr: Tracer, name: str, argv: List[str], text: str, traced: bool = True) -> tuple:
    """``pathguard.cli.main(argv)`` on ``text`` as stdin: exit code, output
    lines and corrected seconds."""
    with _stdio(text) as out:
        with tr.interval(sampled=True) as iv:
            if traced:
                code = tr.call(name, pathguard.cli.main, argv)
            else:
                code = pathguard.cli.main(argv)
    return code, out.getvalue().splitlines(), iv.corrected


@contextlib.contextmanager
def _pinned() -> Iterator[None]:
    mask = pin_one_cpu()
    try:
        yield
    finally:
        restore_cpus(mask)


def _round(ctx: wl_mod.Context, tr: Tracer, inp: _Inputs, res: wl_mod.Result) -> Dict[str, float]:
    m: Dict[str, float] = {}
    first = len(tr.dur)

    # model and canonical, on serve inputs, then cli, on batch lines: pinned,
    # as serve and batch run.
    with _pinned():
        _serve_pass(tr, inp, res, traced=True)
        m["model.validate_raw_ns"] = tr.mean_ns("model.validate_raw", first)
        m["canonical.sanitize_ns"] = tr.mean_ns("canonical.sanitize", first)
        # canonicalize and sanitize on each input back to back, so that the
        # lookup's share is a paired difference taken in one host state.
        outs, lookup = [], []
        half = len(inp.pool) // 2
        for lo, hi in ((0, half), (half, len(inp.pool))):
            with tr.interval():
                for line, raw in zip(inp.pool[lo:hi], inp.raws[lo:hi]):
                    label = "long" if line.kind == "long" else "short"
                    outs.append(tr.call(f"canonical.canonicalize/{label}", canonicalize, raw).text)
                    tr.call("canonical.sanitize/paired", sanitize, raw, inp.wl)
                    lookup.append(len(tr.dur) - 1)
        lookup = [tr.corrected_ns(i) - tr.corrected_ns(i - 1) for i in lookup]
        res.problems += wl_mod.check_canonical(inp.pool, outs)
        res.attempted += 2 * len(inp.pool)
        for label in ("short", "long"):
            m[f"canonical.canonicalize_{label}_ns"] = tr.mean_ns(f"canonical.canonicalize/{label}", first)
        m["canonical.lookup_ns"] = statistics.median(lookup)
        with tr.interval():
            for line in inp.pool:
                tr.call("model.CanonicalPath", CanonicalPath, line.target)
        res.attempted += len(inp.pool)
        m["model.canonical_path_ns"] = tr.mean_ns("model.CanonicalPath", first)

        with open(inp.wl_path, encoding="utf-8") as fh, tr.interval(sampled=True):
            loaded = tr.call("model.load_whitelist", load_whitelist, fh)
        n = len(inp.entries)
        if len(loaded.entries) != n:
            res.problems.append(f"load_whitelist kept {len(loaded.entries)} of {n} entries")
        m["model.load_whitelist_us_per_entry"] = tr.last_ns("model.load_whitelist") / n / 1e3
        del loaded
        with open(inp.wl_path, encoding="utf-8") as fh:
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_whitelist(fh)
            m["model.whitelist_bytes_per_entry"] = (tracemalloc.get_traced_memory()[0] - before) / n
            tracemalloc.stop()
        del loaded

        check = ["check", "--stdin", "--whitelist", inp.wl_path]
        for sub, argv in (("check", check), ("canon", ["canon", "--stdin"])):
            runs = []
            for _ in range(STARTUP_REPEATS):
                run = ctx.child(["-m", "pathguard.cli", *argv], inp.empty)
                tr.record_child(f"cli.startup/{sub}", run)
                runs.append(run)
            if any(r.code != 0 for r in runs):
                res.problems.append(f"{sub} on empty stdin exited {runs[0].code}")
            m[f"cli.startup_s.{sub}"] = statistics.median(r.corrected for r in runs)
        want_check = [gen.decision_line(line.target, inp.allowed) for line in inp.chunk]
        for sub, argv, want in (
            ("check", check, want_check),
            ("canon", ["canon", "--stdin"], [line.target for line in inp.chunk]),
        ):
            _cli_main(tr, f"cli.main/{sub}-empty", argv, "")
            code, got, _ = _cli_main(tr, f"cli.main/{sub}", argv, inp.chunk_text)
            if got != want or code != (1 if sub == "check" else 0):
                res.problems.append(f"in-process {sub} gave exit {code} and wrong lines")
            res.attempted += len(inp.chunk)
            busy = tr.last_ns(f"cli.main/{sub}") - tr.last_ns(f"cli.main/{sub}-empty")
            m[f"cli.{sub}_ns_per_line"] = busy / len(inp.chunk)
        counted = inp.chunk[:COUNT_CHUNK]
        with _counting_canonicalize() as calls, _stdio(gen.lines_text(counted)):
            pathguard.cli.main(check)
        m["cli.canonicalize_calls_per_line"] = calls[0] / len(counted)

    # verifier and oracle, on sweep strings: unpinned, as verify runs.
    with tr.interval(sampled=True):
        visited = tr.call("verifier.enumerate_all", enumerate_all, inp.spec, lambda s: None)
    m["verifier.enumerate_ns_per_string"] = tr.last_ns("verifier.enumerate_all") / visited
    with tr.interval(sampled=True):
        violations = tr.call("verifier.verify_no_residue", verify_no_residue, inp.spec)
    if violations:
        res.problems.append(f"{len(violations)} residue violations")
    m["verifier.no_residue_s"] = tr.last_ns("verifier.verify_no_residue") / 1e9
    target = CanonicalPath(wl_mod.PREIMAGE_TARGET)
    with tr.interval(sampled=True):
        hits = tr.call("verifier.preimages_of", preimages_of, inp.spec, target)
    if hits != inp.preimages:
        res.problems.append(f"{len(hits)} preimages, want {len(inp.preimages)}")
    m["verifier.preimages_s"] = tr.last_ns("verifier.preimages_of") / 1e9
    res.attempted += 3 * visited
    _agreement_pass(tr, inp.tiny, res, traced=True)
    m["canonical.canonicalize_tiny_ns"] = tr.mean_ns("canonical.canonicalize/tiny", first)
    m["oracle.rewrite_ns"] = tr.mean_ns("oracle.rewrite_canonicalize", first)
    return m


def _overhead_pct(workload: str, tr: Tracer, inp: _Inputs, res: wl_mod.Result) -> float:
    """Tracing overhead on what the workload's traced run wraps in spans, A/B
    alternated: serve's decision loop and batch's in-process ``check``, both
    pinned, and verify's agreement sweep, unpinned."""
    check = ["check", "--stdin", "--whitelist", inp.wl_path]
    plain, traced = [], []
    for _ in range(OVERHEAD_REPEATS):
        for on, into in ((False, plain), (True, traced)):
            if workload == "serve":
                with _pinned():
                    into.append(_serve_pass(tr, inp, res, traced=on))
            elif workload == "verify":
                into.append(_agreement_pass(tr, inp.tiny[:4], res, traced=on))
            else:
                with _pinned():
                    code, got, secs = _cli_main(tr, "cli.main/check", check, inp.chunk_text, on)
                res.attempted += len(inp.chunk)
                if code != 1 or len(got) != len(inp.chunk):
                    res.problems.append(f"in-process check gave exit {code} and {len(got)} lines")
                into.append(secs)
    a, b = statistics.median(plain), statistics.median(traced)
    return (b - a) / a * 100.0


def traced_run(workload: str, ctx: wl_mod.Context, spans_path: str):
    tr = Tracer(ctx.clock)
    inp = _Inputs(ctx)
    res = wl_mod.Result({}, {})
    rounds: List[Dict[str, float]] = []
    deadline = time.perf_counter() + ctx.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(_round(ctx, tr, inp, res))
    overhead = _overhead_pct(workload, tr, inp, res)
    res.metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    res.metrics["bench.trace_overhead_pct"] = overhead
    res.metrics = {name: res.metrics[name] for name in UNITS}
    res.notes = {"rounds": len(rounds), "spans": len(tr.dur)}
    tr.dump(spans_path)
    print(f"{'span':<36} {'count':>9} {'self ms':>12} {'self ns/span':>14}")
    for name, (count, self_ns) in sorted(tr.self_times().items()):
        print(f"{name:<36} {count:>9} {self_ns / 1e6:>12.3f} {self_ns / count:>14.1f}")
    return res, UNITS
