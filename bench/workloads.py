"""The three benchmark workloads, each checked against computations made
apart from pathguard.

- serve:  in-process request decisions against a large whitelist.
- batch:  ``pathguard check --stdin`` and ``pathguard canon --stdin`` children.
- verify: the exhaustive sweeps, through the public API.

A workload returns a ``Result``: the end-to-end metrics in reference-corrected
units, the same figures uncorrected, and the operation counts.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import gen
from hostclock import HostClock, arrival_quantile, pin_one_cpu, restore_cpus, run_child
from pathguard import (
    CanonicalPath,
    EnumerationSpec,
    PathError,
    canonicalize,
    load_whitelist,
    preimages_of,
    rewrite_canonicalize,
    sanitize,
    validate_raw,
    verify_no_residue,
)

WHITELIST_ENTRIES = 40_000
SERVE_POOL = 20_000
SERVE_CHUNK = 4_000
BATCH_LINES = 100_000
SETUP_REPEATS = 11
PREIMAGE_TARGET = "/a/b/c"
AGREEMENT_ALPHABET = "/.ab"
AGREEMENT_MAX_LEN = 9
AGREEMENT_COUNT = 349_525
# verify's latencies: each string on /.ab up to length 8, best of three calls.
LATENCY_MAX_LEN = 8
LATENCY_PASSES = 3

SERVE_SETUP = (
    "import sys\n"
    "from pathguard import load_whitelist\n"
    "with open(sys.argv[1], encoding='utf-8', errors='surrogateescape') as fh:\n"
    "    load_whitelist(fh)\n"
)
# serve's peak memory is taken from a child that runs the program as a server
# would, alone: it loads the whitelist, then decides each request of the pool
# file in turn. It prints how many it allowed, for the benchmark to check.
SERVE_PEAK = (
    "import sys\n"
    "from pathguard import load_whitelist, sanitize, validate_raw\n"
    "with open(sys.argv[1], encoding='utf-8', errors='surrogateescape') as fh:\n"
    "    wl = load_whitelist(fh)\n"
    "allowed = 0\n"
    "with open(sys.argv[2], encoding='utf-8', errors='surrogateescape') as fh:\n"
    "    for line in fh:\n"
    "        allowed += sanitize(validate_raw(line.rstrip('\\n')), wl)\n"
    "print(allowed)\n"
)
PEAK_REPEATS = 3
VERIFY_SETUP = "import pathguard\n"


@dataclass
class Context:
    """What every workload needs: seed, clock, deadline and file locations."""

    seed: int
    seconds: float
    work: str  # directory for this run's input and output files
    src: str  # directory holding the pathguard package
    clock: HostClock = field(default_factory=HostClock)

    @property
    def env(self) -> Dict[str, str]:
        """Children import from ``src`` and, like a deployed program, start
        from cached bytecode (written on the first, untimed start)."""
        env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write(self, name: str, text: str) -> str:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)

    def child(
        self, argv: List[str], stdin: str, stdout: str = "child.out", watch_output=False
    ):
        return run_child(
            self.clock,
            argv,
            self.env,
            stdin,
            self.path(stdout),
            self.path("child.err"),
            watch_output,
        )


@dataclass
class Result:
    metrics: Dict[str, float]  # name -> corrected value
    raw: Dict[str, float]  # the same names, uncorrected
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)  # failed output checks
    notes: Dict[str, float] = field(default_factory=dict)


class LatencyHistogram:
    """Log-spaced latency histogram (0.2% bins); quantiles interpolate."""

    PER_E = 500

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.n = 0

    def add(self, values: Iterable[float]) -> None:
        log, k = math.log, self.PER_E
        counts = self.counts
        for v in values:
            counts[int(log(v) * k)] += 1
            self.n += 1

    def quantile(self, q: float) -> float:
        rank = q * (self.n - 1)
        seen = 0
        for b in sorted(self.counts):
            c = self.counts[b]
            if seen + c > rank:
                frac = (rank - seen + 0.5) / c
                return math.exp((b + frac) / self.PER_E)
            seen += c
        raise ValueError("empty histogram")


def check_canonical(lines: Sequence[gen.Line], outputs: Sequence[str]) -> List[str]:
    """Each output must equal the line's target and posixpath's answer."""
    problems = []
    if len(outputs) != len(lines):
        return [f"{len(outputs)} outputs for {len(lines)} lines"]
    for line, out in zip(lines, outputs):
        if out != line.target or out != gen.expected_canonical(line.text):
            problems.append(f"{line.text[:80]!r} -> {out[:80]!r}, want {line.target[:80]!r}")
    return problems


def check_decisions(
    lines: Sequence[gen.Line], allowed_flags: Sequence[bool], allowed: frozenset
) -> List[str]:
    """Each decision must equal membership of the target in ``allowed``."""
    if len(allowed_flags) != len(lines):
        return [f"{len(allowed_flags)} decisions for {len(lines)} lines"]
    return [
        f"{line.text[:80]!r}: decided {flag}, want {line.target in allowed}"
        for line, flag in zip(lines, allowed_flags)
        if flag != (line.target in allowed)
    ]


def agreement_mismatches(
    strings: Sequence[str], stack: Sequence[str], oracle: Sequence[str]
) -> int:
    """Strings where canonicalize, the oracle and posixpath do not all agree."""
    if not len(strings) == len(stack) == len(oracle):
        return max(len(strings), len(stack), len(oracle))
    return sum(
        a != b or a != gen.expected_canonical(s) for s, a, b in zip(strings, stack, oracle)
    )


def _median_setup(ctx: Context, argv: List[str], stdin: str, repeats: int = SETUP_REPEATS):
    """Median corrected and raw CPU time, and median peak RSS in MB, of fresh
    children on empty input.

    Each must exit 0: a child given no paths has nothing to deny.
    """
    ctx.child(argv, stdin)  # warm the page and bytecode caches
    runs = [ctx.child(argv, stdin) for _ in range(repeats)]
    bad = [r for r in runs if r.code != 0]
    if bad:
        raise RuntimeError(f"set-up child failed: {bad[0].stderr.strip()}")
    return (
        statistics.median(r.corrected for r in runs),
        statistics.median(r.cpu for r in runs),
        statistics.median(r.maxrss_kb for r in runs) / 1024.0,
    )


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- serve


def decide_chunk(chunk: Sequence[tuple], wl) -> tuple:
    """Decide each (text, expected) request as a server would, timing each.

    Returns (latencies in ns, wrong decisions, failed requests).
    """
    pc = time.perf_counter_ns
    lat: List[int] = []
    wrong = failed = 0
    for text, expect in chunk:
        try:
            t0 = pc()
            ok = sanitize(validate_raw(text), wl)
            t1 = pc()
        except PathError:
            failed += 1
            continue
        lat.append(t1 - t0)
        if ok is not expect:
            wrong += 1
    return lat, wrong, failed


def _serve_peak_mb(
    ctx: Context, wl_path: str, pool: Sequence[gen.Line], allowed: frozenset, res: Result
) -> float:
    """Median peak RSS, in MB, of a server process deciding the whole pool."""
    pool_path = ctx.write("pool.txt", gen.lines_text(pool))
    want_allowed = sum(line.target in allowed for line in pool)
    peaks = []
    for _ in range(PEAK_REPEATS):
        run = ctx.child(["-c", SERVE_PEAK, wl_path, pool_path], ctx.path("empty.txt"))
        with open(ctx.path("child.out"), encoding="utf-8") as fh:
            got = fh.read().strip()
        if run.code != 0 or got != str(want_allowed):
            res.problems.append(
                f"serve child exited {run.code} allowing {got!r}, want {want_allowed}"
            )
        res.attempted += len(pool)
        peaks.append(run.maxrss_kb)
    return statistics.median(peaks) / 1024.0


def serve(ctx: Context) -> Result:
    entries = gen.make_whitelist(ctx.seed, WHITELIST_ENTRIES)
    allowed = frozenset(entries)
    pool = gen.make_lines(ctx.seed, "serve", entries, SERVE_POOL)
    wl_path = ctx.write("whitelist.txt", gen.whitelist_text(entries))
    empty = ctx.write("empty.txt", "")
    res = Result({}, {})
    mask = pin_one_cpu()
    try:
        setup, setup_raw, loaded_mb = _median_setup(ctx, ["-c", SERVE_SETUP, wl_path], empty)
        peak = _serve_peak_mb(ctx, wl_path, pool, allowed, res)
        with open(wl_path, encoding="utf-8", errors="surrogateescape") as fh:
            wl = load_whitelist(fh)
        res.problems += check_canonical(
            pool, [canonicalize(validate_raw(line.text)).text for line in pool]
        )
        res.problems += check_decisions(
            pool, [sanitize(validate_raw(line.text), wl) for line in pool], allowed
        )
        res.attempted += 2 * len(pool)

        chunks = [
            [(line.text, line.target in allowed) for line in pool[i : i + SERVE_CHUNK]]
            for i in range(0, len(pool), SERVE_CHUNK)
        ]
        hist, hist_raw = LatencyHistogram(), LatencyHistogram()
        rounds, rounds_raw = [], []
        gc.collect()
        deadline = time.perf_counter() + ctx.seconds
        while not rounds or time.perf_counter() < deadline:
            total = total_raw = 0.0
            for chunk in chunks:
                with ctx.clock.bracketed() as iv:
                    lat, wrong, failed = decide_chunk(chunk, wl)
                f = iv.factor
                hist.add(x * f for x in lat)
                hist_raw.add(lat)
                s = sum(lat)
                total += s * f
                total_raw += s
                res.attempted += len(chunk)
                res.failed += failed
                if wrong:
                    res.problems.append(f"{wrong} wrong decisions in a timed chunk")
            rounds.append(total / 1e9)
            rounds_raw.append(total_raw / 1e9)
    finally:
        restore_cpus(mask)
    n = len(pool)
    res.metrics = {
        "setup_s": setup,
        "paths_per_s": n / statistics.median(rounds),
        "path_p50_us": hist.quantile(0.50) / 1e3,
        "path_p99_us": hist.quantile(0.99) / 1e3,
        "peak_rss_mb": peak,
    }
    res.raw = {
        "setup_s": setup_raw,
        "paths_per_s": n / statistics.median(rounds_raw),
        "path_p50_us": hist_raw.quantile(0.50) / 1e3,
        "path_p99_us": hist_raw.quantile(0.99) / 1e3,
    }
    res.notes = {"rounds": len(rounds), "requests": hist.n, "loaded_peak_mb": loaded_mb}
    return res


# ---------------------------------------------------------------- batch


def batch(ctx: Context) -> Result:
    entries = gen.make_whitelist(ctx.seed, WHITELIST_ENTRIES)
    allowed = frozenset(entries)
    lines = gen.make_lines(ctx.seed, "batch", entries, BATCH_LINES)
    wl_path = ctx.write("whitelist.txt", gen.whitelist_text(entries))
    lines_path = ctx.write("lines.txt", gen.lines_text(lines))
    empty = ctx.write("empty.txt", "")
    check = ["-m", "pathguard.cli", "check", "--stdin", "--whitelist", wl_path]
    canon = ["-m", "pathguard.cli", "canon", "--stdin"]
    res = Result({}, {})
    # The expected outputs are the generator's targets; check_canonical also
    # holds them against posixpath on every run.
    targets = [line.target for line in lines]
    res.problems += check_canonical(lines, targets)
    want_check = [gen.decision_line(t, allowed) for t in targets]
    any_denied = any(t not in allowed for t in targets)

    mask = pin_one_cpu()
    try:
        setup, setup_raw, _ = _median_setup(ctx, check, empty)
        runs = {"check": [], "canon": []}
        rounds = 0
        deadline = time.perf_counter() + ctx.seconds
        while not rounds or time.perf_counter() < deadline:
            rounds += 1
            for name, argv in (("check", check), ("canon", canon)):
                run = ctx.child(argv, lines_path, name + ".out", watch_output=name == "check")
                res.attempted += len(lines)
                want_code = (1 if any_denied else 0) if name == "check" else 0
                if run.code not in (0, 1):
                    res.failed += len(lines)
                    continue
                if run.code != want_code:
                    res.problems.append(f"{name} exited {run.code}, want {want_code}")
                with open(ctx.path(name + ".out"), encoding="utf-8") as fh:
                    got = fh.read().splitlines()
                if name == "check":
                    if got != want_check:
                        res.problems.append("check output differs from the expected decisions")
                else:
                    res.problems += check_canonical(lines, got)[:5]
                runs[name].append(run)
    finally:
        restore_cpus(mask)
    if not runs["check"] or not runs["canon"]:
        raise RuntimeError("every batch child failed")

    def per_s(key):
        # Whole child runs, start-up included (about a tenth of each).
        busy = sum(statistics.median(getattr(r, key) for r in rs) for rs in runs.values())
        return 2 * len(lines) / busy

    def arrival_us(q, corrected=True):
        # Median over check runs of when line q of the output had arrived.
        return 1e6 * statistics.median(
            arrival_quantile(r.arrivals, q) * (r.factor if corrected else 1.0)
            for r in runs["check"]
        )

    peak_kb = max(r.maxrss_kb for rs in runs.values() for r in rs)
    res.metrics = {
        "setup_s": setup,
        "paths_per_s": per_s("corrected"),
        "path_p50_us": arrival_us(0.50),
        "path_p99_us": arrival_us(0.99),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    res.raw = {
        "setup_s": setup_raw,
        "paths_per_s": per_s("cpu"),
        "path_p50_us": arrival_us(0.50, False),
        "path_p99_us": arrival_us(0.99, False),
    }
    res.notes = {"rounds": rounds}
    return res


# ---------------------------------------------------------------- verify


def agree_chunk(chunk: Sequence[str]) -> tuple:
    """canonicalize and the rewriting oracle over the same strings."""
    stack = [canonicalize(validate_raw(s)).text for s in chunk]
    oracle = [rewrite_canonicalize(validate_raw(s)).text for s in chunk]
    return stack, oracle


def best_latencies(chunk: Sequence[str]) -> tuple:
    """Time ``canonicalize(validate_raw(s))`` on each string LATENCY_PASSES
    times back to back; keep each string's fastest call.

    Returns (latencies in ns, each pass's outputs).
    """
    pc = time.perf_counter_ns
    best = [math.inf] * len(chunk)
    outputs = []
    for _ in range(LATENCY_PASSES):
        lat, out = [], []
        for s in chunk:
            t0 = pc()
            c = canonicalize(validate_raw(s))
            t1 = pc()
            lat.append(t1 - t0)
            out.append(c)
        best = list(map(min, best, lat))
        outputs.append([c.text for c in out])
    return best, outputs


def verify(ctx: Context) -> Result:
    spec = EnumerationSpec()
    target = CanonicalPath(PREIMAGE_TARGET)
    want_preimages = gen.normpath_preimages(spec.alphabet, spec.max_len, PREIMAGE_TARGET)
    swept = 2 * sum(len(spec.alphabet) ** k for k in range(spec.max_len + 1))
    empty = ctx.write("empty.txt", "")
    res = Result({}, {})
    # Pin only while timing fresh interpreters; the sweeps run unpinned so a
    # program that spreads them over every core can show it.
    mask = pin_one_cpu()
    try:
        # A bare import takes a quarter of a whitelist load; more starts
        # keep its median as steady in about the same time.
        setup, setup_raw, import_mb = _median_setup(
            ctx, ["-c", VERIFY_SETUP], empty, 4 * SETUP_REPEATS
        )
    finally:
        restore_cpus(mask)

    parts: Dict[str, List[float]] = {"no_residue": [], "preimages": [], "agreement": []}
    raws: Dict[str, List[float]] = {k: [] for k in parts}
    # Latency percentile -> its value in each timed chunk, ns.
    chunk_lat: Dict[int, List[float]] = {50: [], 99: []}
    chunk_lat_raw: Dict[int, List[float]] = {50: [], 99: []}
    gc.collect()
    deadline = time.perf_counter() + ctx.seconds
    while not parts["agreement"] or time.perf_counter() < deadline:
        with ctx.clock.sampled() as iv:
            violations = verify_no_residue(spec)
        parts["no_residue"].append(iv.corrected)
        raws["no_residue"].append(iv.wall)
        if violations:
            res.problems.append(f"{len(violations)} residue violations, first {violations[0]}")

        with ctx.clock.sampled() as iv:
            hits = preimages_of(spec, target)
        parts["preimages"].append(iv.corrected)
        raws["preimages"].append(iv.wall)
        if hits != want_preimages:
            res.problems.append(
                f"{len(hits)} preimages of {PREIMAGE_TARGET}, want {len(want_preimages)}"
            )

        total = total_raw = 0.0
        compared = mismatches = 0
        for chunk in gen.shortlex_chunks(AGREEMENT_ALPHABET, AGREEMENT_MAX_LEN, 6):
            with ctx.clock.bracketed() as iv:
                stack, oracle = agree_chunk(chunk)
            total += iv.corrected
            total_raw += iv.wall
            compared += len(chunk)
            mismatches += agreement_mismatches(chunk, stack, oracle)
        parts["agreement"].append(total)
        raws["agreement"].append(total_raw)
        if mismatches or compared != AGREEMENT_COUNT:
            res.problems.append(
                f"agreement sweep: {mismatches} mismatches over {compared} strings"
            )
        res.attempted += swept + compared

        # Single calls, pinned like serve's. A call takes a few microseconds,
        # so one call's 99th percentile would measure interrupts; the best of
        # three measures the program. Percentiles are taken within each
        # chunk, under its own host-speed factor: pooled over chunks, the top
        # 1% would be the strings of the chunk whose factor came out highest.
        mask = pin_one_cpu()
        try:
            for chunk in gen.shortlex_chunks(AGREEMENT_ALPHABET, LATENCY_MAX_LEN, 6):
                with ctx.clock.bracketed() as iv:
                    lat, outputs = best_latencies(chunk)
                cuts = statistics.quantiles(lat, n=100)
                for q, cut in ((50, cuts[49]), (99, cuts[98])):
                    chunk_lat[q].append(cut * iv.factor)
                    chunk_lat_raw[q].append(cut)
                want = [gen.expected_canonical(s) for s in chunk]
                res.attempted += LATENCY_PASSES * len(chunk)
                if any(out != want for out in outputs):
                    res.problems.append("a timed canonicalize output differs from normpath")
        finally:
            restore_cpus(mask)

    per_round = swept + AGREEMENT_COUNT

    def per_s(series):
        return per_round / sum(statistics.median(v) for v in series.values())

    res.metrics = {
        "setup_s": setup,
        "paths_per_s": per_s(parts),
        "path_p50_us": statistics.median(chunk_lat[50]) / 1e3,
        "path_p99_us": statistics.median(chunk_lat[99]) / 1e3,
        "peak_rss_mb": _self_peak_rss_mb(),
    }
    res.raw = {
        "setup_s": setup_raw,
        "paths_per_s": per_s(raws),
        "path_p50_us": statistics.median(chunk_lat_raw[50]) / 1e3,
        "path_p99_us": statistics.median(chunk_lat_raw[99]) / 1e3,
    }
    res.notes = {"rounds": len(parts["agreement"]), "import_peak_mb": import_mb}
    res.notes.update({f"{k}_s": statistics.median(v) for k, v in parts.items()})
    return res


WORKLOADS = {"serve": serve, "batch": batch, "verify": verify}
