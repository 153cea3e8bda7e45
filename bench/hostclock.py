"""Host-speed-corrected timing for the pathguard benchmark.

On small VMs each vCPU's speed can swing by 1.3-2x, independently of the
other vCPUs, on time scales from a tenth of a second to several seconds.
Uncorrected wall-clock rates then differ by 20-25% between runs of the same
code. Every timed interval here is therefore paired with a frozen reference
loop run on the same CPU, and reported scaled by

    NOMINAL_REF_S / measured reference time

so a figure reads as "seconds on a CPU running at the nominal speed".

Two ways of pairing:

- ``bracketed()``: one reference sample right before and one right after an
  interval of at most a few tenths of a second (the caller keeps it short).
- ``sampled()``: for opaque calls and child processes that run for seconds,
  a SIGALRM handler takes a reference sample every SAMPLE_PERIOD_S while
  the interval runs. The handler runs in the calling thread, so it samples
  the CPU the caller is on, and its own time is taken out of the interval.

Nothing here pins a CPU by itself; ``pin_one_cpu`` is for callers whose
children must share the sampled CPU.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

# The frozen reference workload: a plain split/stack walk that imports
# nothing from pathguard. Do not edit it or NOMINAL_REF_S; every corrected
# figure is relative to the pair.
_REF_PATHS = (
    "/srv/www/site7/static/../img/./logo.png",
    "x/../../etc/passwd",
    "//a//b///c/./d/../e",
    "/usr/share/doc/../../lib/python3/./site-packages",
    "a/b/c/d/e/f/../../g/h",
    "/.../a..b/etc../.htpasswd",
    "./docs/api/v1/../v2/users/index.html",
    "/../../../../../../home/.ssh/id_rsa",
) * 8

# Median of reference() in the fast state of a 2-vCPU Intel Xeon VM under
# CPython 3.11.7. Only ratios of corrected figures are meaningful.
NOMINAL_REF_S = 55e-6


def _walk_once() -> int:
    total = 0
    for path in _REF_PATHS:
        stack = []
        for part in path.split("/"):
            if not part or part == ".":
                continue
            if part == "..":
                if stack:
                    stack.pop()
            else:
                stack.append(part)
        total += len("/" + "/".join(stack))
    return total


def reference() -> float:
    """One reference sample: the fastest of three walks, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _walk_once()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Interval:
    """One timed interval and the host-speed factor that applies to it."""

    wall: float = 0.0  # seconds of the caller's work; sampler time removed
    busy: float = 0.0  # seconds the sampler has taken so far
    factor: float = 1.0  # NOMINAL_REF_S / reference, averaged over samples
    refs: List[float] = field(default_factory=list)

    @property
    def corrected(self) -> float:
        return self.wall * self.factor


# Seconds between reference samples in a sampled interval. At about 0.2 ms
# a sample this costs 1-2% and follows speed changes of a tenth of a second.
SAMPLE_PERIOD_S = 0.02


class HostClock:
    """Hands out bracketed and sampled intervals; keeps every factor used."""

    def __init__(self) -> None:
        self.factors: List[float] = []

    def _close(self, iv: Interval) -> None:
        iv.factor = statistics.fmean(NOMINAL_REF_S / r for r in iv.refs)
        self.factors.append(iv.factor)

    @contextlib.contextmanager
    def bracketed(self) -> Iterator[Interval]:
        iv = Interval(refs=[reference()])
        t0 = time.perf_counter()
        yield iv
        iv.wall = time.perf_counter() - t0
        iv.refs.append(reference())
        self._close(iv)

    @contextlib.contextmanager
    def sampled(self) -> Iterator[Interval]:
        iv = Interval(refs=[reference()])

        def on_alarm(signum, frame):
            t = time.perf_counter()
            iv.refs.append(reference())
            iv.busy += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield iv
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            iv.wall = time.perf_counter() - t0 - iv.busy
            signal.signal(signal.SIGALRM, previous)
        iv.refs.append(reference())
        self._close(iv)


def pin_one_cpu() -> Optional[Set[int]]:
    """Pin this process, and children started later, to one CPU.

    Returns the previous mask for ``restore_cpus``, or None where affinity
    cannot be set (the benchmark then runs unpinned).
    """
    try:
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(previous)})
    except (AttributeError, OSError):
        return None
    return previous


def restore_cpus(mask: Optional[Set[int]]) -> None:
    if mask is not None:
        os.sched_setaffinity(0, mask)


@dataclass
class ChildRun:
    """A finished child process: its exit code, CPU time and peak RSS."""

    code: int
    cpu: float  # user + system seconds, from wait4
    corrected: float  # cpu scaled by the sampled host-speed factor
    factor: float
    maxrss_kb: int
    stderr: str
    # With watch_output: (seconds since the spawn, sampler time removed,
    # uncorrected; lines of output complete by then), one pair per read.
    arrivals: List[Tuple[float, int]] = field(default_factory=list)


def run_child(
    clock: HostClock,
    argv: List[str],
    env: dict,
    stdin_path: str,
    stdout_path: str,
    stderr_path: str,
    watch_output: bool = False,
) -> ChildRun:
    """Run ``sys.executable argv...`` to completion, sampled by ``clock``.

    The child's own CPU time is used, not the parent's wall clock, so the
    sampler's slices (taken on the same CPU when pinned) are not charged to
    the child. With ``watch_output`` the child writes to a pipe, which this
    process copies to ``stdout_path`` while noting when each piece arrives.
    """
    arrivals: List[Tuple[float, int]] = []
    with open(stdin_path, "rb") as fin, open(stdout_path, "wb") as fout, open(
        stderr_path, "wb"
    ) as ferr:
        rfd, wfd = os.pipe() if watch_output else (-1, fout.fileno())
        actions = [
            (os.POSIX_SPAWN_DUP2, fin.fileno(), 0),
            (os.POSIX_SPAWN_DUP2, wfd, 1),
            (os.POSIX_SPAWN_DUP2, ferr.fileno(), 2),
        ]
        pid = None
        try:
            with clock.sampled() as iv:
                t0 = time.perf_counter()
                pid = os.posix_spawn(
                    sys.executable, [sys.executable, *argv], env, file_actions=actions
                )
                if watch_output:
                    os.close(wfd)
                    wfd = -1
                    lines = 0
                    while data := os.read(rfd, 1 << 16):
                        t = time.perf_counter() - t0 - iv.busy
                        fout.write(data)
                        lines += data.count(b"\n")
                        arrivals.append((t, lines))
                _, status, usage = os.wait4(pid, 0)
                pid = None
        finally:
            for fd in (rfd, wfd) if watch_output else ():
                if fd >= 0:
                    os.close(fd)
            if pid is not None:  # left early: do not leave the child behind
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
        err = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return ChildRun(
        code=os.waitstatus_to_exitcode(status),
        cpu=cpu,
        corrected=cpu * iv.factor,
        factor=iv.factor,
        maxrss_kb=usage.ru_maxrss,
        stderr=err,
        arrivals=arrivals,
    )


def arrival_quantile(arrivals: List[Tuple[float, int]], q: float) -> float:
    """Seconds until the line at quantile ``q`` of the output had arrived."""
    total = arrivals[-1][1]
    rank = max(1, math.ceil(q * total))
    return next(t for t, lines in arrivals if lines >= rank)
