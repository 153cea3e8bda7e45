"""Exhaustive desk-scale verification over bounded alphabets.

Instead of symbolic execution, every string over a small alphabet up to a
length bound is enumerated in shortlex order and pushed through the
canonicalizer: the residue sweep certifies that no traversal characters
survive in any output, and the preimage search lists every input that
reaches a chosen canonical target (cross-checked against the independent
rewriting oracle).

The enumeration is cut into work units, one per length and leading
two-character prefix, whose walk in order is the shortlex order. The two
sweeps fork one shard per CPU in the process's affinity mask (the caller
runs the shard with the fewest strings itself, so a one-CPU mask forks
nothing), take each shard's results back over a pipe with :mod:`marshal`,
and merge them in unit order: the result, its order, and the first
divergence reported are the same whatever the CPU count. A shard runs only
the pure-Python checks and ends in ``os._exit``, so it never runs the
caller's exit handlers or flushes its buffers.
"""

from __future__ import annotations

import itertools
import marshal
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, List, Optional, Tuple

from .canonical import canonicalize
from .model import BudgetExceeded, CanonicalPath, RawPathString, _new
from .oracle import rewrite_canonicalize

DEFAULT_ALPHABET = "/.abc"
DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class EnumerationSpec:
    """Alphabet (in enumeration order) and maximum string length."""

    alphabet: str = DEFAULT_ALPHABET
    max_len: int = 8

    def __post_init__(self) -> None:
        if "/" not in self.alphabet or "." not in self.alphabet:
            raise ValueError("alphabet must contain '/' and '.'")
        if "\x00" in self.alphabet:
            raise ValueError("alphabet must not contain NUL")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet must not repeat characters")
        if self.max_len < 0:
            raise ValueError("max_len must be non-negative")


@dataclass(frozen=True)
class ResidueViolation:
    """A canonicalizer output that still contains traversal residue."""

    input: str
    output: str
    offending: str


def total_count(spec: EnumerationSpec) -> int:
    """Number of strings of length 0..max_len over the alphabet."""
    return sum(len(spec.alphabet) ** k for k in range(spec.max_len + 1))


def _checked_count(spec: EnumerationSpec, budget: int) -> int:
    """:func:`total_count`, summed only until it passes ``budget``, so
    that a huge ``max_len`` is refused at once."""
    count = 0
    for length in range(spec.max_len + 1):
        count += len(spec.alphabet) ** length
        if count > budget:
            raise BudgetExceeded(
                f"enumeration up to length {spec.max_len} exceeds budget {budget}"
            )
    return count


# Aliases for annotations only, so they cost nothing at import.
# Unit: (length, prefix) -- every string of that length with that prefix.
# Scan: checks one unit's strings and returns (visited, findings in order).
# ShardResult: (visited, findings of each unit of the shard).
if TYPE_CHECKING:
    Unit = Tuple[int, str]
    Scan = Callable[[Iterator[str]], Tuple[int, list]]
    ShardResult = Tuple[int, List[list]]

# SIGKILL, which POSIX fixes at 9; importing the signal module for the name
# would add more than a millisecond to every ``import pathguard``.
_SIGKILL = 9


def _units(spec: EnumerationSpec) -> List[Unit]:
    """Work units in shortlex order: per length, one per prefix of up to two
    characters. Two characters, so that the largest length alone splits
    into len(alphabet)**2 equal units and shards stay balanced."""
    return [
        (length, "".join(prefix))
        for length in range(spec.max_len + 1)
        for prefix in itertools.product(spec.alphabet, repeat=min(length, 2))
    ]


def _unit_strings(spec: EnumerationSpec, unit: Unit) -> Iterator[str]:
    """The unit's strings in shortlex order."""
    length, prefix = unit
    tails = (spec.alphabet,) * (length - len(prefix))
    return map("".join, itertools.product((prefix,), *tails))


def enumerate_all(
    spec: EnumerationSpec,
    visit: Callable[[str], None],
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Visit every string over the alphabet, shortlex order, exactly once.

    Returns the count visited.

    Raises:
        BudgetExceeded: the closed-form count exceeds ``budget``.
    """
    count = _checked_count(spec, budget)
    for unit in _units(spec):
        for text in _unit_strings(spec, unit):
            visit(text)
    return count


def _shard_size(spec: EnumerationSpec, units: List[Unit]) -> int:
    """Number of strings in the units."""
    width = len(spec.alphabet)
    return sum(width ** (length - len(prefix)) for length, prefix in units)


def _run_shard(spec: EnumerationSpec, scan: Scan, units: List[Unit]) -> ShardResult:
    visited = 0
    per_unit: List[list] = []
    for unit in units:
        count, found = scan(_unit_strings(spec, unit))
        visited += count
        per_unit.append(found)
    return visited, per_unit


def _cpu_count() -> int:
    """CPUs in this process's affinity mask; 1 where there is no mask."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_shard(
    spec: EnumerationSpec, scan: Scan, units: List[Unit]
) -> Tuple[int, BinaryIO]:
    """Start a child that runs the shard; returns its pid and result pipe."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            data = marshal.dumps(_run_shard(spec, scan, units))
            with open(wfd, "wb") as out:
                out.write(data)
            status = 0
        except BaseException as exc:
            os.write(2, f"pathguard: verifier shard failed: {exc!r}\n".encode())
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _reap(pid: int, data: bytes) -> ShardResult:
    """Wait for a child whose pipe is drained; decode what it sent.

    Raises:
        RuntimeError: the child exited non-zero or sent nothing.
    """
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not data:
        raise RuntimeError(
            f"verifier shard {pid} exited with status {code} "
            f"after sending {len(data)} bytes"
        )
    return marshal.loads(data)


def _sharded(spec: EnumerationSpec, scan: Scan, budget: int) -> list:
    """Run ``scan`` over every unit, one shard per CPU this process may use.

    Returns the findings of all units, merged in unit order.

    Raises:
        BudgetExceeded: before any shard starts.
        RuntimeError: a shard failed, or the shards did not visit every
            string exactly once.
    """
    count = _checked_count(spec, budget)
    units = _units(spec)
    n = min(_cpu_count(), len(units))
    shards = [units[i::n] for i in range(n)]
    # The caller also forks and merges, so it runs the smallest shard.
    sizes = [_shard_size(spec, shard) for shard in shards]
    mine = sizes.index(min(sizes))
    results: List[Optional[ShardResult]] = [None] * n
    children: List[Tuple[int, int, BinaryIO]] = []  # started, not yet reaped
    try:
        for index, shard in enumerate(shards):
            if index != mine:
                children.append((index, *_fork_shard(spec, scan, shard)))
        results[mine] = _run_shard(spec, scan, shards[mine])
        while children:
            index, pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            children.pop(0)
            results[index] = _reap(pid, data)
    finally:
        for _, pid, pipe in children:
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    merged: list = []
    for index in range(len(units)):
        merged.extend(results[index % n][1][index // n])
    visited = sum(result[0] for result in results)
    if visited != count:
        raise RuntimeError(f"shards visited {visited} of {count} strings")
    return merged


def _residue_scan(strings: Iterator[str]) -> Tuple[int, list]:
    found = []
    count = 0
    for count, text in enumerate(strings, 1):
        out = canonicalize(_new(RawPathString, text))
        if not out.startswith("/"):
            found.append((text, str(out), "missing-leading-slash"))
        trailing = out.endswith("/")
        if trailing and out != "/":
            found.append((text, str(out), "trailing-slash"))
        # Closed by a "/", a last "." or ".." shows as "/./" or "/../".
        closed = out if trailing else out + "/"
        for bad in ("//", "/./", "/../"):
            if bad in closed:
                found.append((text, str(out), bad))
    return count, found


def verify_no_residue(
    spec: EnumerationSpec, *, budget: int = DEFAULT_BUDGET
) -> List[ResidueViolation]:
    """Sweep the whole input space; an empty result certifies no-residue.

    Every enumerated string is canonicalized and the output checked for
    "//", "/./", "/../", a last "/." or "/.." (reported as "/./", "/../"),
    a missing leading "/", or a non-root trailing "/".
    """
    return [
        ResidueViolation(*found) for found in _sharded(spec, _residue_scan, budget)
    ]


def preimages_of(
    spec: EnumerationSpec,
    target: CanonicalPath,
    *,
    budget: int = DEFAULT_BUDGET,
) -> List[str]:
    """All enumerated strings that canonicalize to ``target``, shortlex order.

    Every hit is cross-checked against the rewriting oracle; a disagreement
    means one of the two implementations is broken, and the first in
    shortlex order raises AssertionError once the sweep is done.
    """

    def scan(strings: Iterator[str]) -> Tuple[int, list]:
        hits = []
        count = 0
        for count, text in enumerate(strings, 1):
            raw = _new(RawPathString, text)
            if canonicalize(raw) == target:
                hits.append((text, rewrite_canonicalize(raw) == target))
        return count, hits

    hits = _sharded(spec, scan, budget)
    for text, oracle_agrees in hits:
        if not oracle_agrees:
            raise AssertionError(
                f"oracle divergence on {text!r}: stack says {target.text!r}"
            )
    return [text for text, _ in hits]
