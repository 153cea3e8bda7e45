"""Exhaustive desk-scale verification over bounded alphabets.

Instead of symbolic execution, every string over a small alphabet (which
holds no NUL) up to a length bound is enumerated in shortlex order and
pushed, as plain text, through ``_canonical_text``, which computes every
decision's text: the residue sweep certifies that no traversal characters
survive in any output, and the preimage search lists every input that
reaches a chosen canonical target (cross-checked against the independent
rewriting oracle).

A sweep visits at most ``MAX_SWEEP`` (2,000,000) strings; a larger space
is refused with :class:`BudgetExceeded` before any string is visited. The
limit is fixed: no flag or argument raises it. Over the default "/.abc",
``max_len`` 8 (488,281 strings) runs and 9 (2,441,406) is refused.

One enumerator, ``_strings``, walks the shortlex order and yields any
contiguous range of its ranks. The two sweeps cut the ranks into one range
per CPU in the process's affinity mask, whose sizes differ by at most one
string. The caller runs the first range, the smallest, itself (so a
one-CPU mask forks nothing) and forks a child for each other range, takes
each child's findings back over a pipe with :mod:`marshal`, and
concatenates them in range order, which is shortlex order: the result,
its order, and the first divergence reported are the same whatever the
CPU count. A shard runs only the pure-Python checks and ends in
``os._exit``, so it never runs the caller's exit handlers or flushes its
buffers.

Each range is taken ``_BLOCK`` (4,096) strings at a time, a fixed size.
The residue sweep maps a block through ``_canonical_text`` and tests all
of its outputs at once with ``model._all_canonical``, a fixed number of
C-level passes over one joined string. A string has no residue finding
exactly when its output is canonical, so a clean block runs no per-string
Python code; only a block that fails the test is walked string by string
to name its findings. The preimage sweep keeps a block's hits with
``itertools.compress``. Either way the findings, and their order, are
those of a walk of one string at a time.
"""

from __future__ import annotations

import marshal
import os
from itertools import chain, compress, islice, product
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator, List, NamedTuple, Tuple

from .canonical import _canonical_text
from .model import BudgetExceeded, CanonicalPath, RawPathString, _all_canonical, _new
from .oracle import rewrite_canonicalize

DEFAULT_ALPHABET = "/.abc"
# The most strings one sweep may visit; see the module docstring.
MAX_SWEEP = 2_000_000
# Strings a sweep takes at a time; see the module docstring.
_BLOCK = 4096


class EnumerationSpec(NamedTuple("_Spec", [("alphabet", str), ("max_len", int)])):
    """Alphabet (in enumeration order) and maximum string length."""

    __slots__ = ()
    # _replace builds through _make: route both through the checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(
        cls, alphabet: str = DEFAULT_ALPHABET, max_len: int = 8
    ) -> "EnumerationSpec":
        if "/" not in alphabet or "." not in alphabet:
            raise ValueError("alphabet must contain '/' and '.'")
        if "\x00" in alphabet:
            raise ValueError("alphabet must not contain NUL")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must not repeat characters")
        if max_len < 0:
            raise ValueError("max_len must be non-negative")
        return super().__new__(cls, alphabet, max_len)


class ResidueViolation(NamedTuple):
    """A canonicalizer output that still contains traversal residue."""

    input: str
    output: str
    offending: str


def total_count(spec: EnumerationSpec) -> int:
    """Number of strings of length 0..max_len over the alphabet, in closed
    form (the alphabet has at least 2 characters)."""
    k = len(spec.alphabet)
    return (k ** (spec.max_len + 1) - 1) // (k - 1)


def _checked_count(spec: EnumerationSpec) -> int:
    """:func:`total_count`, refused if it exceeds ``MAX_SWEEP``. The count
    is at least 2**max_len, so a ``max_len`` of the limit's bit length or
    more is refused before the power is taken, however large it is."""
    if spec.max_len < MAX_SWEEP.bit_length():
        count = total_count(spec)
        if count <= MAX_SWEEP:
            return count
    raise BudgetExceeded(
        f"enumeration up to length {spec.max_len} exceeds budget {MAX_SWEEP}"
    )


# Aliases for annotations only, so they cost nothing at import.
# Scan: checks a range's strings and returns (visited, findings in order).
if TYPE_CHECKING:
    ShardResult = Tuple[int, list]
    Scan = Callable[[Iterator[str]], ShardResult]

# SIGKILL, which POSIX fixes at 9; importing the signal module for the name
# would add more than a millisecond to every ``import pathguard``.
_SIGKILL = 9


def _strings(
    spec: EnumerationSpec, start: int = 0, stop: int | None = None
) -> Iterator[str]:
    """The strings of shortlex rank ``start`` up to ``stop``: shorter
    strings first, each length in alphabet order. The one enumerator; every
    walk over the space, whole or in shards, takes its strings from here."""
    every = chain.from_iterable(
        product(spec.alphabet, repeat=length) for length in range(spec.max_len + 1)
    )
    return map("".join, islice(every, start, stop))


def enumerate_all(spec: EnumerationSpec, visit: Callable[[str], None]) -> int:
    """Visit every string over the alphabet, shortlex order, exactly once,
    as ``_strings`` yields them.

    Returns the count visited.

    Raises:
        BudgetExceeded: the closed-form count exceeds ``MAX_SWEEP``.
    """
    count = _checked_count(spec)
    for text in _strings(spec):
        visit(text)
    return count


def _cpu_count() -> int:
    """CPUs in this process's affinity mask; 1 where there is no mask."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_shard(scan: Scan, strings: Iterator[str]) -> Tuple[int, BinaryIO]:
    """Start a child that scans the strings; returns its pid and result pipe."""
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
            data = marshal.dumps(scan(strings))
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


def _sharded(spec: EnumerationSpec, scan: Scan) -> list:
    """Run ``scan`` over every string, one rank range per CPU this process
    may use.

    Returns the findings of all ranges, concatenated in shortlex order.

    Raises:
        BudgetExceeded: the count exceeds ``MAX_SWEEP``, before any shard
            starts.
        RuntimeError: a shard failed, or the shards did not visit every
            string exactly once.
    """
    count = _checked_count(spec)
    n = min(_cpu_count(), count)
    cuts = [count * i // n for i in range(n + 1)]
    results: List[ShardResult] = []
    children: List[Tuple[int, BinaryIO]] = []  # started, not yet reaped
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            children.append(_fork_shard(scan, _strings(spec, lo, hi)))
        # The caller also forks and merges, so it runs the first range,
        # which is the smallest.
        results.append(scan(_strings(spec, 0, cuts[1])))
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            children.pop(0)
            results.append(_reap(pid, data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
    visited = sum(result[0] for result in results)
    if visited != count:
        raise RuntimeError(f"shards visited {visited} of {count} strings")
    return [found for _, findings in results for found in findings]


def _blocks(strings: Iterator[str]) -> Iterator[List[str]]:
    """``strings`` in lists of ``_BLOCK``, the last one shorter."""
    while block := list(islice(strings, _BLOCK)):
        yield block


def _residue_scan(strings: Iterator[str]) -> Tuple[int, list]:
    # A string has no finding exactly when its output is canonical, so only
    # a block whose outputs are not all canonical is walked string by string.
    found = []
    count = 0
    for block in _blocks(strings):
        count += len(block)
        outs = list(map(_canonical_text, block))
        if _all_canonical(outs):
            continue
        for text, out in zip(block, outs):
            if not out.startswith("/"):
                found.append((text, out, "missing-leading-slash"))
            trailing = out.endswith("/")
            if trailing and out != "/":
                found.append((text, out, "trailing-slash"))
            # Closed by a "/", a last "." or ".." shows as "/./" or "/../".
            closed = out if trailing else out + "/"
            for bad in ("//", "/./", "/../"):
                if bad in closed:
                    found.append((text, out, bad))
    return count, found


def verify_no_residue(spec: EnumerationSpec) -> List[ResidueViolation]:
    """Sweep the whole input space; an empty result certifies no-residue.

    Every enumerated string is canonicalized and the output checked for
    "//", "/./", "/../", a last "/." or "/.." (reported as "/./", "/../"),
    a missing leading "/", or a non-root trailing "/".
    """
    return [ResidueViolation(*found) for found in _sharded(spec, _residue_scan)]


def preimages_of(spec: EnumerationSpec, target: CanonicalPath) -> List[str]:
    """All enumerated strings that canonicalize to ``target``, shortlex order.

    Every hit is cross-checked against the rewriting oracle in the caller,
    in shortlex order, so an error the oracle raises reaches the caller as
    it is, whatever the CPU count. The first disagreement raises
    AssertionError: one of the two implementations is broken.
    """

    def scan(strings: Iterator[str]) -> Tuple[int, list]:
        hits = []
        count = 0
        for block in _blocks(strings):
            count += len(block)
            hits += compress(block, map(target.__eq__, map(_canonical_text, block)))
        return count, hits

    hits = _sharded(spec, scan)
    for text in hits:
        if rewrite_canonicalize(_new(RawPathString, text)) != target:
            raise AssertionError(
                f"oracle divergence on {text!r}: stack says {target.text!r}"
            )
    return hits
