"""Exhaustive desk-scale verification over bounded alphabets.

Instead of symbolic execution, every string over a small alphabet (which
holds no NUL) up to a length bound is enumerated in shortlex order and
pushed, as plain text, through ``_canonical_texts``, the bulk form of the
formula that computes every decision's text: the residue sweep certifies
that every output is canonical, with no ``model._residue`` flaw, and the
preimage search lists every input that reaches a chosen canonical target
(cross-checked against the independent rewriting oracle).

A sweep visits at most ``MAX_SWEEP`` (2,000,000) strings; a larger space
is refused with :class:`BudgetExceeded` before any string is visited. The
limit is fixed: no flag or argument raises it.

One enumerator, ``_blocks``, walks the shortlex order a prefix block at a
time. A block is a pair ``(prefix, suffixes)`` that stands for the strings
``prefix + suffix``, in the list's order. ``suffixes`` is every string of
the longest length ``s`` with ``len(alphabet) ** s <= _BLOCK`` (4,096):
3,125 strings over "/.abc", 4,096 over "/.ab". It is built once per sweep
and shared by every block of a length of ``s`` or more, whose prefix is
one string of the remaining length; each length below ``s`` is one block
of its own, with prefix "". No block is ever sliced. A sweep is a check
of one block: a function from a prefix and its suffixes to the findings
among their strings, in order. ``_sharded`` numbers the blocks and deals
them out by stride to one shard per CPU in the process's affinity mask,
but to no more shards than blocks: of ``n`` shards, shard ``i`` checks
blocks ``i``, ``i + n``, ``i + 2n`` and so on. The caller runs shard 0
(so one CPU, or one block, forks nothing) and forks a child for each
other. A shard sends back ``(number, findings)`` for each block that has
findings, a child over a pipe with :mod:`marshal`, and the caller sorts
them by number, which is shortlex order: the result, its order, and the
first divergence reported are the same whatever the CPU count. No process
lists the blocks or keeps anything of a clean one. A shard runs only the
pure-Python checks and ends in ``os._exit``, so it never runs the
caller's exit handlers or flushes its buffers.

Shard ``i`` runs on the ``i``-th CPU id of the sorted mask, alone: each
child pins itself there before it starts, and the caller, once its
children are forked, pins itself to the first. A cpuset with load
balancing off never moves a forked child off its parent's CPU, so without
the pins every shard could share one CPU and a sweep would take as long as
on one. The caller puts back the mask it read once every child is reaped
or killed, whether the sweep passed or failed. Placement only affects
speed: where the kernel refuses a mask, that process runs where it is,
and where there is no mask nothing is forked or pinned; README gives the
speed-up measured.

One runner, in the caller and in each child alike, hands its shard to the
check a block at a time and counts the strings it hands out; ``_sharded``
raises unless the counts add up to the whole space. The residue check
maps ``canonical._canonical_texts`` over a block's suffixes with the
prefix fused into normpath's argument, so a string costs one C-level
concatenation and no Python frame, and tests all of the outputs at once
with ``model._all_canonical``. A clean block runs no per-string Python
code and never builds its strings. Only a block that fails is walked
string by string: a string's findings are the flaws that
``model._residue``, the one statement of the canonical-form rule, names
in its output. The preimage check lists a block's outputs and scans them
for the target once, in C; only a block that holds a hit picks its hits
among the suffixes with ``itertools.compress``. Either way the findings,
and their order, are those of a walk of one string at a time.
"""

from __future__ import annotations

import marshal
import os
from itertools import compress, islice, product
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator, List
from typing import NamedTuple, Tuple

from .canonical import _canonical_texts
from .model import BudgetExceeded, CanonicalPath, RawPathString, _all_canonical, _new
from .model import _residue
from .oracle import rewrite_canonicalize

DEFAULT_ALPHABET = "/.abc"
# The most strings one sweep may visit; see the module docstring.
MAX_SWEEP = 2_000_000
# The most strings a sweep takes at a time; see the module docstring.
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
# Block: a prefix and its suffixes, which stand for the strings prefix + suffix.
# Check: returns a block's findings, in the block's order.
# Numbered: blocks with their numbers in shortlex order.
# ShardResult: the strings a shard checked, and (number, findings) per block.
if TYPE_CHECKING:
    Block = Tuple[str, List[str]]
    Check = Callable[[str, List[str]], list]
    Numbered = Iterable[Tuple[int, Block]]
    ShardResult = Tuple[int, List[Tuple[int, list]]]

# SIGKILL, which POSIX fixes at 9; importing the signal module for the name
# would add more than a millisecond to every ``import pathguard``.
_SIGKILL = 9


def _words(alphabet: str, length: int) -> List[str]:
    """Every string of ``length`` over the alphabet, in alphabet order."""
    return list(map("".join, product(alphabet, repeat=length)))


def _blocks(spec: EnumerationSpec) -> Iterator[Block]:
    """Every string of the space in shortlex order (shorter strings first,
    each length in alphabet order) as blocks ``(prefix, suffixes)``; see the
    module docstring. The one enumerator; every walk over the space, whole
    or in shards, takes its strings from here."""
    alphabet, k = spec.alphabet, len(spec.alphabet)
    width = 0
    while k ** (width + 1) <= _BLOCK:
        width += 1
    suffixes = _words(alphabet, width)
    for length in range(spec.max_len + 1):
        tail = suffixes if length >= width else _words(alphabet, length)
        for head in product(alphabet, repeat=max(length - width, 0)):
            yield "".join(head), tail


def enumerate_all(spec: EnumerationSpec, visit: Callable[[str], None]) -> int:
    """Visit every string over the alphabet, shortlex order, exactly once,
    as ``_blocks`` yields them.

    Returns the count visited.

    Raises:
        BudgetExceeded: the closed-form count exceeds ``MAX_SWEEP``.
    """
    count = _checked_count(spec)
    for prefix, suffixes in _blocks(spec):
        for text in map(prefix.__add__, suffixes):
            visit(text)
    return count


def _cpus() -> List[int]:
    """The CPU ids of this process's affinity mask, in order; one entry,
    which nothing is pinned to, where there is no mask."""
    if not hasattr(os, "sched_getaffinity"):
        return [0]
    return sorted(os.sched_getaffinity(0))


def _pin(cpus: Iterable[int]) -> None:
    """Move this process onto ``cpus``. Placement only affects speed, so a
    refusal leaves the process where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _run(check: Check, numbered: Numbered) -> ShardResult:
    """Hand each numbered block to ``check``. Returns how many strings it
    handed out, and ``(number, findings)`` for each block that has findings."""
    visited, found = 0, []
    for number, (prefix, suffixes) in numbered:
        visited += len(suffixes)
        findings = check(prefix, suffixes)
        if findings:
            found.append((number, findings))
    return visited, found


def _fork_shard(check: Check, numbered: Numbered, cpu: int) -> Tuple[int, BinaryIO]:
    """Start a child that runs the check over the numbered blocks on CPU
    ``cpu``; returns its pid and result pipe."""
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
            _pin({cpu})
            data = marshal.dumps(_run(check, numbered))
            with open(wfd, "wb") as out:
                out.write(data)
            status = 0
        except BaseException as exc:
            os.write(2, f"pathguard: verifier shard failed: {exc!r}\n".encode())
        finally:
            os._exit(status)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _sharded(spec: EnumerationSpec, check: Check) -> list:
    """Run ``check`` over every block, dealing the numbered blocks out by
    stride to one shard per CPU this process may use.

    Returns the findings of all blocks, in shortlex order.

    Raises:
        BudgetExceeded: the count exceeds ``MAX_SWEEP``, before any shard
            starts.
        RuntimeError: a shard exited non-zero or sent nothing, or the
            shards did not visit every string exactly once.
    """
    count = _checked_count(spec)
    cpus = _cpus()
    # One shard per CPU, but none without a block.
    n = len(list(islice(_blocks(spec), len(cpus))))
    numbered = enumerate(_blocks(spec))
    results: List[ShardResult] = []
    children: List[Tuple[int, BinaryIO]] = []  # started, not yet reaped
    try:
        for i in range(1, n):
            children.append(_fork_shard(check, islice(numbered, i, None, n), cpus[i]))
        if n > 1:
            _pin({cpus[0]})
        results.append(_run(check, islice(numbered, 0, None, n)))
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            pipe.close()
            children.pop(0)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0 or not data:
                raise RuntimeError(
                    f"verifier shard {pid} exited with status {code} "
                    f"after sending {len(data)} bytes"
                )
            results.append(marshal.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
        if n > 1:
            _pin(cpus)
    visited = sum(result[0] for result in results)
    if visited != count:
        raise RuntimeError(f"shards visited {visited} of {count} strings")
    found = sorted(pair for _, pairs in results for pair in pairs)
    return [item for _, findings in found for item in findings]


def _residue_check(prefix: str, suffixes: List[str]) -> list:
    # A string has no finding exactly when its output is canonical, so only
    # a block whose outputs are not all canonical is walked string by string.
    outs = list(_canonical_texts(suffixes, prefix))
    if _all_canonical(outs):
        return []
    texts = map(prefix.__add__, suffixes)
    return [(t, out, flaw) for t, out in zip(texts, outs) for flaw in _residue(out)]


def verify_no_residue(spec: EnumerationSpec) -> List[ResidueViolation]:
    """Sweep the whole input space; an empty result certifies no-residue.
    Each ``model._residue`` flaw of each output is one violation, in order."""
    return [ResidueViolation(*found) for found in _sharded(spec, _residue_check)]


def preimages_of(spec: EnumerationSpec, target: CanonicalPath) -> List[str]:
    """All enumerated strings that canonicalize to ``target``, shortlex order.

    Every hit is cross-checked against the rewriting oracle in the caller,
    in shortlex order, so an error the oracle raises reaches the caller as
    it is, whatever the CPU count. The first disagreement raises
    AssertionError: one of the two implementations is broken.
    """

    # A plain str: comparing two exact str skips the subclass test that a
    # CanonicalPath operand costs each comparison.
    text = str(target)

    def check(prefix: str, suffixes: List[str]) -> list:
        # One C-level scan finds whether the block holds a hit at all; most
        # blocks hold none.
        outs = list(_canonical_texts(suffixes, prefix))
        if text not in outs:
            return []
        return list(map(prefix.__add__, compress(suffixes, map(text.__eq__, outs))))

    hits = _sharded(spec, check)
    for text in hits:
        if rewrite_canonicalize(_new(RawPathString, text)) != target:
            raise AssertionError(
                f"oracle divergence on {text!r}: stack says {target.text!r}"
            )
    return hits
