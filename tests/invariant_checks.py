"""Checkers and generators shared by the acceptance, canonical and property
tests. The reference they hold pathguard to is ``spec``'s, which shares no
code with pathguard: :func:`fast_path_check` compares the fast path with
``spec.walk``, and :func:`trace_invariant_holds` the shipped walk, which
only ``canonicalize_traced`` runs.

:func:`sweep` walks every string of a space once for two checks, and both
read its tagged findings: criterion 1 (oracle agreement over "/.ab" up to
length 10) reads the ``oracle`` findings, and the fast-path gate
(``TestFastPath``, over both spaces in FAST_PATH_SPACES) the ``fast path``
findings. It runs once per space per process, so the whole suite
enumerates "/.ab" up to length 10 once, and either test run alone still
sweeps the whole space.

Run as a script, it is both checks on the stdlib alone (``-S`` keeps
site-packages out, so an import of pytest or hypothesis here or in
``spec`` fails):

    PYTHONPATH=src python -S tests/invariant_checks.py

It exits 1 if, on any string of either space in FAST_PATH_SPACES,
normpath's text, from any of its copies, or count differs from
``spec.walk``'s, or the oracle's text differs from :func:`canonicalize`'s.
"""

from __future__ import annotations

import sys
from functools import cache

from pathguard import (
    EnumerationSpec,
    RawPathString,
    canonicalize,
    canonicalize_traced,
    rewrite_canonicalize,
    sanitize,
    total_count,
)
from pathguard.canonical import _canonical_texts, underflows
from pathguard.verifier import _sharded
from spec import walk

FRESH_NAMES = ["zz", "q", "tmp0", "tmp1", "w"]

# Each alphabet, with the number of strings over it up to length 10. The
# "/.a" strings also lie in the "/.ab" space; that case is kept for its
# own exact count.
FAST_PATH_SPACES = (("/.ab", 1_398_101), ("/.a", 88_573))

# The kinds of finding that fast_path_check tags a string with.
FAST_PATH, ORACLE = "fast path", "oracle"


def fast_path_check(prefix, suffixes):
    """A verifier block check: ``(kind, text)`` for each string, walked once
    and built once with the checked ``RawPathString(text)``, on which

    - ``FAST_PATH``: a copy of the fast path's text or :func:`underflows`
      differs from ``spec.walk``'s. The copies are :func:`canonicalize`'s,
      :func:`sanitize`'s (a one-entry whitelist holding the walk's text must
      admit the string, so its text is exactly the walk's) and the block's
      one call of the bulk form, as the sweeps and batches make it;
    - ``ORACLE``: :func:`rewrite_canonicalize`'s text differs from
      :func:`canonicalize`'s (both are str subclasses, so ``!=`` compares
      the plain strings).
    """
    found = []
    bulk = _canonical_texts(suffixes, prefix)
    for text, out in zip(map(prefix.__add__, suffixes), bulk):
        stack, ignored = walk(text)
        walked = "/" + "/".join(stack)
        raw = RawPathString(text)
        canonical = canonicalize(raw)
        if (
            out != walked
            or canonical != walked
            or not sanitize(raw, (walked,))
            or underflows(raw) != ignored
        ):
            found.append((FAST_PATH, text))
        if rewrite_canonicalize(raw) != canonical:
            found.append((ORACLE, text))
    return found


@cache
def sweep(alphabet: str) -> list:
    """:func:`fast_path_check`'s findings over every string over
    ``alphabet`` up to length 10, sharded over the CPUs as the verifier's
    sweeps are; ``_sharded`` raises unless its shards saw exactly
    ``total_count`` strings. Computed once per alphabet per process."""
    return _sharded(EnumerationSpec(alphabet=alphabet, max_len=10), fast_path_check)


def findings(alphabet: str, kind: str) -> list:
    """The strings :func:`sweep` over ``alphabet`` tagged ``kind``."""
    return [text for tag, text in sweep(alphabet) if tag == kind]


def trace_invariant_holds(text: str) -> bool:
    """:func:`canonicalize_traced`'s text and every snapshot equal
    ``spec.walk``'s, and the loop invariant holds: each intermediate stack
    is a component-prefix of the final path, or every entry beyond the
    common prefix is popped later."""
    final, trace = canonicalize_traced(RawPathString(text))
    walked = []
    if final != "/" + "/".join(walk(text, walked)[0]) or trace != tuple(walked):
        return False
    target = final[1:].split("/") if final != "/" else []
    sizes = [len(s) for s in trace]
    for i, snap in enumerate(trace):
        stack = list(snap)
        common = 0
        while (
            common < len(stack)
            and common < len(target)
            and stack[common] == target[common]
        ):
            common += 1
        if common == len(stack):
            continue
        later = sizes[i + 1 :]
        for depth in range(common, len(stack)):
            if not any(size <= depth for size in later):
                return False
    return True


def random_canonical(rng) -> str:
    """A random canonical path over short single-letter-ish names."""
    n = rng.randrange(0, 5)
    if n == 0:
        return "/"
    names = [rng.choice(["a", "b", "c", "d", "x.y", "..."]) for _ in range(n)]
    return "/" + "/".join(names)


def mutate_preserving_target(canonical_text: str, rng) -> str:
    """Apply 1..4 equivalence-preserving mutations to a canonical path.

    Mutations: duplicate a "/", turn a "/" into "/./", insert a fresh
    component immediately cancelled by "..", or prepend "./" / "../".
    """
    s = canonical_text
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(4)
        slashes = [i for i, ch in enumerate(s) if ch == "/"]
        if kind == 0:
            i = rng.choice(slashes)
            s = s[:i] + "/" + s[i:]
        elif kind == 1:
            i = rng.choice(slashes)
            s = s[:i] + "/." + s[i:]
        elif kind == 2:
            i = rng.choice(slashes)
            name = rng.choice(FRESH_NAMES)
            s = s[:i] + "/" + name + "/.." + s[i:]
        else:
            s = rng.choice(["./", "../"]) + s
    return s


if __name__ == "__main__":
    failed = False
    for alphabet, visited in FAST_PATH_SPACES:
        counted = total_count(EnumerationSpec(alphabet=alphabet, max_len=10))
        print(f"{alphabet!r} up to length 10: {counted} strings (want {visited})")
        for kind in (FAST_PATH, ORACLE):
            found = findings(alphabet, kind)
            print(f"  {len(found)} {kind} findings: {found[:5]}")
            failed = failed or bool(found)
        failed = failed or counted != visited
    sys.exit(1 if failed else 0)
