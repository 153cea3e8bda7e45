"""Checkers and generators shared by the acceptance, canonical and property
tests.

Run as a script, it is the fast-path gate without pytest, for Pythons that
have only the stdlib:

    PYTHONPATH=src python tests/invariant_checks.py

It exits 1 if normpath's text, in either of its forms, or count differs
from the stack walk's on any string of either space in FAST_PATH_SPACES.
"""

from __future__ import annotations

import sys

from pathguard import EnumerationSpec, RawPathString, canonicalize_traced, total_count
from pathguard.canonical import _canonical_text, _canonical_texts, _walk, underflows
from pathguard.model import _new
from pathguard.verifier import _sharded

FRESH_NAMES = ["zz", "q", "tmp0", "tmp1", "w"]

# Each alphabet, with the number of strings over it up to length 10. The
# "/.a" strings also lie in the "/.ab" space; that case is kept for its
# own exact count.
FAST_PATH_SPACES = (("/.ab", 1_398_101), ("/.a", 88_573))


def fast_path_check(prefix, suffixes):
    """A verifier block check: the strings on which the fast path's text,
    from :func:`_canonical_text` or from the block's one call of its bulk
    form as the sweeps and batches make it, or :func:`underflows` differs
    from the stack walk's, walked once each."""
    found = []
    bulk = _canonical_texts(suffixes, prefix)
    for text, out in zip(map(prefix.__add__, suffixes), bulk):
        stack, ignored = _walk(text)
        walked = "/" + "/".join(stack)
        if (
            _canonical_text(text) != walked
            or out != walked
            or underflows(_new(RawPathString, text)) != ignored
        ):
            found.append(text)
    return found


def trace_invariant_holds(text: str) -> bool:
    """Loop invariant: each intermediate stack is a component-prefix of the
    final path, or every entry beyond the common prefix is popped later."""
    final, trace = canonicalize_traced(RawPathString(text))
    target = final[1:].split("/") if final != "/" else []
    snapshots = trace
    sizes = [len(s) for s in snapshots]
    for i, snap in enumerate(snapshots):
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
        spec = EnumerationSpec(alphabet=alphabet, max_len=10)
        # _sharded raises unless its shards saw exactly total_count(spec).
        found = _sharded(spec, fast_path_check)
        counted = total_count(spec)
        print(
            f"{alphabet!r} up to length 10: {counted} strings (want {visited}),"
            f" {len(found)} differ from the walk: {found[:5]}"
        )
        failed = failed or bool(found) or counted != visited
    sys.exit(1 if failed else 0)
