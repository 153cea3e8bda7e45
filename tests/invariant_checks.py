"""Checkers and generators shared by the acceptance and property tests."""

from __future__ import annotations

from pathguard import RawPathString, canonicalize_traced

FRESH_NAMES = ["zz", "q", "tmp0", "tmp1", "w"]


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
