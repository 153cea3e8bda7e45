"""Stack-based lexical path canonicalization and whitelist checking.

The canonicalizer walks the path's tokens left to right with a stack:
ordinary names are pushed, "." is skipped, and ".." pops the most recent
name (or is skipped when the stack is already empty, so climbing above the
root is a no-op). The stack's string form is the canonical path. It is a
purely lexical transformation: no filesystem access, no symlink
resolution, and "/" is the only separator.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Tuple

from .model import (
    DEFAULT_LIMITS,
    CanonicalPath,
    ComponentStack,
    Limits,
    PathToken,
    PathTooLong,
    RawPathString,
    TokenKind,
    Whitelist,
    _new,
)

_log = logging.getLogger(__name__)


def tokenize(raw: RawPathString) -> Tuple[PathToken, ...]:
    """Split on maximal runs of "/"; empty tokens are never produced."""
    return tuple(
        PathToken.from_text(part) for part in raw.text.split("/") if part
    )


def stack_to_string(stack: ComponentStack) -> CanonicalPath:
    """Stringify a component stack: "/" when empty, else "/"-joined items."""
    if not stack.items:
        return CanonicalPath("/")
    return CanonicalPath("/" + "/".join(item.text for item in stack.items))


def _canonical_components(raw: RawPathString) -> Tuple[List[str], int]:
    """Core stack walk over a validated path. Returns (components, underflow
    count).

    Raises:
        TypeError: ``raw`` is not a RawPathString, so it has not passed
            :func:`validate_raw`'s NUL and length checks.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    stack: List[str] = []
    underflows = 0
    for part in raw.split("/"):
        if not part or part == ".":
            continue
        if part == "..":
            if stack:
                stack.pop()
            else:
                underflows += 1
        else:
            stack.append(part)
    return stack, underflows


def canonicalize(
    raw: RawPathString, *, strict_underflow: bool = False
) -> CanonicalPath:
    """Reduce a validated path to its canonical absolute form.

    Relative inputs are root-anchored: the empty stack stringifies to "/",
    so "a/b" canonicalizes to "/a/b". ".." at the root is silently skipped;
    with ``strict_underflow`` each such skip is logged as a probable attack
    but the returned path is unchanged.
    """
    components, underflows = _canonical_components(raw)
    if strict_underflow and underflows:
        _log.warning(
            "%d parent reference(s) ignored at the root in %r",
            underflows,
            raw.text,
        )
    # The walk only ever pushes names other than "", "." and "..", so the
    # joined stack is canonical by construction ("/" when it is empty).
    return _new(CanonicalPath, "/" + "/".join(components))


def sanitize(raw: RawPathString, whitelist: Whitelist) -> bool:
    """True iff the canonical form of ``raw`` is a whitelisted path.

    The joined stack is looked up as a plain string: it equals an entry
    exactly when it is that entry's spelling, so no wrapper is needed.
    """
    return "/" + "/".join(_canonical_components(raw)[0]) in whitelist.entries


def canonicalize_jailed(
    root: CanonicalPath, raw: RawPathString, limits: Limits = DEFAULT_LIMITS
) -> CanonicalPath:
    """Prepend an application root before canonicalizing.

    The result is NOT guaranteed to stay under ``root``: ".." can still
    climb out of the jail, so callers must whitelist or prefix-check the
    result.

    Raises:
        PathTooLong: the combined string exceeds ``limits.max_path_len``.
        TypeError: ``raw`` is not a RawPathString.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    combined = root + "/" + raw
    if len(combined) > limits.max_path_len:
        raise PathTooLong(
            f"jailed path length {len(combined)} exceeds limit "
            f"{limits.max_path_len}"
        )
    return canonicalize(_new(RawPathString, combined))


@dataclass(frozen=True)
class TraceSnapshot:
    """Stack state observed immediately after processing one token."""

    index: int
    token: PathToken
    stack_after: ComponentStack


@dataclass(frozen=True)
class CanonicalizationTrace:
    """Per-token stack snapshots from one canonicalization run."""

    snapshots: tuple


def canonicalize_traced(
    raw: RawPathString,
) -> Tuple[CanonicalPath, CanonicalizationTrace]:
    """Canonicalize while recording the stack after every token.

    The traced result always equals ``canonicalize(raw)``; the snapshots
    exist so the loop invariant (each intermediate stack is a prefix of the
    final path, or its excess entries are later popped) can be tested.
    """
    stack: List[PathToken] = []
    snapshots = []
    for index, token in enumerate(tokenize(raw)):
        if token.kind is TokenKind.DOT:
            pass
        elif token.kind is TokenKind.DOTDOT:
            if stack:
                stack.pop()
        else:
            stack.append(token)
        snapshots.append(
            TraceSnapshot(index, token, ComponentStack(tuple(stack)))
        )
    final = stack_to_string(ComponentStack(tuple(stack)))
    return final, CanonicalizationTrace(tuple(snapshots))
