"""Stack-based lexical path canonicalization and whitelist checking.

One walk, :func:`_walk`, decides every request: it splits the path on "/"
and visits the parts left to right with a stack. Empty parts (from runs of
"/") are skipped, ordinary names are pushed, "." leaves the stack as it is,
and ".." pops the most recent name (or is skipped when the stack is
already empty, so climbing above the root is a no-op). The stack's string
form is the canonical path. The traced variant runs the same walk and
records the stack as a tuple after every non-empty part. It is a purely
lexical transformation: no filesystem access, no symlink resolution, and
"/" is the only separator.
"""

from __future__ import annotations

import logging
from typing import Iterable, List, Optional, Tuple, Union

from .model import (
    DEFAULT_LIMITS,
    CanonicalPath,
    Limits,
    NonCanonicalEntry,
    PathTooLong,
    RawPathString,
    Whitelist,
    _new,
    is_canonical_text,
    numbered_lines,
    validate_raw,
)

_log = logging.getLogger(__name__)


def _walk(
    raw: RawPathString, trace: Optional[list] = None
) -> Tuple[List[str], int]:
    """The stack walk over a validated path. Returns (stack, underflow
    count). When ``trace`` is a list, ``tuple(stack)`` is appended to it
    after every non-empty part, "." and ".." included.

    Raises:
        TypeError: ``raw`` is not a RawPathString, so it has not passed
            :func:`validate_raw`'s NUL and length checks.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    stack: List[str] = []
    underflows = 0
    for part in raw.split("/"):
        if not part:
            continue
        if part == "..":
            if stack:
                stack.pop()
            else:
                underflows += 1
        elif part != ".":
            stack.append(part)
        if trace is not None:
            trace.append(tuple(stack))
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
    stack, underflows = _walk(raw)
    if strict_underflow and underflows:
        _log.warning(
            "%d parent reference(s) ignored at the root in %r",
            underflows,
            raw.text,
        )
    # The walk only ever pushes names other than "", "." and "..", so the
    # joined stack is canonical by construction ("/" when it is empty).
    return _new(CanonicalPath, "/" + "/".join(stack))


def canonicalize_traced(
    raw: RawPathString,
) -> Tuple[CanonicalPath, Tuple[Tuple[str, ...], ...]]:
    """Canonicalize while recording the stack after every non-empty part.

    Returns the canonical path, which always equals ``canonicalize(raw)``,
    and one snapshot per part: the stack's names, bottom to top. The
    snapshots exist so the loop invariant (each intermediate stack is a
    prefix of the final path, or its excess entries are later popped) can
    be tested on the walk that decides.
    """
    trace: List[Tuple[str, ...]] = []
    stack, _ = _walk(raw, trace)
    return _new(CanonicalPath, "/" + "/".join(stack)), tuple(trace)


def sanitize(raw: RawPathString, whitelist: Whitelist) -> bool:
    """True iff the canonical form of ``raw`` is a whitelisted path.

    The joined stack is looked up as a plain string: it equals an entry
    exactly when it is that entry's spelling, so no wrapper is needed.
    """
    return "/" + "/".join(_walk(raw)[0]) in whitelist.entries


def canonicalize_jailed(
    root: CanonicalPath,
    raw: RawPathString,
    limits: Limits = DEFAULT_LIMITS,
    *,
    strict_underflow: bool = False,
) -> CanonicalPath:
    """Prepend an application root before canonicalizing.

    The result is NOT guaranteed to stay under ``root``: ".." can still
    climb out of the jail, so callers must whitelist or prefix-check the
    result. ``strict_underflow`` is passed on to :func:`canonicalize`.

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
    return canonicalize(
        _new(RawPathString, combined), strict_underflow=strict_underflow
    )


def load_whitelist(
    source: Union[str, Iterable[str]],
    limits: Limits = DEFAULT_LIMITS,
    *,
    canonicalize_entries: bool = False,
) -> Whitelist:
    """Load a whitelist from line-oriented text.

    One path per line; "#"-prefixed lines and blank lines are ignored;
    surrounding horizontal whitespace is stripped; duplicates collapse.
    Entries must already be canonical unless ``canonicalize_entries`` is
    set -- silent rewriting would hide operator mistakes in a security
    control, so auto-fixing is opt-in.

    Raises:
        NonCanonicalEntry: a line is not a fixpoint of canonicalization.
        EmbeddedNul, PathTooLong: propagated per line.
    """
    entries = set()
    for line_number, stripped in numbered_lines(source):
        raw = validate_raw(stripped, limits)
        if canonicalize_entries:
            entries.add(canonicalize(raw))
        else:
            if not is_canonical_text(stripped):
                raise NonCanonicalEntry(line_number, stripped)
            entries.add(_new(CanonicalPath, stripped))
    return Whitelist(frozenset(entries))
