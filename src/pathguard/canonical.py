"""Stack-based lexical path canonicalization and whitelist checking.

The paper's algorithm is :func:`_walk`: it splits the path on "/" and
visits the parts left to right with a stack. Empty parts (from runs of
"/") are skipped, ordinary names are pushed, "." leaves the stack as it is,
and ".." pops the most recent name (or is skipped when the stack is
already empty, so climbing above the root is a no-op). The stack's string
form is the canonical path. It is a purely lexical transformation: no
filesystem access, no symlink resolution, and "/" is the only separator.

Decisions take the same text from one formula, ``_normpath("///" +
text)``, posixpath's normpath core in C on 3.11+. :func:`canonicalize` and
:func:`sanitize` each write it inline, so a decision enters no Python frame
beyond ``validate_raw`` and the public function; :func:`_canonical_texts`
is its bulk form, for batches, sweeps and ``load_whitelist``. The count of
".." parts ignored at the root, :func:`underflows`, takes the same
normpath on the relative form. The walk stays the reference: the test
suite pins each copy of the text, and the count, equal to the walk's on
every string over "/.ab" and "/.a" up to length 10 and on arbitrary text.
The walk computes only the traced variant, which records the stack as a
tuple after every non-empty part.

Each public function checks once, on entry, that its argument is a
:class:`RawPathString`, and raises TypeError if not. The private functions
take plain ``str`` that has already passed the NUL and length rule.
"""

from __future__ import annotations

import posixpath
from itertools import repeat
from operator import concat
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple

from .model import CanonicalPath, RawPathString, Whitelist, _new, _read_paths

# posixpath.normpath's core in C, called without the public wrapper's
# fspath and bytes handling: posixpath._path_normpath on 3.11 and 3.12. On
# 3.13 that name is gone and posixpath.normpath is the C core itself; on
# 3.10 it is pure Python. Only checked text may reach it, because early 3.11
# releases of the C core stopped at a NUL (CPython gh-106242).
_normpath = getattr(posixpath, "_path_normpath", posixpath.normpath)


def _walk(text: str, trace: Optional[list] = None) -> Tuple[List[str], int]:
    """The stack walk over checked text. Returns (stack, underflow count).
    When ``trace`` is a list, ``tuple(stack)`` is appended to it after
    every non-empty part, "." and ".." included."""
    stack: List[str] = []
    underflows = 0
    for part in text.split("/"):
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


def _canonical_texts(texts: Iterable[str], prefix: str = "") -> Iterator[str]:
    """The walk's text, ``"/" + "/".join(stack)``, of ``prefix + text`` for
    each of checked ``texts``, lazily: ``_normpath("///" + prefix + text)``.
    Three "/" go in front: POSIX keeps a leading "//", but normpath folds
    three or more leading "/" to one, in C and in Python. This is the bulk
    form of the formula that :func:`canonicalize` and :func:`sanitize` write
    inline, with one C-level concatenation per text and no Python frame.
    ``operator.concat`` is the concatenation: it takes about 10% less of a
    sweep than a bound ``str.__add__``."""
    return map(_normpath, map(concat, repeat("///" + prefix), texts))


def canonicalize(raw: RawPathString) -> CanonicalPath:
    """Reduce a validated path to its canonical absolute form.

    Relative inputs are root-anchored: the empty stack stringifies to "/",
    so "a/b" canonicalizes to "/a/b". ".." at the root is silently skipped;
    :func:`underflows` counts the skips.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    # _canonical_texts' formula, inline: a call would cost each decision a
    # Python frame. The text equals the walk's, which only ever pushes names
    # other than "", "." and "..": it is canonical by construction, so it
    # is wrapped without the rescan.
    return _new(CanonicalPath, _normpath("///" + raw))


def underflows(raw: RawPathString) -> int:
    """The number of ".." parts in ``raw`` ignored at the root: the attack
    signal. It is counted on ``raw`` made relative, because POSIX normpath
    keeps ".." in a relative path only as a leading run, and that run is
    exactly the parts the walk ignores at the root. Only "/" is stripped:
    names such as ".x" and "..." also start with dots. Without ".." in
    ``raw`` the count is 0, and normpath does not run.

    Raises:
        TypeError: ``raw`` is not a RawPathString.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    return _normpath("./" + raw.lstrip("/")).split("/").count("..") if ".." in raw else 0


def canonicalize_traced(
    raw: RawPathString,
) -> Tuple[CanonicalPath, Tuple[Tuple[str, ...], ...]]:
    """Canonicalize while recording the stack after every non-empty part.

    Returns the canonical path, which always equals ``canonicalize(raw)``,
    and one snapshot per part: the stack's names, bottom to top. The
    snapshots exist so the loop invariant (each intermediate stack is a
    prefix of the final path, or its excess entries are later popped) can
    be tested on the walk. Decisions take their text from normpath; the
    walk is the reference it is pinned to.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    trace: List[Tuple[str, ...]] = []
    stack, _ = _walk(raw, trace)
    return _new(CanonicalPath, "/" + "/".join(stack)), tuple(trace)


def sanitize(raw: RawPathString, whitelist: Whitelist) -> bool:
    """True iff the canonical text of ``raw`` is a whitelist entry."""
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    # _canonical_texts' formula, inline, as in canonicalize.
    return _normpath("///" + raw) in whitelist


def load_whitelist(
    source: str | TextIO, *, canonicalize_entries: bool = False
) -> Whitelist:
    """Load a whitelist from the whole text or a text file, read whole and
    split into lines as ``model._read_paths`` states: one path per line,
    "#" comments and blank lines ignored, duplicates collapsed.
    Entries must already be canonical unless ``canonicalize_entries`` is
    set -- silent rewriting would hide operator mistakes in a security
    control, so auto-fixing is opt-in.

    Raises:
        NonCanonicalEntry: a line is not a fixpoint of canonicalization.
        EmbeddedNul, PathTooLong: a line fails validation; the message
            names the line.
        io.UnsupportedOperation: ``source`` is a text file that has already
            been read from, or that can seek and does not stand at its start.
    """
    paths = _read_paths(source, "whitelist", canonical=not canonicalize_entries)
    if canonicalize_entries:
        paths = _canonical_texts(paths)
    return Whitelist(paths)
