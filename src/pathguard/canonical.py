"""Stack-based lexical path canonicalization and whitelist checking.

The paper's algorithm is :func:`_walk`: it splits the path on "/" and
visits the parts left to right with a stack. Empty parts (from runs of
"/") are skipped, ordinary names are pushed, "." leaves the stack as it is,
and ".." pops the most recent name (or is skipped when the stack is
already empty, so climbing above the root is a no-op). The stack's string
form is the canonical path. It is a purely lexical transformation: no
filesystem access, no symlink resolution, and "/" is the only separator.

Decisions take the same text from :func:`_canonical_text`, which runs
posixpath's normpath core in C on 3.11+. The walk stays the reference: the
test suite pins the two equal on every string over "/.ab" and "/.a" up to
length 10 and on arbitrary text. The walk still computes the traced
variant, which records the stack as a tuple after every non-empty part,
and :func:`underflows`, the count of ".." parts ignored at the root.

Each public function checks once, on entry, that its argument is a
:class:`RawPathString`, and raises TypeError if not. The private functions
take plain ``str`` that has already passed the NUL and length rule.
"""

from __future__ import annotations

import posixpath
from typing import Iterable, List, Optional, Tuple, Union

from .model import CanonicalPath, RawPathString, Whitelist, _new, _read_paths

# posixpath.normpath's core: posix._path_normpath in C on 3.11+, called
# without the public wrapper's fspath and bytes handling; the pure-Python
# normpath on 3.10. Only checked text may reach it, because early 3.11
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


def _canonical_text(text: str) -> str:
    """The walk's text, ``"/" + "/".join(stack)``, computed by normpath on
    checked text. Three "/" go in front: POSIX keeps a leading "//", but
    normpath folds three or more leading "/" to one, in C and in Python."""
    return _normpath("///" + text)


def canonicalize(raw: RawPathString) -> CanonicalPath:
    """Reduce a validated path to its canonical absolute form.

    Relative inputs are root-anchored: the empty stack stringifies to "/",
    so "a/b" canonicalizes to "/a/b". ".." at the root is silently skipped;
    :func:`underflows` counts the skips.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    # The text equals the walk's, which only ever pushes names other than
    # "", "." and "..": it is canonical by construction, so it is wrapped
    # without the rescan.
    return _new(CanonicalPath, _canonical_text(raw))


def underflows(raw: RawPathString) -> int:
    """The number of ".." parts in ``raw`` ignored at the root: the attack
    signal, as the stack walk counts it. Without ".." in ``raw`` it is 0,
    and the walk does not run.

    Raises:
        TypeError: ``raw`` is not a RawPathString.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    return _walk(raw)[1] if ".." in raw else 0


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
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    trace: List[Tuple[str, ...]] = []
    stack, _ = _walk(raw, trace)
    return _new(CanonicalPath, "/" + "/".join(stack)), tuple(trace)


def sanitize(raw: RawPathString, whitelist: Whitelist) -> bool:
    """True iff the canonical text of ``raw`` is a whitelist entry."""
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    return _canonical_text(raw) in whitelist


def load_whitelist(
    source: Union[str, Iterable[str]], *, canonicalize_entries: bool = False
) -> Whitelist:
    """Load a whitelist from line-oriented text.

    One path per line, lines ending at "\\n" only; "#"-prefixed lines and
    blank lines are ignored; surrounding spaces, tabs and line endings are
    stripped; duplicates collapse.
    Entries must already be canonical unless ``canonicalize_entries`` is
    set -- silent rewriting would hide operator mistakes in a security
    control, so auto-fixing is opt-in. An open file is read whole, and each
    check runs once over all the entries.

    Raises:
        NonCanonicalEntry: a line is not a fixpoint of canonicalization.
        EmbeddedNul, PathTooLong: a line fails validation; the message
            names the line.
        io.UnsupportedOperation: ``source`` is a text file that has already
            been read from.
    """
    paths = _read_paths(source, "whitelist", canonical=not canonicalize_entries)
    if canonicalize_entries:
        paths = map(_canonical_text, paths)
    return Whitelist(paths)
