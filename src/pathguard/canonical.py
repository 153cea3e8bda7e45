"""Stack-based lexical path canonicalization and whitelist checking.

The paper's algorithm is :func:`_walk`: it splits the path on "/" and
visits the parts left to right with a stack. Empty parts (from runs of
"/") are skipped, ordinary names are pushed, "." leaves the stack as it is,
and ".." pops the most recent name (or is skipped when the stack is
already empty, so climbing above the root is a no-op). The stack's string
form is the canonical path. It is a purely lexical transformation: no
filesystem access, no symlink resolution, and "/" is the only separator.

Decisions take the same text from :func:`_canonical_text`, which runs
posixpath's normpath core in C on 3.11+ (:func:`_canonical_texts` is its
bulk form, for batches and sweeps), and :func:`underflows`, the count
of ".." parts ignored at the root, takes the same normpath on the relative
form. The walk stays the reference: the test suite pins the text and the
count equal to the walk's on every string over "/.ab" and "/.a" up to
length 10 and on arbitrary text. The walk computes only the traced
variant, which records the stack as a tuple after every non-empty part.

Each public function checks once, on entry, that its argument is a
:class:`RawPathString`, and raises TypeError if not. The private functions
take plain ``str`` that has already passed the NUL and length rule.
"""

from __future__ import annotations

import posixpath
from itertools import repeat
from operator import concat
from typing import Iterable, Iterator, List, Optional, Tuple, Union

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


def _canonical_texts(texts: Iterable[str], prefix: str = "") -> Iterator[str]:
    """``_canonical_text(prefix + text)`` for each of ``texts``, lazily: the
    bulk form of the one formula, with one C-level concatenation per text
    and no Python frame. ``operator.concat`` is the concatenation: it takes
    about 10% less of a sweep than a bound ``str.__add__``."""
    return map(_normpath, map(concat, repeat("///" + prefix), texts))


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
    be tested on the walk. Decisions take their text from
    :func:`_canonical_text`; the walk is the reference it is pinned to.
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
