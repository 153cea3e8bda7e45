"""Domain types, input validation, and the whitelist store.

Everything here is immutable after construction and safe to share across
threads. Paths are treated as opaque character sequences: no Unicode
normalization, no filesystem access.

The two path types, :class:`RawPathString` and :class:`CanonicalPath`,
exist only at the public API, where callers hand text in and take it out.
Behind it, everything works on plain ``str`` that has passed the NUL and
length rule: :func:`validate_raw` for callers, :func:`_checked` for internal
ones. Both types are ``str`` subclasses with no instance attributes, so
hashing and equality run as plain string operations. ``.text`` is kept for
compatibility and returns the plain ``str``. A :class:`Whitelist` holds
plain ``str`` entries, and comparing one with a canonical path is safe:
every entry is a fixpoint of canonicalization, so string equality can
never turn a deny into an allow.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union

# The longest path, in characters, that validate_raw accepts.
MAX_PATH_LEN = 4096


class PathError(ValueError):
    """Base class for all path validation failures."""


class PathTooLong(PathError):
    """Input exceeds :data:`MAX_PATH_LEN`."""


class EmbeddedNul(PathError):
    """Input contains a NUL byte.

    NUL is rejected outright rather than truncated; truncation is the
    classic NUL-byte traversal bypass.
    """


class NonCanonicalEntry(PathError):
    """A whitelist line is not already in canonical form."""

    def __init__(self, line_number: int, line: str) -> None:
        super().__init__(
            f"whitelist line {line_number} is not canonical: {line!r}"
        )
        self.line_number = line_number
        self.line = line


class BudgetExceeded(PathError):
    """An exhaustive enumeration would visit more strings than allowed."""


class RawPathString(str):
    """An untrusted path that passed the NUL and length rule: built by
    :func:`validate_raw`, or by ``RawPathString(text)``, which applies the
    rule with the same errors."""

    __slots__ = ()

    def __new__(cls, text: str) -> "RawPathString":
        return _new(cls, _checked(text))

    @property
    def text(self) -> str:
        return str(self)

    # Typed, because a validated path and a plain str would otherwise print
    # alike in logs and test failures.
    def __repr__(self) -> str:
        return f"RawPathString({str.__repr__(self)})"


# Bound once, because it is on every decision's path. ``_new(cls, text)`` is
# the trusted constructor of both path types: it skips the check that
# ``cls(text)`` does, so it is only for text that has passed that check
# already -- a line held to the NUL and length rule, or text that is
# canonical by construction, such as the stack walk's output.
_new = str.__new__


def _checked(text: str, what: str = "path") -> str:
    """``text``, held to :func:`validate_raw`'s NUL and length rule, with
    the same errors; ``what`` names the text in their messages."""
    if "\x00" in text:
        raise EmbeddedNul(f"{what} contains a NUL byte")
    if len(text) > MAX_PATH_LEN:
        raise PathTooLong(f"{what} length {len(text)} exceeds limit {MAX_PATH_LEN}")
    return text


def validate_raw(text: str) -> RawPathString:
    """Validate untrusted input and wrap it as a RawPathString.

    Raises:
        EmbeddedNul: if the text contains a NUL byte.
        PathTooLong: if the text exceeds ``MAX_PATH_LEN`` characters.
    """
    # _checked's rule, written out: every decision calls this first, and a
    # call to _checked would cost each decision a Python frame.
    if "\x00" in text:
        raise EmbeddedNul("path contains a NUL byte")
    if len(text) > MAX_PATH_LEN:
        raise PathTooLong(f"path length {len(text)} exceeds limit {MAX_PATH_LEN}")
    return _new(RawPathString, text)


def is_canonical_text(text: str) -> bool:
    """True iff ``text`` is a fixpoint of canonicalization.

    A string is canonical exactly when it is "/" or it is absolute, has no
    trailing separator, and every component is a non-empty name other than
    "." and "..". With a "/" appended, an empty, "." or ".." component is
    exactly an occurrence of "//", "/./" or "/../", so the check is three
    substring searches.
    """
    if text == "/":
        return True
    if not text.startswith("/") or text.endswith("/"):
        return False
    text += "/"
    return "//" not in text and "/./" not in text and "/../" not in text


class CanonicalPath(str):
    """A canonicalized absolute path: the single spelling used for matching."""

    __slots__ = ()

    def __new__(cls, text: str) -> "CanonicalPath":
        if not is_canonical_text(text):
            raise ValueError(f"not in canonical form: {text!r}")
        return _new(cls, text)

    @property
    def text(self) -> str:
        return str(self)

    @property
    def components(self) -> tuple:
        """Component names from root outward; empty for the root path."""
        if self == "/":
            return ()
        return tuple(self[1:].split("/"))

    def __repr__(self) -> str:
        return f"CanonicalPath({str.__repr__(self)})"


def numbered_paths(
    source: Union[str, Iterable[str]], kind: str
) -> Iterator[Tuple[int, str]]:
    """``(line number, checked path)`` for each line of a whitelist or
    corpus file that holds a path; ``kind`` names the file in errors.

    ``source`` is the whole text or an iterable of lines, such as an open
    file. A line ends at "\\n" only, as on ``--stdin``: a "\\r" or other
    control character inside it is part of the path. A file opened in text
    mode is switched to ``newline="\\n"`` before it is read, so universal
    newlines cannot split a line at a "\\r". Surrounding spaces, tabs and
    line endings are stripped; blank lines and "#" comments are skipped but
    counted.

    Raises:
        EmbeddedNul, PathTooLong: with ``"<kind> line N: "`` in front.
        io.UnsupportedOperation: ``source`` is a text file that has already
            been read from, so its newline mode can no longer be switched.
    """
    if isinstance(source, io.TextIOWrapper):
        source.reconfigure(newline="\n")
    lines = source.split("\n") if isinstance(source, str) else source
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip(" \t\r\n")
        if stripped and not stripped.startswith("#"):
            try:
                path = _checked(stripped)
            except (EmbeddedNul, PathTooLong) as exc:
                raise type(exc)(f"{kind} line {line_number}: {exc}") from None
            yield line_number, path


@dataclass(frozen=True)
class Whitelist:
    """A deduplicated set of canonical paths, held as plain ``str``.
    Default-deny."""

    entries: frozenset = frozenset()

