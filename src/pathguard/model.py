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
compatibility and returns the plain ``str``. A :class:`Whitelist` is a
``frozenset`` of plain ``str``, and testing a canonical path against it
is safe: every entry is a fixpoint of canonicalization, so string
equality can never turn a deny into an allow.
"""

from __future__ import annotations

import io
from typing import List, TextIO

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

    # The plain ``str``, read by a C-level getter: no Python frame.
    text = property(str.__str__)

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


def _all_checked(texts: List[str]) -> bool:
    """True iff every text passes :func:`_checked`'s rule: one NUL search
    over the texts joined and one length test, no Python call per text."""
    longest = max(map(len, texts), default=0)
    return "\x00" not in "".join(texts) and longest <= MAX_PATH_LEN


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


def _residue(text: str) -> List[str]:
    """The flaws that keep ``text`` from being canonical, in this order:
    "missing-leading-slash", "trailing-slash" (on any text but "/"), then
    each of "//", "/./" and "/../" in the text closed by a "/" (appended
    unless it ends with one). Empty exactly when the text is canonical: "/",
    or absolute with no trailing "/" and no component "", "." or "..",
    which, closed by a "/", are exactly "//", "/./" and "/../"."""
    # Written out, not as a loop or a comprehension: CanonicalPath() runs it.
    flaws = []
    if not text or text[0] != "/":
        flaws.append("missing-leading-slash")
    if not text or text[-1] != "/":
        text += "/"
    elif text != "/":
        flaws.append("trailing-slash")
    if "//" in text:
        flaws.append("//")
    if "/./" in text:
        flaws.append("/./")
    if "/../" in text:
        flaws.append("/../")
    return flaws


def is_canonical_text(text: str) -> bool:
    """True iff ``text`` is canonical: it has no :func:`_residue` flaw."""
    return not _residue(text)


def _all_canonical(texts: List[str]) -> bool:
    """``all(map(is_canonical_text, texts))``: no text has a :func:`_residue`
    flaw. Checked in a fixed number of C-level passes over the list and one
    joined string, with no Python call per text.

    Each text is framed as ``"\\0" + text + "/"``, closed by the next
    frame's NUL. Texts that hold a NUL are checked one by one; without
    one, every search below stays inside one frame. A frame starts with
    ``"\\0/"`` exactly when its text starts with "/" or is empty. With the
    "/" appended, the root is the one canonical text that holds a "//",
    exactly one; any other text that starts with "/" holds a "//", "/./"
    or "/../" exactly when it is not canonical. So the "//" count must
    equal the number of roots. Roots are counted as list items: a count of
    framed roots such as ``"\\0//\\0"`` does not overlap, and would miss the
    second of two adjacent roots.
    """
    framed = "/\0".join(["", *texts, ""])
    n = len(texts)
    if framed.count("\0") != n + 1:
        # A text holds a NUL, which no frame could tell from its own.
        return all(map(is_canonical_text, texts))
    return (
        framed.count("\0/") == n
        and "" not in texts
        and framed.count("//") == texts.count("/")
        and "/./" not in framed
        and "/../" not in framed
    )


class CanonicalPath(str):
    """A canonicalized absolute path: the single spelling used for matching."""

    __slots__ = ()

    def __new__(cls, text: str) -> "CanonicalPath":
        if _residue(text):
            raise ValueError(f"not in canonical form: {text!r}")
        return _new(cls, text)

    # The plain ``str``, read by a C-level getter: no Python frame.
    text = property(str.__str__)

    def __repr__(self) -> str:
        return f"CanonicalPath({str.__repr__(self)})"


def _read_paths(
    source: str | TextIO, kind: str, canonical: bool = False
) -> List[str]:
    """The paths of a whitelist or corpus file, in order, held to the NUL
    and length rule and, if ``canonical`` is set, to be canonical.

    ``source`` is the whole text or a text file object, which is read
    whole; a text-mode file (``io.TextIOWrapper``) is first switched to
    ``newline="\\n"``. Any other source, such as a list of lines, raises.
    The load holds the text and one list of its lines. Lines end at "\\n"
    only, as on ``--stdin``. Surrounding spaces, tabs and line endings are
    stripped; blank lines and "#" comments are skipped but counted. Each
    check runs once over all the paths; the lines are walked one by one
    only to name the first that fails.

    Raises:
        EmbeddedNul, PathTooLong: with ``"<kind> line N: "`` in front.
        NonCanonicalEntry: ``canonical`` is set and a line is not canonical.
        io.UnsupportedOperation: ``source`` is a text file already read from.
    """
    if isinstance(source, io.TextIOWrapper):
        source.reconfigure(newline="\n")
    lines = (source if isinstance(source, str) else source.read()).split("\n")
    paths = [p for line in lines if (p := line.strip(" \t\r\n")) and p[0] != "#"]
    if _all_checked(paths) and (not canonical or _all_canonical(paths)):
        return paths
    for line_number, line in enumerate(lines, start=1):
        path = line.strip(" \t\r\n")
        if path and not path.startswith("#"):
            _checked(path, f"{kind} line {line_number}: path")
            if canonical and not is_canonical_text(path):
                raise NonCanonicalEntry(line_number, path)
    return paths


class Whitelist(frozenset):
    """A deduplicated set of canonical paths: a ``frozenset`` of plain
    ``str``, so a lookup is a membership test on the whitelist itself.
    Default-deny and read-only; it compares, copies and pickles as a
    frozenset does, and a copy is still a Whitelist."""

    __slots__ = ()

    @property
    def entries(self) -> Whitelist:
        """The whitelist itself, kept for readers of the older wrapper."""
        return self
