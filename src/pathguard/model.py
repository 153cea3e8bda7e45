"""Domain types, validation limits, and the whitelist store.

Everything here is immutable after construction and safe to share across
threads. Paths are treated as opaque character sequences: no Unicode
normalization, no filesystem access.

The two path types, :class:`RawPathString` and :class:`CanonicalPath`, are
``str`` subclasses with no instance attributes, so hashing and equality run
as plain string operations and a whitelist lookup is a set lookup of a
string. ``.text`` is kept for compatibility and returns the plain ``str``.
Comparing a canonical path with a plain string is safe: a plain string
equal to a whitelist entry is that entry's spelling, and every entry is a
fixpoint of canonicalization, so string equality can never turn a deny
into an allow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple, Union


class PathError(ValueError):
    """Base class for all path validation failures."""


class PathTooLong(PathError):
    """Input exceeds the configured maximum path length."""


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


class InvalidName(PathError):
    """A component name is empty or contains a separator."""


class BudgetExceeded(PathError):
    """An exhaustive enumeration would visit more strings than allowed."""


@dataclass(frozen=True)
class Limits:
    """Validation limits for untrusted path input."""

    max_path_len: int = 4096

    def __post_init__(self) -> None:
        if self.max_path_len <= 0:
            raise ValueError("max_path_len must be positive")


DEFAULT_LIMITS = Limits()


class RawPathString(str):
    """An untrusted path string that passed basic input validation.

    Construct through :func:`validate_raw`; direct construction skips the
    length and NUL checks and is reserved for internal callers that have
    already validated the text.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        return str(self)

    # Typed, because a validated path and a plain str would otherwise print
    # alike in logs and test failures.
    def __repr__(self) -> str:
        return f"RawPathString({str.__repr__(self)})"


# Bound once, because it is on every decision's path. ``_new(CanonicalPath,
# text)`` is CanonicalPath's trusted constructor: it skips the rescan that
# ``CanonicalPath(text)`` does, so it is only for text that is canonical by
# construction -- the stack walk's output, or a line that has just passed
# :func:`is_canonical_text`.
_new = str.__new__


def validate_raw(text: str, limits: Limits = DEFAULT_LIMITS) -> RawPathString:
    """Validate untrusted input and wrap it as a RawPathString.

    Raises:
        EmbeddedNul: if the text contains a NUL byte.
        PathTooLong: if the text exceeds ``limits.max_path_len``.
    """
    if "\x00" in text:
        raise EmbeddedNul("path contains a NUL byte")
    if len(text) > limits.max_path_len:
        raise PathTooLong(
            f"path length {len(text)} exceeds limit {limits.max_path_len}"
        )
    return _new(RawPathString, text)


class TokenKind(enum.Enum):
    NORMAL = "normal"
    DOT = "dot"
    DOTDOT = "dotdot"


@dataclass(frozen=True)
class PathToken:
    """One tokenized path component: a directory name, ".", or "..". """

    text: str
    kind: TokenKind

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("token text must be non-empty")
        if "/" in self.text:
            raise ValueError("token text must not contain '/'")
        if self.kind is not _classify(self.text):
            raise ValueError(
                f"token kind {self.kind} does not match text {self.text!r}"
            )

    @classmethod
    def from_text(cls, text: str) -> "PathToken":
        return cls(text, _classify(text))


def _classify(text: str) -> TokenKind:
    if text == ".":
        return TokenKind.DOT
    if text == "..":
        return TokenKind.DOTDOT
    return TokenKind.NORMAL


@dataclass(frozen=True)
class ComponentStack:
    """The canonicalizer's stack of Normal components, bottom to top.

    "." and ".." tokens are consumed by the algorithm and never stored.
    """

    items: tuple = ()

    def __post_init__(self) -> None:
        for item in self.items:
            if item.kind is not TokenKind.NORMAL:
                raise ValueError(
                    f"stack may only hold Normal tokens, got {item.text!r}"
                )


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


def numbered_lines(source: Union[str, Iterable[str]]) -> Iterator[Tuple[int, str]]:
    """``(line number, stripped line)`` for each line of a whitelist or
    corpus file that holds a path.

    ``source`` is the whole text or an iterable of lines. Surrounding
    horizontal whitespace and line endings are stripped; blank lines and
    "#" comments are skipped but still counted.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip(" \t\r\n")
        if stripped and not stripped.startswith("#"):
            yield line_number, stripped


@dataclass(frozen=True)
class Whitelist:
    """A validated, deduplicated set of canonical paths. Default-deny."""

    entries: frozenset = frozenset()


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
            from .canonical import canonicalize

            entries.add(canonicalize(raw))
        else:
            if not is_canonical_text(stripped):
                raise NonCanonicalEntry(line_number, stripped)
            entries.add(_new(CanonicalPath, stripped))
    return Whitelist(frozenset(entries))
