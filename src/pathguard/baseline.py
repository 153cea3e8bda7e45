"""Port of the thttpd/mini_httpd ``de_dotdot`` routine and a differential runner.

``de_dotdot`` is transcribed from the upstream ACME Labs C source (the
routine shared by thttpd and mini_httpd) and deliberately preserves its
documented semantic flaws: "/etc../" passes through untouched, and absolute
paths are never questioned, so bottom-up reads like "/etc/passwd" sail
through (the CVE-2018-18778 class). The differential runner compares it
against the stack canonicalizer to surface exactly those gaps.

Do not "fix" this module; its purpose is demonstrating someone else's bug.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, TextIO, Tuple

from .canonical import canonicalize
from .model import CanonicalPath, RawPathString, _new, _read_paths

_RESIDUE_SUBSTRINGS = ("..", "//", "/./", "/../")

# Targets the upstream servers meant to blacklist; an absolute baseline
# output reaching one of these demonstrates the bottom-up traversal flaw.
SENSITIVE_PATHS = frozenset({"/etc/passwd", "/etc/shadow"})
SENSITIVE_NAMES = frozenset({".htpasswd"})


def de_dotdot(raw: RawPathString) -> str:
    """Faithful port of the upstream traversal-character remover.

    Behavior is pinned byte-for-byte by golden snapshot tests taken at port
    time; any edit that changes an output is a porting error.
    """
    file = raw.text

    # Collapse any multiple / sequences.
    while (i := file.find("//")) != -1:
        j = i + 2
        while j < len(file) and file[j] == "/":
            j += 1
        file = file[: i + 1] + file[j:]

    # Remove leading ./ and any /./ sequences.
    while file.startswith("./"):
        file = file[2:]
    while (i := file.find("/./")) != -1:
        file = file[:i] + file[i + 2 :]

    # Alternate between removing leading ../ and squashing xxx/../ pairs.
    while True:
        while file.startswith("../"):
            file = file[3:]
        i = file.find("/../")
        if i == -1:
            break
        j = i - 1
        while j >= 0 and file[j] != "/":
            j -= 1
        file = file[: j + 1] + file[i + 4 :]

    # Also elide any xxx/.. at the end.
    while len(file) > 3 and file.endswith("/.."):
        i = len(file) - 3
        j = i - 1
        while j >= 0 and file[j] != "/":
            j -= 1
        if j < 0:
            break
        file = file[:j]

    return file


class DivergenceRecord(NamedTuple):
    """One input where the legacy baseline and the canonicalizer disagree."""

    input: RawPathString
    baseline_output: str
    canonical_output: CanonicalPath
    residue_found: Tuple[str, ...]
    bottom_up_reach: bool


def _residue_in(text: str) -> Tuple[str, ...]:
    return tuple(s for s in _RESIDUE_SUBSTRINGS if s in text)


def run_differential(corpus: Sequence[RawPathString]) -> List[DivergenceRecord]:
    """Run both implementations over a corpus and report the gaps.

    A record is emitted when the baseline output differs from the
    canonicalizer's (leading-"/" root-anchoring on relative inputs is
    discounted so purely representational differences don't count), when
    traversal residue survives in the baseline output, or when the baseline
    waves through an absolute path that reaches one of SENSITIVE_PATHS or
    a component in SENSITIVE_NAMES.
    Output order matches corpus order.
    """
    records: List[DivergenceRecord] = []
    for raw in corpus:
        baseline = de_dotdot(raw)
        canonical = canonicalize(raw)
        expected = canonical.text
        if not raw.text.startswith("/"):
            expected = expected[1:]
        residue = _residue_in(baseline)
        reach = baseline.startswith("/") and (
            baseline in SENSITIVE_PATHS
            or any(
                part in SENSITIVE_NAMES for part in baseline.split("/") if part
            )
        )
        if baseline != expected or residue or reach:
            records.append(
                DivergenceRecord(raw, baseline, canonical, residue, reach)
            )
    return records


def load_corpus(source: str | TextIO) -> List[RawPathString]:
    """Load raw test paths from the whole text or a text file, read whole
    and split into lines as ``model._read_paths`` states: one per line, "#"
    comments and blanks skipped, order and duplicates kept. A line that
    fails validation raises EmbeddedNul or PathTooLong naming the line."""
    return [_new(RawPathString, text) for text in _read_paths(source, "corpus")]
