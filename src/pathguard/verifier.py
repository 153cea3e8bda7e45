"""Exhaustive desk-scale verification over bounded alphabets.

Instead of symbolic execution, every string over a small alphabet up to a
length bound is enumerated in shortlex order and pushed through the
canonicalizer: the residue sweep certifies that no traversal characters
survive in any output, and the preimage search lists every input that
reaches a chosen canonical target (cross-checked against the independent
rewriting oracle).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List

from .canonical import canonicalize
from .model import BudgetExceeded, CanonicalPath, RawPathString, _new
from .oracle import rewrite_canonicalize

DEFAULT_ALPHABET = "/.abc"
DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class EnumerationSpec:
    """Alphabet (in enumeration order) and maximum string length."""

    alphabet: str = DEFAULT_ALPHABET
    max_len: int = 8

    def __post_init__(self) -> None:
        if "/" not in self.alphabet or "." not in self.alphabet:
            raise ValueError("alphabet must contain '/' and '.'")
        if "\x00" in self.alphabet:
            raise ValueError("alphabet must not contain NUL")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet must not repeat characters")
        if self.max_len < 0:
            raise ValueError("max_len must be non-negative")


@dataclass(frozen=True)
class ResidueViolation:
    """A canonicalizer output that still contains traversal residue."""

    input: str
    output: str
    offending: str


def total_count(spec: EnumerationSpec) -> int:
    """Number of strings of length 0..max_len over the alphabet."""
    return sum(len(spec.alphabet) ** k for k in range(spec.max_len + 1))


def enumerate_all(
    spec: EnumerationSpec,
    visit: Callable[[str], None],
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Visit every string over the alphabet, shortlex order, exactly once.

    Returns the count visited.

    Raises:
        BudgetExceeded: the closed-form count exceeds ``budget``.
    """
    count = total_count(spec)
    if count > budget:
        raise BudgetExceeded(
            f"enumeration of {count} strings exceeds budget {budget}"
        )
    for length in range(spec.max_len + 1):
        for chars in itertools.product(spec.alphabet, repeat=length):
            visit("".join(chars))
    return count


def verify_no_residue(
    spec: EnumerationSpec, *, budget: int = DEFAULT_BUDGET
) -> List[ResidueViolation]:
    """Sweep the whole input space; an empty result certifies no-residue.

    Every enumerated string is canonicalized and the output checked for
    "//", "/./", "/../", a missing leading "/", or a non-root trailing "/".
    """
    violations: List[ResidueViolation] = []

    def check(text: str) -> None:
        out = canonicalize(_new(RawPathString, text))
        if not out.startswith("/"):
            violations.append(ResidueViolation(text, out, "missing-leading-slash"))
        if out != "/" and out.endswith("/"):
            violations.append(ResidueViolation(text, out, "trailing-slash"))
        for bad in ("//", "/./", "/../"):
            if bad in out:
                violations.append(ResidueViolation(text, out, bad))

    enumerate_all(spec, check, budget=budget)
    return violations


def preimages_of(
    spec: EnumerationSpec,
    target: CanonicalPath,
    *,
    budget: int = DEFAULT_BUDGET,
) -> List[str]:
    """All enumerated strings that canonicalize to ``target``, shortlex order.

    Every hit is cross-checked against the rewriting oracle; a disagreement
    means one of the two implementations is broken and raises immediately.
    """
    hits: List[str] = []

    def check(text: str) -> None:
        raw = _new(RawPathString, text)
        if canonicalize(raw) == target:
            if rewrite_canonicalize(raw) != target:
                raise AssertionError(
                    f"oracle divergence on {text!r}: stack says {target.text!r}"
                )
            hits.append(text)

    enumerate_all(spec, check, budget=budget)
    return hits
