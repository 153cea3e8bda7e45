"""Lexical path canonicalization with whitelist-based traversal prevention.

The core is a small stack algorithm that reduces any untrusted path string
to a single canonical absolute spelling, paired with exact-match
whitelisting (default-deny). Around it sit an independent string-rewriting
oracle, a port of the flawed legacy ``de_dotdot`` sanitizer for
differential comparison, and an exhaustive bounded-alphabet verifier.
"""

from .baseline import (
    DivergenceRecord,
    de_dotdot,
    load_corpus,
    run_differential,
)
from .canonical import (
    canonicalize,
    canonicalize_traced,
    load_whitelist,
    sanitize,
    underflows,
)
from .model import (
    BudgetExceeded,
    CanonicalPath,
    EmbeddedNul,
    NonCanonicalEntry,
    PathError,
    PathTooLong,
    RawPathString,
    Whitelist,
    is_canonical_text,
    validate_raw,
)
from .oracle import rewrite_canonicalize
from .verifier import (
    DEFAULT_ALPHABET,
    EnumerationSpec,
    ResidueViolation,
    enumerate_all,
    preimages_of,
    total_count,
    verify_no_residue,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CanonicalPath",
    "DEFAULT_ALPHABET",
    "DivergenceRecord",
    "EmbeddedNul",
    "EnumerationSpec",
    "NonCanonicalEntry",
    "PathError",
    "PathTooLong",
    "RawPathString",
    "ResidueViolation",
    "Whitelist",
    "canonicalize",
    "canonicalize_traced",
    "de_dotdot",
    "enumerate_all",
    "is_canonical_text",
    "load_corpus",
    "load_whitelist",
    "preimages_of",
    "rewrite_canonicalize",
    "run_differential",
    "sanitize",
    "total_count",
    "underflows",
    "validate_raw",
    "verify_no_residue",
]
