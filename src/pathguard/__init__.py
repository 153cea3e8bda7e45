"""Lexical path canonicalization with whitelist-based traversal prevention.

The core is a small stack algorithm that reduces any untrusted path string
to a single canonical absolute spelling, paired with exact-match
whitelisting (default-deny). Around it sit an independent string-rewriting
oracle, a port of the flawed legacy ``de_dotdot`` sanitizer for
differential comparison, and an exhaustive bounded-alphabet verifier.
"""

from .algebra import (
    are_equivalent,
    contains_component,
    is_char_prefix,
    is_component_prefix,
)
from .baseline import (
    DivergenceRecord,
    de_dotdot,
    load_corpus,
    run_differential,
)
from .canonical import (
    CanonicalizationTrace,
    TraceSnapshot,
    canonicalize,
    canonicalize_jailed,
    canonicalize_traced,
    sanitize,
    stack_to_string,
    tokenize,
)
from .model import (
    DEFAULT_LIMITS,
    BudgetExceeded,
    CanonicalPath,
    ComponentStack,
    EmbeddedNul,
    InvalidName,
    Limits,
    NonCanonicalEntry,
    PathError,
    PathToken,
    PathTooLong,
    RawPathString,
    TokenKind,
    Whitelist,
    is_canonical_text,
    load_whitelist,
    validate_raw,
)
from .oracle import rewrite_canonicalize
from .verifier import (
    DEFAULT_ALPHABET,
    DEFAULT_BUDGET,
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
    "CanonicalizationTrace",
    "ComponentStack",
    "DEFAULT_ALPHABET",
    "DEFAULT_BUDGET",
    "DEFAULT_LIMITS",
    "DivergenceRecord",
    "EmbeddedNul",
    "EnumerationSpec",
    "InvalidName",
    "Limits",
    "NonCanonicalEntry",
    "PathError",
    "PathToken",
    "PathTooLong",
    "RawPathString",
    "ResidueViolation",
    "TokenKind",
    "TraceSnapshot",
    "Whitelist",
    "are_equivalent",
    "canonicalize",
    "canonicalize_jailed",
    "canonicalize_traced",
    "contains_component",
    "de_dotdot",
    "enumerate_all",
    "is_canonical_text",
    "is_char_prefix",
    "is_component_prefix",
    "load_corpus",
    "load_whitelist",
    "preimages_of",
    "rewrite_canonicalize",
    "run_differential",
    "sanitize",
    "stack_to_string",
    "tokenize",
    "total_count",
    "validate_raw",
    "verify_no_residue",
]
