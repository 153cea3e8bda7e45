"""Independent canonicalization oracle built on fixpoint string rewriting.

This module must share no tokenizer or stack code with ``canonical``; its
whole value is that it reaches the same answers by a structurally different
route, so any divergence between the two is a bug in one of them.

The rewriting runs in strata: each rule runs to exhaustion before the next
one starts, and no later rule can create a redex of an earlier one, so the
result is a normal form of the whole rule set. Collapsing "//" may create
"/./" or "/../", which later strata remove. The later rules run only once
no "//" is left, so the single "/" each leaves in place of its redex has no
"/" beside it and cannot form a "//". Cancelling "/T/../" cannot create
"/./" either: that would need a "." component beside the cancelled pair,
and no "/./" is left by then.
"""

from __future__ import annotations

import re

from .model import CanonicalPath, RawPathString, _new, is_canonical_text

# "/T/../" where T is any component other than "." and "..".
_POP_PAIR = re.compile(r"/(?!\.{1,2}/)[^/]+/\.\./")


def rewrite_canonicalize(raw: RawPathString) -> CanonicalPath:
    """Canonicalize by rewriting to a fixpoint.

    The text is anchored with a leading and a trailing "/". Then each rule
    in turn is applied until it no longer matches: collapse "//", drop
    "/./", then absorb a leading "/../" or cancel "/T/../" for every
    ordinary component T. Every rule strictly shrinks the string, so each
    stratum terminates. Finally the trailing "/" is stripped unless the
    result is the root itself, and the result is checked to be canonical.

    Raises:
        TypeError: ``raw`` is not a RawPathString.
        AssertionError: "/../" remains but no rule applies to it.
        ValueError: the result is not in canonical form.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    text = "/" + raw + "/"
    while "//" in text:
        text = text.replace("//", "/")
    while "/./" in text:
        text = text.replace("/./", "/")
    while "/../" in text:
        if text.startswith("/../"):
            text = text[3:]
            continue
        reduced = _POP_PAIR.sub("/", text)
        if reduced == text:
            raise AssertionError(f"no rule rewrites {text!r}")
        text = reduced
    if len(text) > 1:
        text = text[:-1]
    if not is_canonical_text(text):
        raise ValueError(f"not in canonical form: {text!r}")
    return _new(CanonicalPath, text)
