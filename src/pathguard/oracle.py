"""Independent canonicalization oracle built on fixpoint string rewriting.

This module must share no tokenizer or stack code with ``canonical``; its
whole value is that it reaches the same answers by a structurally different
route, so any divergence between the two is a bug in one of them.

The rewriting runs in strata: each rule runs to exhaustion before the next
one starts, and no later rule can create a redex of an earlier one, so the
result is a normal form of the whole rule set. Collapsing "//" may create
"/./" or "/../", which later strata remove. The later rules run only once
no "//" is left, so the single "/" each leaves in place of its redex has no
"/" beside it to form a "//", and a "." component beside it would already
have formed a "/./".

The last stratum rewrites the leftmost "/../". At position 0 it is
absorbed. Anywhere else the component in front of it is a name: not empty,
as no "//" is left; not ".", as no "/./" is left; not "..", as then a
"/../" would start further left. So "/T/../" always applies, and no input
leaves a "/../" that no rule rewrites. After the cut a new "/../" can start
no earlier than the "/" before the cancelled name, so the search resumes
there. This is one reduction order of the same rules: same normal form.
"""

from __future__ import annotations

from .model import CanonicalPath, RawPathString, _new


def rewrite_canonicalize(raw: RawPathString) -> CanonicalPath:
    """Canonicalize by rewriting to a fixpoint.

    The text is anchored with a leading and a trailing "/", and each rule
    in turn runs until it no longer matches: collapse "//", drop "/./",
    then absorb or cancel the leftmost "/../". Every rule shrinks the
    string, so each stratum ends. The anchored text is then checked to
    hold no "//", "/./" or "/../", so that the result is canonical, and its
    trailing "/" is stripped unless the result is the root.

    Raises:
        TypeError: ``raw`` is not a RawPathString.
        ValueError: the result is not in canonical form.
    """
    if not isinstance(raw, RawPathString):
        raise TypeError(f"expected a RawPathString, got {type(raw).__name__}")
    text = "/" + raw + "/"
    while "//" in text:
        text = text.replace("//", "/")
    while "/./" in text:
        text = text.replace("/./", "/")
    # Most texts hold no "/../", and "in" costs less than a find() call.
    if "/../" in text:
        at = text.find("/../")
        while at >= 0:
            start = text.rfind("/", 0, at) if at else 0
            text = text[:start] + text[at + 3 :]
            at = text.find("/../", start)
    # The anchored text starts and ends with "/". If it holds no "//", "/./"
    # or "/../", it strips to a canonical result: these are the searches of
    # model._residue on a text already closed by a "/", made here without a
    # call and without sharing its code.
    if "//" in text or "/./" in text or "/../" in text:
        raise ValueError(f"not in canonical form: {text[:-1]!r}")
    if len(text) > 1:
        text = text[:-1]
    return _new(CanonicalPath, text)
