import random

from hypothesis import given, settings, strategies as st

from invariant_checks import (
    mutate_preserving_target,
    random_canonical,
    trace_invariant_holds,
)
from pathguard import (
    CanonicalPath,
    RawPathString,
    Whitelist,
    canonicalize,
    canonicalize_traced,
    is_canonical_text,
    rewrite_canonicalize,
    sanitize,
    underflows,
    validate_raw,
)
from pathguard.canonical import _canonical_texts
from spec import walk

# Small alphabets keep the interesting collisions ("." vs ".." vs names)
# dense; a wide-unicode strategy covers the arbitrary-bytes claim.
path_texts = st.text(alphabet="/.ab", max_size=24)
wide_texts = st.text(
    alphabet=st.characters(blacklist_characters="\x00"), max_size=40
)
# What the exhaustive "/.ab" sweeps never reach, for the fast path, which
# hands the text to normpath's C core as wchar_t: non-ASCII, the lone
# surrogates that surrogateescape makes of undecodable bytes, astral
# characters, mixed with runs of "/", "." and "..".
fast_path_texts = st.lists(
    st.one_of(
        st.sampled_from(["/", "//", "///", ".", "..", "...", "/./", "/../"]),
        st.characters(exclude_characters="\x00"),
        st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=30,
).map("".join)


@given(path_texts)
def test_output_is_canonical_fixpoint(text):
    out = canonicalize(validate_raw(text))
    assert is_canonical_text(out.text)
    assert canonicalize(validate_raw(out.text)) == out


@given(wide_texts)
def test_output_is_canonical_on_arbitrary_text(text):
    out = canonicalize(validate_raw(text))
    assert is_canonical_text(out.text)


@given(path_texts)
def test_oracle_equivalence(text):
    raw = validate_raw(text)
    assert canonicalize(raw) == rewrite_canonicalize(raw)


@given(wide_texts)
def test_oracle_equivalence_on_arbitrary_text(text):
    raw = validate_raw(text)
    assert canonicalize(raw) == rewrite_canonicalize(raw)


@given(fast_path_texts)
def test_fast_path_equals_the_walk_on_arbitrary_text(text):
    raw = validate_raw(text)
    stack, ignored = walk(raw)
    walked = "/" + "/".join(stack)
    assert canonicalize(raw) == walked
    assert sanitize(raw, (walked,))
    assert list(_canonical_texts((raw,))) == [walked]
    assert underflows(raw) == ignored


@given(path_texts)
def test_length_monotone_for_absolute_inputs(text):
    raw = validate_raw("/" + text)
    assert len(canonicalize(raw).text) <= len(raw.text)


@given(path_texts)
def test_token_count_bound(text):
    # One snapshot per non-empty part; those fit in ceil(L/2) + 1.
    _, trace = canonicalize_traced(validate_raw(text))
    assert len(trace) <= (len(text) + 1) // 2 + 1


@given(path_texts)
def test_trace_invariant(text):
    assert trace_invariant_holds(text)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200)
def test_roundtrip_mutations_stay_whitelisted(seed):
    rng = random.Random(seed)
    target = random_canonical(rng)
    mutated = mutate_preserving_target(target, rng)
    whitelist = Whitelist(frozenset({CanonicalPath(target)}))
    assert sanitize(validate_raw(mutated), whitelist)


@given(path_texts, st.integers(min_value=0, max_value=2**32 - 1))
def test_distinct_canonical_forms_are_denied(text, seed):
    rng = random.Random(seed)
    raw = validate_raw(text)
    actual = rewrite_canonicalize(raw).text
    target = random_canonical(rng)
    if target == actual:
        target = "/completely/elsewhere"
    whitelist = Whitelist(frozenset({CanonicalPath(target)}))
    assert not sanitize(raw, whitelist)


@given(wide_texts, wide_texts)
def test_whitelist_membership_is_exact(t1, t2):
    p = canonicalize(RawPathString(t1))
    q = canonicalize(RawPathString(t2))
    whitelist = Whitelist(frozenset({p}))
    assert sanitize(RawPathString(t2), whitelist) == (p.text == q.text)
