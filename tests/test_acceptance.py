"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings. The full default run stays in interactive budgets; the
``overnight`` marker covers the length-10 preimage sweep.
"""

import random
import time

import pytest

from invariant_checks import (
    ORACLE,
    findings,
    mutate_preserving_target,
    random_canonical,
    trace_invariant_holds,
)
from pathguard import (
    CanonicalPath,
    EnumerationSpec,
    PathTooLong,
    RawPathString,
    Whitelist,
    canonicalize,
    is_canonical_text,
    load_corpus,
    preimages_of,
    rewrite_canonicalize,
    run_differential,
    sanitize,
    total_count,
    validate_raw,
    verify_no_residue,
)
from pathguard import verifier
from pathguard.verifier import _sharded

# Exhaustive preimage count of "/a/b/c" over alphabet "/.abc", length <= 8,
# computed once by brute force and pinned as a regression value. The
# published figure of 1142 used a different tool-specific accounting at
# length <= 12 and is deliberately not asserted.
PINNED_PREIMAGE_COUNT = 60

FLAW_CORPUS = "\n".join(
    ["# pinned flaw corpus", "/etc../", "/etc/passwd", "//a//b", "../x", "/a/b"]
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _check(fails):
    """A verifier block check: the strings on which ``fails`` is true."""
    return lambda prefix, suffixes: list(filter(fails, map(prefix.__add__, suffixes)))


def _lengthens(text):
    # On the absolute input "/" + text.
    absolute = RawPathString("/" + text)
    return len(canonicalize(absolute)) > len(absolute)


def test_criterion_1_oracle_equivalence():
    # Every string over "/.ab" up to length 10, built with the checked
    # RawPathString(text) and canonicalized, against the oracle. The one
    # sweep of that space (invariant_checks.sweep) serves this test and the
    # fast-path gate, whichever runs first pays for it; run alone, this
    # test sweeps the whole space.
    started = time.monotonic()
    checked = total_count(EnumerationSpec(alphabet="/.ab", max_len=10))
    mismatches = len(findings("/.ab", ORACLE))
    elapsed = time.monotonic() - started
    report(
        "criterion 1 (oracle equivalence)",
        checked == 1_398_101 and mismatches == 0,
        f"{mismatches} mismatches over {checked} strings in {elapsed:.1f}s",
    )


def test_criterion_2_no_residue_sweep():
    started = time.monotonic()
    violations = verify_no_residue(EnumerationSpec())
    elapsed = time.monotonic() - started
    report(
        "criterion 2 (no-residue sweep)",
        violations == [],
        f"{len(violations)} violations over 488281 strings in {elapsed:.1f}s",
    )


def test_criterion_3_preimage_membership():
    target = CanonicalPath("/a/b/c")
    hits = preimages_of(EnumerationSpec(), target)
    listed_within_budget = ["//a//b/c", "a/.//b/c", "../a/b/c", "./a/b/c"]
    missing = [p for p in listed_within_budget if p not in hits]
    both_ok = all(
        canonicalize(RawPathString(h)).text == target.text
        and rewrite_canonicalize(RawPathString(h)).text == target.text
        for h in hits
    )
    report(
        "criterion 3 (preimage membership)",
        not missing and both_ok and len(hits) == PINNED_PREIMAGE_COUNT,
        f"{len(hits)} preimages (pinned {PINNED_PREIMAGE_COUNT}), "
        f"missing={missing}",
    )


@pytest.mark.overnight
def test_criterion_3_overnight_length_10_preimages(monkeypatch):
    # 12,207,031 strings: over the fixed sweep limit, which only this test
    # raises.
    monkeypatch.setattr(verifier, "MAX_SWEEP", 13_000_000)
    target = CanonicalPath("/a/b/c")
    spec = EnumerationSpec(max_len=10)
    hits = preimages_of(spec, target)
    listed = [
        "//a//b/c",
        "a/b/c////",
        "//a//b///c",
        "a/.//b/c",
        "../a/b/c",
        "./a/b/c",
    ]
    missing = [p for p in listed if p not in hits]
    report(
        "criterion 3 overnight (length-10 preimages)",
        not missing,
        f"{len(hits)} preimages, missing={missing}",
    )


def test_criterion_4_baseline_flaw_reproduction():
    corpus = load_corpus(FLAW_CORPUS)
    records = {r.input.text: r for r in run_differential(corpus)}
    etc_dots = records.get("/etc../")
    etc_passwd = records.get("/etc/passwd")
    canonical_clean = all(is_canonical_text(canonicalize(raw)) for raw in corpus)
    ok = (
        etc_dots is not None
        and ".." in etc_dots.residue_found
        and etc_passwd is not None
        and etc_passwd.bottom_up_reach
        and canonical_clean
    )
    report(
        "criterion 4 (baseline flaw reproduction)",
        ok,
        f"records for {sorted(records)}; canonicalizer residue-free="
        f"{canonical_clean}",
    )


def test_criterion_5a_length_monotonicity():
    # "/" + every string over "/.ab" up to length 9, sharded as criterion 1.
    spec = EnumerationSpec(alphabet="/.ab", max_len=9)
    checked = total_count(spec)
    exceptions = len(_sharded(spec, _check(_lengthens)))
    report(
        "criterion 5a (length monotonicity, absolute inputs)",
        checked == 349_525 and exceptions == 0,
        f"{exceptions} exceptions over {checked} absolute strings",
    )


def test_criterion_5b_trace_invariant():
    spec = EnumerationSpec(alphabet="/.ab", max_len=8)
    checked = total_count(spec)
    broken = _check(lambda text: not trace_invariant_holds(text))
    failures = len(_sharded(spec, broken))
    report(
        "criterion 5b (trace invariant)",
        checked == 87_381 and failures == 0,
        f"{failures} failures over {checked} strings",
    )


def test_criterion_5c_roundtrip():
    rng = random.Random(20260825)
    mutated_failures = 0
    for _ in range(10_000):
        target = random_canonical(rng)
        mutated = mutate_preserving_target(target, rng)
        whitelist = Whitelist(frozenset({CanonicalPath(target)}))
        if not sanitize(validate_raw(mutated), whitelist):
            mutated_failures += 1
    cross_failures = 0
    for _ in range(10_000):
        text = "".join(
            rng.choice("/.ab") for _ in range(rng.randrange(0, 13))
        )
        raw = validate_raw(text)
        actual = rewrite_canonicalize(raw).text
        target = random_canonical(rng)
        if target == actual:
            target = "/somewhere/else"
        whitelist = Whitelist(frozenset({CanonicalPath(target)}))
        if sanitize(raw, whitelist):
            cross_failures += 1
    report(
        "criterion 5c (round-trip, 10000 pairs each way)",
        mutated_failures == 0 and cross_failures == 0,
        f"{mutated_failures} mutated-pair failures, "
        f"{cross_failures} cross-pair failures",
    )


def test_criterion_6_bounds_and_totality():
    accepted = canonicalize(validate_raw("a" * 4096)).text == "/" + "a" * 4096
    rejected = False
    try:
        validate_raw("a" * 4097)
    except PathTooLong:
        rejected = True
    slashes = validate_raw("/" * 4096)
    best = min(
        _timed(lambda: canonicalize(slashes)) for _ in range(5)
    )
    root_ok = canonicalize(slashes).text == "/"
    report(
        "criterion 6 (bounds and totality)",
        accepted and rejected and root_ok and best < 0.010,
        f"4096 accepted={accepted}, 4097 rejected={rejected}, "
        f"all-slash -> '/' in {best * 1000:.2f}ms",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_7_worked_examples():
    a = canonicalize(
        validate_raw("/home/NonexistentUserFolder/../ActualUserFolder/")
    ).text
    b = canonicalize(validate_raw("/etc/passwd/./")).text
    report(
        "criterion 7 (worked examples)",
        a == "/home/ActualUserFolder" and b == "/etc/passwd",
        f"got {a!r} and {b!r}",
    )
