import os
import sys
from types import BuiltinFunctionType

import pytest

import invariant_checks
import pathguard
from invariant_checks import (
    FAST_PATH,
    FAST_PATH_SPACES,
    ORACLE,
    fast_path_check,
    findings,
)
from pathguard import (
    EmbeddedNul,
    EnumerationSpec,
    canonicalize,
    canonicalize_traced,
    enumerate_all,
    is_canonical_text,
    load_whitelist,
    sanitize,
    total_count,
    underflows,
    validate_raw,
)
from pathguard import canonical, cli
from pathguard.verifier import _sharded


class TestWalkParts:
    """The walk's parts, seen through the trace: one snapshot per part."""

    def test_repeated_separators(self):
        _, trace = canonicalize_traced(validate_raw("//a//b/c"))
        assert trace == (("a",), ("a", "b"), ("a", "b", "c"))

    def test_empty_string(self):
        assert canonicalize_traced(validate_raw(""))[1] == ()

    def test_trailing_dots_are_one_normal_token(self):
        assert canonicalize_traced(validate_raw("/etc../"))[1] == (("etc..",),)

    def test_dot_tokens_preserved(self):
        # "." is a part of its own: it repeats the stack unchanged.
        _, trace = canonicalize_traced(validate_raw("a/.//b/c"))
        assert trace == (("a",), ("a",), ("a", "b"), ("a", "b", "c"))

    def test_reconstruction_is_canonicalization_equivalent(self):
        for text in ["//a//b/c", "a/.//b/c", "/x/../y/", "..."]:
            raw = validate_raw(text)
            rebuilt = "/".join(part for part in text.split("/") if part)
            assert canonicalize(validate_raw(rebuilt)) == canonicalize(raw)


class TestFinalStack:
    """The final stack's string form is the canonical path."""

    def test_empty_stack_is_root(self):
        final, trace = canonicalize_traced(validate_raw("a/.."))
        assert trace[-1] == ()
        assert final.text == "/"

    def test_single_item(self):
        final, trace = canonicalize_traced(validate_raw("a"))
        assert trace[-1] == ("a",)
        assert final.text == "/a"

    def test_no_trailing_separator(self):
        final, trace = canonicalize_traced(validate_raw("a/b/"))
        assert trace[-1] == ("a", "b")
        assert final.text == "/a/b"


def _climbing_or_wrong(prefix, suffixes):
    """A verifier block check: (text, underflows, closed form) for each
    string that climbs above the root or on which the two counts differ.
    Each name is pushed once and each ".." pops a name or is ignored, so
    ignored = dot-dots - (names - names left in the result)."""
    found = []
    for text in map(prefix.__add__, suffixes):
        raw = validate_raw(text)
        parts = text.split("/")
        names = sum(part not in ("", ".", "..") for part in parts)
        final = canonicalize(raw)
        left = len(final[1:].split("/")) if final != "/" else 0
        expected = parts.count("..") - names + left
        got = underflows(raw)
        if expected or got != expected:
            found.append((text, got, expected))
    return found


class TestCanonicalize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("//a//b///c", "/a/b/c"),
            ("../a/b/c", "/a/b/c"),
            ("/home/NonexistentUserFolder/../ActualUserFolder/", "/home/ActualUserFolder"),
            ("/../..", "/"),
            ("/etc/passwd/./", "/etc/passwd"),
            ("", "/"),
            (".", "/"),
            ("a/b", "/a/b"),
            ("/etc../", "/etc.."),
            ("/a/b/c/..", "/a/b"),
            ("...", "/..."),
            (".hidden", "/.hidden"),
            ("etc..", "/etc.."),
        ],
    )
    def test_examples(self, text, expected):
        assert canonicalize(validate_raw(text)).text == expected

    def test_total_on_max_length_input(self):
        assert canonicalize(validate_raw("/" * 4096)).text == "/"

    def test_underflows_equals_a_count_taken_without_the_walk(self):
        # Sharded over the CPUs as the verifier's sweeps are; _sharded
        # raises unless its shards saw exactly total_count(spec) strings.
        spec = EnumerationSpec(alphabet="/.ab", max_len=8)
        assert total_count(spec) == 87_381
        found = _sharded(spec, _climbing_or_wrong)
        wrong = [f for f in found if f[1] != f[2]]
        assert wrong == []
        climbing = len(found)
        assert climbing > 0

    def test_every_output_is_canonical_without_the_rescan(self):
        # canonicalize wraps its result without re-running is_canonical_text,
        # so check the claim exhaustively on the CanonicalPath it returns.
        # The residue sweep checks the same rule on the bulk form's text.
        bad = []

        def visit(text):
            out = canonicalize(validate_raw(text))
            if not is_canonical_text(out.text):
                bad.append((text, out.text))

        spec = EnumerationSpec(alphabet="/.ab", max_len=8)
        assert enumerate_all(spec, visit) == 87_381
        assert bad == []


class TestSanitize:
    def test_preimage_allowed(self):
        w = load_whitelist("/a/b/c\n")
        assert sanitize(validate_raw("./a/b/c"), w)

    def test_disjoint_denied(self):
        w = load_whitelist("/a/b/c\n")
        assert not sanitize(validate_raw("/x/y"), w)

    def test_dotdot_resolved_before_matching(self):
        w = load_whitelist("/a/b\n")
        assert sanitize(validate_raw("/a/b/c/.."), w)

    def test_plain_string_lookup_equals_the_reference_walk(self):
        # sanitize looks up the canonical text as a plain str; it must decide
        # exactly as the CanonicalPath from canonicalize does, everywhere.
        w = load_whitelist("/\n/a\n/ab\n/a/b\n/b/a/b\n/...\n/.a/b..\n")
        wrong, allowed = [], [0]

        def visit(text):
            raw = validate_raw(text)
            decision = sanitize(raw, w)
            if decision != (canonicalize(raw) in w.entries):
                wrong.append(text)
            allowed[0] += decision

        spec = EnumerationSpec(alphabet="/.ab", max_len=8)
        assert enumerate_all(spec, visit) == 87_381
        assert wrong == []
        assert 0 < allowed[0] < 87_381

    @pytest.mark.parametrize(
        "call",
        [
            lambda: canonicalize("/a/../b"),
            lambda: sanitize("/a", load_whitelist("/a\n")),
            lambda: canonicalize_traced("/a"),
            lambda: underflows("/a"),
        ],
        ids=[
            "canonicalize",
            "sanitize",
            "canonicalize_traced",
            "underflows",
        ],
    )
    def test_plain_str_is_refused(self, call):
        # Only validate_raw's output has passed the NUL and length checks.
        with pytest.raises(TypeError):
            call()


class TestFastPath:
    """normpath computes every decision's text and ignored-".." count; the
    walk is the reference."""

    @pytest.mark.parametrize("alphabet,visited", FAST_PATH_SPACES)
    def test_equals_the_walk_on_every_string_up_to_length_10(self, alphabet, visited):
        # The sweep of "/.ab" is the one criterion 1 reads; run alone, this
        # test sweeps the whole space.
        assert total_count(EnumerationSpec(alphabet=alphabet, max_len=10)) == visited
        assert findings(alphabet, FAST_PATH) == []

    @pytest.mark.parametrize(
        "name,fault,kinds",
        [
            (
                "canonicalize",
                lambda f: lambda raw: f(raw).rpartition("/")[0] or "/",
                {FAST_PATH, ORACLE},
            ),
            ("underflows", lambda f: lambda raw: f(raw) + 1, {FAST_PATH}),
            ("rewrite_canonicalize", lambda f: lambda raw: f(raw) + "/x", {ORACLE}),
        ],
        ids=["canonicalize-drops-a-name", "underflows-off-by-one", "wrong-oracle"],
    )
    def test_findings_name_the_check_that_fails(self, monkeypatch, name, fault, kinds):
        # The shared sweep's check tags each finding with the check it fails,
        # so a canonicalizer fault fails criterion 1 as well as this gate,
        # and each of the others only its own. Over "/.ab" up to length 4
        # (341 strings), outside sweep's cache.
        spec = EnumerationSpec(alphabet="/.ab", max_len=4)
        assert _sharded(spec, fast_path_check) == []
        real = getattr(invariant_checks, name)
        monkeypatch.setattr(invariant_checks, name, fault(real))
        assert {kind for kind, _ in _sharded(spec, fast_path_check)} == kinds

    def test_nul_never_reaches_normpath(self, monkeypatch, capsys):
        # Early 3.11 releases of the C core stopped at a NUL, which would
        # make "/a\x00/../../etc" look like "/a". Only validate_raw's output
        # is accepted, and validate_raw refuses the NUL first.
        reached = []
        monkeypatch.setattr(canonical, "_normpath", reached.append)
        text = "/a\x00b/../c"
        whitelist = load_whitelist("/c\n")
        with pytest.raises(TypeError):
            canonicalize(text)
        with pytest.raises(TypeError):
            sanitize(text, whitelist)
        with pytest.raises(EmbeddedNul):
            canonicalize(validate_raw(text))
        with pytest.raises(EmbeddedNul):
            sanitize(validate_raw(text), whitelist)
        # A --root is a CanonicalPath, which does not check for NUL, so it
        # is held to the NUL and length rule on its own, before any line.
        assert cli.main(["canon", "--root", "/a\x00b", "c"]) == 2
        err = capsys.readouterr().err
        assert err == "pathguard: --root contains a NUL byte\n"
        assert reached == []


def _pathguard_calls(call):
    """The names of the Python functions under pathguard/ that ``call()``
    enters, in order, as sys.setprofile sees them."""
    package = os.path.dirname(pathguard.__file__) + os.sep
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return names


class TestDecisionFrames:
    """The serve and verify benchmarks time exactly these two calls, and one
    more Python frame on them costs measurable latency, so the frames are
    pinned. validate_raw and the public functions check inline for this, and
    canonicalize and sanitize compute normpath's text inline."""

    def test_normpath_is_the_c_core(self):
        # Every decision's text comes from _normpath. A CPython that moved
        # the C core again would otherwise send them all through the
        # pure-Python normpath, as 3.10 does, with no test failing.
        c_core = sys.implementation.name == "cpython" and sys.version_info >= (3, 11)
        assert isinstance(canonical._normpath, BuiltinFunctionType) == c_core

    @pytest.mark.parametrize("text", ["/a/b", "a/../../b/./c//", ""])
    def test_each_decision_enters_two_functions(self, text):
        whitelist = load_whitelist("/b/c\n")
        assert _pathguard_calls(lambda: canonicalize(validate_raw(text))) == [
            "validate_raw", "canonicalize"
        ]
        assert _pathguard_calls(lambda: sanitize(validate_raw(text), whitelist)) == [
            "validate_raw", "sanitize"
        ]
        assert _pathguard_calls(lambda: underflows(validate_raw(text))) == [
            "validate_raw", "underflows"
        ]


class TestCanonicalizeTraced:
    def test_push_then_pop_pattern(self):
        final, trace = canonicalize_traced(validate_raw("/a/x/../b"))
        assert final.text == "/a/b"
        assert trace == (("a",), ("a", "x"), ("a",), ("a", "b"))

    def test_dot_leaves_stack_unchanged(self):
        final, trace = canonicalize_traced(validate_raw("."))
        assert final.text == "/"
        assert trace == ((),)

    def test_single_component(self):
        final, trace = canonicalize_traced(validate_raw("/a"))
        assert final.text == "/a"
        assert trace == (("a",),)

    def test_agrees_with_canonicalize(self):
        for text in ["", "/a/../b", "..//x/./y", "a/b/c////"]:
            raw = validate_raw(text)
            final, trace = canonicalize_traced(raw)
            assert final == canonicalize(raw)
            assert len(trace) == len([part for part in text.split("/") if part])
