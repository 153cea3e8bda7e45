import itertools
import random
import time

import pytest

from pathguard import canonicalize, rewrite_canonicalize, sanitize, validate_raw
from pathguard.canonical import _canonical_texts
from pathguard.model import MAX_PATH_LEN
from spec import canonical_text


def _fill(unit: str) -> str:
    """``unit`` repeated, cut to exactly MAX_PATH_LEN characters."""
    return (unit * (MAX_PATH_LEN // len(unit) + 1))[:MAX_PATH_LEN]


def _nested(name: str = "a") -> str:
    """Names, then as many "..", padded to MAX_PATH_LEN with leading "/":
    unwinds to the root."""
    depth = MAX_PATH_LEN // (len(name) + 4)
    text = "/" + (name + "/") * depth + "../" * depth
    return text.rjust(MAX_PATH_LEN, "/")


def _mixed(seed: int) -> str:
    rng = random.Random(seed)
    parts = [
        "a", "bc", ".", "..", "", "...", ".a", "a..",
        # non-ASCII, lone surrogates (undecodable bytes after
        # surrogateescape) and astral names
        "é", "名前", "\udc80", "\udcff.", "..\udcc0", "\U0001f600", "\U00010348..",
    ]
    text = ""
    while len(text) < MAX_PATH_LEN:
        text += rng.choice(parts) + "/"
    return text[:MAX_PATH_LEN]


# Paths of the longest accepted length, far past the exhaustive sweeps'
# length 10: deep nesting that unwinds to the root, long runs of each
# rule's redex, and random mixes that hold non-ASCII, lone-surrogate and
# astral names.
LONG_PATHS = {
    "nested": _nested(),
    "nested-astral": _nested("\U0001f600"),
    "nested-surrogate": _nested("\udc80\udcff"),
    "dotdot-run": _fill("../"),
    "dot-run": _fill("./"),
    "slash-run": _fill("/"),
    **{f"mixed-{seed}": _mixed(seed) for seed in range(20)},
}


class TestRewriteCanonicalize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("//a//b/c", "/a/b/c"),
            ("/", "/"),
            ("/a/../", "/"),
            ("/a/b/../../..", "/"),
            ("", "/"),
            ("a/b", "/a/b"),
            ("/etc../", "/etc.."),
            ("/..a/../b", "/b"),
            ("/.x/./y", "/.x/y"),
            ("../../x", "/x"),
        ],
    )
    def test_examples(self, text, expected):
        assert rewrite_canonicalize(validate_raw(text)).text == expected

    def test_slash_collapse_happens_before_dot_resolution(self):
        # "/a//../" must reduce deterministically: "//" first, then "/a/../".
        assert rewrite_canonicalize(validate_raw("/a//../")).text == "/"

    def test_idempotent_on_own_output(self):
        for k in range(0, 7):
            for chars in itertools.product("/.ab", repeat=k):
                out = rewrite_canonicalize(validate_raw("".join(chars)))
                assert rewrite_canonicalize(validate_raw(out.text)) == out

    def test_agrees_with_stack_canonicalizer_small_sweep(self):
        for k in range(0, 8):
            for chars in itertools.product("/.ab", repeat=k):
                raw = validate_raw("".join(chars))
                assert rewrite_canonicalize(raw) == canonicalize(raw)

    @pytest.mark.parametrize("text", LONG_PATHS.values(), ids=LONG_PATHS.keys())
    def test_agrees_with_stack_canonicalizer_at_max_length(self, text):
        raw = validate_raw(text)
        assert len(raw) == MAX_PATH_LEN
        walked = canonical_text(text)
        assert canonicalize(raw) == walked
        assert sanitize(raw, (walked,))
        assert list(_canonical_texts((text,))) == [walked]
        assert rewrite_canonicalize(raw) == walked

    def test_runs_unwind_to_the_root(self):
        for name in ("nested", "nested-astral", "nested-surrogate",
                     "dotdot-run", "dot-run", "slash-run"):
            assert rewrite_canonicalize(validate_raw(LONG_PATHS[name])) == "/"

    def test_deep_nesting_is_not_quadratic(self):
        # The search for "/../" resumes where the last cut was, so the nested
        # case costs one pass; a rescan per level would take tens of ms.
        raw = validate_raw(LONG_PATHS["nested"])
        best = min(_timed(lambda: rewrite_canonicalize(raw)) for _ in range(5))
        assert best < 0.010, f"{best * 1000:.2f} ms"

    def test_plain_str_is_refused(self):
        # A plain str has not passed validate_raw's NUL and length checks.
        with pytest.raises(TypeError):
            rewrite_canonicalize("/a/../b")

    def test_shares_no_code_with_canonicalizer(self):
        # Independence guard: the oracle module must not import the stack
        # implementation.
        import ast

        import pathguard.oracle as oracle

        with open(oracle.__file__) as fh:
            tree = ast.parse(fh.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert "canonical" not in imported
        assert "pathguard.canonical" not in imported


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
