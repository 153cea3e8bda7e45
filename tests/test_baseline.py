import io
import ntpath
from urllib.parse import unquote

import pytest

from pathguard import (
    EmbeddedNul,
    PathTooLong,
    canonicalize,
    de_dotdot,
    is_canonical_text,
    load_corpus,
    run_differential,
    validate_raw,
)

# Behavior of the ported upstream routine, frozen at port time. Any change
# to these outputs means the port drifted from the original.
GOLDEN = {
    "/etc../": "/etc../",
    "/etc/passwd": "/etc/passwd",
    "./a": "a",
    "../a/b/c": "a/b/c",
    "//a//b///c": "/a/b/c",
    "/a/./b": "/a/b",
    "/a//b": "/a/b",
    "a/b/../c": "a/c",
    "/a/b/..": "/a",
    "/..": "/..",
    "/a/..": "",
    ".": ".",
    "..": "..",
    "": "",
    "/": "/",
    "x/../../etc/passwd": "etc/passwd",
    "/a/b/c/../../d": "/a/d",
    ".../a": ".../a",
    "/a/.../b": "/a/.../b",
    "/....//": "/..../",
}


class TestDeDotdot:
    @pytest.mark.parametrize("text,expected", sorted(GOLDEN.items()))
    def test_golden_snapshots(self, text, expected):
        assert de_dotdot(validate_raw(text)) == expected

    def test_documented_flaw_trailing_dots_untouched(self):
        assert de_dotdot(validate_raw("/etc../")) == "/etc../"

    def test_documented_flaw_absolute_paths_untouched(self):
        assert de_dotdot(validate_raw("/etc/passwd")) == "/etc/passwd"


class TestRunDifferential:
    def test_trailing_dots_divergence_has_residue(self):
        records = run_differential([validate_raw("/etc../")])
        assert len(records) == 1
        assert ".." in records[0].residue_found
        assert records[0].canonical_output.text == "/etc.."

    def test_already_canonical_agrees(self):
        assert run_differential([validate_raw("/a/b")]) == []

    def test_absolute_bottom_up_reach_flagged(self):
        records = run_differential([validate_raw("/etc/passwd")])
        assert len(records) == 1
        assert records[0].bottom_up_reach
        assert records[0].residue_found == ()

    def test_htpasswd_component_flagged(self):
        records = run_differential([validate_raw("/srv/www/.htpasswd")])
        assert len(records) == 1
        assert records[0].bottom_up_reach

    def test_relative_root_anchoring_not_counted_as_divergence(self):
        # "./a" -> baseline "a", canonicalizer "/a"; representational only.
        assert run_differential([validate_raw("./a")]) == []

    def test_output_order_matches_input_order(self):
        corpus = [validate_raw(t) for t in ["/etc../", "/a/b", "/etc/passwd"]]
        records = run_differential(corpus)
        assert [r.input.text for r in records] == ["/etc../", "/etc/passwd"]

    def test_canonical_outputs_never_carry_residue(self):
        corpus = [validate_raw(t) for t in GOLDEN]
        for record in run_differential(corpus):
            assert is_canonical_text(record.canonical_output)


class TestLoadCorpus:
    def test_comments_blanks_and_order(self):
        corpus = load_corpus("# flaws\n/etc../\n\n./a\n")
        assert [r.text for r in corpus] == ["/etc../", "./a"]

    @pytest.mark.parametrize("inner", ["\r", "\x0c", "\x85", "\u2028"])
    def test_lines_end_at_newline_only(self, inner):
        corpus = load_corpus("/a" + inner + "b\n./c\r\n")
        assert [r.text for r in corpus] == ["/a" + inner + "b", "./c"]

    def test_file_in_default_text_mode_ends_lines_at_newline_only(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"/a\rb\n./c\r\n")
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            corpus = load_corpus(fh)
        assert [r.text for r in corpus] == ["/a\rb", "./c"]

    def test_text_file_not_at_its_start_is_refused(self):
        fh = io.StringIO("./a\n./b\n/c\x00\n")
        fh.readline()
        with pytest.raises(io.UnsupportedOperation):
            load_corpus(fh)

    @pytest.mark.parametrize(
        "line,error,reason",
        [
            ("/a\x00b", EmbeddedNul, "path contains a NUL byte"),
            ("a" * 4097, PathTooLong, "path length 4097 exceeds limit 4096"),
        ],
        ids=["nul", "too-long"],
    )
    def test_invalid_line_names_its_line(self, line, error, reason):
        with pytest.raises(error) as err:
            load_corpus("/a\n\n" + line + "\n")
        assert str(err.value) == "corpus line 3: " + reason

    def test_canonicalize_never_emits_residue_on_corpus(self):
        corpus = load_corpus("/etc../\n/etc/passwd\n//a//b\n../x\n")
        for raw in corpus:
            assert is_canonical_text(canonicalize(raw))


class TestDecodeOrder:
    """The input contract: decode once, canonicalize, then match.

    pathguard has no percent-decoding layer. These cases fix nothing; they
    show that a server which decodes *after* canonicalizing reopens the
    traversal that canonicalization closed (the CVE-2018-18778 class).
    """

    @pytest.mark.parametrize(
        "encoded,decoded_first",
        [
            ("/srv/www/%2e%2e/%2e%2e/etc/passwd", "/etc/passwd"),
            ("/srv/www/..%2f..%2fetc/passwd", "/etc/passwd"),
            ("/srv/www/%2e%2e%2f%2e%2e%2fetc%2fpasswd", "/etc/passwd"),
            ("%2e%2e/%2e%2e/etc/shadow", "/etc/shadow"),
            ("/srv/www/%2E%2E/.htpasswd", "/srv/.htpasswd"),
        ],
    )
    def test_decoding_after_canonicalization_reopens_traversal(
        self, encoded, decoded_first
    ):
        # Encoded, the dots and slashes are ordinary name characters, so the
        # canonical form keeps them and carries no residue ...
        canonical = canonicalize(validate_raw(encoded)).text
        assert canonical == "/" + encoded.lstrip("/")
        # ... until a later decoding step turns them back into "..".
        assert "/../" in unquote(canonical) + "/"
        # Decoded first, the climb is resolved before anything is matched.
        out = canonicalize(validate_raw(unquote(encoded))).text
        assert out == decoded_first
        assert is_canonical_text(out)


class TestSeparatorContract:
    """The input contract: "/" is the only separator.

    pathguard has no separator option. These cases fix nothing; they show
    that "\\" is an ordinary name character to pathguard, while a Windows
    path API, here the stdlib's ntpath, splits on it and climbs. Safe as a
    POSIX file name, such a path is traversal behind a Windows file API, so
    a caller whose paths reach one must reject "\\" and ":" first.
    """

    @pytest.mark.parametrize(
        "raw,canonical,windows",
        [
            # One name at the root, which ntpath climbs out of to C:\x.
            ("C:\\Windows\\..\\..\\x", "/C:\\Windows\\..\\..\\x", "C:\\x"),
            # One name under /a, which ntpath climbs above the root with.
            ("/a/b\\..\\..\\..\\c", "/a/b\\..\\..\\..\\c", "\\c"),
        ],
    )
    def test_backslash_is_a_name_character(self, raw, canonical, windows):
        assert canonicalize(validate_raw(raw)).text == canonical
        assert ntpath.normpath(raw) == windows
