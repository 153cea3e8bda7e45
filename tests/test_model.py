import itertools

import pytest

from pathguard import (
    CanonicalPath,
    EmbeddedNul,
    NonCanonicalEntry,
    PathTooLong,
    RawPathString,
    Whitelist,
    canonicalize,
    is_canonical_text,
    load_whitelist,
    validate_raw,
)


class TestValidateRaw:
    def test_well_formed_short_input(self):
        assert validate_raw("/a/b").text == "/a/b"

    def test_boundary_length_accepted(self):
        assert validate_raw("a" * 4096).text == "a" * 4096

    def test_boundary_plus_one_rejected(self):
        with pytest.raises(PathTooLong):
            validate_raw("a" * 4097)

    def test_embedded_nul_rejected(self):
        with pytest.raises(EmbeddedNul):
            validate_raw("/a\x00/b")


class TestCanonicalPath:
    @pytest.mark.parametrize("text", ["/", "/a", "/a/b", "/etc..", "/...."])
    def test_accepts_canonical(self, text):
        assert CanonicalPath(text).text == text

    @pytest.mark.parametrize(
        "text", ["", "a", "/a/", "//a", "/a//b", "/./", "/a/./b", "/a/../b", "/..", "/a/.."]
    )
    def test_rejects_non_canonical(self, text):
        with pytest.raises(ValueError):
            CanonicalPath(text)

    def test_public_constructor_still_validates(self):
        # canonicalize and load_whitelist skip the rescan; CanonicalPath(text)
        # must not.
        with pytest.raises(ValueError):
            CanonicalPath("a/")

    def test_components(self):
        assert CanonicalPath("/").components == ()
        assert CanonicalPath("/a/b").components == ("a", "b")

    def test_is_canonical_text_matches_fixpoint(self):
        # The substring check must agree with "canonicalizing is identity"
        # on every string over /.a up to length 10 (88,573 strings).
        strings = ["/a/..", "/.", "//", "/..a", "/a..", "/.../a"]
        strings += [
            "".join(chars)
            for length in range(11)
            for chars in itertools.product("/.a", repeat=length)
        ]
        for text in strings:
            fix = canonicalize(validate_raw(text)) == text
            assert is_canonical_text(text) == fix, text


class TestWhitelist:
    def test_single_entry(self):
        w = load_whitelist("/a/b/c\n")
        assert w.entries == frozenset({CanonicalPath("/a/b/c")})

    def test_comments_and_blanks_skipped(self):
        w = load_whitelist("# comment\n\n/a\n")
        assert w.entries == frozenset({CanonicalPath("/a")})

    def test_crlf_and_whitespace(self):
        w = load_whitelist("  /a \r\n\t/b\r\n")
        assert w.entries == frozenset({CanonicalPath("/a"), CanonicalPath("/b")})

    def test_duplicates_collapse(self):
        w = load_whitelist("/a\n/a\n")
        assert len(w.entries) == 1

    def test_non_canonical_entry_rejected_with_line_number(self):
        with pytest.raises(NonCanonicalEntry) as err:
            load_whitelist("a/b/\n")
        assert err.value.line_number == 1

    def test_non_canonical_line_number_counts_comments(self):
        with pytest.raises(NonCanonicalEntry) as err:
            load_whitelist("# header\n/a\n/b//c\n")
        assert err.value.line_number == 3

    def test_canonicalize_entries_opt_in(self):
        w = load_whitelist("a/b/\n", canonicalize_entries=True)
        assert w.entries == frozenset({CanonicalPath("/a/b")})

    def test_nul_propagated_per_line(self):
        with pytest.raises(EmbeddedNul) as err:
            load_whitelist("# header\n/a\n/a\x00b\n")
        assert str(err.value) == "whitelist line 3: path contains a NUL byte"

    def test_too_long_line_names_its_line(self):
        with pytest.raises(PathTooLong) as err:
            load_whitelist("/a\n/" + "a" * 4096 + "\n")
        assert str(err.value) == (
            "whitelist line 2: path length 4097 exceeds limit 4096"
        )

    @pytest.mark.parametrize("inner", ["\r", "\x0c", "\x85", "\u2028"])
    def test_lines_end_at_newline_only(self, inner):
        # str.splitlines would cut "/a" + inner + "b" in two, and "b" is not
        # canonical; --stdin reads the same text as one path.
        w = load_whitelist("/a" + inner + "b\n/c\r\n")
        assert w.entries == frozenset({"/a" + inner + "b", "/c"})

    def test_file_in_default_text_mode_ends_lines_at_newline_only(self, tmp_path):
        # Universal newlines would read "/a\rb" as "/a" and "b".
        path = tmp_path / "whitelist.txt"
        path.write_bytes(b"/a\rb\n/c\r\n")
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            w = load_whitelist(fh)
        assert w.entries == frozenset({"/a\rb", "/c"})

    def test_entries_are_fixpoints(self):
        w = load_whitelist("/a/b/c\n/x\n/\n")
        for entry in w.entries:
            assert canonicalize(validate_raw(entry.text)) == entry


class TestWhitelistContains:
    def test_member(self):
        w = load_whitelist("/a/b/c\n")
        assert CanonicalPath("/a/b/c") in w.entries

    def test_prefix_is_not_member(self):
        w = load_whitelist("/a/b/c\n")
        assert CanonicalPath("/a/b") not in w.entries

    def test_empty_whitelist_denies_all(self):
        assert CanonicalPath("/") not in Whitelist().entries

    def test_exact_string_equality(self):
        w = Whitelist(frozenset({CanonicalPath("/a")}))
        assert CanonicalPath("/ab") not in w.entries


class TestPathTypesAreStrings:
    def test_canonical_path_equals_and_hashes_as_its_text(self):
        assert CanonicalPath("/a") == "/a"
        assert hash(CanonicalPath("/a")) == hash("/a")
        assert "/a" in load_whitelist("/a\n").entries

    @pytest.mark.parametrize(
        "path", [CanonicalPath("/a/b"), validate_raw("a/../b")]
    )
    def test_immutable_with_no_instance_dict(self, path):
        assert not hasattr(path, "__dict__")
        with pytest.raises(AttributeError):
            path.text = "/x"
        with pytest.raises(AttributeError):
            path.extra = 1
        assert type(path.text) is str
        assert path.text == path

    def test_validate_raw_returns_raw_path_string(self):
        assert type(validate_raw("/a")) is RawPathString
        assert type(canonicalize(validate_raw("/a"))) is CanonicalPath
