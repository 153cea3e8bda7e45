import itertools

import pytest

from pathguard import (
    CanonicalPath,
    ComponentStack,
    EmbeddedNul,
    Limits,
    NonCanonicalEntry,
    PathToken,
    PathTooLong,
    TokenKind,
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

    def test_custom_limit(self):
        limits = Limits(max_path_len=3)
        assert validate_raw("abc", limits).text == "abc"
        with pytest.raises(PathTooLong):
            validate_raw("abcd", limits)

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            Limits(max_path_len=0)


class TestPathToken:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("a", TokenKind.NORMAL),
            (".", TokenKind.DOT),
            ("..", TokenKind.DOTDOT),
            ("...", TokenKind.NORMAL),
            ("etc..", TokenKind.NORMAL),
            (".hidden", TokenKind.NORMAL),
        ],
    )
    def test_classification(self, text, kind):
        assert PathToken.from_text(text).kind is kind

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PathToken.from_text("")

    def test_separator_rejected(self):
        with pytest.raises(ValueError):
            PathToken.from_text("a/b")

    def test_kind_must_match_text(self):
        with pytest.raises(ValueError):
            PathToken("..", TokenKind.NORMAL)


class TestComponentStack:
    def test_only_normal_tokens(self):
        ComponentStack((PathToken.from_text("a"),))
        with pytest.raises(ValueError):
            ComponentStack((PathToken.from_text(".."),))


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
        with pytest.raises(EmbeddedNul):
            load_whitelist("/a\x00b\n")

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
