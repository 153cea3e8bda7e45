import copy
import gc
import io
import itertools
import operator
import pickle

import pytest
from hypothesis import given, strategies as st

from pathguard import (
    CanonicalPath,
    EmbeddedNul,
    EnumerationSpec,
    NonCanonicalEntry,
    PathError,
    PathTooLong,
    RawPathString,
    Whitelist,
    canonicalize,
    is_canonical_text,
    load_corpus,
    load_whitelist,
    sanitize,
    total_count,
    validate_raw,
)
from pathguard.model import MAX_PATH_LEN, _all_canonical, _all_checked, _checked
from pathguard.model import _residue
from pathguard.verifier import _sharded


def _passes_checked(text):
    try:
        _checked(text)
    except PathError:
        return False
    return True


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

    @pytest.mark.parametrize(
        "text",
        ["", "/a/b", "a" * 4096, "a" * 4097, "\x00/a", "/a\x00b", "/a\x00", "\x00" * 4097],
        ids=["empty", "short", "len-4096", "len-4097", "nul-first", "nul-inner",
             "nul-last", "nul-4097"],
    )
    def test_internal_check_agrees_with_validate_raw(self, text):
        # validate_raw writes _checked's rule out inline, and RawPathString(text)
        # applies it too; all three must accept and refuse alike, with the
        # same error and message.
        for check in (_checked, RawPathString):
            try:
                want = validate_raw(text)
            except PathError as exc:
                with pytest.raises(type(exc)) as err:
                    check(text)
                assert str(err.value) == str(exc)
            else:
                assert check(text) == want
        # _all_checked is the rule's one bulk form: on no texts, on this one
        # alone and on it among clean ones, it agrees with _checked on each.
        for texts in ([], [text], ["/a", text, "/b"]):
            assert _all_checked(texts) == all(map(_passes_checked, texts))


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


def _flaws_by_parts(text):
    """``_residue``'s flaws, named from the parts of ``text`` split on "/":
    a part between two "/" of the text closed by one is an empty, "." or
    ".." component exactly when the closed text holds "//", "/./" or
    "/../" there."""
    parts = text.split("/")
    rooted = len(parts) > 1 and parts[0] == ""
    trailing = len(parts) > 1 and parts[-1] == ""
    inner = (parts if trailing else [*parts, ""])[1:-1]
    flaws = [] if rooted else ["missing-leading-slash"]
    if trailing and parts != ["", ""]:
        flaws.append("trailing-slash")
    for part, name in (("", "//"), (".", "/./"), ("..", "/../")):
        if part in inner:
            flaws.append(name)
    return flaws


class TestResidue:
    @pytest.mark.parametrize(
        "text, flaws",
        [
            ("/", []),
            ("/a/b", []),
            ("/...", []),
            ("", ["missing-leading-slash"]),
            ("./", ["missing-leading-slash", "trailing-slash"]),
            ("a/./b/..", ["missing-leading-slash", "/./", "/../"]),
            ("//", ["trailing-slash", "//"]),
            ("/a/", ["trailing-slash"]),
            ("/./../", ["trailing-slash", "/./", "/../"]),
            ("/a//..", ["//", "/../"]),
        ],
    )
    def test_names_each_flaw_in_order(self, text, flaws):
        assert _residue(text) == flaws
        assert is_canonical_text(text) == (not flaws)

    def test_equals_a_split_namer_on_every_string_up_to_length_8(self):
        # 87,381 strings over "/.ab": the names and their order, not only
        # whether the list is empty.
        texts = [
            "".join(chars)
            for length in range(9)
            for chars in itertools.product("/.ab", repeat=length)
        ]
        assert len(texts) == 87_381
        wrong = [t for t in texts if _residue(t) != _flaws_by_parts(t)]
        assert wrong[:5] == []


# Every string over "/.a" up to length 4: 121 texts, each named by a
# one-character code. The codes form a verifier alphabet, so a string of
# codes up to length 3 is a list of up to three texts.
TEXTS = [
    "".join(chars)
    for length in range(5)
    for chars in itertools.product("/.a", repeat=length)
]
CODES = "/." + "".join(chr(0x100 + i) for i in range(len(TEXTS) - 2))
TEXT = dict(zip(CODES, TEXTS))
FLAG = dict(zip(CODES, map(is_canonical_text, TEXTS)))
# 121**2 is more than a sweep block, so the verifier's suffixes are single
# codes (and "" for the empty list): each is decoded here, once.
SUFFIX_LIST = {"": [], **{code: [TEXT[code]] for code in CODES}}
SUFFIX_FLAG = {"": True, **FLAG}


def _all_canonical_wrong(prefix, suffixes):
    """A verifier block check: the lists of texts, as code strings, on which
    the bulk check differs from the reference. The prefix is decoded once a
    block; C-level passes only."""
    head = [TEXT[code] for code in prefix]
    got = map(_all_canonical, map(head.__add__, map(SUFFIX_LIST.__getitem__, suffixes)))
    if all(map(FLAG.__getitem__, prefix)):
        want = map(SUFFIX_FLAG.__getitem__, suffixes)
    else:
        want = itertools.repeat(False)
    wrong = itertools.compress(suffixes, map(operator.ne, got, want))
    return list(map(prefix.__add__, wrong))


class TestAllCanonical:
    """The bulk check equals ``all(map(is_canonical_text, texts))``."""

    def test_equals_the_reference_on_every_list_of_up_to_three(self):
        # 1,786,324 lists, sharded over the CPUs as the verifier's sweeps
        # are; _sharded raises unless every one of them was checked.
        spec = EnumerationSpec(CODES, 3)
        assert total_count(spec) == 1_786_324
        wrong = _sharded(spec, _all_canonical_wrong)
        assert [[TEXT[code] for code in codes] for codes in wrong[:5]] == []

    @pytest.mark.parametrize(
        "texts",
        [
            [],
            [""],
            ["/", ""],
            ["/", "/", "/a"],
            ["/a", "/", "/", "/"],
            ["/a", "/", "//"],
            ["/\x00"],
            ["/a", "\x00/"],
            ["a\x00/b"],
            ["/a\x00", "/b"],
        ],
    )
    def test_empty_texts_adjacent_roots_and_nul(self, texts):
        # A non-overlapping count of a framed root such as "\0//\0" misses
        # the second of two adjacent roots; a NUL in a text would look like
        # a frame's edge.
        assert _all_canonical(texts) == all(map(is_canonical_text, texts))

    @given(st.lists(st.text() | st.text(alphabet="/.a\x00", max_size=6)))
    def test_equals_the_reference_on_arbitrary_text(self, texts):
        assert _all_canonical(texts) == all(map(is_canonical_text, texts))


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

    def test_text_file_not_at_its_start_is_refused(self):
        # Read from where it stands, it would miss line 1 and blame line 2
        # for what is line 3.
        fh = io.StringIO("/a\n/b\n/c//\n")
        fh.readline()
        with pytest.raises(io.UnsupportedOperation):
            load_whitelist(fh)

    def test_entries_are_fixpoints(self):
        w = load_whitelist("/a/b/c\n/x\n/\n")
        for entry in w.entries:
            assert canonicalize(validate_raw(entry)) == entry

    @pytest.mark.parametrize(
        "source,canonicalize_entries",
        [("/a/b\n/c\n/\n", False), ("a/b/\n/x/../c/.\n//\n", True)],
    )
    def test_entries_are_plain_untracked_strings(self, source, canonicalize_entries):
        # No wrapper per entry: a str subclass instance would also be
        # tracked by the garbage collector.
        w = load_whitelist(source, canonicalize_entries=canonicalize_entries)
        assert w.entries == {"/a/b", "/c", "/"}
        for entry in w.entries:
            assert type(entry) is str
            assert not gc.is_tracked(entry)


# Line shapes for the loader's texts: each check passing and failing, every
# stripping and skipping rule, and characters that str.splitlines would end
# a line at and str.strip() would strip, which belong to the path. A comment
# that holds a NUL fails the loader's NUL search over the whole text, and so
# must load by the line walk as if the NUL were not there.
LINE_SHAPES = [
    "",
    "/",
    "/a",
    "a",
    "/a/",
    "//a",
    "/./a",
    "/a/..",
    "#/a",
    "#\x00",
    " /a ",
    "/a\r",
    "/a\rb",
    "\t/a\t",
    "/a\x0c\x85\u2028",
    "/a\x00b",
    "/" + "a" * MAX_PATH_LEN,
]


def _per_line_load(text, kind, canonicalize_entries=False):
    """The loader as a walk over the lines: each line checked on its own,
    in file order. A whitelist is the set of its lines, each told canonical
    by canonicalizing it; a corpus is the list of its lines, in order and
    duplicates kept, with no canonical check. ``kind`` is "whitelist" or
    "corpus", as the errors name it."""
    paths = []
    for number, line in enumerate(text.split("\n"), start=1):
        path = line.strip(" \t\r\n")
        if not path or path.startswith("#"):
            continue
        if "\x00" in path:
            raise EmbeddedNul(f"{kind} line {number}: path contains a NUL byte")
        if len(path) > MAX_PATH_LEN:
            raise PathTooLong(
                f"{kind} line {number}: path length {len(path)}"
                f" exceeds limit {MAX_PATH_LEN}"
            )
        if kind == "whitelist":
            canonical = canonicalize(validate_raw(path))
            if not canonicalize_entries and canonical != path:
                raise NonCanonicalEntry(number, path)
            path = canonical
        paths.append(path)
    return set(paths) if kind == "whitelist" else paths


def _outcome(load):
    """What ``load()`` returns, or its error's type, message and line
    number."""
    try:
        return load()
    except PathError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)


class TestLoaderMatchesPerLineLoad:
    @pytest.mark.parametrize(
        "kind, canonicalize_entries",
        [("whitelist", False), ("whitelist", True), ("corpus", False)],
        ids=["whitelist", "whitelist-canonicalize-entries", "corpus"],
    )
    def test_every_text_of_up_to_three_lines(self, kind, canonicalize_entries):
        # Every text of one to three LINE_SHAPES, as a string, as a
        # StringIO and as a text file in the default mode; when two lines
        # fail, the first in file order wins, whichever check each fails.
        def load(source):
            if kind == "corpus":
                return load_corpus(source)
            return load_whitelist(source, canonicalize_entries=canonicalize_entries)

        texts = 0
        for count in range(1, 4):
            for shapes in itertools.product(LINE_SHAPES, repeat=count):
                text = "\n".join(shapes)
                want = _outcome(lambda: _per_line_load(text, kind, canonicalize_entries))
                data = text.encode("utf-8", "surrogateescape")
                sources = [
                    text,
                    io.StringIO(text),
                    io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                ]
                for source in sources:
                    got = _outcome(lambda: load(source))
                    assert got == want, (shapes, type(source).__name__)
                texts += 1
        assert texts == 5_219

    @pytest.mark.parametrize(
        "make", [list, lambda lines: (line for line in lines)], ids=["list", "generator"]
    )
    def test_lines_are_not_a_source(self, make):
        # The text or a text file only, so every load is split by the one
        # line rule, not by however the caller cut the lines.
        for load in (load_whitelist, load_corpus):
            with pytest.raises(AttributeError):
                load(make(["/a\n", "/b\n"]))

    def test_file_already_read_from_is_refused(self):
        fh = io.TextIOWrapper(io.BytesIO(b"/a\n/b\n"), encoding="utf-8")
        fh.readline()
        with pytest.raises(io.UnsupportedOperation):
            load_whitelist(fh)


class TestWhitelistValue:
    def test_read_only(self):
        w = load_whitelist("/a\n")
        with pytest.raises(AttributeError):
            w.entries = frozenset()
        with pytest.raises(AttributeError):
            del w.entries
        with pytest.raises(AttributeError):
            w.extra = 1
        assert not hasattr(w, "__dict__")
        assert w.entries == {"/a"}

    @pytest.mark.parametrize(
        "make",
        [set, list, tuple, lambda paths: (p for p in paths)],
        ids=["set", "list", "tuple", "generator"],
    )
    def test_entries_are_frozen(self, make):
        # Frozen, so the entries can neither be changed after the load nor
        # make a lookup a scan.
        w = Whitelist(make(["/a", "/b"]))
        assert isinstance(w, frozenset)
        assert w.entries is w
        assert w == {"/a", "/b"}

    def test_set_changed_after_construction_changes_no_decision(self):
        entries = {"/a"}
        w = Whitelist(entries)
        entries.add("/etc/passwd")
        assert sanitize(validate_raw("/etc/passwd"), w) is False
        assert sanitize(validate_raw("/a"), w) is True

    def test_loaded_whitelist_is_the_frozenset(self):
        w = load_whitelist("/a\n")
        assert isinstance(w, frozenset)
        assert w == {"/a"}
        assert w.entries is w

    @pytest.mark.parametrize(
        "clone",
        [lambda w: pickle.loads(pickle.dumps(w)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copy_is_still_a_whitelist(self, clone):
        # .entries is read by existing callers, so a copy must keep it.
        w = clone(load_whitelist("/a\n"))
        assert type(w) is Whitelist
        assert w.entries is w
        assert w == {"/a"}
        assert sanitize(validate_raw("/a"), w) is True
        assert sanitize(validate_raw("/b"), w) is False


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
