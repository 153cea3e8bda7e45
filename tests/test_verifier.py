import itertools
import operator
import os
import time

import pytest

from pathguard import (
    BudgetExceeded,
    CanonicalPath,
    EnumerationSpec,
    canonicalize,
    enumerate_all,
    preimages_of,
    rewrite_canonicalize,
    total_count,
    validate_raw,
    verify_no_residue,
)
from pathguard import verifier as verifier_module
from pathguard.canonical import _canonical_texts
from pathguard.verifier import _BLOCK, _blocks, _sharded


def _formula(text):
    """The canonical text of one string, from the bulk form the sweeps
    use, which these tests then patch."""
    (out,) = _canonical_texts((text,))
    return out


def _strings(spec):
    """The strings of ``_blocks(spec)``, flattened."""
    return [p + s for p, suffixes in _blocks(spec) for s in suffixes]


def _bulk(canonical_text):
    """``canonical._canonical_texts`` with ``canonical_text`` for the
    formula: the form in which the sweeps call it."""
    return lambda texts, prefix="": map(canonical_text, map(prefix.__add__, texts))


class TestEnumerationSpec:
    def test_defaults(self):
        spec = EnumerationSpec()
        assert spec.alphabet == "/.abc"
        assert spec.max_len == 8

    def test_alphabet_must_contain_separator_and_dot(self):
        with pytest.raises(ValueError):
            EnumerationSpec(alphabet="ab")
        with pytest.raises(ValueError):
            EnumerationSpec(alphabet="/ab")

    def test_no_nul_no_duplicates_no_negative_len(self):
        with pytest.raises(ValueError):
            EnumerationSpec(alphabet="/.\x00")
        with pytest.raises(ValueError):
            EnumerationSpec(alphabet="/.aa")
        with pytest.raises(ValueError):
            EnumerationSpec(max_len=-1)

    def test_immutable_and_rebuilt_only_through_the_checks(self):
        spec = EnumerationSpec("/.a", max_len=3)
        assert repr(spec) == "EnumerationSpec(alphabet='/.a', max_len=3)"
        assert spec == EnumerationSpec(alphabet="/.a", max_len=3)
        with pytest.raises(AttributeError):
            spec.max_len = 4
        assert spec._replace(max_len=4) == EnumerationSpec("/.a", 4)
        with pytest.raises(ValueError):
            spec._replace(max_len=-1)
        with pytest.raises(ValueError):
            EnumerationSpec._make(("/.aa", 3))


class TestEnumerateAll:
    def test_single_letter_alphabet(self):
        # Degenerate alphabet for the counting contract only.
        visited = []
        spec = EnumerationSpec(alphabet="/.", max_len=2)
        count = enumerate_all(spec, visited.append)
        assert count == 7
        assert visited == ["", "/", ".", "//", "/.", "./", ".."]

    def test_shortlex_order_and_uniqueness(self):
        visited = []
        spec = EnumerationSpec(alphabet="/.a", max_len=3)
        assert enumerate_all(spec, visited.append) == total_count(spec) == 40
        assert len(set(visited)) == 40
        assert visited == [
            "".join(chars)
            for length in range(spec.max_len + 1)
            for chars in itertools.product(spec.alphabet, repeat=length)
        ]

    def test_closed_form_default_spec(self):
        # Sum of 5^k for k in 0..8 == (5^9 - 1) / 4.
        assert total_count(EnumerationSpec()) == 488281

    @pytest.mark.parametrize("alphabet", ["/.", "/.a", "/.abc"])
    def test_closed_form_equals_the_summed_form(self, alphabet):
        for max_len in range(9):
            spec = EnumerationSpec(alphabet=alphabet, max_len=max_len)
            summed = sum(len(alphabet) ** k for k in range(max_len + 1))
            assert total_count(spec) == summed

    def test_closed_form_is_quick_on_a_huge_max_len(self):
        started = time.perf_counter()
        count = total_count(EnumerationSpec(max_len=30_000))
        assert time.perf_counter() - started < 0.1
        assert count % 5 == 1

    def test_budget_exceeded(self):
        spec = EnumerationSpec(alphabet="/.abc", max_len=12)
        with pytest.raises(BudgetExceeded):
            enumerate_all(spec, lambda s: None)

    def test_limit_is_read_at_call_time(self, monkeypatch):
        # The overnight sweep raises the fixed limit this way; 7 strings.
        spec = EnumerationSpec(alphabet="/.", max_len=2)
        monkeypatch.setattr(verifier_module, "MAX_SWEEP", 6)
        with pytest.raises(BudgetExceeded, match="exceeds budget 6$"):
            verify_no_residue(spec)
        monkeypatch.setattr(verifier_module, "MAX_SWEEP", 7)
        assert verify_no_residue(spec) == []


# Alphabets of 2, 4, 5 and 121 characters, each with its suffix length: the
# longest s with len(alphabet) ** s <= _BLOCK.
BLOCK_ALPHABETS = [
    ("/.", 12),
    ("/.ab", 6),
    ("/.abc", 5),
    ("/." + "".join(map(chr, range(0x100, 0x100 + 119))), 1),
]
BLOCK_IDS = [str(len(alphabet)) for alphabet, _ in BLOCK_ALPHABETS]


class TestBlocks:
    """``_blocks`` yields the shortlex order a prefix block at a time, and
    ``_sharded`` cuts it into ranges of whole blocks."""

    @pytest.mark.parametrize("alphabet,width", BLOCK_ALPHABETS, ids=BLOCK_IDS)
    def test_blocks_flatten_to_shortlex_order(self, alphabet, width):
        k = len(alphabet)
        assert k**width <= _BLOCK < k ** (width + 1)
        for max_len in range(width + 3):
            spec = EnumerationSpec(alphabet, max_len)
            whole = list(_blocks(spec))
            # Compared a string at a time: over 121 characters there are
            # 1,786,324 strings.
            got = itertools.chain.from_iterable(
                map(map, [p.__add__ for p, _ in whole], [s for _, s in whole])
            )
            want = map("".join, itertools.chain.from_iterable(
                itertools.product(alphabet, repeat=length) for length in range(max_len + 1)
            ))
            assert all(itertools.starmap(operator.eq, itertools.zip_longest(got, want)))
            # Below the suffix length each length is one block with prefix "";
            # from it on, each prefix of the remaining length is one block.
            assert [(len(p), len(s)) for p, s in whole] == [
                (max(length - width, 0), k ** min(length, width))
                for length in range(max_len + 1)
                for _ in range(k ** max(length - width, 0))
            ]
            # One suffix list serves every block of the longest suffixes.
            assert len({id(s) for _, s in whole if len(s) == k**width}) <= 1

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("alphabet,width", BLOCK_ALPHABETS, ids=BLOCK_IDS)
    def test_ranges_are_whole_blocks_cut_at_each_share(self, monkeypatch, alphabet, width, n):
        # Each block's one finding names the process that checked it, so the
        # findings show the ranges in order. The caller also forks and
        # merges, so it runs the first range, which holds no more than its
        # share; with more CPUs than strings, that is the first block alone.
        caller, forked = os.getpid(), []
        fork_shard = verifier_module._fork_shard

        def fork(check, blocks):
            forked.append(blocks)
            return fork_shard(check, blocks)

        def check(prefix, suffixes):
            return [(os.getpid(), prefix, len(suffixes))]

        monkeypatch.setattr(verifier_module, "_fork_shard", fork)
        _cpus(monkeypatch, n)
        for max_len in range(width + 3):
            spec = EnumerationSpec(alphabet, max_len)
            whole = [(p, len(s)) for p, s in _blocks(spec)]
            count = total_count(spec)
            forked.clear()
            found = _sharded(spec, check)
            assert [(p, size) for _, p, size in found] == whole
            ranges = [
                [size for *_, size in blocks]
                for _, blocks in itertools.groupby(found, operator.itemgetter(0))
            ]
            assert found[0][0] == caller and len(forked) == len(ranges) - 1
            sizes = list(map(sum, ranges))
            assert list(itertools.accumulate(sizes, initial=0)) == _cuts(spec, n)
            assert sizes[0] <= max(count // n, 1)


class TestVerifyNoResidue:
    def test_small_sweep_is_clean(self):
        spec = EnumerationSpec(alphabet="/.a", max_len=4)
        assert verify_no_residue(spec) == []

    def test_zero_length_sweep(self):
        assert verify_no_residue(EnumerationSpec(max_len=0)) == []

    def test_trailing_dot_and_dotdot_are_residue(self, monkeypatch):
        # A faulty canonicalizer that leaves a last "." or ".." in place.
        def faulty(text):
            if text in ("a/.", "a/.."):
                return "/" + text
            return _formula(text)

        monkeypatch.setattr(verifier_module, "_canonical_texts", _bulk(faulty))
        found = verify_no_residue(EnumerationSpec(alphabet="/.a", max_len=4))
        assert [(v.input, v.output, v.offending) for v in found] == [
            ("a/.", "/a/.", "/./"),
            ("a/..", "/a/..", "/../"),
        ]

    def test_huge_max_len_is_refused_at_once(self):
        # The count is not summed past the budget, so the refusal is quick
        # and its message short, however long the strings would be.
        with pytest.raises(BudgetExceeded) as err:
            verify_no_residue(EnumerationSpec(max_len=10_000))
        assert "budget 2000000" in str(err.value)
        assert len(str(err.value)) < 120

    def test_astronomical_max_len_is_refused_without_the_power(self):
        # 5**(10**9 + 1) would take minutes and gigabytes to compute; the
        # count is at least 2**max_len, so the budget's bit length decides.
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            verify_no_residue(EnumerationSpec(max_len=10**9))
        assert time.perf_counter() - started < 0.1


class TestPreimagesOf:
    def test_tiny_brute_force(self):
        spec = EnumerationSpec(alphabet="/.a", max_len=2)
        hits = preimages_of(spec, CanonicalPath("/a"))
        assert sorted(hits) == ["/a", "a", "a/"]

    def test_root_includes_empty_input(self):
        spec = EnumerationSpec(alphabet="/.a", max_len=2)
        assert "" in preimages_of(spec, CanonicalPath("/"))

    def test_disjoint_for_distinct_targets(self):
        spec = EnumerationSpec(alphabet="/.ab", max_len=4)
        a = set(preimages_of(spec, CanonicalPath("/a")))
        b = set(preimages_of(spec, CanonicalPath("/b")))
        assert not (a & b)

    def test_closed_under_equivalence_mutations_within_budget(self):
        spec = EnumerationSpec(alphabet="/.ab", max_len=6)
        hits = set(preimages_of(spec, CanonicalPath("/a/b")))
        for hit in hits:
            # Duplicate each "/" in turn.
            for i, ch in enumerate(hit):
                if ch == "/" and len(hit) + 1 <= spec.max_len:
                    assert hit[:i] + "/" + hit[i:] in hits
            # Insert "./" after each "/".
            for i, ch in enumerate(hit):
                if ch == "/" and len(hit) + 2 <= spec.max_len:
                    assert hit[: i + 1] + "./" + hit[i + 1 :] in hits


def _cpus(monkeypatch, n):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(n)), raising=False
    )


def _faulty_canonical_text(text):
    # Leaves a trailing "/" on every non-root output of an input that ends
    # in "/a": the faulty strings are spread over the whole rank order, so
    # they fall in every shard.
    out = _formula(text)
    if out != "/" and text.endswith("/a"):
        return out + "/"
    return out


def _cuts(spec, n):
    """The ranks at which the sweeps cut the space for n CPUs: for each i
    up to n, the last block edge at or before count * i // n, once each."""
    edges = list(itertools.accumulate((len(s) for _, s in _blocks(spec)), initial=0))
    shares = [edges[-1] * i // n for i in range(n + 1)]
    return sorted({max(e for e in edges if e <= share) for share in shares})


def _rank(spec, text):
    return _strings(spec).index(text)


class TestSharding:
    """The sweeps split the blocks across CPUs; nothing else may change."""

    SPEC = EnumerationSpec(alphabet="/.ab", max_len=6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_preimages_independent_of_cpu_count(self, monkeypatch, n):
        target = CanonicalPath("/a/b")
        plain = []

        def collect(text):
            if canonicalize(validate_raw(text)) == target:
                plain.append(text)

        enumerate_all(self.SPEC, collect)
        _cpus(monkeypatch, n)
        assert preimages_of(self.SPEC, target) == plain
        assert len(plain) > 10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_faulty_residue_independent_of_cpu_count(self, monkeypatch, n):
        monkeypatch.setattr(
            verifier_module, "_canonical_texts", _bulk(_faulty_canonical_text)
        )
        plain = []

        def collect(text):
            out = _faulty_canonical_text(text)
            if out != "/" and out.endswith("/"):
                plain.append((text, out, "trailing-slash"))

        enumerate_all(self.SPEC, collect)
        _cpus(monkeypatch, n)
        found = verify_no_residue(self.SPEC)
        assert [(v.input, v.output, v.offending) for v in found] == plain
        # Faulty strings lie in every shard's range.
        faulty = {v.input for v in found}
        ranks = [r for r, text in enumerate(_strings(self.SPEC)) if text in faulty]
        cuts = _cuts(self.SPEC, n)
        for lo, hi in zip(cuts, cuts[1:]):
            assert any(lo <= r < hi for r in ranks)

    # 21,845 strings. Over "/.ab" the suffixes are the 4,096 strings of
    # length 6: lengths 0 to 5 are a block each, starting at ranks 0, 1, 5,
    # 21, 85 and 341; length 6 is one block at rank 1,365, and length 7
    # four, at ranks 5,461 + 4,096 * j.
    BLOCK_SPEC = EnumerationSpec(alphabet="/.ab", max_len=7)
    BLOCK_FIRSTS = [0, 1, 5, 21, 85, 341, 1365, 5461, 9557, 13653, 17749, 21845]

    def _edges(self, n):
        """The ranks of each block's first and last string in BLOCK_SPEC,
        which are the strings on both sides of each cut for n CPUs."""
        firsts = self.BLOCK_FIRSTS
        sizes = [len(suffixes) for _, suffixes in _blocks(self.BLOCK_SPEC)]
        assert list(itertools.accumulate(sizes, initial=0)) == firsts
        assert set(_cuts(self.BLOCK_SPEC, n)) <= set(firsts)
        return sorted({*firsts[:-1], *(rank - 1 for rank in firsts[1:])})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_faults_at_block_edges_found_as_one_by_one(self, monkeypatch, n):
        # The residue sweep checks a block of outputs at once and walks only
        # a failing block string by string. Faults planted at each block's
        # first and last string (which puts them on both sides of every
        # length boundary and shard cut, and at a prefix block's first and
        # last suffix) must come out exactly as a walk of every string
        # reports them, in shortlex order.
        spec = self.BLOCK_SPEC
        strings = _strings(spec)
        edges = self._edges(n)
        faults = [
            lambda out: out + "/",
            lambda out: "x" + out,
            lambda out: out + "/.",
            lambda out: out + "/..",
        ]
        planted = {}
        for i, rank in enumerate(edges):
            text = strings[rank]
            planted[text] = faults[i % len(faults)](_formula(text))

        def faulty(text):
            return planted.get(text) or _formula(text)

        want = []
        for text in strings:
            out = faulty(text)
            if not out.startswith("/"):
                want.append((text, out, "missing-leading-slash"))
            if out != "/" and out.endswith("/"):
                want.append((text, out, "trailing-slash"))
            closed = out if out.endswith("/") else out + "/"
            want += [(text, out, bad) for bad in ("//", "/./", "/../") if bad in closed]
        assert {found[0] for found in want} == set(planted)

        monkeypatch.setattr(verifier_module, "_canonical_texts", _bulk(faulty))
        _cpus(monkeypatch, n)
        found = verify_no_residue(spec)
        assert [(v.input, v.output, v.offending) for v in found] == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_preimages_at_block_edges_found_as_one_by_one(self, monkeypatch, n):
        # The preimage check scans a block's outputs for the target at once
        # and lists the hits only in a block that holds one. Hits planted at
        # each block's first and last string, and so on both sides of each
        # shard cut, beside the real preimages, must come out exactly as a
        # walk of every string finds them, in shortlex order. The oracle is
        # made to agree with the planted hits, so that only the listing is
        # under test.
        spec = self.BLOCK_SPEC
        strings = _strings(spec)
        target = CanonicalPath("/a/b")
        planted = {strings[rank] for rank in self._edges(n)}

        def faulty(text):
            return target.text if text in planted else _formula(text)

        want = [text for text in strings if faulty(text) == target]
        assert planted < set(want)

        monkeypatch.setattr(verifier_module, "_canonical_texts", _bulk(faulty))
        monkeypatch.setattr(verifier_module, "rewrite_canonicalize", faulty)
        _cpus(monkeypatch, n)
        assert preimages_of(spec, target) == want

    def test_a_clean_block_is_not_walked(self, monkeypatch):
        # Every block of a clean sweep passes the bulk check, so no string of
        # it reaches the per-string findings code.
        check = verifier_module._all_canonical
        passed = []

        def all_canonical(texts):
            passed.append(check(texts))
            return passed[-1]

        monkeypatch.setattr(verifier_module, "_all_canonical", all_canonical)
        _cpus(monkeypatch, 1)
        assert verify_no_residue(self.BLOCK_SPEC) == []
        assert passed == [True] * (len(self.BLOCK_FIRSTS) - 1)

    # Over "/.a" up to length 3 (40 strings), the preimages of "/a" are, in
    # shortlex order: "a", "/a", "a/", "//a", "/a/", "./a", "a//" and "a/.".
    # Each length is one block, so for n up to 4 the only cuts are at ranks
    # 4 and 13: "./a", of rank 24, lies in a child's range for n of 2 to 4.
    PREIMAGE_SPEC = EnumerationSpec(alphabet="/.a", max_len=3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_divergence_in_child_shard_raises_in_caller(self, monkeypatch, n):
        # The oracle disagrees on "./a" and on "a//". The first in shortlex
        # order, "./a", must be reported.
        spec = self.PREIMAGE_SPEC
        assert _rank(spec, "./a") == 24 and _rank(spec, "a//") == 31

        def faulty_oracle(raw):
            if raw in ("./a", "a//"):
                return CanonicalPath("/x")
            return rewrite_canonicalize(raw)

        monkeypatch.setattr(verifier_module, "rewrite_canonicalize", faulty_oracle)
        _cpus(monkeypatch, n)
        with pytest.raises(AssertionError) as err:
            preimages_of(spec, CanonicalPath("/a"))
        assert str(err.value) == "oracle divergence on './a': stack says '/a'"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_error_reaches_the_caller_unchanged(self, monkeypatch, n):
        # "./a" is in a child's range when n is 2 or more; the oracle's own
        # error must not turn into a failed shard.
        spec = self.PREIMAGE_SPEC
        assert n == 1 or _rank(spec, "./a") >= _cuts(spec, n)[1]

        def failing_oracle(raw):
            if raw == "./a":
                raise ValueError("oracle failed on './a'")
            return rewrite_canonicalize(raw)

        monkeypatch.setattr(verifier_module, "rewrite_canonicalize", failing_oracle)
        _cpus(monkeypatch, n)
        with pytest.raises(ValueError, match=r"^oracle failed on '\./a'$"):
            preimages_of(spec, CanonicalPath("/a"))

    def test_child_exiting_abnormally_raises_runtime_error(self, monkeypatch):
        caller = os.getpid()

        def dying(text):
            if os.getpid() != caller:
                os._exit(3)
            return _formula(text)

        monkeypatch.setattr(verifier_module, "_canonical_texts", _bulk(dying))
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="status 3"):
            verify_no_residue(self.SPEC)

    def test_child_failing_after_sending_raises_runtime_error(self, monkeypatch):
        # Only children call os._exit here; each sends its result, then exits 7.
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(7))
        _cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="status 7"):
            verify_no_residue(self.SPEC)

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_range_one_string_short_raises_runtime_error(self, monkeypatch, n):
        # The last block, a child's when n is 2, holds one string fewer;
        # the count its runner sends back must give it away.
        count = total_count(self.SPEC)
        blocks = verifier_module._blocks

        def short(spec):
            *head, (prefix, suffixes) = blocks(spec)
            return [*head, (prefix, suffixes[:-1])]

        monkeypatch.setattr(verifier_module, "_blocks", short)
        _cpus(monkeypatch, n)
        with pytest.raises(RuntimeError) as err:
            verify_no_residue(self.SPEC)
        assert str(err.value) == f"shards visited {count - 1} of {count} strings"

    @staticmethod
    def _forbid_fork(monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)

    def test_budget_checked_before_any_fork(self, monkeypatch):
        def no_blocks(spec):
            raise AssertionError("blocks built")

        monkeypatch.setattr(verifier_module, "_blocks", no_blocks)
        self._forbid_fork(monkeypatch)
        _cpus(monkeypatch, 2)
        with pytest.raises(BudgetExceeded):
            verify_no_residue(EnumerationSpec(max_len=12))

    def test_one_cpu_forks_nothing(self, monkeypatch):
        self._forbid_fork(monkeypatch)
        _cpus(monkeypatch, 1)
        assert verify_no_residue(self.SPEC) == []
        assert preimages_of(self.SPEC, CanonicalPath("/a")) != []
