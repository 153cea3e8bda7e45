import itertools
import os

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
from pathguard.model import _new
from pathguard.verifier import _unit_strings, _units


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
        enumerate_all(spec, visited.append)
        assert len(visited) == len(set(visited)) == total_count(spec)
        lengths = [len(s) for s in visited]
        assert lengths == sorted(lengths)

    def test_closed_form_default_spec(self):
        # Sum of 5^k for k in 0..8 == (5^9 - 1) / 4.
        assert total_count(EnumerationSpec()) == 488281

    def test_budget_exceeded(self):
        spec = EnumerationSpec(alphabet="/.abc", max_len=12)
        with pytest.raises(BudgetExceeded):
            enumerate_all(spec, lambda s: None)


class TestVerifyNoResidue:
    def test_small_sweep_is_clean(self):
        spec = EnumerationSpec(alphabet="/.a", max_len=4)
        assert verify_no_residue(spec) == []

    def test_zero_length_sweep(self):
        assert verify_no_residue(EnumerationSpec(max_len=0)) == []

    def test_trailing_dot_and_dotdot_are_residue(self, monkeypatch):
        # A faulty canonicalizer that leaves a last "." or ".." in place.
        def faulty(raw):
            if raw in ("a/.", "a/.."):
                return _new(CanonicalPath, "/" + raw)
            return canonicalize(raw)

        monkeypatch.setattr(verifier_module, "canonicalize", faulty)
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


def _faulty_canonicalize(raw):
    # Leaves a trailing "/" on every non-root output of an "a/"- or
    # "ab/"-prefixed input: the faulty strings fall in units of both shards.
    out = canonicalize(raw)
    if out != "/" and raw.startswith(("a/", "ab/")):
        return _new(CanonicalPath, out + "/")
    return out


class TestSharding:
    """The sweeps split their units across CPUs; nothing else may change."""

    SPEC = EnumerationSpec(alphabet="/.ab", max_len=6)

    def test_units_walk_in_shortlex_order(self):
        spec = EnumerationSpec(alphabet="/.a", max_len=5)
        walked = [s for u in _units(spec) for s in _unit_strings(spec, u)]
        want = [
            "".join(chars)
            for length in range(spec.max_len + 1)
            for chars in itertools.product(spec.alphabet, repeat=length)
        ]
        assert walked == want
        assert len(walked) == total_count(spec) == 364
        visited = []
        assert enumerate_all(spec, visited.append) == 364
        assert visited == want

    def test_preimages_independent_of_cpu_count(self, monkeypatch):
        target = CanonicalPath("/a/b")
        plain = []

        def collect(text):
            if canonicalize(validate_raw(text)) == target:
                plain.append(text)

        enumerate_all(self.SPEC, collect)
        _cpus(monkeypatch, 1)
        one = preimages_of(self.SPEC, target)
        _cpus(monkeypatch, 2)
        assert preimages_of(self.SPEC, target) == one == plain
        assert len(plain) > 10

    def test_faulty_residue_independent_of_cpu_count(self, monkeypatch):
        monkeypatch.setattr(verifier_module, "canonicalize", _faulty_canonicalize)
        plain = []

        def collect(text):
            out = _faulty_canonicalize(validate_raw(text))
            if out != "/" and out.endswith("/"):
                plain.append((text, out, "trailing-slash"))

        enumerate_all(self.SPEC, collect)
        _cpus(monkeypatch, 1)
        one = verify_no_residue(self.SPEC)
        _cpus(monkeypatch, 2)
        two = verify_no_residue(self.SPEC)
        assert two == one
        assert [(v.input, v.output, v.offending) for v in two] == plain
        # Faulty strings lie in units of both shards.
        faulty = {v.input for v in two}
        shards = {
            index % 2
            for index, unit in enumerate(_units(self.SPEC))
            if faulty.intersection(_unit_strings(self.SPEC, unit))
        }
        assert shards == {0, 1}

    def test_divergence_in_child_shard_raises_in_caller(self, monkeypatch):
        # "a" is in unit 3 (length 1, prefix "a"), which shard 1 runs; "/a"
        # is in shard 0. The first in shortlex order, "a", must be reported.
        spec = EnumerationSpec(alphabet="/.a", max_len=3)
        assert _units(spec)[3] == (1, "a") and _units(spec)[6] == (2, "/a")

        def faulty_oracle(raw):
            if raw in ("a", "/a"):
                return CanonicalPath("/x")
            return rewrite_canonicalize(raw)

        monkeypatch.setattr(verifier_module, "rewrite_canonicalize", faulty_oracle)
        messages = []
        for n in (1, 2):
            _cpus(monkeypatch, n)
            with pytest.raises(AssertionError) as err:
                preimages_of(spec, CanonicalPath("/a"))
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "oracle divergence on 'a': stack says '/a'"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_caller_runs_the_smallest_shard(self, monkeypatch, n):
        # The caller also forks and merges, so it must not take the most work.
        # A child's calls land in its own copy of these lists, so the caller
        # sees only the shard it ran itself.
        spec = EnumerationSpec()
        caller, forked = [], []
        run_shard, fork_shard = verifier_module._run_shard, verifier_module._fork_shard

        def run_in_caller(spec, scan, units):
            caller.append(units)
            return run_shard(spec, scan, units)

        def fork(spec, scan, units):
            forked.append(units)
            return fork_shard(spec, scan, units)

        def count(strings):
            return sum(1 for _ in strings), []

        monkeypatch.setattr(verifier_module, "_run_shard", run_in_caller)
        monkeypatch.setattr(verifier_module, "_fork_shard", fork)
        _cpus(monkeypatch, n)
        assert verifier_module._sharded(spec, count, total_count(spec)) == []

        def size(units):
            return sum(1 for u in units for _ in _unit_strings(spec, u))

        assert len(caller) == 1 and len(forked) == n - 1
        assert all(size(caller[0]) <= size(units) for units in forked)

    def test_child_exiting_abnormally_raises_runtime_error(self, monkeypatch):
        caller = os.getpid()

        def dying(raw):
            if os.getpid() != caller:
                os._exit(3)
            return canonicalize(raw)

        monkeypatch.setattr(verifier_module, "canonicalize", dying)
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

    @staticmethod
    def _forbid_fork(monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)

    def test_budget_checked_before_any_fork(self, monkeypatch):
        self._forbid_fork(monkeypatch)
        _cpus(monkeypatch, 2)
        with pytest.raises(BudgetExceeded):
            verify_no_residue(EnumerationSpec(max_len=12))

    def test_one_cpu_forks_nothing(self, monkeypatch):
        self._forbid_fork(monkeypatch)
        _cpus(monkeypatch, 1)
        assert verify_no_residue(self.SPEC) == []
        assert preimages_of(self.SPEC, CanonicalPath("/a")) != []
