"""Fast tests of the benchmark's own parts: its generators and its checks.

    python3 -m unittest discover -s bench -p 'test_*.py'

The checks are run once against pathguard, where they must pass, and once
against a deliberately broken canonicalizer, where they must fail.
"""

from __future__ import annotations

import collections
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import hostclock  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from pathguard import canonicalize, rewrite_canonicalize, validate_raw  # noqa: E402


def pathguard_canon(text: str) -> str:
    return canonicalize(validate_raw(text)).text


def broken_canon(text: str) -> str:
    """The stack walk with one fault: ".." is pushed as a name."""
    stack = [part for part in text.split("/") if part and part != "."]
    return "/" + "/".join(stack)


class GeneratorTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.entries = gen.make_whitelist(3, 2_000)
        cls.lines = gen.make_lines(3, "serve", cls.entries, 5_000)

    def test_whitelist_is_deterministic_per_seed(self):
        self.assertEqual(gen.make_whitelist(3, 2_000), self.entries)
        self.assertNotEqual(gen.make_whitelist(4, 2_000), self.entries)

    def test_lines_are_deterministic_per_seed(self):
        self.assertEqual(gen.make_lines(3, "serve", self.entries, 5_000), self.lines)
        self.assertNotEqual(gen.make_lines(4, "serve", self.entries, 5_000), self.lines)
        self.assertNotEqual(gen.make_lines(3, "batch", self.entries, 5_000), self.lines)

    def test_every_line_reaches_its_target(self):
        for line in self.lines:
            with self.subTest(kind=line.kind, text=line.text[:80]):
                self.assertEqual(
                    gen.expected_canonical(line.text), line.target
                )

    def test_mutated_lines_are_real_respellings(self):
        mutated = [line for line in self.lines if line.kind == "mutated"]
        self.assertTrue(mutated)
        self.assertTrue(all(line.text != line.target for line in mutated))
        spellings = "".join(line.text for line in mutated)
        for piece in ("//", "/./", "/../", "./", "../"):
            self.assertIn(piece, spellings)

    def test_class_shares_are_exact(self):
        counts = collections.Counter(line.kind for line in self.lines)
        self.assertEqual(counts, gen.class_counts(len(self.lines)))

    def test_decisions_are_what_each_class_promises(self):
        allowed = frozenset(self.entries)
        for line in self.lines:
            if line.kind in ("exact", "mutated"):
                self.assertIn(line.target, allowed)
            elif line.kind in ("attack", "miss"):
                self.assertNotIn(line.target, allowed)
        self.assertFalse(allowed & set(gen.SENSITIVE))

    def test_no_line_fails_validation(self):
        for line in self.lines:
            self.assertLessEqual(len(line.text), 4096)
            self.assertNotIn("\x00", line.text)
            self.assertNotIn("\n", line.text)
            self.assertNotIn("\r", line.text)

    def test_long_lines_span_the_long_range(self):
        lengths = [len(line.text) for line in self.lines if line.kind == "long"]
        self.assertGreaterEqual(min(lengths), gen.LONG_MIN)
        self.assertGreater(max(lengths), 3_500)

    def test_whitelist_entries_are_canonical(self):
        for entry in self.entries:
            self.assertEqual(gen.expected_canonical(entry), entry)
        names = {part for entry in self.entries for part in entry.split("/")}
        self.assertTrue({"...", "a..b", "etc.."} <= names)

    def test_shortlex_chunks_cover_the_agreement_space_in_order(self):
        chunks = list(gen.shortlex_chunks("/.ab", 9, 6))
        flat = [s for chunk in chunks for s in chunk]
        self.assertEqual(len(flat), workloads.AGREEMENT_COUNT)
        self.assertEqual(flat, list(gen.shortlex("/.ab", 9)))


class CheckTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.entries = gen.make_whitelist(5, 2_000)
        cls.allowed = frozenset(cls.entries)
        cls.lines = gen.make_lines(5, "batch", cls.entries, 3_000)

    def test_canonical_check_passes_on_pathguard(self):
        outputs = [pathguard_canon(line.text) for line in self.lines]
        self.assertEqual(workloads.check_canonical(self.lines, outputs), [])

    def test_canonical_check_bites_on_broken_canonicalizer(self):
        outputs = [broken_canon(line.text) for line in self.lines]
        problems = workloads.check_canonical(self.lines, outputs)
        attacks = sum(line.kind == "attack" for line in self.lines)
        self.assertGreaterEqual(len(problems), attacks)

    def test_canonical_check_bites_on_missing_output(self):
        outputs = [pathguard_canon(line.text) for line in self.lines[:-1]]
        self.assertTrue(workloads.check_canonical(self.lines, outputs))

    def test_decision_check_bites_on_broken_canonicalizer(self):
        good = [pathguard_canon(line.text) in self.allowed for line in self.lines]
        self.assertEqual(workloads.check_decisions(self.lines, good, self.allowed), [])
        bad = [broken_canon(line.text) in self.allowed for line in self.lines]
        self.assertTrue(workloads.check_decisions(self.lines, bad, self.allowed))

    def test_check_lines_bite_on_broken_canonicalizer(self):
        want = [gen.decision_line(line.target, self.allowed) for line in self.lines]
        got = [gen.decision_line(broken_canon(line.text), self.allowed) for line in self.lines]
        self.assertNotEqual(got, want)

    def test_agreement_check_bites_on_broken_canonicalizer(self):
        strings = list(gen.shortlex("/.ab", 5))
        oracle = [rewrite_canonicalize(validate_raw(s)).text for s in strings]
        good = [pathguard_canon(s) for s in strings]
        self.assertEqual(workloads.agreement_mismatches(strings, good, oracle), 0)
        bad = [broken_canon(s) for s in strings]
        self.assertGreater(workloads.agreement_mismatches(strings, bad, oracle), 0)

    def test_preimage_check_bites_on_broken_canonicalizer(self):
        want = gen.normpath_preimages("/.abc", 6, "/a/b")
        good = [s for s in gen.shortlex("/.abc", 6) if pathguard_canon(s) == "/a/b"]
        bad = [s for s in gen.shortlex("/.abc", 6) if broken_canon(s) == "/a/b"]
        self.assertEqual(good, want)
        self.assertNotEqual(bad, want)


class ManifestTests(unittest.TestCase):
    def test_printed_metrics_are_the_manifest_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for printed, listed in ((run.UNITS, spec["end_to_end"]), (layers.UNITS, spec["per_layer"])):
            self.assertEqual(printed, {m["name"]: m["unit"] for m in listed})


class LatencyTests(unittest.TestCase):
    def test_arrival_quantile_is_the_read_that_completed_the_line(self):
        arrivals = [(0.5, 0), (1.0, 40), (2.0, 99), (3.0, 100)]
        self.assertEqual(hostclock.arrival_quantile(arrivals, 0.01), 1.0)
        self.assertEqual(hostclock.arrival_quantile(arrivals, 0.5), 2.0)
        self.assertEqual(hostclock.arrival_quantile(arrivals, 0.99), 2.0)
        self.assertEqual(hostclock.arrival_quantile(arrivals, 1.0), 3.0)

    def test_best_latencies_returns_every_pass_of_outputs(self):
        chunk = list(gen.shortlex("/.ab", 4))
        lat, outputs = workloads.best_latencies(chunk)
        self.assertEqual(len(lat), len(chunk))
        self.assertTrue(all(x > 0 for x in lat))
        want = [gen.expected_canonical(s) for s in chunk]
        self.assertEqual(outputs, [want] * workloads.LATENCY_PASSES)
        self.assertNotEqual([broken_canon(s) for s in chunk], want)


class HistogramTests(unittest.TestCase):
    def test_quantiles_are_within_a_bin(self):
        hist = workloads.LatencyHistogram()
        hist.add(range(1, 10_001))
        self.assertAlmostEqual(hist.quantile(0.5), 5_000, delta=5_000 * 0.003)
        self.assertAlmostEqual(hist.quantile(0.99), 9_900, delta=9_900 * 0.003)


if __name__ == "__main__":
    unittest.main()
