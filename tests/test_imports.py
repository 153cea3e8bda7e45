import glob
import os
import re
import subprocess
import sys

import pytest

import pathguard

# Serve and batch processes import the package too; each of these would add
# to their start-up time and peak memory, and no decision needs one.
# dataclasses loads inspect, which loads ast, dis and tokenize; json is
# only for ``--format structured``, which imports it when it prints.
HEAVY = (
    "pickle",
    "multiprocessing",
    "concurrent.futures",
    "logging",
    "dataclasses",
    "inspect",
    "json",
)


SRC = os.path.dirname(os.path.dirname(pathguard.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


def _loaded_after_import(module, *path):
    """The names in ``sys.modules`` once ``module`` is imported in a fresh
    ``python -S`` child with ``path`` as its PYTHONPATH. -S keeps
    site-packages out: a .pth file there may load modules before the import
    does and hide what it loads, and a third-party import fails."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, {module}\nprint(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return done.stdout.split()


@pytest.mark.parametrize("module", ["pathguard", "pathguard.cli"])
def test_import_loads_no_heavy_modules(module):
    loaded = _loaded_after_import(module, SRC)
    assert [m for m in HEAVY if m in loaded] == []


def test_spec_loads_no_pathguard_module():
    # The test references must share no code with what they check, so spec
    # imports the stdlib only; a stray import fails here by name.
    loaded = _loaded_after_import("spec", SRC, TESTS)
    assert [m for m in loaded if m.startswith("pathguard")] == []


def test_export_list_resolves_without_repeats():
    names = pathguard.__all__
    assert [n for n in names if not hasattr(pathguard, n)] == []
    assert len(set(names)) == len(names)


def _unused(names, lines):
    """The names that occur as a whole word on no line but the ``def`` or
    ``class`` line that defines them."""
    unused = []
    for name in names:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"^\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    return unused


def test_every_public_name_has_a_consumer():
    """Every name in ``__all__`` is used outside its own unit tests: in the
    package, the benchmark, or the acceptance suite and its helpers.

    A tripwire, not a proof: it looks for the name as a whole word on any
    line but the one that defines it, so a docstring mention still counts
    as a use. A pattern that matches no file fails first, by name: in a
    copy of the tree without ``bench/``, a name that only the benchmark
    uses would otherwise look unused.
    """
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    patterns = [
        "src/pathguard/*.py",
        "bench/*.py",
        "tests/test_acceptance.py",
        "tests/invariant_checks.py",
    ]
    found = {p: glob.glob(os.path.join(repo, p)) for p in patterns}
    assert [p for p in patterns if not found[p]] == []
    lines = []
    for pattern in patterns:
        for path in found[pattern]:
            if os.path.basename(path) != "__init__.py":
                with open(path, encoding="utf-8") as fh:
                    lines += fh.read().splitlines()
    assert _unused(pathguard.__all__, lines) == []


def test_tripwire_skips_the_defining_line():
    lines = ["def f(x):", "    return x", "class C:", "    pass", "y = g(1)"]
    assert _unused(["f", "C", "g"], lines) == ["f", "C"]


def test_tripwire_matches_whole_words_only():
    # canonicalize_traced is not a use of canonicalize, nor the reverse.
    lines = ["out = canonicalize_traced(raw)", "x = precanonicalize(raw)"]
    assert _unused(["canonicalize", "canonicalize_traced"], lines) == [
        "canonicalize"
    ]
