import os
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


@pytest.mark.parametrize("module", ["pathguard", "pathguard.cli"])
def test_import_loads_no_heavy_modules(module):
    # -S: a .pth file in site-packages may load one of these before the
    # package does, and hide the package's own import.
    src = os.path.dirname(os.path.dirname(pathguard.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        f"import sys, {module}\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout.strip() == ""


def test_export_list_resolves_without_repeats():
    names = pathguard.__all__
    assert [n for n in names if not hasattr(pathguard, n)] == []
    assert len(set(names)) == len(names)
