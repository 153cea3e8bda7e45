import os
import subprocess
import sys

import pathguard

# Serve and batch processes import the package too; each of these would add
# to their start-up time and peak memory, and no decision needs one.
HEAVY = ("pickle", "multiprocessing", "concurrent.futures", "logging")


def test_import_loads_no_heavy_modules():
    src = os.path.dirname(os.path.dirname(pathguard.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, pathguard\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
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
