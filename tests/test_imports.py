import os
import subprocess
import sys

import pathguard

# Serve and batch processes import the package too; these would raise their
# peak memory for a feature only the verifier's shards use.
HEAVY = ("pickle", "multiprocessing", "concurrent.futures")


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
