"""The benchmark's own self-test must pass against the current sources.

perfbench/selftest.py checks CLI records against the reference
fingerprints in perfbench/references.json and that every tracer probe
still installs and restores, so a rename or deletion that breaks the
traced run fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
