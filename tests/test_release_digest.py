"""scripts/release_digest.py runs and prints one sha256."""

import re
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "release_digest.py"


def _digest(*args):
    out = subprocess.run([sys.executable, str(_SCRIPT), *args], capture_output=True, text=True,
                         check=True)
    return out.stdout


def test_one_sweep_prints_a_hex_digest():
    text = _digest("--sweeps", "1")
    assert re.fullmatch(r"[0-9a-f]{64}\n", text)
    # The same checkout prints the same digest, and every sweep counts.
    assert _digest("--sweeps", "1") == text
    assert _digest("--sweeps", "0") != text
