"""The rendered explanations of scripts/output_digest.py's fixed inputs stay byte-identical.

The script runs under two hash seeds, so no explanation may depend on
the iteration order of a set or dict of strings.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

DIGEST = "a8e2d00800910acccb2a1b2067204e6d06f12ebd7442a3e0c3b3138376833f92"


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_output_digest_unchanged(hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True, env=env)
    assert proc.stdout == f"{DIGEST}  (342 inputs)\n"
