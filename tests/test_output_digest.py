"""The rendered explanations of scripts/output_digest.py's fixed inputs stay byte-identical."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

DIGEST = "a8e2d00800910acccb2a1b2067204e6d06f12ebd7442a3e0c3b3138376833f92"


def test_output_digest_unchanged():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == f"{DIGEST}  (342 inputs)\n"
