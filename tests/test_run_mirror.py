"""scripts/run_mirror.py: the script starts and parses its arguments."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_mirror.py"


def test_help_exits_zero():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--setup {A,B}" in proc.stdout
