import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_throughput_calibration_rows():
    lines = _run("throughput_calibration.py", "--pixels", "2")
    assert lines[0] == "tp=128  peak 256 op/cycle"
    assert lines[1].split() == ["layer", "ops", "cycles", "op/cy", "%", "peak"]
    rows = lines[2:]
    assert len(rows) == 7
    for row in rows:
        # a layer that failed would print its error instead of a % column
        assert row.endswith("%") and " 2x2 " in row


def test_readme_documents_exactly_the_scripts():
    # a deleted script cannot stay documented, nor a new one go unlisted
    readme = (ROOT / "README.md").read_text()
    documented = set(re.findall(r"python3 scripts/([\w.-]+\.py)", readme))
    present = {p.name for p in (ROOT / "scripts").glob("*.py")}
    assert present and documented == present
