import os
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


def test_mvgg_sweep_csv():
    lines = _run("mvgg_sweep.py", "--groups", "2", "--csv")
    assert lines[0] == "network,kib,mode,energy_uj,time_ms,fps,gops"
    rows = [line.split(",") for line in lines[1:]]
    assert {r[2] for r in rows} == {"marshal-0v6", "sram-0v6", "hyperram"}
    for r in rows:
        assert len(r) == 7 and r[0] == "mvgg-2"
        assert all(float(v) > 0 for v in r[3:])


def test_throughput_calibration_rows():
    lines = _run("throughput_calibration.py", "--pixels", "2")
    assert lines[0] == "tp=128  peak 256 op/cycle"
    assert lines[1].split() == ["layer", "ops", "cycles", "op/cy", "%", "peak"]
    rows = lines[2:]
    assert len(rows) == 7
    for row in rows:
        # a layer that failed would print its error instead of a % column
        assert row.endswith("%") and " 2x2 " in row
