"""Every demo runs to completion from a checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr


def test_prime_bounds_demo_shows_the_uncatalogued_pair():
    (path,) = [p for p in DEMOS if p.name == "03_prime_bounds.py"]
    assert "violators missing from the 38-pair catalogue: [(15, 2)]" in run_demo(path).stdout
