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


def test_equation_search_demo_splits_family_from_sporadic():
    # at n <= 400, t <= 3, r = 1: 24, 120 and 144 are (n-2)!! times a product
    # equal to n; 12, 20, 30 and 72 are not
    (path,) = [p for p in DEMOS if p.name == "02_equation_search.py"]
    split = "3 gap-2 family members [24, 120, 144] and 4 sporadic solutions [12, 20, 30, 72];"
    assert split in run_demo(path).stdout
