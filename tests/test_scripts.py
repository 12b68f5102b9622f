"""The scripts under scripts/, each run as a process on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

from maltsev.rewriting import count_M
from maltsev.terms import count_W

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_stratification_table_prints_both_counts():
    header, *rows = run_script("stratification_table.py", "2", "2").splitlines()
    assert "|W_n|" in header and "|M_n|" in header
    assert [tuple(map(int, row.split())) for row in rows] == [
        (m, n, count_W(m, n), count_M(m, n)) for m in (1, 2) for n in (0, 1, 2)
    ]


def test_search_demo_names_every_bundled_algebra():
    lines = run_script("search_demo.py").splitlines()
    named = [line.split(":")[0].strip() for line in lines if "permutability audit" not in line]
    assert named == sorted(path.stem for path in (ROOT / "algebras").glob("*.json"))
