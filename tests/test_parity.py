"""The byte-parity script `tools/parity.py`, on its quick command set."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parity(old: Path, new: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(ROOT / "tools" / "parity.py"), str(old), str(new), "--quick"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def test_parity_quick_finds_no_difference_between_a_tree_and_itself():
    start = time.perf_counter()
    run = _parity(SRC, SRC)
    assert time.perf_counter() - start < 10
    assert (run.returncode, run.stderr) == (0, ""), run.stdout + run.stderr
    assert run.stdout.startswith("no difference on ") and run.stdout.endswith(" commands\n")


def test_parity_reports_the_first_difference(tmp_path):
    # a copy whose zeta report names its command differently: the 20 zeta commands differ, of the
    # fixture ladders (levels 0-3 and 0-2) and of three random data, each in both forms
    changed = tmp_path / "src"
    shutil.copytree(SRC / "graphzeta", changed / "graphzeta", ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "graphzeta" / "cli.py"
    cli.write_text(cli.read_text().replace('"command": "zeta",', '"command": "zeta ",'))
    run = _parity(SRC, changed)
    assert run.returncode == 1, run.stdout + run.stderr
    first, field = run.stdout.splitlines()[:2]
    assert first == f"20 of 94 commands differ; the first: graphzeta zeta {ROOT / 'fixtures' / 'double_edge.json'} --level 0"
    assert field.startswith("  stdout SHA-256: ")
