"""The narrative demos run end to end through the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, line",
    [
        ("tower_walkthrough.py", "certified: ord_2(kappa(X_n)) = 1*2^n + 1*n + -1 for n >= 1"),
        ("zeta_basics.py", "exp(sum N_k u^k / k) == 1/Z(u)^-1 through u^10: True"),
    ],
)
def test_demo_runs(name, line, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()
