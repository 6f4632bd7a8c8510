import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES
from graphzeta.cli import _human, main
from graphzeta.datum_io import datum_to_dict, dump_datum, load_datum, parse_datum
from graphzeta.errors import DatumError
from graphzeta.graphs import SerreGraph
from graphzeta.report import machine_json
from graphzeta.tower import TowerDatum

GOLDEN = Path(__file__).resolve().parent / "golden"
DATUM = str(FIXTURES / "double_edge.json")


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_load_and_roundtrip(tmp_path):
    d = load_datum(DATUM)
    assert d.p == 2
    assert d.base.n_edges == 2
    assert d.ram == (None, 1)
    doc = datum_to_dict(d)
    again = parse_datum(json.loads(json.dumps(doc)))
    assert datum_to_dict(again) == doc


def test_integer_vertex_names_roundtrip(tmp_path):
    g = SerreGraph.from_edges([0, 1, 2], [(0, 1), (0, 1), (1, 2), (2, 2)])
    d = TowerDatum(g, 3, (1, -1, 2, -2, 0, 0, 1, -1), (None, 1, 0))
    path = tmp_path / "ints.json"
    dump_datum(d, path)
    again = load_datum(path)
    assert again.base.vertices == ("0", "1", "2")
    assert again.base.dart_origin == g.dart_origin
    assert again.base.dart_terminus == g.dart_terminus
    assert again.base.dart_inverse == g.dart_inverse
    assert (again.p, again.voltage, again.ram) == (d.p, d.voltage, d.ram)


def test_parse_errors():
    with pytest.raises(DatumError, match="prime"):
        parse_datum({"prime": 6, "vertices": ["a"], "edges": [], "ramification": {"a": 0}})
    with pytest.raises(DatumError, match="undeclared"):
        parse_datum(
            {
                "prime": 2,
                "vertices": ["a"],
                "edges": [{"from": "a", "to": "b", "voltage": 1}],
                "ramification": {"a": 0},
            }
        )
    with pytest.raises(DatumError, match="ramification"):
        parse_datum({"prime": 2, "vertices": ["a"], "edges": [], "ramification": {}})


def test_invalid_json_diagnostics(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prime": 2,\n  broken\n}', encoding="utf-8")
    with pytest.raises(DatumError, match="line 2"):
        load_datum(bad)


def test_cli_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["zeta", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", DATUM, "--max-level", "0"],
        ["invariants", DATUM, "--max-level", "0"],
        ["tower", DATUM, "--max-level", "-1"],
        ["lfunctions", DATUM, "--level", "-1"],
        ["verify", DATUM, "--level", "0"],
        ["verify", DATUM, "--subgroup-order", "3"],
    ],
)
def test_cli_bad_level_arguments_exit_1(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "graphzeta.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cli_exit_code_hypothesis(tmp_path, capsys):
    doc = {
        "prime": 2,
        "vertices": ["a", "b"],
        "edges": [
            {"from": "a", "to": "b", "voltage": 0},
            {"from": "a", "to": "b", "voltage": 0},
        ],
        "ramification": {"a": "unramified", "b": "unramified"},
    }
    f = tmp_path / "flat.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    # disconnected level
    assert main(["zeta", str(f), "--level", "1"]) == 2
    capsys.readouterr()


def test_cli_machine_reports_match_golden(capsys):
    cases = [
        ("zeta_level2.json", ["zeta", DATUM, "--level", "2", "--json"]),
        ("lfunctions_level2.json", ["lfunctions", DATUM, "--level", "2", "--json"]),
        ("tower_level6.json", ["tower", DATUM, "--max-level", "6", "--json"]),
        ("invariants.json", ["invariants", DATUM, "--json"]),
        (
            "verify_level2.json",
            ["verify", DATUM, "--level", "2", "--subgroup-order", "2", "--json"],
        ),
    ]
    for golden_name, argv in cases:
        code, out = _run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_cli_deterministic(capsys):
    code1, out1 = _run(capsys, "lfunctions", DATUM, "--level", "2", "--json")
    code2, out2 = _run(capsys, "lfunctions", DATUM, "--level", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_human_zeta(capsys):
    code, out = _run(capsys, "zeta", DATUM, "--level", "2")
    assert code == 0
    assert "spanning trees = 32" in out
    assert "(1 - u^2)^2" in out


def test_cli_zeta_level_zero(capsys):
    code, out = _run(capsys, "zeta", DATUM, "--level", "0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == [1, 0, -2, 0, 1]
    assert doc["spanning_trees"] == 2


def test_cli_verify_reports_inflation_note(capsys):
    code, out = _run(capsys, "verify", DATUM, "--level", "2", "--subgroup-order", "2")
    assert code == 0
    assert "not equal (expected)" in out
    assert "all passed" in out


def test_cli_invariants_values(capsys):
    code, out = _run(capsys, "invariants", DATUM, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] == {"mu": 1, "lambda": 1}
    assert doc["sweep"]["nu"] == -1 and doc["sweep"]["n0"] == 1
    assert doc["char_ideal"]["f"] == [0, 4, 2]
    assert doc["agreement"] is True


def test_cli_invariants_refuses_flat_unramified(tmp_path, capsys):
    doc = {
        "prime": 2,
        "vertices": ["a", "b"],
        "edges": [
            {"from": "a", "to": "b", "voltage": 1},
            {"from": "a", "to": "b", "voltage": 0},
        ],
        "ramification": {"a": "unramified", "b": "unramified"},
    }
    f = tmp_path / "flat.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    # chi(X_n) = 0 forever: the invariants routine must refuse, exit code 2
    assert main(["invariants", str(f)]) == 2
    err = capsys.readouterr().err
    assert "V^ram is empty and chi(X) = 0" in err


def test_cli_invariants_zero_g_exits_2(tmp_path):
    # one unramified vertex without edges: g(T) = det(D - A_rho) = 0, so mu and lambda are undefined
    doc = {"prime": 2, "vertices": ["a"], "edges": [], "ramification": {"a": "unramified"}}
    f = tmp_path / "lonely.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for command, message in [("invariants", "g(T) = 0"), ("tower", "level 1 disconnected")]:
        proc = subprocess.run(
            [sys.executable, "-m", "graphzeta.cli", command, str(f), "--max-level", "2"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("hypothesis violated: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_cli_verify_level_one_skips_vanishing(capsys):
    code, out = _run(capsys, "verify", DATUM, "--level", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    items = {it["name"]: it for it in doc["items"]}
    assert items["vanishing-order"]["status"] == "skip"
    assert "chi" in items["vanishing-order"]["detail"]
    assert doc["all_passed"]


def test_cli_verify_triangle_unramified(tmp_path, capsys):
    doc = {
        "prime": 2,
        "vertices": ["a", "b", "c"],
        "edges": [
            {"from": "a", "to": "b", "voltage": 1},
            {"from": "b", "to": "c", "voltage": 0},
            {"from": "c", "to": "a", "voltage": 0},
        ],
        "ramification": {"a": "unramified", "b": "unramified", "c": "unramified"},
    }
    f = tmp_path / "k3.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    code, out = _run(capsys, "verify", str(f), "--level", "2", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["all_passed"]
    items = {it["name"]: it for it in parsed["items"]}
    # unramified covers do satisfy inflation
    assert items["inflation"]["detail"].startswith("equal")


def test_cli_invariants_uncertified_sweep_exits_3(capsys):
    # max level 2 leaves too few rows past the first negative level
    code, out = _run(capsys, "invariants", DATUM, "--max-level", "2", "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["agreement"] is False
    assert "error" in doc["sweep"]
    assert doc["closed_form"] == {"mu": 1, "lambda": 1}


def test_loop_edges_roundtrip_and_compute(tmp_path, capsys):
    doc = {
        "prime": 2,
        "vertices": ["v"],
        "edges": [
            {"from": "v", "to": "v", "voltage": 1},
            {"from": "v", "to": "v", "voltage": 0},
        ],
        "ramification": {"v": "unramified"},
    }
    f = tmp_path / "loops.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    d = load_datum(f)
    assert datum_to_dict(d) == doc
    code, out = _run(capsys, "tower", str(f), "--max-level", "4", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    # the level-n cover is a 2^n-cycle with a loop at each vertex
    assert [r["spanning_trees"] for r in rows] == [1, 2, 4, 8, 16]


def test_vertex_names_that_print_alike_are_refused(tmp_path):
    g = SerreGraph.from_edges([1, "1"], [(1, "1")])
    d = TowerDatum(g, 2, (1, -1), (None, None))
    with pytest.raises(DatumError, match=r"1 and '1'"):
        datum_to_dict(d)
    with pytest.raises(DatumError):
        dump_datum(d, tmp_path / "clash.json")
    assert not (tmp_path / "clash.json").exists()


def test_integers_past_the_str_digit_limit_render_exactly():
    big = 10**5000 + 7
    row = {"n": 14, "vertices": 3, "edges": 4, "euler_characteristic": -1, "spanning_trees": big, "ordp": 0}
    doc = {"command": "tower", "prime": 2, "max_level": 14, "rows": [row]}
    digits = "1" + "0" * 4999 + "7"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        assert f'"spanning_trees":{digits},' in machine_json(doc)
        assert digits in _human(doc).splitlines()[-1].split()
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
