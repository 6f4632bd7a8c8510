import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, collect_random_data, modules_naming
from graphzeta import cli, graphs, lfunctions, linalg
from graphzeta.cli import _human, cmd_lfunctions, main
from graphzeta.datum_io import datum_to_dict, dump_datum, load_datum, parse_datum
from graphzeta.errors import CertificationError, DatumError
from graphzeta.graphs import SerreGraph
from graphzeta.lfunctions import characters
from graphzeta.report import fmt_fraction, machine_json
from graphzeta.tower import TowerDatum
from graphzeta.verify import VerifyItem
from oracles import lfn_data_direct

GOLDEN = Path(__file__).resolve().parent / "golden"
DATUM = str(FIXTURES / "double_edge.json")
STAR = str(FIXTURES / "triple_star.json")


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_subprocess(argv) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "graphzeta.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


_NUMPY_GUARD = """
import contextlib, io, random, sys
from graphzeta import cli
from graphzeta.linalg import det_bareiss_int, det_int

for argv in JOBS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--json"]) in (0, 3), argv  # 3: invariants not certified at that depth
assert "numpy" not in sys.modules, "a job loaded numpy"
rng = random.Random(5)
m = [[rng.randint(-50, 50) for _ in range(30)] for _ in range(30)]  # above the Bareiss size
assert det_int(m) == det_bareiss_int(m) != 0
assert "numpy" in sys.modules, "the multimodular pass ran without numpy"
"""


def test_cli_jobs_leave_numpy_unloaded_until_a_multimodular_pass():
    # every command on both fixtures at the levels of the benchmark's cover sweep and character
    # battery, in one fresh process: numpy is imported by the multimodular pass alone, which
    # none of them reaches; a 30-row integer determinant then does, and equals Bareiss
    levels = {
        "double_edge": [("tower", 6), ("tower", 8), ("invariants", 6), ("invariants", 8), ("zeta", 3), ("zeta", 5)]
        + [("lfunctions", 4), ("lfunctions", 7), ("verify", 3), ("verify", 4)],
        "triple_star": [("tower", 3), ("tower", 5), ("invariants", 4), ("invariants", 5), ("zeta", 2), ("zeta", 3)]
        + [("lfunctions", 2), ("lfunctions", 4), ("verify", 1), ("verify", 2)],
    }
    jobs = [
        [cmd, str(FIXTURES / f"{name}.json"), "--max-level" if cmd in ("tower", "invariants") else "--level", str(n)]
        for name, runs in levels.items()
        for cmd, n in runs
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"JOBS = {jobs!r}" + _NUMPY_GUARD], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"vertices": "ab"}, "vertices must be an array of strings"),
        ({"vertices": ["a", 1]}, "vertices must be an array of strings"),
        ({"vertices": ["a", "b", "a"]}, "vertex names must be unique"),
        ({"edges": [["a", "b", 1]]}, 'edge 0 must be an object with "from", "to", "voltage"'),
        ({"edges": [{"from": "a", "to": "b"}]}, 'edge 0 must be an object with "from", "to", "voltage"'),
        ({"ramification": ["unramified", 1]}, "ramification must be an object"),
        ({"ramification": {"a": "unramified", "b": 1, "c": 0}}, "ramification names undeclared vertex 'c'"),
    ],
    ids=["vertices-string", "vertices-int", "duplicate", "edge-array", "edge-keys", "ram-array", "ram-extra"],
)
def test_parse_reports_each_malformed_member(changes, message, tmp_path, capsys):
    with pytest.raises(DatumError, match="^<datum>: " + message.replace('"', '.') + "$"):
        parse_datum(_doc(**changes))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_doc(**changes)), encoding="utf-8")
    assert main(["zeta", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


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


def _doc(**changes):
    doc = {
        "prime": 2,
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "voltage": 1}],
        "ramification": {"a": "unramified", "b": 1},
    }
    return {**doc, **changes}


@pytest.mark.parametrize("endpoint", [["a"], {"a": 1}, 0, None])
def test_parse_rejects_edge_endpoints_that_are_not_names(endpoint):
    doc = _doc(edges=[{"from": endpoint, "to": "b", "voltage": 1}])
    with pytest.raises(DatumError, match="edge 0 references undeclared vertex"):
        parse_datum(doc)


@pytest.mark.parametrize(
    "doc, match",
    [
        (_doc(edges=[{"from": "a", "to": "b", "voltage": True}]), "voltage must be an integer"),
        (_doc(edges=[{"from": "a", "to": "b", "voltage": False}]), "voltage must be an integer"),
        (_doc(ramification={"a": "unramified", "b": False}), "ramification of 'b'"),
        (_doc(ramification={"a": True, "b": 1}), "ramification of 'a'"),
        (_doc(prime=True), "prime must be a prime integer"),
    ],
    ids=["voltage-true", "voltage-false", "ramification-false", "ramification-true", "prime-true"],
)
def test_parse_rejects_booleans_as_integers(doc, match, tmp_path, capsys):
    assert parse_datum(_doc()).voltage == (1, -1)
    with pytest.raises(DatumError, match=match):
        parse_datum(doc)
    f = tmp_path / "bool.json"
    f.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["tower", str(f)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


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


def test_cli_rejects_a_base_graph_without_vertices(tmp_path, capsys):
    # the base of a Z_p-tower is a nonempty connected graph; every command exits 1 on an empty one
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(_doc(vertices=[], edges=[], ramification={})), encoding="utf-8")
    for cmd in ("tower", "invariants", "zeta", "lfunctions", "verify"):
        for machine in ([], ["--json"]):
            assert main([cmd, str(empty), *machine]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {empty}: base graph has no vertices\n"


def test_cli_rejects_a_prime_past_2_64(tmp_path, capsys):
    # 399165290221 * 798330580441 is a strong pseudoprime to the twelve bases 2..37 (psi_12);
    # below 2^64 those bases are exact, so the datum refuses a larger prime and the command
    # exits 1 (level 0 only: a run past it would build a cover with p vertices per base vertex)
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441 and linalg.is_probable_prime(psi_12)
    for prime in (psi_12, 2**89 - 1):
        path = tmp_path / f"{prime}.json"
        path.write_text(json.dumps(_doc(prime=prime)), encoding="utf-8")
        for cmd in ("zeta", "lfunctions", "verify"):
            for machine in ([], ["--json"]):
                assert main([cmd, str(path), "--level", "0", *machine]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: {path}: prime must be below 2^64\n"


def test_cli_refuses_a_prime_of_thousands_of_digits_before_testing_it(tmp_path, capsys):
    # the bound is checked before Miller-Rabin, which takes seconds on such numbers: the Mersenne
    # prime 2^4423 - 1 (1332 digits), and a 3894-digit odd composite with no factor below 41
    mersenne = 2**4423 - 1
    for prime in (mersenne, mersenne * (2**4253 - 1) ** 2):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_doc(prime=prime)), encoding="utf-8")
        start = time.perf_counter()
        assert main(["zeta", str(path)]) == 1
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: prime must be below 2^64\n"
        assert len(captured.err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["tower", DATUM, "--max-level", "0"],
        ["invariants", DATUM, "--max-level", "0"],
        ["tower", DATUM, "--max-level", "-1"],
        ["lfunctions", DATUM, "--level", "-1"],
        ["verify", DATUM, "--level", "-1"],
        ["verify", DATUM, "--subgroup-order", "3"],
    ],
)
def test_cli_bad_level_arguments_exit_1(argv):
    proc = _run_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
def test_cli_unreadable_datum_file_exits_1(kind, tmp_path):
    path = tmp_path / "datum.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf-8":
        path.write_bytes(b'{"prime": 2, "vertices": ["\xff"]}')
    proc = _run_subprocess(["zeta", str(path)])
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in proc.stderr


_ONE_LOOP = '{"prime": %s, "vertices": ["a"], "edges": [{"from": "a", "to": "a", "voltage": %s}], '
_ONE_LOOP += '"ramification": {"a": 0}}'


@pytest.mark.parametrize(
    "text",
    [_ONE_LOOP % (2, "7" * 5000), _ONE_LOOP % ("7" * 5000, 1), "[" * 200_000],
    ids=["long-voltage", "long-prime", "deep-nesting"],
)
def test_cli_json_past_the_parser_limits_exits_1(text, tmp_path, capsys):
    # json.loads raises ValueError past the interpreter's integer digit limit, which stays on
    # while parsing, and RecursionError past its nesting depth: both are datum errors
    path = tmp_path / "datum.json"
    path.write_text(text, encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    assert main(["zeta", str(path), "--level", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith(f"error: {path}: invalid JSON: ") and err.count("\n") == 1
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [["zeta"], ["zeta", DATUM, "--level", "x"], ["frobnicate", DATUM]],
    ids=["missing-datum", "level-not-an-int", "unknown-command"],
)
def test_cli_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_zeta_skips_cover_determinants_where_chi_is_nonzero(monkeypatch, capsys):
    sizes, counts = [], []
    kernel, count = linalg.det_cyclotomic_poly, graphs.spanning_tree_count

    def recording_kernel(problems, p):
        sizes.extend(k for k, _, _ in problems)
        return kernel(problems, p)

    def recording_count(g):
        counts.append(g.n_vertices)
        return count(g)

    monkeypatch.setattr(linalg, "det_cyclotomic_poly", recording_kernel)
    monkeypatch.setattr(graphs, "spanning_tree_count", recording_count)
    monkeypatch.setattr(cli, "spanning_tree_count", recording_count)
    code, out = _run(capsys, "zeta", DATUM, "--level", "4", "--json")
    assert code == 0
    assert json.loads(out)["euler_characteristic"] == -14
    # every determinant is an orbit representative's on the base: none has the cover's size
    assert sizes and max(sizes) <= load_datum(DATUM).base.n_vertices
    assert counts == []
    # chi(X_1) = 0: the count comes from the cover, h still from base-size determinants
    sizes.clear()
    assert _run(capsys, "zeta", DATUM, "--level", "1")[0] == 0
    assert sizes and max(sizes) <= load_datum(DATUM).base.n_vertices
    assert len(counts) == 1


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
        ("lfunctions_double_edge_level5.json", ["lfunctions", DATUM, "--level", "5", "--json"]),
        ("lfunctions_double_edge_level5.txt", ["lfunctions", DATUM, "--level", "5"]),
        ("lfunctions_triple_star_level3.json", ["lfunctions", STAR, "--level", "3", "--json"]),
        ("lfunctions_triple_star_level3.txt", ["lfunctions", STAR, "--level", "3"]),
    ]
    for golden_name, argv in cases:
        code, out = _run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "--level", "2"),
        ("lfunctions", "--level", "2"),
        ("verify", "--level", "2"),
        ("tower", "--max-level", "3"),
        ("invariants", "--max-level", "3"),
    ],
)
@pytest.mark.parametrize("machine", [False, True])
def test_cli_voltage_past_int64_acts_by_its_residue(argv, machine, tmp_path, capsys):
    # the fixture's first voltage is 1; zeta^e depends on e mod p^j only, so
    # 2^64 + 1 must give the same report, exit code and stderr
    doc = json.loads(Path(DATUM).read_text())
    assert doc["edges"][0]["voltage"] == 1
    doc["edges"][0]["voltage"] = 2**64 + 1
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    results = []
    for path in (DATUM, str(huge)):
        code = main([argv[0], path, *argv[1:], *(["--json"] if machine else [])])
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]


def test_cli_invariants_refuses_voltages_past_the_g_series_degree(tmp_path, capsys):
    # a loop of voltage 2^64 + 1 at an unramified vertex: det(D - A_x) on that block has
    # x-degree about 2^65, so invariants refuses the datum; tower acts by the residue mod p^n
    doc = {
        "prime": 2,
        "vertices": ["a", "b"],
        "edges": [
            {"from": "a", "to": "a", "voltage": 2**64 + 1},
            {"from": "a", "to": "b", "voltage": 1},
            {"from": "a", "to": "b", "voltage": 0},
        ],
        "ramification": {"a": "unramified", "b": 1},
    }
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    for machine in ([], ["--json"]):
        assert main(["invariants", str(huge), "--max-level", "4", *machine]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "g(T)" in captured.err
    doc["edges"][0]["voltage"] = 1  # the same residue mod 2^n for every n <= 64
    small = tmp_path / "small.json"
    small.write_text(json.dumps(doc))
    results = []
    for path in (huge, small):
        code = main(["tower", str(path), "--max-level", "6", "--json"])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1] and results[0][0] == 0


def test_cli_tower_and_invariants_search_no_primes(monkeypatch, tmp_path, capsys):
    # every determinant of the sweep is a base-size integer polynomial determinant (F_K, g(T)
    # and h'(1, psi_0)), taken by Kronecker substitution or Bareiss: no multimodular pass
    searched = []
    original = linalg._modular_primes
    monkeypatch.setattr(linalg, "_modular_primes", lambda *args: searched.append(args) or original(*args))
    runs = [(DATUM, 8), (STAR, 5)]
    for i, d in enumerate(collect_random_data(67, 10, levels_connected=2)):
        dump_datum(d, tmp_path / f"r{i}.json")
        runs.append((str(tmp_path / f"r{i}.json"), 4))
    codes = []
    for path, top in runs:
        for command in ("tower", "invariants"):
            codes.append(main([command, path, "--max-level", str(top), "--json"]))
            capsys.readouterr()
    assert searched == [] and set(codes) <= {0, 2, 3} and codes.count(0) >= len(runs)
    # the recorder sees the multimodular pass: verify's level-5 cover has a 34-row h, above the size
    # switch, whose primes serve one characteristic polynomial each
    assert main(["verify", DATUM, "--level", "5"]) == 0 and searched


# a value of the wrong kind for any member of a datum document
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)


@st.composite
def _datum_texts(draw):
    # a datum document on at most 3 vertices and 4 edges, mostly on a connected base graph
    # (a spanning path first), about half of them malformed by one edit
    p = draw(st.sampled_from([2, 3]))
    names = [f"v{i}" for i in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3])))]
    vertex = st.sampled_from(names) if names else st.just("v0")
    voltage = st.one_of(st.integers(-4, 4), st.just(2**64 + 1))  # huge: acts by its residue or is refused
    pairs = [(names[i - 1], names[i]) for i in range(1, len(names)) if draw(st.integers(0, 5))]
    pairs += [(draw(vertex), draw(vertex)) for _ in range(draw(st.integers(0, 4 - len(pairs))))]
    edges = [{"from": a, "to": b, "voltage": draw(voltage)} for a, b in pairs]
    ramification = {v: draw(st.one_of(st.just("unramified"), st.integers(0, 2))) for v in names}
    doc = {"prime": p, "vertices": names, "edges": edges, "ramification": ramification}
    edit = draw(st.sampled_from(["none"] * 6 + ["member", "drop", "edge", "ramification", "twin", "text"]))
    if edit == "member":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    elif edit == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == "edge" and edges:
        edges[draw(st.integers(0, len(edges) - 1))][draw(st.sampled_from(["from", "to", "voltage"]))] = draw(
            st.one_of(_JUNK, st.just("w"))
        )
    elif edit == "ramification" and names:
        ramification[draw(vertex)] = draw(st.one_of(_JUNK, st.just(-1), st.just("ramified")))
    elif edit == "twin" and names:
        names.append(names[0])
    text = json.dumps(doc)
    if edit == "text":
        text = draw(st.sampled_from([text[: draw(st.integers(0, len(text) - 1))], "[]", "3", "\ufeff{}"]))
    return text


@settings(max_examples=60)
@given(_datum_texts(), st.data())
def test_cli_fuzzed_datum_documents_exit_with_a_documented_code(text, data):
    # every command on every document: exit 0-3, and stderr empty or one diagnostic line
    prefixes = ("error: ", "hypothesis violated: ", "certification failed: ")
    level, machine = st.sampled_from([-1, 0, 1, 1, 2, 2]), st.sampled_from([[], ["--json"]])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "datum.json"
        path.write_text(text, encoding="utf-8")
        for command in ("zeta", "lfunctions", "verify", "tower", "invariants"):
            flag = "--max-level" if command in ("tower", "invariants") else "--level"
            argv = [command, str(path), flag, str(data.draw(level)), *data.draw(machine)]
            if command == "verify":
                argv += data.draw(st.sampled_from([[], ["--subgroup-order", "1"], ["--subgroup-order", "3"]]))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            message = err.getvalue()
            assert code in (0, 1, 2, 3), argv
            assert message == "" or (message.startswith(prefixes) and message.count("\n") == 1), (argv, message)


_COMMANDS = ["zeta", "lfunctions", "tower", "invariants", "verify"]
_FILES = [DATUM, STAR, str(FIXTURES / "missing.json"), str(FIXTURES)]
_VALUES = ["-1", "0", "1", "2", "3", "x", "2.5"]
_FLAGS = ["--level", "--max-level", "--subgroup-order", "--lev", "--max", "--sub"]  # and abbreviations
_ARGV_TOKENS = (
    _COMMANDS
    + _FILES
    + _VALUES
    + _FLAGS
    + [f"{flag}={value}" for flag in _FLAGS for value in _VALUES]
    + ["--json", "--js", "--", "", "--frobnicate"]
)


@st.composite
def _argvs(draw):
    # up to 7 tokens: free-form, or a command, a fixture and up to two options (a flag and its
    # value, or --json) with at most one stray token, so that many get past the parser
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=7))
    argv = [draw(st.sampled_from(_COMMANDS)), draw(st.sampled_from([DATUM, STAR]))]
    options = [[flag, value] for flag in _FLAGS for value in _VALUES] + [["--json"]]
    for _ in range(draw(st.integers(0, 2))):
        argv += draw(st.sampled_from(options))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ARGV_TOKENS)))
    return argv


@settings(max_examples=200)
@given(_argvs())
def test_cli_free_form_argv_exits_with_a_documented_code(argv):
    # exit 0-3, and stderr empty or one diagnostic line
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    prefixes = ("error: ", "hypothesis violated: ", "certification failed: ")
    assert message == "" or (message.startswith(prefixes) and message.count("\n") == 1), (argv, message)


def test_cli_commands_do_no_cyclotomic_arithmetic(monkeypatch, capsys):
    # every command path works on integer coordinate rows; CycloNum arithmetic lives in the oracles only
    runs = []
    for path, top in ((DATUM, 3), (STAR, 2)):
        for level in range(top + 1):
            runs += [[command, path, "--level", str(level)] for command in ("zeta", "lfunctions", "verify")]
        runs += [[command, path, "--max-level", str(top)] for command in ("tower", "invariants")]

    def outcomes():
        return [(main(argv), capsys.readouterr()) for argv in runs]

    expected = outcomes()
    assert modules_naming("CycloNum") == []  # after the runs: a lazy import would show here
    assert outcomes() == expected
    monkeypatch.setattr(cli, "CycloNum", object(), raising=False)
    assert modules_naming("CycloNum") == ["cli"]


def test_cli_certification_failure_exits_3(monkeypatch, capsys):
    # a CertificationError raised inside a command, and a battery with a failing item
    def refuse(d, max_level):
        raise CertificationError("level 2: h'(1) / 4 is not a positive integer")

    monkeypatch.setattr(cli, "tower_sweep", refuse)
    for machine in ([], ["--json"]):
        assert main(["tower", DATUM, *machine]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "certification failed: level 2: h'(1) / 4 is not a positive integer\n")
    monkeypatch.setattr(cli, "run_battery", lambda d, n, order: [VerifyItem("hashimoto", "fail", "h'(1) = 1")])
    assert main(["verify", DATUM, "--level", "1", "--json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_passed"] is False and captured.err == ""
    assert main(["verify", DATUM, "--level", "1"]) == 3
    assert "FAILURES PRESENT" in capsys.readouterr().out


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


def test_cli_verify_level_zero_defaults_to_the_trivial_subgroup(capsys):
    # Z/1Z has only the subgroup of order 1, so that is the default at level 0
    for extra in ((), ("--json",)):
        code, out = _run(capsys, "verify", DATUM, "--level", "0", *extra)
        assert (code, out) == _run(capsys, "verify", DATUM, "--level", "0", "--subgroup-order", "1", *extra)
        assert code == 0
    assert json.loads(out)["subgroup_order"] == 1
    code, out = _run(capsys, "verify", DATUM, "--level", "1", "--json")
    assert code == 0 and json.loads(out)["subgroup_order"] == 2


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


@st.composite
def _tower_data(draw):
    # a connected base of 1 to 6 vertices named by distinct integers or distinct strings, a spanning
    # tree plus up to 6 edges (loops and multi-edges among them), voltages of either sign up to past
    # 2^64, each vertex unramified or Ramified(k), k <= 5
    n = draw(st.integers(1, 6))
    name = st.integers(-(10**6), 10**6) if draw(st.booleans()) else st.text(max_size=4)
    vertices = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    edges = [(vertices[a], vertices[b]) for a, b in draw(st.permutations(edges))]
    voltages = draw(st.lists(st.integers(-(2**65), 2**65), min_size=len(edges), max_size=len(edges)))
    ram = draw(st.lists(st.none() | st.integers(0, 5), min_size=n, max_size=n))
    prime = draw(st.sampled_from([2, 3, 5, 7, 2**61 - 1]))
    darts = tuple(x for v in voltages for x in (v, -v))
    return TowerDatum(SerreGraph.from_edges(vertices, edges), prime, darts, tuple(ram))


@settings(max_examples=100)
@given(_tower_data())
def test_datum_round_trip_on_random_data(d):
    # the document, through JSON text, parses back to d's graph, voltages and ramification, with
    # every vertex name written as its string
    again = parse_datum(json.loads(json.dumps(datum_to_dict(d))))
    assert again.base.vertices == tuple(map(str, d.base.vertices))
    assert (again.base.dart_origin, again.base.dart_terminus, again.base.dart_inverse) == (
        d.base.dart_origin,
        d.base.dart_terminus,
        d.base.dart_inverse,
    )
    assert (again.p, again.voltage, again.ram) == (d.p, d.voltage, d.ram)


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


def _per_character_rows(d: TowerDatum, n: int) -> list[dict]:
    """The `lfunctions` rows rendered character by character from `oracles.lfn_data_direct`."""
    rows = []
    for psi in characters(d.p, n):
        data = lfn_data_direct(d, n, psi)
        j = psi.order_exponent
        row = {
            "exponent": psi.a,
            "order": psi.order,
            "r0": data.r0,
            "c_exponent": data.c_exponent,
            "h": {
                "p": d.p,
                "j": j,
                "coeffs": [[fmt_fraction(v) for v in c.coeffs] for c in data.h.coeffs],
            },
            "h_at_one": {
                "p": d.p,
                "j": j,
                "coeffs": [fmt_fraction(v) for v in data.h_at_one.coeffs],
            },
        }
        if psi.is_trivial:
            row["h_derivative_at_one"] = fmt_fraction(data.h_derivative_at_one)
        rows.append(row)
    return rows


def _lfunctions_cases() -> list[tuple[TowerDatum, int]]:
    de, star = (load_datum(FIXTURES / f"{name}.json") for name in ("double_edge", "triple_star"))
    # every vertex Ramified(0): K_j is empty for j >= 1, so h(u, psi) = 1 there
    base = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    empty = TowerDatum(base, 2, (1, -1, 2, -2), (0, 0))
    cases = [(de, n) for n in range(7)] + [(star, n) for n in range(5)]
    cases += [(empty, n) for n in range(4)]
    for d in collect_random_data(71, 6, levels_connected=0):
        cases += [(d, n) for n in range(4)]
    return cases


def test_cli_lfunctions_rows_match_the_per_character_route():
    for d, n in _lfunctions_cases():
        doc = cmd_lfunctions(d, n)
        assert (doc["command"], doc["prime"], doc["level"]) == ("lfunctions", d.p, n)
        assert doc["characters"] == _per_character_rows(d, n)


def test_cli_lfunctions_makes_no_cyclotomic_conjugation(monkeypatch):
    # the table conjugates integer rows (`cyclo.galois_conjugates`); no module holds a CycloNum
    for d, n in _lfunctions_cases():
        if n:
            cmd_lfunctions(d, n)
    assert modules_naming("CycloNum") == []
    monkeypatch.setattr(lfunctions, "CycloNum", object(), raising=False)
    assert modules_naming("CycloNum") == ["lfunctions"]
