"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They import graphzeta from the checkout's `src/`.  The last group runs
short passes of every workload (about 90 s in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import child  # noqa: E402
import datagen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import graphzeta.cli  # noqa: E402
from graphzeta import graphs, iwasawa, lfunctions, tower  # noqa: E402
from graphzeta.datum_io import load_datum, parse_datum  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _graphzeta_bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "graphzeta" or name.startswith("graphzeta.")
        for attr, value in vars(mod).items()
    }


def test_wrappers_return_same_values_and_restore_originals():
    datum = load_datum(ROOT / "fixtures" / "double_edge.json")
    psi = lfunctions.CharacterLabel(2, 3, 1)

    def compute():
        graph = tower.build_level_graph(datum, 5).graph
        return (
            graphs.spanning_tree_count(graph),
            graphs.ihara_zeta_reciprocal(graph)[0].coeffs,
            lfunctions.h_poly(datum, 3, psi),
            [r.ordp_kappa for r in iwasawa.tower_sweep(datum, 4)],
        )

    before = _graphzeta_bindings()
    expected = compute()
    trace = tracer.Tracer()
    trace.install()
    try:
        # A name imported into another module is wrapped there too.
        assert graphzeta.cli.build_level_graph is tower.build_level_graph
        assert iwasawa.spanning_tree_count is graphs.spanning_tree_count
        assert tower.build_level_graph is not before[("graphzeta.tower", "build_level_graph")]
        got = compute()
    finally:
        trace.restore()
    assert got == expected
    assert not trace.missing
    assert _graphzeta_bindings() == before
    summary = tracer.summarize(trace.spans, trace.counts)
    assert summary["linalg.det_int.calls"] > 0
    assert summary["lfunctions.h_poly.calls"] == 1
    assert summary["tower.build_level_graph.darts"] > 0
    assert summary["cyclo.CycloNum.mul.calls"] > 0
    for name in tracer.LAYER_NAMES:
        assert 0 <= summary[f"{name}.self_s"] <= summary[f"{name}.s"] + 1e-9


def test_summarize_self_time_and_recursion():
    # outer [0, 10] holds det_int [1, 4] and det_int [5, 9], which holds det_int [6, 7].
    spans = [
        ["linalg.det_commutative", 0.0, 10.0, -1, 0],
        ["linalg.det_int", 1.0, 4.0, 0, 0],
        ["linalg.det_int", 5.0, 9.0, 0, 0],
        ["linalg.det_int", 6.0, 7.0, 2, 0],
    ]
    out = tracer.summarize(spans, dict.fromkeys(tracer.EXTRA_COUNTS + (tracer.MUL_COUNT,), 0))
    assert out["linalg.det_commutative.s"] == 10.0
    assert out["linalg.det_commutative.self_s"] == 3.0
    assert out["linalg.det_int.calls"] == 3
    assert out["linalg.det_int.s"] == 7.0
    assert out["linalg.det_int.self_s"] == 7.0


def test_speed_probe_leaves_its_own_work_out():
    # A job that took 10 s while the unit ran at twice the reference time
    # would take 5 s at the reference speed.
    slow = 2 * child.REFERENCE_UNIT_S
    assert child.speed_factor([slow, slow], [slow, slow]) == pytest.approx(0.5)
    assert child.speed_factor([], [slow]) == pytest.approx(0.5)
    # The fast median keeps the samples with the largest factors.
    assert run.fast_median([(1.0, 5.0), (2.0, 3.0), (0.5, 9.0)]) == 4.0
    probe = child.SpeedProbe()
    c0 = probe.clock()
    unit = probe.boundary()
    assert unit > 0 and probe.spent >= child.BOUNDARY_UNITS * unit * 0.999
    assert probe.clock() - c0 < probe.spent
    probe.start()
    try:
        deadline = time.perf_counter() + 5 * child.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert probe.take() and not probe.samples
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_generator_is_deterministic_and_agrees_with_graphzeta():
    docs = datagen.random_data(7, 20)
    assert docs == datagen.random_data(7, 20)
    assert docs != datagen.random_data(8, 20)
    assert [(d["prime"], len(d["vertices"]), len(d["edges"])) for d in docs] == [
        s[:3] for s in datagen.shapes(20)
    ]
    for doc in docs:
        assert all(isinstance(v, str) for v in doc["vertices"])
        datum = parse_datum(doc)
        edges = [
            (doc["vertices"].index(e["from"]), doc["vertices"].index(e["to"]), e["voltage"])
            for e in doc["edges"]
        ]
        ram = [None if k == "unramified" else k for k in doc["ramification"].values()]
        for n in range(1, 4):
            assert datagen.cover_connected(doc["prime"], len(ram), edges, ram, n) == graphs.connected(
                tower.build_level_graph(datum, n).graph
            )


def _run_fixture_job(cmd: str, name: str, opts: list[str]) -> tuple[dict, dict, dict]:
    job = {"cmd": cmd, "datum": name, "opts": opts}
    path = ROOT / "fixtures" / f"{name}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    return job, doc, child._run_job(graphzeta.cli.main, [cmd, str(path), *opts, "--json"])


def test_mutated_output_is_caught():
    reference = checks.load_reference()
    job, doc, result = _run_fixture_job("verify", "triple_star", ["--level", "2"])
    assert checks.job_key(job, doc) in reference
    assert checks.job_problems(job, doc, result, reference) == []
    mutated = dict(result, stdout=result["stdout"].replace('"pass"', '"fail"', 1))
    assert checks.job_problems(job, doc, mutated, reference)
    assert checks.job_problems(job, doc, dict(result, rc=3), reference)
    # Without a reference digest the closed forms still catch a wrong number.
    job, doc, result = _run_fixture_job("tower", "double_edge", ["--max-level", "3"])
    assert checks.job_problems(job, doc, result, {}) == []
    wrong = result["stdout"].replace('"ordp":10', '"ordp":11')
    assert wrong != result["stdout"]
    assert checks.job_problems(job, doc, dict(result, stdout=wrong), {})


def _bench_run(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_end_to_end_metrics_match_benchmark_json():
    result = _bench_run("--workload", "character_battery", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    result = _bench_run("--workload", workload, "--seconds", "0", "--trace", "1")
    # Traced and untraced passes are checked against the same digests.
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
