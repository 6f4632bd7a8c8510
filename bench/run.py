"""The graphzeta benchmark.

    python3 bench/run.py --workload cover_sweep|character_battery|random_batch
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each pass of the workload runs in a fresh
child process (`child.py`) that imports graphzeta from `src/`, so nothing
is installed and nothing outside the checkout is read or written.  Passes
run one after another, with one thread each, until `--seconds` is spent
(at least two); on `random_batch` each pass runs the next of several
seeded batches.  Every job of every pass is checked (`checks.py`).  Times
are reported at a reference machine speed, calibrated inside each pass
(see `child.py`).

With `--trace 0` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones.  README.md defines each.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import child
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 2
SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 150
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("zeta_s", "s"),
    ("lfunctions_s", "s"),
    ("verify_s", "s"),
    ("tower_s", "s"),
    ("invariants_s", "s"),
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("peak_rss_mb", "MB"),
)
# The pass environment: one thread, whatever numpy is linked against.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


@contextlib.contextmanager
def work_area():
    """A scratch directory inside the checkout, removed (with `_work`, if empty) on exit."""
    parent = BENCH / "_work"
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=parent))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_child(workdir: Path, data: dict, jobs: list[dict], trace: bool) -> dict:
    """One pass in a fresh process; returns its result document."""
    passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    try:
        spec_path, result_path = passdir / "spec.json", passdir / "result.json"
        spec = {"root": str(ROOT), "data": data, "jobs": jobs, "trace": trace}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        argv = [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)]
        t_spawn = time.perf_counter()
        proc = subprocess.run(
            argv + [repr(t_spawn)],
            env={**os.environ, **CHILD_ENV},
            cwd=passdir,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"pass process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(passdir, ignore_errors=True)


def run_passes(workdir: Path, plans: list[tuple[dict, list[dict]]], seconds: float, trace: bool):
    """Untraced passes (and, with trace, traced ones in between) for about `seconds`.

    Round k runs plan k mod len(plans); each result records its plan."""
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plan = len(rounds) % len(plans)
        data, jobs = plans[plan]
        plain.append(dict(run_child(workdir, data, jobs, False), plan=plan))
        if trace:
            traced.append(dict(run_child(workdir, data, jobs, True), plan=plan))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed + statistics.median(rounds) > seconds:
            break
    return plain, traced


def check_passes(plans: list[tuple[dict, list[dict]]], passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over all passes: reference digests, the
    checks' identities, and equality with the first pass of the same plan."""
    reference = checks.load_reference()
    attempted = failed = 0
    messages = []
    first = {}
    for number, result in enumerate(passes):
        data, jobs = plans[result["plan"]]
        problems = checks.pass_problems(jobs, data, result["jobs"], reference)
        base = first.setdefault(result["plan"], result["jobs"])
        for index, job_result in enumerate(result["jobs"]):
            if (job_result["rc"], job_result["stdout"]) != (base[index]["rc"], base[index]["stdout"]):
                problems.setdefault(index, []).append("differs from the first pass of its plan")
        attempted += len(jobs)
        failed += len(problems)
        for index, found in sorted(problems.items()):
            job = jobs[index]
            argv = " ".join([job["cmd"], job["datum"], *job["opts"]])
            messages.append(f"pass {number} job {index} ({argv}): " + "; ".join(found))
    return attempted, failed, messages


def fast_median(samples: list[tuple[float, float]]) -> float:
    """Median value of repeated measurements of the same work, over the half
    (rounded up) taken while the machine ran fastest, i.e. with the largest
    speed factor.  Samples are (factor, value); see README.md."""
    ranked = sorted(samples, key=lambda sample: -sample[0])
    return statistics.median(value for _, value in ranked[: (len(ranked) + 1) // 2])


def end_to_end(plans: list[tuple[dict, list[dict]]], plain: list[dict], setups: list[tuple[float, float]]):
    # Per plan, each job and the pass wall time at the fast median over the
    # plan's passes; then the median over the plans (different data) that ran.
    # job_s percentiles are over the jobs' fast medians of every plan: pooled
    # raw samples would put the fixture workloads' p50 on the gap between two
    # jobs' times and make it jump between them.
    by_plan: dict[int, list[dict]] = {}
    for result in plain:
        by_plan.setdefault(result["plan"], []).append(result)
    rows, job_times = [], []
    for plan, passes in by_plan.items():
        jobs = plans[plan][1]
        times = [
            fast_median([(p["jobs"][i]["s"] / p["jobs"][i]["raw_s"], p["jobs"][i]["s"]) for p in passes])
            for i in range(len(jobs))
        ]
        row = {"wall_s": fast_median([(p["wall_s"] / p["wall_raw_s"], p["wall_s"]) for p in passes])}
        for cmd in workloads.COMMANDS:
            row[f"{cmd}_s"] = sum(t for job, t in zip(jobs, times) if job["cmd"] == cmd)
        rows.append(row)
        job_times += times
    out = {"setup_s": fast_median(setups)}
    out.update({name: statistics.median(row[name] for row in rows) for name in rows[0]})
    out["job_s.p50"] = statistics.median(job_times)
    out["job_s.p90"] = statistics.quantiles(job_times, n=10, method="inclusive")[8]
    out["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    summaries = [tracer.summarize(t["spans"], t["counts"], t["factors"]) for t in traced]
    out = {name: statistics.median(s[name] for s in summaries) for name in tracer.layer_metric_names()}
    out["trace.overhead_ratio"] = statistics.median(t["wall_s"] for t in traced) / statistics.median(
        p["wall_s"] for p in plain
    )
    missing = sorted({name for t in traced for name in t["missing"]})
    return out, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "graphzeta" / "cli.py", ROOT / "fixtures"):
        if not needed.exists():
            print(f"error: {needed} not found; run from a graphzeta checkout", file=sys.stderr)
            return 2

    plans = workloads.build(args.workload, args.seed, ROOT)
    try:
        with work_area() as workdir:
            plain, traced = run_passes(workdir, plans, args.seconds, bool(args.trace))
            setups = [(p["setup_s"] / p["setup_raw_s"], p["setup_s"]) for p in plain + traced]
            while len(setups) < SETUP_SAMPLES:
                result = run_child(workdir, plans[len(setups) % len(plans)][0], [], False)
                setups.append((result["setup_s"] / result["setup_raw_s"], result["setup_s"]))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = check_passes(plans, plain + traced)
    if args.trace:
        values, missing = per_layer(plain, traced)
        print(
            f"median wall_s: traced {statistics.median(t['wall_s'] for t in traced):.4f} s,"
            f" untraced {statistics.median(p['wall_s'] for p in plain):.4f} s (reference speed)"
        )
        for name in missing:
            print(f"note: layer {name} not found in graphzeta; its metrics read 0")
    else:
        values = end_to_end(plans, plain, setups)
    units = [u for p in plain + traced for u in p["unit_s"]]
    print(
        f"raw wall-clock medians: wall_s {statistics.median(p['wall_raw_s'] for p in plain):.4f} s,"
        f" setup_s {statistics.median(p['setup_raw_s'] for p in plain):.4f} s;"
        f" calibration unit median {statistics.median(units) * 1e3:.3f} ms"
        f" (reference {child.REFERENCE_UNIT_S * 1e3:.3f} ms), {len(units)} timings"
    )
    for line in messages[:20]:
        print("FAILED " + line)
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced passes"
        f" of {len(plans[0][1])} jobs over {min(len(plans), len(plain))} plan(s)"
        f" ({sum(len(plans[k][1]) for k in {p['plan'] for p in plain})} job_s values), {len(setups)} set-ups;"
        f" failed {failed}/{attempted}"
        f" (failed_ratio {failed / attempted:.4f})"
    )
    metrics = {}
    for name, value in values.items():
        unit = dict(END_TO_END).get(name) or layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:48s} {value:14.6f} {unit}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
