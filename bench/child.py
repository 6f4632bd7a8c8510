"""One pass of a workload, in a fresh process.

    python3 bench/child.py <spec.json> <result.json> <t_spawn>

The spec names the checkout root, the datum documents, the jobs and
whether to trace; t_spawn is the parent's `time.perf_counter()` just
before it started this process (a system-wide monotonic clock on Linux).
The pass imports graphzeta from `<root>/src`, writes each datum to a file
and parses it (set-up ends here), then calls
`graphzeta.cli.main([...,"--json"])` once per job with stdout and stderr
captured.  The result file holds per-job exit codes, outputs and times,
the set-up and pass wall times, peak RSS and, when traced, the spans.

Times are reported at a reference machine speed.  The shared machines this
runs on change speed by up to 2x within seconds and drift over minutes, so
the pass keeps timing a fixed stdlib-only calibration unit (a loop that
never touches graphzeta): `BOUNDARY_UNITS` of them after set-up and after
every job, and one every `SAMPLE_INTERVAL_S` of wall time, from a SIGALRM
handler, while set-up or a job runs.  Each interval is measured without
the time spent in the handler and scaled by `REFERENCE_UNIT_S` over the
mean unit time around and during it.  A time so scaled is what the
interval would take on a machine that runs the unit in `REFERENCE_UNIT_S`.
The raw wall-clock times are kept next to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

REFERENCE_UNIT_S = 0.0012
BOUNDARY_UNITS = 4
SAMPLE_INTERVAL_S = 0.04


def _calibration_unit() -> int:
    # Integer arithmetic, dict stores and Fraction sums: the kinds of work
    # the graphzeta layers do, in pure Python.
    total, table = 0, {}
    for i in range(5_000):
        total += (i * 7919) % 104_729
        table[i & 1023] = total
    acc = Fraction(1)
    for i in range(1, 40):
        acc += Fraction(i, i + 1)
    return total + acc.denominator % 7


class SpeedProbe:
    """Times the calibration unit between jobs and, while one runs, on SIGALRM.

    `clock()` is `time.perf_counter()` less the time spent timing units, so
    an interval measured with it leaves the probe's own work out.
    """

    def __init__(self):
        self.spent = 0.0
        self.samples: list[float] = []  # unit times since the last take()

    def _unit(self) -> float:
        t0 = time.perf_counter()
        _calibration_unit()
        elapsed = time.perf_counter() - t0
        self.spent += elapsed
        return elapsed

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(self._unit())

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> list[float]:
        samples, self.samples = self.samples, []
        return samples

    def boundary(self) -> float:
        """Mean unit time over BOUNDARY_UNITS units timed now (not sampling)."""
        return statistics.fmean(self._unit() for _ in range(BOUNDARY_UNITS))


def speed_factor(inside: list[float], edges: list[float]) -> float:
    """REFERENCE_UNIT_S over the mean unit time of an interval.

    Samples taken inside the interval stand for equal stretches of it; the
    boundary means on either side stand for one stretch each.
    """
    return REFERENCE_UNIT_S * (len(inside) + len(edges)) / (sum(inside) + sum(edges))


def _import_graphzeta(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import graphzeta
    import graphzeta.cli
    import graphzeta.datum_io

    if Path(graphzeta.__file__).resolve().parent != (src / "graphzeta").resolve():
        raise SystemExit(f"imported graphzeta from {graphzeta.__file__}, not from {src}")
    return graphzeta.cli.main, graphzeta.datum_io.load_datum


def _run_job(main, argv: list[str], clock=time.perf_counter) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
            error = f"SystemExit({exc.code!r})"
        except Exception:
            rc = None
            error = traceback.format_exc()
    elapsed = clock() - t0
    return {"rc": rc, "s": elapsed, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_pass(spec: dict, workdir: Path, t_spawn: float, probe: SpeedProbe) -> dict:
    main, load_datum = _import_graphzeta(Path(spec["root"]))
    data_dir = workdir / "data"
    data_dir.mkdir(exist_ok=True)
    paths = {}
    for name, doc in spec["data"].items():
        path = data_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        load_datum(path)
        paths[name] = str(path)
    setup_raw_s = probe.clock() - t_spawn
    probe.stop()
    inside = [probe.take()]
    edges = [probe.boundary()]

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(clock=probe.clock)
        tracer.install()
    jobs = []
    try:
        for index, job in enumerate(spec["jobs"]):
            if tracer is not None:
                tracer.job = index
            argv = [job["cmd"], paths[job["datum"]], *job["opts"], "--json"]
            probe.start()
            jobs.append(_run_job(main, argv, probe.clock))
            probe.stop()
            inside.append(probe.take())
            edges.append(probe.boundary())
    finally:
        probe.stop()
        if tracer is not None:
            tracer.restore()
    setup_s = setup_raw_s * speed_factor(inside[0], edges[:1])
    # factors[i] scales job i's times to the reference speed.
    factors = [speed_factor(inside[i + 1], edges[i : i + 2]) for i in range(len(jobs))]
    for job, factor in zip(jobs, factors):
        job["raw_s"] = job["s"]
        job["s"] *= factor
    result = {
        "setup_s": setup_s,
        "wall_s": setup_s + sum(job["s"] for job in jobs),
        "setup_raw_s": setup_raw_s,
        "wall_raw_s": setup_raw_s + sum(job["raw_s"] for job in jobs),
        "unit_s": edges + [t for samples in inside for t in samples],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "jobs": jobs,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=tracer.counts, missing=tracer.missing, factors=factors)
    return result


def main() -> None:
    probe = SpeedProbe()
    probe.start()
    spec_path, result_path, t_spawn = Path(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3])
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    result = run_pass(spec, result_path.parent, t_spawn, probe)
    result_path.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
