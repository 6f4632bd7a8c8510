"""Correctness of every job a pass ran.

A job fails if it raised, printed a traceback, exited with a code other
than 0, 2 or 3, or if its exit code or `--json` stdout differs from the
reference digests in `reference.json` (generated by `make_reference.py`
at the commit that defined this benchmark).  Independently of the
reference, each report is checked against identities the program does not
use to produce it:

- `zeta`: Hashimoto's h'(1) = -2 chi kappa;
- `tower`: ord_p(kappa) recomputed from kappa; on the fixtures the closed
  forms ord_2 = 2^n + n - 1 (double_edge) and ord_3 = 2n - 1 (triple_star);
- `zeta` and `tower` jobs on the same datum agree on kappa at each level;
- `verify`: exit 0 exactly when `all_passed`, and on the fixtures it is;
- `invariants`: exit 0 exactly when `agreement` holds with no flags, and on
  the fixtures swept to level 5 or more it certifies (mu, lambda, nu);
- `lfunctions`: one row per character of Z/p^n.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().with_name("reference.json")

FIXTURE_ORDP = {"double_edge": lambda n: 2**n + n - 1, "triple_star": lambda n: 2 * n - 1}
FIXTURE_INVARIANTS = {"double_edge": (1, 1, -1), "triple_star": (0, 2, -1)}
FIXTURE_CERTIFIED_FROM = 5  # sweeps this deep certify on both fixtures


def job_key(job: dict, doc: dict) -> str:
    blob = json.dumps([job["cmd"], job["opts"], doc], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:32]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["jobs"]


def _ordp(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _report_problems(job: dict, doc: dict, rc, report: dict) -> list[str]:
    cmd, p, fixture = job["cmd"], doc["prime"], job["datum"]
    level = int(job["opts"][1])
    if report.get("command") != cmd:
        return [f"report is for {report.get('command')!r}"]
    problems = []
    if cmd == "zeta":
        h = report["h"]
        slope = sum(k * c for k, c in enumerate(h))
        if slope != -2 * report["euler_characteristic"] * report["spanning_trees"]:
            problems.append("h'(1) != -2 chi kappa")
    elif cmd == "tower":
        rows = report["rows"]
        if [r["n"] for r in rows] != list(range(level + 1)):
            problems.append("tower rows do not cover levels 0..max")
        for r in rows:
            if r["ordp"] != _ordp(r["spanning_trees"], p):
                problems.append(f"ord_p(kappa) wrong at n = {r['n']}")
            if fixture in FIXTURE_ORDP and r["n"] >= 1 and r["ordp"] != FIXTURE_ORDP[fixture](r["n"]):
                problems.append(f"closed form ord_p broken at n = {r['n']}")
    elif cmd == "verify":
        if report["all_passed"] != (rc == 0):
            problems.append("exit code disagrees with all_passed")
        if fixture in FIXTURE_ORDP and not report["all_passed"]:
            problems.append("battery failed on a fixture")
    elif cmd == "invariants":
        if (report["agreement"] and not report["flags"]) != (rc == 0):
            problems.append("exit code disagrees with agreement/flags")
        if fixture in FIXTURE_INVARIANTS and level >= FIXTURE_CERTIFIED_FROM:
            s = report["sweep"]
            if not report["agreement"] or (s.get("mu"), s.get("lambda"), s.get("nu")) != FIXTURE_INVARIANTS[fixture]:
                problems.append("fixture invariants not certified as (mu, lambda, nu) = %s" % (FIXTURE_INVARIANTS[fixture],))
    elif cmd == "lfunctions":
        if len(report["characters"]) != p**level:
            problems.append("not one row per character")
    return problems


def job_problems(job: dict, doc: dict, result: dict, reference: dict) -> list[str]:
    """Why one job's result is wrong; empty if it is right."""
    problems = []
    rc, stdout = result["rc"], result["stdout"]
    if result["error"]:
        problems.append("raised: " + result["error"].strip().splitlines()[-1])
    if "Traceback" in result["stderr"] or "Traceback" in stdout:
        problems.append("printed a traceback")
    if rc not in (0, 2, 3):
        problems.append(f"exit code {rc!r}")
    expected = reference.get(job_key(job, doc))
    if expected is not None and [rc, digest(stdout)] != expected:
        problems.append(f"exit code or stdout differs from the reference {expected}")
    if stdout:
        try:
            report = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not a JSON report"]
        problems += _report_problems(job, doc, rc, report)
    elif rc == 0:
        problems.append("exit 0 without a report")
    return problems


def kappa_problems(jobs: list[dict], results: list[dict]) -> dict[int, str]:
    """Jobs whose spanning-tree count disagrees with another job on the same datum and level."""
    seen: dict[tuple, tuple[int, int]] = {}
    bad = {}
    for index, (job, result) in enumerate(zip(jobs, results)):
        if job["cmd"] not in ("zeta", "tower") or result["rc"] != 0:
            continue
        try:
            report = json.loads(result["stdout"])
        except ValueError:
            continue
        rows = report["rows"] if job["cmd"] == "tower" else [
            {"n": report["level"], "spanning_trees": report["spanning_trees"]}
        ]
        for r in rows:
            key = (job["datum"], r["n"])
            first = seen.setdefault(key, (index, r["spanning_trees"]))
            if first[1] != r["spanning_trees"]:
                bad[index] = f"kappa at level {r['n']} disagrees with job {first[0]}"
    return bad


def pass_problems(jobs: list[dict], data: dict, results: list[dict], reference: dict) -> dict[int, list[str]]:
    """Problems of every failed job of one pass, by job index."""
    out = {}
    for index, (job, result) in enumerate(zip(jobs, results)):
        problems = job_problems(job, data[job["datum"]], result, reference)
        if problems:
            out[index] = problems
    for index, problem in kappa_problems(jobs, results).items():
        out.setdefault(index, []).append(problem)
    return out
