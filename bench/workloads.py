"""The three workloads: which CLI jobs a pass runs, on which data.

A job is {"cmd", "datum", "opts"}; the pass runs
`graphzeta <cmd> <datum file> <opts...> --json`.  No job repeats inside a
pass, so a cache kept between `main()` calls cannot fake a gain that a
user running one command per process would not see.

Every end-to-end and per-layer metric must be reported, and be nonzero,
on every workload.  `cover_sweep` and `character_battery` therefore each
carry a few small *probe* jobs of the commands they are not about; the
probes are a few percent of the pass (see README.md).
"""

from __future__ import annotations

import json
from pathlib import Path

from datagen import random_batches

COMMANDS = ("zeta", "lfunctions", "verify", "tower", "invariants")
FIXTURES = ("double_edge", "triple_star")
RANDOM_BATCH_DATA = 20  # x 5 commands = 100 jobs per pass
# Each pass of a run draws its own batch (pass k runs batch k mod this), so a
# run covers several batches and its medians depend less on one seed's draw.
RANDOM_BATCH_SETS = 6


def _job(cmd: str, datum: str, option: str, value: int) -> dict:
    return {"cmd": cmd, "datum": datum, "opts": [option, str(value)]}


COVER_SWEEP = [
    _job("tower", "double_edge", "--max-level", 8),
    _job("invariants", "double_edge", "--max-level", 8),
    _job("tower", "triple_star", "--max-level", 5),
    _job("invariants", "triple_star", "--max-level", 5),
    _job("zeta", "double_edge", "--level", 5),
    _job("zeta", "triple_star", "--level", 3),
    # probes
    _job("lfunctions", "double_edge", "--level", 4),
    _job("lfunctions", "triple_star", "--level", 2),
    _job("verify", "double_edge", "--level", 3),
    _job("verify", "triple_star", "--level", 1),
]

CHARACTER_BATTERY = [
    _job("lfunctions", "double_edge", "--level", 7),
    _job("lfunctions", "triple_star", "--level", 4),
    _job("verify", "double_edge", "--level", 4),
    _job("verify", "triple_star", "--level", 2),
    # probes
    _job("tower", "double_edge", "--max-level", 6),
    _job("tower", "triple_star", "--max-level", 3),
    _job("invariants", "double_edge", "--max-level", 6),
    _job("invariants", "triple_star", "--max-level", 4),
    _job("zeta", "double_edge", "--level", 3),
    _job("zeta", "triple_star", "--level", 2),
]


def _random_batch_jobs(names: list[str]) -> list[dict]:
    jobs = []
    for name in names:
        jobs += [
            _job("zeta", name, "--level", 2),
            _job("lfunctions", name, "--level", 2),
            _job("verify", name, "--level", 2),
            _job("tower", name, "--max-level", 4),
            _job("invariants", name, "--max-level", 4),
        ]
    return jobs


def build(workload: str, seed: int, root: Path) -> list[tuple[dict, list[dict]]]:
    """The pass plans, (datum documents by name, jobs); pass k runs plan k mod
    their number.  The fixture workloads have one plan and ignore the seed."""
    if workload == "random_batch":
        plans = []
        for k, docs in enumerate(random_batches(seed, RANDOM_BATCH_DATA, RANDOM_BATCH_SETS)):
            data = {f"r{seed}_{k}_{i:02d}": doc for i, doc in enumerate(docs)}
            plans.append((data, _random_batch_jobs(list(data))))
        return plans
    jobs = {"cover_sweep": COVER_SWEEP, "character_battery": CHARACTER_BATTERY}[workload]
    data = {
        name: json.loads((root / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
        for name in FIXTURES
    }
    return [(data, list(jobs))]


WORKLOADS = ("cover_sweep", "character_battery", "random_batch")
