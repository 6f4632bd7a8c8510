"""Byte parity of the graphzeta command line between two source trees.

    python tools/parity.py OLD_SRC NEW_SRC [--quick] [--deep] [--bench-seeds SEED ...]

OLD_SRC and NEW_SRC are directories holding the `graphzeta` package (a
checkout's `src`).  The datum files are written once, with NEW_SRC's
`datum_io`; then one child process per tree imports graphzeta from that tree
and runs every command in process through `graphzeta.cli.main`.  For each
command the exit code, the SHA-256 of stdout and stderr are compared.  The
first difference is printed and the exit status is 1; with none, the number
of commands compared is printed and the exit status is 0.

Every command runs in human and in `--json` form:
- the fixture ladders: `zeta`, `lfunctions` and `verify` at `double_edge`
  levels 0-7 and `triple_star` levels 0-4, `verify --subgroup-order 1` at
  the same levels, `tower --max-level 8` and `invariants --max-level 6` on
  both fixtures;
- `zeta`, `lfunctions` and `verify` at level 2, `tower` and `invariants` at
  `--max-level 4`, on seeded random data (`tests/conftest.collect_random_data`);
- with `--bench-seeds`, every job of the three benchmark workloads
  (`bench/workloads.py`), `random_batch` drawn at each seed given;
- with `--deep`, slower jobs: `verify` at `double_edge` 5-8 with every
  subgroup order up to 16 and at `triple_star` 3-5 with orders 3, 9 and 27,
  `zeta` and `lfunctions` at `double_edge` 10 and `triple_star` 6, `tower`
  to `double_edge` 18 and `triple_star` 12, and `invariants` to
  `double_edge` 12 and `triple_star` 8.

`--quick` keeps a subset that runs in a few seconds: the ladders to
`double_edge` 3 and `triple_star` 2, and three random data.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("double_edge", "triple_star")
RANDOM_SEED = 2026


def _fixture_commands(quick: bool) -> list[list[str]]:
    tops = {"double_edge": 3 if quick else 7, "triple_star": 2 if quick else 4}
    commands = []
    for name, top in tops.items():
        for level in range(top + 1):
            commands += [[cmd, name, "--level", str(level)] for cmd in ("zeta", "lfunctions", "verify")]
            commands.append(["verify", name, "--level", str(level), "--subgroup-order", "1"])
        commands.append(["tower", name, "--max-level", "4" if quick else "8"])
        commands.append(["invariants", name, "--max-level", "3" if quick else "6"])
    return commands


def _random_commands(names: list[str]) -> list[list[str]]:
    commands = []
    for name in names:
        commands += [[cmd, name, "--level", "2"] for cmd in ("zeta", "lfunctions", "verify")]
        commands += [[cmd, name, "--max-level", "4"] for cmd in ("tower", "invariants")]
    return commands


def _deep_commands() -> list[list[str]]:
    commands = [
        ["verify", "double_edge", "--level", str(n), "--subgroup-order", str(order)]
        for n in range(5, 9)
        for order in (1, 2, 4, 8, 16)
    ]
    commands += [
        ["verify", "triple_star", "--level", str(n), "--subgroup-order", str(order)]
        for n in range(3, 6)
        for order in (3, 9, 27)
        if order <= 3**n
    ]
    for name, level, top, invariants in (("double_edge", 10, 18, 12), ("triple_star", 6, 12, 8)):
        commands += [["zeta", name, "--level", str(level)], ["lfunctions", name, "--level", str(level)]]
        commands += [["tower", name, "--max-level", str(top)], ["invariants", name, "--max-level", str(invariants)]]
    return commands


def _bench_plans(seeds: list[int]) -> list[tuple[dict, list[list[str]]]]:
    # (datum documents by name, commands) of every pass plan of the benchmark workloads
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    plans = []
    for workload in workloads.WORKLOADS:
        for seed in seeds if workload == "random_batch" else seeds[:1]:
            for docs, jobs in workloads.build(workload, seed, ROOT):
                plans.append((docs, [[job["cmd"], job["datum"], *job["opts"]] for job in jobs]))
    return plans


def write_plan(workdir: Path, new_src: str, quick: bool, deep: bool, bench_seeds: list[int]) -> list[list[str]]:
    """Write the datum files into workdir and return every command line, datum paths resolved."""
    sys.path[:0] = [new_src, str(ROOT / "tests")]
    from conftest import collect_random_data

    from graphzeta.datum_io import dump_datum

    paths = {name: str(ROOT / "fixtures" / f"{name}.json") for name in FIXTURES}
    commands = _fixture_commands(quick)
    data = collect_random_data(RANDOM_SEED, 3 if quick else 40, levels_connected=1)
    names = [f"random_{i:02d}" for i in range(len(data))]
    for name, d in zip(names, data):
        paths[name] = str(workdir / f"{name}.json")
        dump_datum(d, paths[name])
    commands += _random_commands(names)
    if deep:
        commands += _deep_commands()
    for docs, plan in _bench_plans(bench_seeds) if bench_seeds else []:
        for name, doc in docs.items():
            if name not in paths:  # the fixtures are read where they are
                paths[name] = str(workdir / f"{name}.json")
                Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
        commands += plan
    resolved = [[cmd, paths[name], *opts] for cmd, name, *opts in commands]
    return [form for argv in resolved for form in (argv, [*argv, "--json"])]


def run_commands(src: str, commands: list[list[str]]) -> list[list]:
    """[exit code, stdout SHA-256, stderr] per command, each run in this process by `cli.main`."""
    sys.path.insert(0, src)
    from graphzeta.cli import main

    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # an exception the command line lets escape is a result to compare
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()])
    return results


def _child(src: str, plan: Path) -> subprocess.Popen:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", src, str(plan)]
    return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def compare(old_src: str, new_src: str, commands: list[list[str]], plan: Path) -> int:
    plan.write_text(json.dumps(commands), encoding="utf-8")
    children = [_child(src, plan) for src in (old_src, new_src)]
    outputs = []
    for src, child in zip((old_src, new_src), children):
        stdout, stderr = child.communicate()
        if child.returncode:
            print(f"the child process for {src} exited {child.returncode}:\n{stderr}", file=sys.stderr)
            return 1
        outputs.append(json.loads(stdout))
    differing = [(argv, a, b) for argv, a, b in zip(commands, *outputs) if a != b]
    if differing:
        argv, a, b = differing[0]
        print(f"{len(differing)} of {len(commands)} commands differ; the first: graphzeta {' '.join(argv)}")
        for field, x, y in zip(("exit code", "stdout SHA-256", "stderr"), a, b):
            if x != y:
                print(f"  {field}: {x!r} (old) vs {y!r} (new)")
        return 1
    print(f"no difference on {len(commands)} commands")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--quick", action="store_true", help="a subset that runs in a few seconds")
    parser.add_argument("--deep", action="store_true", help="add the slower deep jobs")
    parser.add_argument("--bench-seeds", type=int, nargs="*", default=[], help="add the benchmark workloads")
    args = parser.parse_args(argv)
    old_src, new_src = (str(Path(src).resolve()) for src in (args.old_src, args.new_src))
    with tempfile.TemporaryDirectory(prefix="parity-") as workdir:
        commands = write_plan(Path(workdir), new_src, args.quick, args.deep, args.bench_seeds)
        return compare(old_src, new_src, commands, Path(workdir) / "commands.json")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _, _, src, plan = sys.argv
        json.dump(run_commands(src, json.loads(Path(plan).read_text(encoding="utf-8"))), sys.stdout)
    else:
        sys.exit(main())
