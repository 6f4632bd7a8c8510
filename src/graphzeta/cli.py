"""Command-line front end.

    graphzeta zeta|lfunctions|tower|invariants|verify <datum-file>
              [--level N] [--max-level N] [--subgroup-order d] [--json]

`verify --subgroup-order` defaults to p, and to 1 at level 0.

Exit codes: 0 success, 1 validation error (datum file or command line),
2 mathematical-hypothesis violation (for example chi = 0 where a nonzero
value is required, or a disconnected level), 3 certification failure.
"""

from __future__ import annotations

import argparse
import sys

from .datum_io import load_datum
from .errors import CertificationError, DatumError, GraphError, HypothesisError
from .graphs import euler_characteristic, spanning_tree_count
from .groupring import subgroup_exponent
from .iwasawa import (
    char_ideal_generator,
    closed_form_invariants,
    fit_and_certify,
    g_series,
    hashimoto_kappa,
    lambda_components,
    tower_sweep,
)
from .lfunctions import character_table, orbit_special_products, r0
from .report import (
    exact_int_text,
    fmt_int_poly,
    machine_json,
    table,
)
from .tower import TowerDatum, build_level_graph, level_connected, level_shape
from .verify import default_subgroup_order, run_battery

__all__ = ["main"]


def _default_max_level(d: TowerDatum) -> int:
    return 6 if d.p == 2 else 4


def cmd_zeta(d: TowerDatum, level: int) -> dict:
    # h from one norm per Galois orbit; |V|, |E| and chi from the datum; a cover only where chi = 0
    if not level_connected(d, level):
        raise HypothesisError(f"level {level} disconnected")
    h = character_table(d, level).level_h()
    n_vertices, n_edges, chi = level_shape(d, level)
    if chi:
        kappa = hashimoto_kappa(h.derivative()(1), chi, level)
    else:
        kappa = spanning_tree_count(build_level_graph(d, level).graph)
    return {
        "command": "zeta",
        "prime": d.p,
        "level": level,
        "vertices": n_vertices,
        "edges": n_edges,
        "euler_characteristic": chi,
        "spanning_trees": kappa,
        "h": fmt_int_poly(h),
        "zeta_reciprocal": {"one_minus_u_squared_exponent": -chi, "h": fmt_int_poly(h)},
    }


def cmd_lfunctions(d: TowerDatum, level: int) -> dict:
    # integer rows, one conjugated coordinate vector per character; r0 is constant on an orbit
    table = character_table(d, level)
    chi_base = euler_characteristic(d.base)
    rows = [None] * d.p**level
    for j, psi in enumerate(table.representatives):
        r = r0(d, level, psi)
        for a, h, h_at_one in table.orbit_rows(j):
            rows[a] = {
                "exponent": a,
                "order": psi.order,
                "r0": r,
                "c_exponent": r - chi_base,
                "h": {"p": d.p, "j": j, "coeffs": [list(map(str, c)) for c in h]},
                "h_at_one": {"p": d.p, "j": j, "coeffs": list(map(str, h_at_one))},
            }
    rows[0]["h_derivative_at_one"] = str(table.trivial_h_derivative_at_one())
    orbit = [
        {"order": d.p**j, "value": str(v)}
        for j, v in sorted(orbit_special_products(d, level).items())
    ]
    return {
        "command": "lfunctions",
        "prime": d.p,
        "level": level,
        "characters": rows,
        "orbit_products": orbit,
    }


def cmd_tower(d: TowerDatum, max_level: int) -> dict:
    rows = tower_sweep(d, max_level)
    return {
        "command": "tower",
        "prime": d.p,
        "max_level": max_level,
        "rows": [
            {
                "n": r.n,
                "vertices": r.n_vertices,
                "edges": r.n_edges,
                "euler_characteristic": r.chi,
                "spanning_trees": r.kappa,
                "ordp": r.ordp_kappa,
            }
            for r in rows
        ],
    }


def cmd_invariants(d: TowerDatum, max_level: int) -> dict:
    gs = g_series(d)
    lambda0, lambda_blocks, lambda_unr = lambda_components(d, gs)
    mu, lam = closed_form_invariants(d, gs)
    rows = tower_sweep(d, max_level)
    try:
        fitted = fit_and_certify(rows, d.p, mu, lam, n1=d.n1)
        sweep = {
            "mu": fitted.mu,
            "lambda": fitted.lam,
            "nu": fitted.nu,
            "n0": fitted.n0,
            "max_level": max_level,
        }
        agreement = True
    except CertificationError as exc:
        sweep = {"error": str(exc), "max_level": max_level}
        agreement = False
    cig = char_ideal_generator(d, gs)
    doc = {
        "command": "invariants",
        "prime": d.p,
        "g": {"coeffs": fmt_int_poly(gs.rep), "unit_exponent": gs.unit_exponent},
        "mu_unr": gs.mu_unr,
        "lambda_unr": lambda_unr,
        "lambda0": lambda0,
        "lambda_blocks": lambda_blocks,
        "closed_form": {"mu": mu, "lambda": lam},
        "sweep": sweep,
        "char_ideal": {
            "f": fmt_int_poly(cig.f),
            "f_over_t": fmt_int_poly(cig.f_over_t),
            "mu": cig.mu,
            "lambda": cig.lam_f_over_t,
        },
        "agreement": agreement,
        "flags": [],
    }
    if lam < 0:
        doc["flags"].append("closed-form lambda is negative; see the sweep")
    if not agreement:
        doc["flags"].append("sweep did not certify the closed-form invariants")
    return doc


def cmd_verify(d: TowerDatum, level: int, subgroup_order: int) -> dict:
    items = run_battery(d, level, subgroup_order)
    failed = [it.name for it in items if it.status == "fail"]
    return {
        "command": "verify",
        "prime": d.p,
        "level": level,
        "subgroup_order": subgroup_order,
        "items": [
            {"name": it.name, "status": it.status, "detail": it.detail} for it in items
        ],
        "all_passed": not failed,
    }


@exact_int_text
def _human(doc: dict) -> str:
    cmd = doc["command"]
    lines = []
    if cmd == "zeta":
        lines.append(f"level {doc['level']} cover: |V| = {doc['vertices']}, |E| = {doc['edges']}")
        lines.append(f"chi = {doc['euler_characteristic']}")
        lines.append(f"spanning trees = {doc['spanning_trees']}")
        lines.append("h(u) coefficients: " + ", ".join(str(c) for c in doc["h"]))
        exp = doc["zeta_reciprocal"]["one_minus_u_squared_exponent"]
        lines.append(f"Z(u)^-1 = (1 - u^2)^{exp} * h(u)")
    elif cmd == "lfunctions":
        rows = []
        for c in doc["characters"]:
            rows.append(
                [
                    str(c["exponent"]),
                    str(c["order"]),
                    str(c["r0"]),
                    str(c["c_exponent"]),
                    " ; ".join(",".join(v) for v in c["h"]["coeffs"]),
                    ",".join(c["h_at_one"]["coeffs"]),
                ]
            )
        lines.append(table(["a", "order", "r0", "c-exp", "h(u,psi)", "h(1,psi)"], rows))
        for item in doc["orbit_products"]:
            lines.append(f"orbit product (order {item['order']}): {item['value']}")
        triv = doc["characters"][0]
        lines.append(f"h'(1, trivial) = {triv['h_derivative_at_one']}")
    elif cmd == "tower":
        rows = [
            [
                str(r["n"]),
                str(r["vertices"]),
                str(r["edges"]),
                str(r["euler_characteristic"]),
                str(r["spanning_trees"]),
                str(r["ordp"]),
            ]
            for r in doc["rows"]
        ]
        lines.append(table(["n", "|V|", "|E|", "chi", "kappa", "ord_p"], rows))
    elif cmd == "invariants":
        lines.append(
            "g(T) representative: "
            + ", ".join(str(c) for c in doc["g"]["coeffs"])
            + f"  (unit exponent {doc['g']['unit_exponent']})"
        )
        lines.append(f"mu_unr = {doc['mu_unr']}, lambda_unr = {doc['lambda_unr']}")
        lines.append(f"lambda0 = {doc['lambda0']}, lambda blocks = {doc['lambda_blocks']}")
        lines.append(
            f"closed form: mu = {doc['closed_form']['mu']}, lambda = {doc['closed_form']['lambda']}"
        )
        if "error" in doc["sweep"]:
            lines.append(f"sweep: {doc['sweep']['error']}")
        else:
            s = doc["sweep"]
            lines.append(
                f"sweep (to level {s['max_level']}): mu = {s['mu']}, lambda = {s['lambda']},"
                f" nu = {s['nu']}, certified from n0 = {s['n0']}"
            )
        ci = doc["char_ideal"]
        lines.append(
            "char ideal: f coefficients "
            + str(ci["f"])
            + f", f/T {ci['f_over_t']}, mu = {ci['mu']}, lambda = {ci['lambda']}"
        )
        for flag in doc["flags"]:
            lines.append("FLAG: " + flag)
    elif cmd == "verify":
        rows = [[it["name"], it["status"], it["detail"]] for it in doc["items"]]
        lines.append(table(["check", "status", "detail"], rows))
        lines.append("all passed" if doc["all_passed"] else "FAILURES PRESENT")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a validation error (exit 1), not argparse's exit 2
        raise DatumError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphzeta", description="Exact zeta and L-functions of voltage towers")
    parser.add_argument("command", choices=("zeta", "lfunctions", "tower", "invariants", "verify"))
    parser.add_argument("datum", help="tower datum JSON file")
    parser.add_argument("--level", type=int, default=1)
    parser.add_argument("--max-level", type=int, default=None)
    parser.add_argument("--subgroup-order", type=int, default=None)
    parser.add_argument("--json", action="store_true", help="emit the machine report")
    return parser


def _checked_level(value: int, flag: str, least: int) -> int:
    if value < least:
        raise DatumError(f"{flag} must be at least {least}, got {value}")
    return value


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        datum = load_datum(args.datum)
        if args.command in ("tower", "invariants"):
            max_level = _default_max_level(datum) if args.max_level is None else args.max_level
            max_level = _checked_level(max_level, "--max-level", 1)
            doc = (cmd_tower if args.command == "tower" else cmd_invariants)(datum, max_level)
        elif args.command == "verify":
            level = _checked_level(args.level, "--level", 0)
            order = default_subgroup_order(datum.p, level) if args.subgroup_order is None else args.subgroup_order
            try:
                subgroup_exponent(datum.p, level, order)
            except ValueError as exc:
                raise DatumError(f"verify at level {level}: {exc}") from exc
            doc = cmd_verify(datum, level, order)
        else:
            level = _checked_level(args.level, "--level", 0)
            doc = (cmd_zeta if args.command == "zeta" else cmd_lfunctions)(datum, level)
    except (DatumError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(machine_json(doc) if args.json else _human(doc))
    if args.command == "verify" and not doc["all_passed"]:
        return 3
    if args.command == "invariants" and doc["flags"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
