#!/usr/bin/env python3
"""Walk the branched 2-adic tower over the double-edge graph end to end.

The base graph has two vertices joined by two edges, voltages 1 and 2,
with the second vertex ramified at depth 1.  Along the tower the 2-part
of the spanning-tree count grows like 2^n + n - 1.

Run as: python demos/tower_walkthrough.py
"""

from graphzeta import (
    SerreGraph,
    TowerDatum,
    build_level_graph,
    char_ideal_generator,
    closed_form_invariants,
    eta_poly,
    fit_and_certify,
    g_series,
    tower_sweep,
)
from graphzeta.equivariant import inflation_check, norm_map
from graphzeta.lfunctions import character_table, characters, lfn_data, special_values


def main():
    base = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    datum = TowerDatum(base, 2, (1, -1, 2, -2), (None, 1))

    print("== levels ==")
    for n in range(4):
        g = build_level_graph(datum, n).graph
        print(f"level {n}: {g.n_vertices} vertices, {g.n_edges} edges")

    print("\n== character data at level 2 ==")
    for psi in characters(2, 2):
        data = lfn_data(datum, 2, psi)
        sv = special_values(datum, 2, psi)
        print(
            f"character a={psi.a} (order {psi.order}): r0={data.r0},"
            f" c-exponent={data.c_exponent}, h(1)={sv.h_at_one!r}"
        )

    print("\n== equivariant polynomial and the failure of inflation ==")
    print("eta(u) =", eta_poly(character_table(datum, 2)))
    print("norm to the order-2 subgroup:", norm_map(eta_poly(character_table(datum, 2)), 2))
    rep = inflation_check(eta_poly(character_table(datum, 2)), character_table(datum, 1))
    print("projected eta:", rep.lhs)
    print("eta of quotient:", rep.rhs)
    print("equal?", rep.equal, "(branched covers genuinely break inflation)")

    print("\n== Iwasawa invariants ==")
    gs = g_series(datum)
    print("g(T) representative:", gs.rep, " mu_unr =", gs.mu_unr, " lambda_unr =", gs.lambda_unr)
    mu, lam = closed_form_invariants(datum, gs)
    rows = tower_sweep(datum, 6)
    print("ord_2(kappa):", [r.ordp_kappa for r in rows])
    fitted = fit_and_certify(rows, 2, mu, lam, n1=datum.n1)
    print(f"certified: ord_2(kappa(X_n)) = {fitted.mu}*2^n + {fitted.lam}*n + {fitted.nu}"
          f" for n >= {fitted.n0}")
    cig = char_ideal_generator(datum, gs)
    print("characteristic-ideal generator representative f(T):", cig.f)


if __name__ == "__main__":
    main()
