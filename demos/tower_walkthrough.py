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
from graphzeta.lfunctions import character_table, r0


def main():
    base = SerreGraph.from_edges(["v1", "v2"], [("v1", "v2"), ("v1", "v2")])
    datum = TowerDatum(base, 2, (1, -1, 2, -2), (None, 1))

    print("== levels ==")
    for n in range(4):
        g = build_level_graph(datum, n).graph
        print(f"level {n}: {g.n_vertices} vertices, {g.n_edges} edges")

    print("\n== character data at level 2 ==")
    # one Galois orbit per order 2^j; h(1) as coordinates on 1, zeta, ... of Q(zeta_{2^j})
    table = character_table(datum, 2)
    chi_base = base.n_vertices - base.n_edges
    for j, rep in enumerate(table.representatives):
        r = r0(datum, 2, rep)  # constant on the orbit
        for a, _, h_at_one in table.orbit_rows(j):
            print(f"character a={a} (order {rep.order}): r0={r}, c-exponent={r - chi_base}, h(1)={h_at_one}")

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
