#!/usr/bin/env python3
"""A tour of the exact zeta machinery on small graphs.

Run as: python demos/zeta_basics.py
"""

from graphzeta import (
    SerreGraph,
    ihara_zeta_reciprocal,
    reduced_closed_path_counts,
    spanning_tree_count,
)
from graphzeta.graphs import path_counts_from_zeta


def main():
    k3 = SerreGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    h, chi = ihara_zeta_reciprocal(k3)
    print("triangle: chi =", chi, " spanning trees =", spanning_tree_count(k3))
    print("h(u) =", h)

    # Z(u)^-1 = (1 - u^2)^(-chi) h(u), and its reciprocal is the generating
    # series of reduced closed path counts; the two series agree through u^10
    # exactly when their logarithmic derivatives do, which compares the
    # counts with the N_k that h and chi predict
    counts = reduced_closed_path_counts(k3, 10)
    print("N_1..N_10 =", counts)
    predicted = path_counts_from_zeta(h, chi, 10)
    print("exp(sum N_k u^k / k) == 1/Z(u)^-1 through u^10:", counts == predicted)

    # Hashimoto's special value: h'(1) = -2 chi kappa
    print("h'(1) =", h.derivative()(1), "= -2 *", chi, "*", spanning_tree_count(k3))


if __name__ == "__main__":
    main()
