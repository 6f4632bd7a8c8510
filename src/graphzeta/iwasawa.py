"""Iwasawa invariants of the tower: mu, lambda, nu, and the series g(T).

ord_p of the spanning-tree count grows like mu p^n + lambda n + nu along
the tower.  mu and lambda have closed forms: mu is the mu-invariant of the
power series g(T) = det(D - A_rho) on the unramified vertex block, with
rho(a) = (1+T)^a, and lambda assembles the contribution of each character
block plus the trivial-character term.  nu has no closed form; it is
certified empirically from the sweep together with the first level n0 from
which the formula reproduces every computed row.

The sweep counts spanning trees without a cover-size determinant.  The
level-n zeta function factors into the Ihara L-functions of the characters
psi of Z/p^n Z, h_{X_n}(u) = prod_psi h(u, psi); h(1, psi_0) = 0, and
Hashimoto's h'_{X_n}(1) = -2 chi(X_n) kappa(X_n) gives, when chi(X_n) != 0,

    kappa(X_n) = h'(1, psi_0) * prod_{j=1..n} N_j / (-2 chi(X_n)),

with N_j the product of h(1, psi) over the phi(p^j) characters of order
p^j, the norm from Q(zeta_{p^j}) to Q of any one of them.  Every factor is
a base-size determinant: h'(1, psi_0) is the derivative at u = 1 of the
integer polynomial det(I - A_0 C_n u + (D C_n - I) u^2) with
C_n = diag |H_v(n)| (`lfunctions.trivial_h_derivative_at_one`), and
N_j = Ntilde_j * (prod over v in K_j of |H_v(n)|)^phi(p^j), where K_j holds
the unramified vertices and those with k_v >= j and Ntilde_j, the norm of
det(D - A_zeta) on K_j, does not depend on n (`lfunctions.orbit_norm`,
computed once per j by the multimodular `linalg.det_norm_cyclotomic`).
Levels with chi(X_n) = 0 (for example the first two levels of the
double-edge fixture) count spanning trees on the built cover; every level
is still built and checked for connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclo import euler_phi_prime_power, ordp_fraction
from .errors import CertificationError, HypothesisError
from .graphs import connected, euler_characteristic, spanning_tree_count
from .lfunctions import orbit_level_factor, orbit_norm, trivial_h_derivative_at_one
from .poly import UniPoly
from .tower import TowerDatum, build_level_graph, tower_euler_char

__all__ = [
    "GSeries",
    "IwasawaInvariants",
    "TowerRow",
    "char_ideal_generator",
    "closed_form_invariants",
    "fit_and_certify",
    "g_series",
    "lambda_components",
    "mu_lambda",
    "tower_sweep",
]


def mu_lambda(coeffs, p: int) -> tuple[int, int]:
    """mu and lambda of a nonzero integer polynomial (or coefficient list).

    mu is the least p-adic valuation of a coefficient; lambda is the least
    index attaining it.
    """
    if isinstance(coeffs, UniPoly):
        coeffs = coeffs.coeffs
    checked = []
    for c in coeffs:
        fr = Fraction(c)
        if fr.denominator != 1:
            raise ValueError("mu/lambda extraction needs integer coefficients")
        checked.append(fr.numerator)
    coeffs = checked
    if not any(coeffs):
        raise ValueError("mu/lambda of the zero series is undefined")
    best_mu = None
    best_lambda = None
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        v = ordp_fraction(c, p).value
        if best_mu is None or v < best_mu:
            best_mu = int(v)
            best_lambda = i
    return best_mu, best_lambda


@dataclass(frozen=True)
class GSeries:
    """Integer-polynomial representative of g(T), up to a (1+T)-power unit.

    The unit does not move mu or lambda, so the extracted invariants are
    those of g itself.
    """

    rep: UniPoly
    unit_exponent: int
    p: int

    @property
    def mu_unr(self) -> int:
        return mu_lambda(self.rep, self.p)[0]

    @property
    def lambda_unr(self) -> int:
        return mu_lambda(self.rep, self.p)[1]


def g_series(d: TowerDatum) -> GSeries:
    """g(T) = det(D - A_rho) on the unramified block, rho(a) = (1+T)^a.

    Rows are premultiplied by (1+T)^(sum of |negative voltages| in the row)
    so every entry is an honest integer polynomial; the determinant is then
    the g(T) representative times that total (1+T)-power.  g(T) = 0 (for
    example an unramified vertex without edges) raises HypothesisError.
    """
    unram = d.unramified_vertices
    if not unram:
        return GSeries(UniPoly.constant(1), 0, d.p)
    pos = {v: i for i, v in enumerate(unram)}
    base = d.base
    one_plus = UniPoly([1, 1])
    # Row normalization exponents.
    row_shift = [0] * len(unram)
    for e in range(base.n_darts):
        o, t = base.dart_origin[e], base.dart_terminus[e]
        if o in pos and t in pos and d.voltage[e] < 0:
            row_shift[pos[t]] += -d.voltage[e]
    deg = [0] * base.n_vertices
    for e in range(base.n_darts):
        deg[base.dart_origin[e]] += 1
    rows = []
    for i, vi in enumerate(unram):
        shift = one_plus ** row_shift[i]
        row = []
        for vj in unram:
            entry = UniPoly.constant(deg[vi]) * shift if vi == vj else UniPoly()
            for e in range(base.n_darts):
                if base.dart_origin[e] == vj and base.dart_terminus[e] == vi:
                    entry = entry - one_plus ** (row_shift[i] + d.voltage[e])
            row.append(entry)
        rows.append(row)
    rep = linalg.det_poly_int(rows)
    if rep.is_zero():
        raise HypothesisError("g(T) = 0 on the unramified block: mu and lambda are undefined")
    return GSeries(rep, sum(row_shift), d.p)


def lambda_components(d: TowerDatum, gs: GSeries) -> tuple[int, list[int], int]:
    """(lambda_0, [lambda_j for j = 1..n1], lambda_unr), with gs = g_series(d)."""
    ram = d.ramified_vertices
    chi_base = d.base.n_vertices - d.base.n_edges
    if ram:
        lambda0 = len(ram) - 1
    elif chi_base != 0:
        lambda0 = 0
    else:
        raise HypothesisError("undefined: V^ram is empty and chi(X) = 0")
    lambdas = []
    for j in range(1, d.n1 + 1):
        count = sum(1 for v in ram if d.ram[v] >= j)
        lambdas.append(euler_phi_prime_power(d.p, j) * count)
    return lambda0, lambdas, gs.lambda_unr


def closed_form_invariants(d: TowerDatum, gs: GSeries) -> tuple[int, int]:
    """(mu, lambda) from the closed forms, with gs = g_series(d); requires chi(X_n) < 0 eventually."""
    if tower_euler_char(d, d.n1 + 2) >= 0:
        raise HypothesisError("tower does not satisfy chi(X_n) < 0 eventually")
    lambda0, lambdas, lambda_unr = lambda_components(d, gs)
    ram = d.ramified_vertices
    if ram:
        assembled = lambda0 + sum(lambdas) + lambda_unr
        alt = lambda_unr + sum(d.p ** d.ram[v] for v in ram) - 1
        if assembled != alt:
            raise CertificationError(
                f"lambda assemblies disagree: {assembled} vs {alt}"
            )
        lam = assembled
    else:
        lam = lambda0 + lambda_unr - 1
    return gs.mu_unr, lam


@dataclass(frozen=True)
class TowerRow:
    n: int
    n_vertices: int
    n_edges: int
    chi: int
    kappa: int
    ordp_kappa: int


def tower_sweep(d: TowerDatum, n_max: int) -> list[TowerRow]:
    """Exact rows for levels 0..n_max; every level must be connected.

    Each level is built for its size and its connectivity check.  kappa
    comes from the factored formula in the module docstring wherever
    chi(X_n) != 0; the orbit norms are computed once per j for the whole
    sweep.  Levels with chi(X_n) = 0 count spanning trees on the cover.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    rows = []
    norms: dict[int, int] = {}
    for n in range(n_max + 1):
        lg = build_level_graph(d, n)
        if not connected(lg.graph):
            raise HypothesisError(f"level {n} disconnected")
        chi = euler_characteristic(lg.graph)
        if chi == 0:
            kappa = spanning_tree_count(lg.graph)
        else:
            product = trivial_h_derivative_at_one(d, n)
            for j in range(1, n + 1):
                if j not in norms:
                    norms[j] = orbit_norm(d, j)
                product *= norms[j] * orbit_level_factor(d, n, j)
            kappa, rest = divmod(product, -2 * chi)
            if rest or kappa <= 0:
                raise CertificationError(
                    f"level {n}: the factored spanning-tree count over -2 chi = {-2 * chi}"
                    " is not a positive integer"
                )
        rows.append(
            TowerRow(
                n,
                lg.graph.n_vertices,
                lg.graph.n_edges,
                chi,
                kappa,
                int(ordp_fraction(kappa, d.p).value),
            )
        )
    return rows


@dataclass(frozen=True)
class IwasawaInvariants:
    mu: int
    lam: int
    nu: int
    n0: int


def fit_and_certify(rows: list[TowerRow], p: int, mu: int, lam: int, n1: int = 0) -> IwasawaInvariants:
    """Certify ord_p(kappa) = mu p^n + lambda n + nu over the swept range.

    nu is read off the last row; n0 is the least level from which the
    formula reproduces every subsequent row.  The last three rows must
    agree, and at least three rows must lie beyond max(n1, first level
    with negative Euler characteristic).
    """
    if not rows:
        raise ValueError("empty sweep")
    first_negative = next((r.n for r in rows if r.chi < 0), None)
    if first_negative is None:
        raise CertificationError("asymptotic regime not reached by n_max")
    threshold = max(n1, first_negative)
    tail = [r for r in rows if r.n > threshold]
    if len(tail) < 3:
        raise CertificationError("asymptotic regime not reached by n_max")
    residuals = {r.n: r.ordp_kappa - mu * p**r.n - lam * r.n for r in rows}
    last = [r.n for r in rows[-3:]]
    nu = residuals[last[-1]]
    if any(residuals[n] != nu for n in last):
        raise CertificationError("asymptotic regime not reached by n_max")
    n0 = rows[-1].n
    for r in reversed(rows):
        if residuals[r.n] == nu:
            n0 = r.n
        else:
            break
    return IwasawaInvariants(mu, lam, nu, n0)


@dataclass(frozen=True)
class CharIdealGenerator:
    """f(T) = g(T) * prod over ramified v of ((1+T)^(p^k_v) - 1), and f/T."""

    f: UniPoly
    f_over_t: UniPoly
    mu: int
    lam_f_over_t: int


def char_ideal_generator(d: TowerDatum, gs: GSeries) -> CharIdealGenerator:
    """f(T) and f/T for d, with gs = g_series(d)."""
    f = gs.rep
    one_plus = UniPoly([1, 1])
    for v in d.ramified_vertices:
        f = f * (one_plus ** (d.p ** d.ram[v]) - 1)
    if f.is_zero():
        raise CertificationError("characteristic-ideal representative vanished")
    quotient = f.divide_by_u(1) if f.coefficient(0) == 0 else None
    if quotient is None:
        raise CertificationError(
            "characteristic-ideal representative is not divisible by T"
        )
    mu_f, _ = mu_lambda(f, d.p)
    _, lam_q = mu_lambda(quotient, d.p)
    return CharIdealGenerator(f, quotient, mu_f, lam_q)
