"""Iwasawa invariants of the tower: mu, lambda, nu, and the series g(T).

ord_p of the spanning-tree count grows like mu p^n + lambda n + nu along
the tower.  mu and lambda have closed forms: mu is the mu-invariant of the
power series g(T) = det(D - A_rho) on the unramified vertex block, with
rho(a) = (1+T)^a, and lambda assembles the contribution of each character
block plus the trivial-character term.  nu has no closed form; it is
certified empirically from the sweep together with the first level n0 from
which the formula reproduces every computed row.

The sweep counts spanning trees without a cover-size determinant.  By the
Artin formalism h_{X_n}(u) = prod_psi h(u, psi) (`zeta` takes h_{X_n}
itself this way, `lfunctions.CharacterTable.level_h`); h(1, psi_0) = 0, and
Hashimoto's h'_{X_n}(1) = -2 chi(X_n) kappa(X_n) gives, when chi(X_n) != 0,

    kappa(X_n) = h'(1, psi_0) * prod_{j=1..n} N_j / (-2 chi(X_n)),

with N_j the product of h(1, psi) over the phi(p^j) characters of order
p^j, the norm from Q(zeta_{p^j}) to Q of any one of them.  h'(1, psi_0) is
a base-size integer determinant (`lfunctions.trivial_h_derivative_at_one`),
and N_j = Ntilde_j * (prod over v in K_j of |H_v(n)|)^phi(p^j), where K_j
holds the unramified vertices and those with k_v >= j, and Ntilde_j, the
norm of det(D - A_zeta) on K_j, does not depend on n.  The stabilizer
product is the power p^e_j, e_j = phi(p^j) * sum over v with j <= k_v < n
of (n - k_v) (`lfunctions.orbit_level_exponent`), so the sweep multiplies
by one power of p per level and adds its exponent to ord_p.  One
`lfunctions.orbit_norms` call gives every Ntilde_j of the sweep: one
integer polynomial det(D - A_x) per distinct K_j, and its norms at every
zeta_{p^j} by Graeffe root-powering (`cyclo.cyclotomic_norms`), with no
prime q = 1 mod p^j.  |V_n|, |E_n| and chi(X_n) come from the datum
(`tower.level_shape`), connectivity from the level-1 cover
(`tower.level_connected`), and a level is built only where chi(X_n) = 0,
for its Matrix-Tree count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclo import _ord_int, euler_phi_prime_power
from .errors import CertificationError, DatumError, HypothesisError
from .graphs import euler_characteristic, spanning_tree_count
from .lfunctions import (
    orbit_level_exponent,
    orbit_norms,
    trivial_h_derivative_at_one,
    voltage_laplacian_det,
)
from .poly import UniPoly
from .tower import TowerDatum, build_level_graph, level_connected, level_shape, tower_euler_char

__all__ = [
    "GSeries",
    "IwasawaInvariants",
    "TowerRow",
    "char_ideal_generator",
    "closed_form_invariants",
    "fit_and_certify",
    "g_series",
    "hashimoto_kappa",
    "lambda_components",
    "mu_lambda",
    "tower_sweep",
]


def mu_lambda(coeffs, p: int) -> tuple[int, int]:
    """mu and lambda of a nonzero integer polynomial (or coefficient list).

    mu is the least p-adic valuation of a coefficient; lambda is the least
    index attaining it.
    """
    coeffs = [Fraction(c) for c in (coeffs.coeffs if isinstance(coeffs, UniPoly) else coeffs)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("mu/lambda extraction needs integer coefficients")
    if not any(coeffs):
        raise ValueError("mu/lambda of the zero series is undefined")
    return min((_ord_int(c.numerator, p), i) for i, c in enumerate(coeffs) if c)


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
    the g(T) representative times that total (1+T)-power.  It is F(1+T),
    a Taylor shift of F = `lfunctions.voltage_laplacian_det` of the block
    at the raw voltages.  g(T) = 0 (for example an unramified vertex
    without edges) raises HypothesisError.  F has x-degree at most the sum
    of |voltage| over the block's darts; from 2^63 on, where the Kronecker
    route that such degrees take would need packed entries of about 2^63
    bytes each, the datum is refused with DatumError.
    """
    unram = d.unramified_vertices
    if not unram:
        return GSeries(UniPoly.constant(1), 0, d.p)
    base, block = d.base, set(unram)
    ends = zip(base.dart_origin, base.dart_terminus)
    if sum(abs(a) for a, (o, t) in zip(d.voltage, ends) if o in block and t in block) >> 63:
        raise DatumError(
            "voltages on the unramified block too large for g(T): their |voltage| sum reaches 2^63"
        )
    coeffs, shift = voltage_laplacian_det(d, unram, d.voltage)
    rep = UniPoly()
    for c in reversed(coeffs):  # Horner's rule at x = 1 + T
        rep = rep * UniPoly([1, 1]) + c
    if rep.is_zero():
        raise HypothesisError("g(T) = 0 on the unramified block: mu and lambda are undefined")
    return GSeries(rep, shift, d.p)


def lambda_components(d: TowerDatum, gs: GSeries) -> tuple[int, list[int], int]:
    """(lambda_0, [lambda_j for j = 1..n1], lambda_unr), with gs = g_series(d)."""
    ram = d.ramified_vertices
    chi_base = euler_characteristic(d.base)
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


def hashimoto_kappa(h_derivative_at_one: int, chi: int, n: int) -> int:
    """kappa(X_n) = h'_{X_n}(1) / (-2 chi(X_n)), chi != 0; certified a positive integer."""
    kappa, rest = divmod(h_derivative_at_one, -2 * chi)
    if rest or kappa <= 0:
        raise CertificationError(f"level {n}: h'(1) / {-2 * chi} is not a positive integer")
    return kappa


def tower_sweep(d: TowerDatum, n_max: int) -> list[TowerRow]:
    """Exact rows for levels 0..n_max; every level must be connected.

    No level is built for its size or its connectivity: |V_n|, |E_n| and
    chi(X_n) come from `level_shape`, and `level_connected` decides every
    level n >= 1 on the level-1 cover, checked after level 0's row.
    kappa comes from the factored formula in the module docstring wherever
    chi(X_n) != 0; the orbit norms of every j <= n_max come from one
    `lfunctions.orbit_norms` call, on the first such level.  Levels with
    chi(X_n) = 0 count spanning trees on the cover.  ord_p(kappa) sums its factors' valuations.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    p, rows = d.p, []
    norms, e = None, [0]  # e[j] = ord_p Ntilde_j, taken once per sweep
    for n in range(n_max + 1):
        if n == 1 and not level_connected(d, 1):
            raise HypothesisError("level 1 disconnected")
        n_vertices, n_edges, chi = level_shape(d, n)
        if chi == 0:
            kappa = spanning_tree_count(build_level_graph(d, n).graph)
            ordp = _ord_int(kappa, p)
        else:
            if norms is None:
                norms = orbit_norms(d, n_max)
            derivative = trivial_h_derivative_at_one(d, n)
            stabilizers = sum(orbit_level_exponent(d, n, j) for j in range(1, n + 1))
            product = derivative * p**stabilizers
            for j in range(1, n + 1):
                product *= norms[j]
            kappa = hashimoto_kappa(product, chi, n)  # so no factor is 0
            e += [_ord_int(norms[j], p) for j in range(len(e), n + 1)]
            ordp = _ord_int(derivative, p) - _ord_int(2 * chi, p) + sum(e[: n + 1]) + stabilizers
        rows.append(TowerRow(n, n_vertices, n_edges, chi, kappa, ordp))
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
    if f.coefficient(0) != 0:
        raise CertificationError("characteristic-ideal representative is not divisible by T")
    quotient = f.divide_by_u(1)
    mu_f, _ = mu_lambda(f, d.p)
    _, lam_q = mu_lambda(quotient, d.p)
    return CharIdealGenerator(f, quotient, mu_f, lam_q)
