"""Exact rational moment machinery.

Everything here is computed in exact arithmetic (stdlib fractions): the
first-order recurrence solver with its closed binomial-sum form, the
printed mean closed forms, the asymptotic transfer map, Gaussian moments,
Isserlis-style mixed moments of a centered trivariate normal, and the
weighted identity that the limit covariance matrix must satisfy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from . import chains

_SIGMA_PATH = Path(__file__).parent / "data" / "sigma.json"


# -- first-order recurrences ------------------------------------------------


@dataclass
class FirstOrderRecurrence:
    """phi_{n+1} = (1 - kappa/n)^2 phi_n + toll(n), from a given initial
    value at initial_index >= kappa + 1."""

    kappa: int
    toll: Callable[[int], Fraction]
    initial_index: int
    initial_value: Fraction

    def __post_init__(self):
        if self.initial_index < self.kappa + 1:
            raise ValueError("initial index must be at least kappa + 1")


def solve_recurrence(rec: FirstOrderRecurrence, n: int,
                     method: str = "closed") -> Fraction:
    """Exact value of the recurrence at index n.

    "closed" uses the binomial-sum form
        phi_n = C(n-1,k)^-2 (C(n0-1,k)^2 phi_n0 + sum_{l=n0}^{n-1} C(l,k)^2 toll(l)),
    "iterate" steps the recurrence directly; the two agree exactly.
    """
    if n < rec.initial_index:
        raise ValueError(f"n={n} below initial index {rec.initial_index}")
    if n == rec.initial_index:
        return Fraction(rec.initial_value)
    k = rec.kappa
    if method == "iterate":
        phi = Fraction(rec.initial_value)
        for m in range(rec.initial_index, n):
            phi = (1 - Fraction(k, m)) ** 2 * phi + rec.toll(m)
        return phi
    if method != "closed":
        raise ValueError(f"unknown method {method!r}")
    acc = comb(rec.initial_index - 1, k) ** 2 * Fraction(rec.initial_value)
    for ell in range(rec.initial_index, n):
        acc += comb(ell, k) ** 2 * rec.toll(ell)
    return acc / comb(n - 1, k) ** 2


def asymptotic_transfer(kappa: int, c: Fraction,
                        alpha: Fraction) -> Tuple[Fraction, Fraction]:
    """Growth transfer for the recurrence above: a toll ~ c n^alpha gives
    phi_n ~ c/(2 kappa + alpha + 1) n^(alpha+1)."""
    c = Fraction(c)
    alpha = Fraction(alpha)
    if alpha <= -2 * kappa - 1:
        raise ValueError("transfer needs alpha > -2*kappa - 1")
    return c / (2 * kappa + alpha + 1), alpha + 1


# -- mean closed forms -------------------------------------------------------

_MEAN_VALIDITY = {"trident": 4, "c-i": 6, "h3-ci": 8}


def mean_closed_form(pattern_id: str, n: int) -> Fraction:
    """Exact mean counts with polynomial closed forms.

    trident valid for n >= 4, c-i for n >= 6, h3-ci for n >= 8 (its
    denominator vanishes at n = 7; see h3ci_printed_closed_form for the
    variant checked in the verification report).
    """
    if pattern_id not in _MEAN_VALIDITY:
        raise KeyError(f"no closed form for {pattern_id!r}")
    if n < _MEAN_VALIDITY[pattern_id]:
        raise ValueError(f"{pattern_id} closed form needs "
                         f"n >= {_MEAN_VALIDITY[pattern_id]}")
    if pattern_id == "trident":
        num = (15 * n**3 - 85 * n**2 + 144 * n - 71) * n
        den = 105 * (n - 1) * (n - 2) * (n - 3)
        return Fraction(num, den)
    if pattern_id == "c-i":
        num = (1080 * n**5 - 16668 * n**4 + 96992 * n**3 - 261735 * n**2
               + 319471 * n - 135654) * n
        den = 20790
        for k in range(1, 6):
            den *= (n - k)
        return Fraction(num, den)
    # h3-ci: solved from its recurrence; an n^2 term is present that the
    # commonly quoted form drops (see verification report)
    num = 2 * (4290 * n**7 - 125730 * n**6 + 1509970 * n**5 - 9550275 * n**4
               + 33968326 * n**3 - 66905671 * n**2 + 66128140 * n
               - 24510098) * n
    den = 1576575
    for k in range(1, 8):
        den *= (n - k)
    return Fraction(num, den)


def h3ci_printed_closed_form(n: int) -> Fraction:
    """The widely quoted polynomial for the h3-ci mean, kept verbatim so
    the verification report can document where it breaks: it has no n^2
    term and a negated linear term, and its denominator vanishes at n=7."""
    num = 2 * (4290 * n**7 - 125730 * n**6 + 1509970 * n**5 - 9550275 * n**4
               + 33968326 * n**3 - 66128140 * n - 24510098) * n
    den = 1576575
    for k in range(1, 8):
        den *= (n - k)
    if den == 0:
        raise ZeroDivisionError("denominator vanishes at n=7")
    return Fraction(num, den)


def trident_mean_recurrence(n: int) -> Fraction:
    """E(T_n) by direct iteration of mu_{n+1} = (1-3/n)^2 mu_n + 1 - 1/n
    from mu_2 = 0 (exact for all n >= 2)."""
    mu = Fraction(0)
    for m in range(2, n):
        mu = (1 - Fraction(3, m)) ** 2 * mu + 1 - Fraction(1, m)
    return mu


def trident_moment_table(n_max: int) -> Dict[int, Tuple[Fraction, Fraction]]:
    """(E T_n, E T_n^2) for 2 <= n <= n_max from the exact chain law."""
    table = chains.builtin_table("trident")
    out = {}
    for n, dist in enumerate(chains.exact_laws(table, n_max), start=2):
        out[n] = (chains.marginal_moment(dist, 0, 1),
                  chains.marginal_moment(dist, 0, 2))
    return out


def ci_mean_recurrence(n_max: int) -> Dict[int, Fraction]:
    """E(c-i count) for 2 <= n <= n_max by iterating
    rho_{n+1} = (1-5/n)^2 rho_n + (4/n - 12/n^2) E(T_n)."""
    mu = Fraction(0)
    rho = {2: Fraction(0)}
    r = Fraction(0)
    for n in range(2, n_max):
        r = (1 - Fraction(5, n)) ** 2 * r + (Fraction(4, n) - Fraction(12, n * n)) * mu
        mu = (1 - Fraction(3, n)) ** 2 * mu + 1 - Fraction(1, n)
        rho[n + 1] = r
    return rho


def h3ci_mean_recurrence(n_max: int) -> Dict[int, Fraction]:
    """E(h3-ci count) by iterating
    tau_{n+1} = (1-7/n)^2 tau_n + (4/n^2)(E(T_n^2) - E(T_n))."""
    tm = trident_moment_table(n_max)
    tau = {2: Fraction(0)}
    t = Fraction(0)
    for n in range(2, n_max):
        m1, m2 = tm[n]
        t = (1 - Fraction(7, n)) ** 2 * t + Fraction(4, n * n) * (m2 - m1)
        tau[n + 1] = t
    return tau


# -- Gaussian moments --------------------------------------------------------


def gaussian_moment(m: int) -> Fraction:
    """m-th moment of the standard normal: m!/(2^(m/2) (m/2)!) for even m."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m % 2:
        return Fraction(0)
    half = m // 2
    num = 1
    for i in range(1, m + 1):
        num *= i
    den = 2 ** half
    for i in range(1, half + 1):
        den *= i
    return Fraction(num, den)


def higher_central_moment_target(m: int) -> Tuple[Fraction, Fraction]:
    """Asymptotic target for the m-th central trident moment:
    coefficient g_m (24/637)^(m/2) on n^(m/2)."""
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    exponent = Fraction(m, 2)
    if m % 2:
        return Fraction(0), exponent
    return gaussian_moment(m) * Fraction(24, 637) ** (m // 2), exponent


# -- trivariate normal mixed moments -----------------------------------------


CovarianceMatrix = Tuple[Tuple[Fraction, ...], ...]


def _sigma_entry(x) -> Fraction:
    """A number or a numeric string as a Fraction, else ValueError."""
    if isinstance(x, (int, float, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"covariance entry {x!r} is not a number")


def load_sigma(path=None) -> CovarianceMatrix:
    with open(path or _SIGMA_PATH, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("covariance file is nested too deeply") from None
    matrix = doc.get("matrix") if isinstance(doc, dict) else None
    if not (isinstance(matrix, list) and len(matrix) == 3 and all(
            isinstance(row, list) and len(row) == 3 for row in matrix)):
        raise ValueError("covariance file must be an object with a 3x3 "
                         "'matrix'")
    rows = tuple(tuple(_sigma_entry(x) for x in row) for row in matrix)
    for i in range(3):
        for j in range(3):
            if rows[i][j] != rows[j][i]:
                raise ValueError("covariance matrix must be symmetric")
        if rows[i][i] <= 0:
            raise ValueError("diagonal entries must be positive")
    return rows


_default_sigma: Optional[CovarianceMatrix] = None


def default_sigma() -> CovarianceMatrix:
    global _default_sigma
    if _default_sigma is None:
        _default_sigma = load_sigma()
    return _default_sigma


class GaussianMixedMoments:
    """c_{r,s,t} = E(N1^r N2^s N3^t) for a centered trivariate normal,
    by the pairing recursion (fix one variable, pair it with each other
    occurrence, weight by the covariance)."""

    def __init__(self, sigma: CovarianceMatrix):
        self.sigma = sigma
        self._cache: Dict[Tuple[int, int, int], Fraction] = {}

    def moment(self, r: int, s: int, t: int) -> Fraction:
        if min(r, s, t) < 0:
            return Fraction(0)
        if (r + s + t) % 2:
            return Fraction(0)
        if r + s + t == 0:
            return Fraction(1)
        key = (r, s, t)
        if key in self._cache:
            return self._cache[key]
        S = self.sigma
        if r > 0:
            val = ((r - 1) * S[0][0] * self.moment(r - 2, s, t)
                   + s * S[0][1] * self.moment(r - 1, s - 1, t)
                   + t * S[0][2] * self.moment(r - 1, s, t - 1))
        elif s > 0:
            val = ((s - 1) * S[1][1] * self.moment(r, s - 2, t)
                   + t * S[1][2] * self.moment(r, s - 1, t - 1))
        else:
            val = (t - 1) * S[2][2] * self.moment(r, s, t - 2)
        self._cache[key] = val
        return val


# toll-term coefficients of the shifted-moment recurrence for the
# (overlap, base, trident) chain; the weighted pairing identity below is
# exactly what makes the moment induction close
_TILDE_COEFFS = {
    "s_up": Fraction(4),
    "r_up": Fraction(8, 7),
    "rr": Fraction(80092, 540225),
    "ss": Fraction(21916, 29645),
    "tt": Fraction(24, 49),
    "st": Fraction(-128, 539),
    "rt": Fraction(-32, 343),
    "rs": Fraction(712, 3773),
}

_WEIGHTS = (Fraction(29, 2), Fraction(21, 2), Fraction(13, 2))


def tilde_c(gm: GaussianMixedMoments, r: int, s: int, t: int) -> Fraction:
    k = _TILDE_COEFFS
    return (k["s_up"] * s * gm.moment(r, s - 1, t + 1)
            + k["r_up"] * r * gm.moment(r - 1, s, t + 1)
            + k["rr"] * comb(r, 2) * gm.moment(r - 2, s, t)
            + k["ss"] * comb(s, 2) * gm.moment(r, s - 2, t)
            + k["tt"] * comb(t, 2) * gm.moment(r, s, t - 2)
            + k["st"] * s * t * gm.moment(r, s - 1, t - 1)
            + k["rt"] * r * t * gm.moment(r - 1, s, t - 1)
            + k["rs"] * r * s * gm.moment(r - 1, s - 1, t))


def check_proof_identity(r: int, s: int, t: int,
                         sigma: Optional[CovarianceMatrix] = None):
    """Verify tilde_c(r,s,t) == (29r/2 + 21s/2 + 13t/2) c_{r,s,t} exactly.

    Returns (ok, diagnostic); with the shipped covariance matrix this
    holds for every order, which pins the matrix entries.
    """
    if r + s + t < 2:
        raise ValueError("needs r + s + t >= 2")
    gm = GaussianMixedMoments(sigma or default_sigma())
    lhs = tilde_c(gm, r, s, t)
    weight = _WEIGHTS[0] * r + _WEIGHTS[1] * s + _WEIGHTS[2] * t
    rhs = weight * gm.moment(r, s, t)
    return lhs == rhs, {"lhs": lhs, "rhs": rhs, "weight": weight}
