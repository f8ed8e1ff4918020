"""Chi-square machinery with an in-repo regularized incomplete gamma.

The survival function of the chi-square distribution is Q(k/2, x/2)
where Q is the upper regularized incomplete gamma function, computed by
the usual series / continued-fraction split.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    # lower regularized gamma by power series, good for x < a + 1
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper regularized gamma by Lentz continued fraction, good for x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi2_sf(x: float, df: int) -> float:
    """P(chi2_df > x)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if x <= 0:
        return 1.0
    return min(1.0, max(0.0, gamma_q(df / 2.0, x / 2.0)))


def poisson_pmf(k: int, lam: float) -> float:
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 \
        else (1.0 if k == 0 else 0.0)


def poisson_bins(lam: float, total: int, min_expected: float
                 ) -> List[Tuple[int, float]]:
    """Bins {0}, {1}, ... with the tail merged so every expected count is
    at least min_expected; returns (lower value, expected count) pairs,
    the last bin meaning 'value >= lower'."""
    bins: List[Tuple[int, float]] = []
    cum = 0.0
    k = 0
    while True:
        p = poisson_pmf(k, lam)
        tail = (1.0 - cum - p) * total
        if bins and tail < min_expected:
            break
        if not bins and p * total < min_expected:
            # degenerate: everything in one bin; caller will reject
            break
        bins.append((k, p * total))
        cum += p
        k += 1
    bins.append((k, (1.0 - cum) * total))
    return bins


def chi2_statistic(observed: Sequence[float], expected: Sequence[float]
                   ) -> Tuple[float, int]:
    if len(observed) != len(expected) or len(observed) < 2:
        raise ValueError("need matching bins, at least two")
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stat, len(observed) - 1


def bin_index(lowers: Sequence[int], value: int) -> int:
    """Index of the last bin whose lower value is at most value (the
    first bin for a value below them all); lowers ascend."""
    return max(bisect.bisect_right(lowers, value) - 1, 0)


def histogram_chi2(hist: Dict[int, int], bins: List[Tuple[int, float]]
                   ) -> Tuple[float, int]:
    """Chi-square of an integer histogram against (lower, expected) bins;
    the final bin absorbs everything at or above its lower value."""
    observed = [0.0] * len(bins)
    lowers = [b[0] for b in bins]
    for value, count in hist.items():
        observed[bin_index(lowers, value)] += count
    return chi2_statistic(observed, [e for _, e in bins])
