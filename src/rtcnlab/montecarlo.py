"""Deterministic parallel Monte Carlo over chains and the forward construction.

Replications are share-nothing: the draw for (replication r, step s) is a
pure function of the seed, so results are bit-identical for a fixed
configuration no matter how many threads are used.  Work is split into
fixed-size chunks; each chunk produces an exact integer histogram of the
observed count vectors, and chunk results are merged by commutative
integer addition.  Every statistic is derived from that histogram.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import chains, gof, networks, patterns
from .rng import raw_block

CHUNK = 8192  # fixed; must be a multiple of 4 and independent of threads
# rows x lineage slots of one lockstep forward sub-batch.  It bounds the
# memory the forward source adds: at n=24 with all 14 patterns, 2^15
# cells (468 rows) left the peak RSS of a 45 MB process within 0.3% of
# the per-network path's, 2^16 added 1.1 MB (2.5%); 2^14 halves the rows
# and doubles the per-network time at n=2000.
FORWARD_CELLS = 1 << 15


@dataclass(frozen=True)
class ExperimentConfig:
    """source is either a chain id or "forward"; for the forward source
    pattern_ids selects what to count on each sampled network."""

    source: str
    n: int
    reps: int
    seed: int
    pattern_ids: Tuple[str, ...] = ()
    threads: int = 1

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.source != "forward" and self.source not in chains.BUILTIN_IDS:
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "forward" and not self.pattern_ids:
            raise ValueError("forward source needs pattern ids")
        for pid in self.pattern_ids:
            if pid not in patterns.catalog():
                raise ValueError(f"unknown pattern id {pid!r}")


@dataclass
class SampleSummary:
    """Exact joint histogram of observed count vectors plus derived
    statistics.  Raw power sums are kept for audit."""

    components: Tuple[str, ...]
    n: int
    reps: int
    seed: int
    source: str
    histogram: Dict[Tuple[int, ...], int]

    def __post_init__(self):
        assert sum(self.histogram.values()) == self.reps
        self.power_sums = [
            [sum(key[i] ** p * w for key, w in self.histogram.items())
             for p in range(7)]
            for i in range(len(self.components))]
        self.cross_sums = {
            (i, j): sum(key[i] * key[j] * w for key, w in self.histogram.items())
            for i in range(len(self.components))
            for j in range(i + 1, len(self.components))}

    def index(self, component) -> int:
        if isinstance(component, int):
            return component
        return self.components.index(component)

    def marginal_histogram(self, component) -> Dict[int, int]:
        i = self.index(component)
        out: Dict[int, int] = {}
        for key, w in self.histogram.items():
            out[key[i]] = out.get(key[i], 0) + w
        return out

    def mean(self, component) -> float:
        i = self.index(component)
        return self.power_sums[i][1] / self.reps

    def variance(self, component) -> float:
        i = self.index(component)
        s1, s2 = self.power_sums[i][1], self.power_sums[i][2]
        return (s2 - s1 * s1 / self.reps) / (self.reps - 1)

    def mean_se(self, component) -> float:
        return math.sqrt(max(self.variance(component), 0.0) / self.reps)

    def central_moment(self, component, order: int) -> float:
        """E[(X - mean)^order], orders up to 6, from the raw power sums."""
        if not 0 <= order <= 6:
            raise ValueError("central moments tracked up to order 6")
        i = self.index(component)
        m = self.mean(component)
        total = 0.0
        for p in range(order + 1):
            total += (math.comb(order, p) * self.power_sums[i][p]
                      * (-m) ** (order - p))
        return total / self.reps

    def falling_moment(self, component, order: int) -> float:
        """E[X (X-1) ... (X-order+1)] exactly, orders up to 4."""
        if not 1 <= order <= 4:
            raise ValueError("falling moments tracked up to order 4")
        i = self.index(component)
        total = 0
        for key, w in self.histogram.items():
            term = 1
            for d in range(order):
                term *= key[i] - d
            total += term * w
        return total / self.reps

    def covariance(self, comp_a, comp_b) -> float:
        i, j = self.index(comp_a), self.index(comp_b)
        if i == j:
            return self.variance(i)
        key = (min(i, j), max(i, j))
        sij = self.cross_sums[key]
        si, sj = self.power_sums[i][1], self.power_sums[j][1]
        return (sij - si * sj / self.reps) / (self.reps - 1)

    def correlation(self, comp_a, comp_b) -> float:
        va, vb = self.variance(comp_a), self.variance(comp_b)
        if va <= 0 or vb <= 0:
            return 0.0
        return self.covariance(comp_a, comp_b) / math.sqrt(va * vb)

    def standardized_moment_about(self, component, mu: float, sigma: float,
                                  order: int) -> float:
        """mean of ((X - mu)/sigma)^order for externally supplied mu, sigma."""
        i = self.index(component)
        total = 0.0
        for p in range(order + 1):
            total += (math.comb(order, p) * self.power_sums[i][p]
                      * (-mu) ** (order - p))
        return total / self.reps / sigma ** order

    def to_dict(self) -> dict:
        """Structured report: per-component statistics plus the raw power
        sums that back them."""
        comps = {}
        for i, name in enumerate(self.components):
            comps[name] = {
                "mean": self.mean(i),
                "variance": self.variance(i),
                "mean_se": self.mean_se(i),
                "central_moments": {str(k): self.central_moment(i, k)
                                    for k in range(2, 7)},
                "falling_moments": {str(k): self.falling_moment(i, k)
                                    for k in range(1, 5)},
                "power_sums": [str(s) for s in self.power_sums[i]],
            }
        covs = {f"{self.components[i]},{self.components[j]}":
                self.covariance(i, j)
                for i in range(len(self.components))
                for j in range(i + 1, len(self.components))}
        return {"source": self.source, "n": self.n, "reps": self.reps,
                "seed": self.seed, "components": list(self.components),
                "statistics": comps, "covariances": covs}


@dataclass
class FitReport:
    law: str
    checks: List[dict]
    passed: bool
    details: dict = field(default_factory=dict)


# -- chain engine ------------------------------------------------------------


class _CompiledChain:
    def __init__(self, table: chains.TransitionTable):
        self.table = table
        groups: Dict[Tuple[int, ...], list] = {}
        for rule in table.rules:
            groups.setdefault(rule.delta, []).append(rule.numerator)
        self.deltas = np.array(list(groups.keys()), dtype=np.int64)
        self.numerators = list(groups.values())
        self.footprints = np.array(
            [table.footprints[c] for c in table.components], dtype=np.int64)
        obs_names = list(table.observables)
        self.obs_names = tuple(obs_names)
        self.obs_fns = [table.observables[name] for name in obs_names]

    def run_block(self, n_target: int, seed: int, lo: int, hi: int) -> np.ndarray:
        m = hi - lo
        k = len(self.table.components)
        state = np.empty((k, m), dtype=np.int64)
        for i, v in enumerate(self.table.initial):
            state[i, :] = v
        names = ("a", "b", "c")
        for n in range(2, n_target):
            nn = n * n
            v = (raw_block(seed, n, lo, hi) % nn).astype(np.int64)
            kw = {names[i]: state[i] for i in range(k)}
            cum = np.zeros(m, dtype=np.int64)
            idx = np.zeros(m, dtype=np.int64)
            for fns in self.numerators:
                num = fns[0](n, **kw)
                for fn in fns[1:]:
                    num = num + fn(n, **kw)
                cum += num
                idx += v >= cum
            if not (cum == nn).all():
                raise chains.TableError(
                    f"table {self.table.name}: numerators do not sum to n^2 "
                    f"at n={n}; transcription suspect")
            for i in range(k):
                state[i] += self.deltas[idx, i]
            load = self.footprints @ state
            if (load > n + 1).any() or (state < 0).any():
                raise chains.TableError(
                    f"table {self.table.name}: infeasible state at n={n + 1}")
        obs = np.empty((len(self.obs_fns), m), dtype=np.int64)
        kw = {names[i]: state[i] for i in range(k)}
        for i, fn in enumerate(self.obs_fns):
            obs[i] = fn(0, **kw)
        return obs.T


def _merge_counts(target: Dict[Tuple[int, ...], int], rows: np.ndarray) -> None:
    uniq, counts = np.unique(rows, axis=0, return_counts=True)
    for row, cnt in zip(uniq, counts):
        key = tuple(int(x) for x in row)
        target[key] = target.get(key, 0) + int(cnt)


def _map_chunks(work: Callable[[int, int], np.ndarray], reps: int,
                threads: int) -> Iterator[np.ndarray]:
    """work(lo, hi) over the fixed chunks of replications 0..reps-1, in
    chunk order.  With threads > 1 the chunks run on a thread pool; the
    chunk work holds the interpreter lock, so threads seldom run faster."""
    los = range(0, reps, CHUNK)
    his = [min(lo + CHUNK, reps) for lo in los]
    if threads <= 1:
        yield from map(work, los, his)
        return
    with futures.ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(work, los, his)


def run_experiment(cfg: ExperimentConfig,
                   raw_csv: Optional[str] = None) -> SampleSummary:
    """Run all replications and summarize.  The thread budget only changes
    the scheduling of fixed chunks, never the result.  With raw_csv the
    per-replication counts are also written out, in replication order.

    A chain source runs replications lo..hi-1 of its kernel per chunk; the
    forward source grows replications in lockstep sub-batches of
    FORWARD_CELLS lineage slots and counts cfg.pattern_ids on them, and
    replication r is the network networks.generate grows on stream r + 1."""
    if cfg.source == "forward":
        components = cfg.pattern_ids
        batch_rows = max(1, FORWARD_CELLS // (3 * cfg.n - 2))

        def work(lo, hi):
            counts = np.empty((hi - lo, len(components)), dtype=np.int64)
            for a in range(lo, hi, batch_rows):
                b = min(a + batch_rows, hi)
                batch = networks.generate_batch(cfg.n, cfg.seed,
                                                range(a + 1, b + 1))
                counts[a - lo:b - lo] = patterns.count_batch(batch, components)
            return counts
    else:
        compiled = _CompiledChain(chains.builtin_table(cfg.source))
        components = compiled.obs_names

        def work(lo, hi):
            hi4 = (hi + 3) // 4 * 4
            return compiled.run_block(cfg.n, cfg.seed, lo, hi4)[: hi - lo]

    histogram: Dict[Tuple[int, ...], int] = {}
    chunk_rows = [] if raw_csv else None
    for rows in _map_chunks(work, cfg.reps, cfg.threads):
        _merge_counts(histogram, rows)
        if chunk_rows is not None:
            chunk_rows.append(rows)
    if raw_csv:
        _write_raw_csv(raw_csv, components, chunk_rows)
    return SampleSummary(components=tuple(components), n=cfg.n,
                         reps=cfg.reps, seed=cfg.seed, source=cfg.source,
                         histogram=histogram)


def _write_raw_csv(path: str, components, chunk_rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("replication",) + tuple(components))
        rep = 0
        for rows in chunk_rows:
            for row in rows:
                writer.writerow((rep,) + tuple(int(x) for x in row))
                rep += 1


# -- fit checks ---------------------------------------------------------------


def poisson_gof(summary: SampleSummary, lam: float, component=0,
                p_threshold: float = 1e-3, min_expected: float = 5.0) -> FitReport:
    """Chi-square fit of one component against Poisson(lam)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    hist = summary.marginal_histogram(component)
    bins = gof.poisson_bins(lam, summary.reps, min_expected)
    if len(bins) < 2:
        raise ValueError("too few samples to form bins with the required "
                         "expected counts")
    stat, df = gof.histogram_chi2(hist, bins)
    p = gof.chi2_sf(stat, df)
    mean = summary.mean(component)
    se = summary.mean_se(component)
    mean_ok = abs(mean - lam) <= 4 * max(se, 1e-12)
    checks = [
        {"name": "chi_square_p", "value": p, "threshold": p_threshold,
         "passed": p > p_threshold},
        {"name": "mean_within_4se", "value": mean, "target": lam,
         "se": se, "passed": mean_ok},
    ]
    return FitReport(law=f"Poisson({lam:g})", checks=checks,
                     passed=all(c["passed"] for c in checks),
                     details={"statistic": stat, "df": df,
                              "bins": [(b[0], b[1]) for b in bins]})


def normality_check(summary: SampleSummary, mu_n: float, sigma2_n: float,
                    component=0, var_rel_tol: float = 0.05,
                    z_threshold: float = 4.0,
                    moment_slack_coef: float = 6.0) -> FitReport:
    """Standardize by the supplied centering and scale, then test the mean,
    the variance ratio, and the standardized third and fourth moments.

    The moment thresholds combine the Monte Carlo standard error with a
    finite-size allowance moment_slack_coef / sqrt(n): the exact chain
    laws have standardized third moments decaying like c / sqrt(n) with
    c up to about 4.5 (measured from the exact distributions), so a bare
    sampling-error band would reject the true law at practical n.  Set
    moment_slack_coef=0 for the strict band.
    """
    if sigma2_n <= 0:
        raise ValueError("sigma^2 must be positive")
    N = summary.reps
    sigma = math.sqrt(sigma2_n)
    z1 = summary.standardized_moment_about(component, mu_n, sigma, 1)
    z2 = summary.standardized_moment_about(component, mu_n, sigma, 2)
    z3 = summary.standardized_moment_about(component, mu_n, sigma, 3)
    z4 = summary.standardized_moment_about(component, mu_n, sigma, 4)
    # moment standard errors under the normal limit
    se1 = 1.0 / math.sqrt(N)
    se2 = math.sqrt(2.0 / N)
    se3 = math.sqrt(15.0 / N)
    se4 = math.sqrt(96.0 / N)
    slack = moment_slack_coef / math.sqrt(summary.n) if summary.n else 0.0
    var_ratio = summary.variance(component) / sigma2_n
    m3_tol = z_threshold * se3 + slack
    m4_tol = z_threshold * se4 + slack
    checks = [
        {"name": "standardized_mean", "value": z1,
         "threshold": z_threshold * se1, "passed": abs(z1) <= z_threshold * se1},
        {"name": "variance_ratio", "value": var_ratio,
         "threshold": max(var_rel_tol, z_threshold * se2),
         "passed": abs(var_ratio - 1.0) <= max(var_rel_tol, z_threshold * se2)},
        {"name": "third_moment", "value": z3, "threshold": m3_tol,
         "passed": abs(z3) <= m3_tol},
        {"name": "fourth_moment", "value": z4, "target": 3.0,
         "threshold": m4_tol,
         "passed": abs(z4 - 3.0) <= m4_tol},
    ]
    return FitReport(law=f"Normal({mu_n:g}, {sigma2_n:g})", checks=checks,
                     passed=all(c["passed"] for c in checks),
                     details={"z2": z2})


def covariance_check(summary: SampleSummary, n: int,
                     sigma: Sequence[Sequence[Fraction]],
                     rel_tol: float = 0.10, z_threshold: float = 4.0) -> FitReport:
    """Entrywise comparison of the empirical covariance matrix over n with
    a target matrix; tolerance is the larger of rel_tol and z_threshold
    standard errors of the covariance estimate."""
    k = len(summary.components)
    if k != len(sigma):
        raise ValueError("component count does not match matrix size")
    N = summary.reps
    checks = []
    for i in range(k):
        for j in range(i, k):
            emp = summary.covariance(i, j) / n
            target = float(sigma[i][j])
            cii = summary.covariance(i, i)
            cjj = summary.covariance(j, j)
            cij = summary.covariance(i, j)
            se = math.sqrt(max(cii * cjj + cij * cij, 0.0) / N) / n
            tol = max(rel_tol * abs(target), z_threshold * se)
            checks.append({
                "name": f"cov[{summary.components[i]},{summary.components[j]}]",
                "value": emp, "target": target, "tolerance": tol,
                "passed": abs(emp - target) <= tol})
    diag_ok = all(summary.variance(i) > 0 for i in range(k))
    checks.append({"name": "diagonal_positive", "passed": diag_ok})
    return FitReport(law="trivariate normal covariance", checks=checks,
                     passed=all(c["passed"] for c in checks))


def independence_check(summary: SampleSummary, lam_x: float = 0.125,
                       lam_c: float = 0.25, components=(0, 1),
                       p_threshold: float = 1e-3,
                       corr_threshold: float = 0.02,
                       min_expected: float = 5.0) -> FitReport:
    """Joint frequency table against a product of two Poisson laws,
    plus the empirical correlation."""
    ix, ic = (summary.index(c) for c in components)
    N = summary.reps
    # per-margin floor sqrt(min_expected * N) keeps joint cells >= min_expected
    margin_floor = max(min_expected, math.sqrt(min_expected * N))
    bins_x = gof.poisson_bins(lam_x, N, margin_floor)
    bins_c = gof.poisson_bins(lam_c, N, margin_floor)
    lowers_x = [b[0] for b in bins_x]
    lowers_c = [b[0] for b in bins_c]

    def locate(lowers, v):
        for i in range(len(lowers) - 1, -1, -1):
            if v >= lowers[i]:
                return i
        return 0

    observed = [[0.0] * len(bins_c) for _ in bins_x]
    for key, w in summary.histogram.items():
        observed[locate(lowers_x, key[ix])][locate(lowers_c, key[ic])] += w
    expected = [[ex * ec / N for _, ec in bins_c] for _, ex in bins_x]
    flat_o = [o for row in observed for o in row]
    flat_e = [e for row in expected for e in row]
    stat, df = gof.chi2_statistic(flat_o, flat_e)
    p = gof.chi2_sf(stat, df)
    corr = summary.correlation(ix, ic)
    mean_x = summary.mean(ix)
    se_x = summary.mean_se(ix)
    checks = [
        {"name": "joint_chi_square_p", "value": p, "threshold": p_threshold,
         "passed": p > p_threshold},
        {"name": "correlation", "value": corr, "threshold": corr_threshold,
         "passed": abs(corr) < corr_threshold},
        {"name": "marginal_mean_x", "value": mean_x, "target": lam_x,
         "passed": abs(mean_x - lam_x) <= 4 * max(se_x, 1e-12)},
    ]
    return FitReport(law=f"Poisson({lam_x:g}) x Poisson({lam_c:g})",
                     checks=checks,
                     passed=all(c["passed"] for c in checks),
                     details={"statistic": stat, "df": df})
