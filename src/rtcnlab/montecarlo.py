"""Deterministic Monte Carlo over chains and the forward construction.

Replications are share-nothing: the draw for (replication r, step s) is a
pure function of the seed, so results are bit-identical for a fixed
configuration however the replications are split into blocks.  The
blocks run in order in the calling thread.  One Tally takes every
block's count vectors: it reduces each block to its distinct rows and
their counts, kept as arrays, and adds the counts of equal rows as
integers, so the histogram is exact; its dict is built once, at the
end, its keys in sorted order.  Every statistic is derived from that
histogram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import chains, gof, networks, patterns
from .rng import raw_block

# replications per chain block, a multiple of 4; longer blocks spend less
# time in ufunc dispatch.  chain_mc took 1.31 s at 8192, 1.07 s at 16384
# and 1.06 s at 32768, which raised its peak RSS from 44.8 MB to 46.9 MB.
CHUNK = 16384
# lineage slots, rows x (3n - 2), of one lockstep forward sub-batch,
# which bound its memory up to n = 342.  With windows of 8 sub-batches
# the n=24 job (16,384 networks, all 14 patterns) took a median 22.7 ms
# with 2^14 cells, 19.8 ms with 2^15 (468 rows) and 18.1 ms with 2^16,
# though a second sweep read 19.5-20.3 ms for both of the last two; its
# traced peak was 0.80, 1.01 and 1.69 MB (2-vCPU Xeon).
FORWARD_CELLS = 1 << 15
# a forward window, whose words one rng.raw_block call per step reads
# and whose count vectors one Tally.add takes, holds FORWARD_WINDOW
# whole sub-batches, or as many as fit in FORWARD_CELLS // 8 rows where
# that is fewer (n <= 21), so its count rows (at most 144 bytes each)
# stay near a sub-batch's size.  The n=24 job took a median 27.9, 23.4,
# 20.5, 19.7, 19.8 and 19.1 ms with windows of 1, 2, 4, 6, 8 and 12
# sub-batches, at a traced peak of 0.73, 0.79, 0.88, 0.96, 1.01 and
# 1.10 MB.  From n = 343 on a sub-batch holds FORWARD_WORD_ROWS //
# FORWARD_WINDOW = 32 rows, more than FORWARD_CELLS slots, so that
# _grow's per-step calls serve more networks, and a window reads
# FORWARD_WORD_ROWS rows' words, at most 4 * 256 * (n - 2) bytes.
# Sub-batches of 16, 32, 43 and 64 rows took 0.147, 0.098, 0.097 and
# 0.116 ms a network at n = 1000 (traced peak 1.48, 2.63, 3.39 and
# 4.95 MB) and 0.279, 0.180, 0.157 and 0.148 ms at n = 2000 (2.65, 4.97,
# 6.53 and 9.62 MB).
FORWARD_WINDOW = 8
FORWARD_WORD_ROWS = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """source is a chain id or "forward", whose pattern_ids select what to
    count on each sampled network; threads is validated and ignored."""

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
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
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
        total = sum(self.histogram.values())
        if total != self.reps:
            raise ValueError(f"histogram holds {total} replications, "
                             f"reps is {self.reps}")
        k = len(self.components)
        keys, w = _histogram_arrays(self.histogram, k)
        term = np.repeat(w[:, None], k, axis=1)
        power = [term.sum(axis=0)]
        for _ in range(6):
            term = term * keys
            power.append(term.sum(axis=0))
        self.power_sums = np.array(power).T.tolist()
        cross = (keys.T @ (keys * w[:, None])).tolist()
        self.cross_sums = {(i, j): cross[i][j]
                           for i in range(k) for j in range(i + 1, k)}

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
        return self.standardized_moment_about(component, self.mean(component),
                                              1.0, order)

    def falling_moment(self, component, order: int) -> float:
        """E[X (X-1) ... (X-order+1)] exactly, orders up to 4: the power
        sums weighted by the falling factorial's coefficients (Stirling
        numbers of the first kind), summed in Python ints."""
        if not 1 <= order <= 4:
            raise ValueError("falling moments tracked up to order 4")
        i = self.index(component)
        stirling = [1]
        for d in range(order):
            stirling = _poly_mul(stirling, (-d, 1))
        total = sum(s * p for s, p in zip(stirling, self.power_sums[i]))
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


def _histogram_arrays(histogram: Dict[Tuple[int, ...], int], k: int):
    """The histogram's keys as a (len(histogram), k) matrix and its
    weights: int64 when no power sum up to the sixth or cross sum can
    reach 2^63 (max |key|^6 times the total weight is below it), else
    object arrays of Python ints."""
    rows = len(histogram)
    try:
        keys = np.fromiter(itertools.chain.from_iterable(histogram),
                           dtype=np.int64, count=rows * k).reshape(rows, k)
        w = np.fromiter(histogram.values(), dtype=np.int64, count=rows)
    except OverflowError:
        return (np.array(list(histogram), dtype=object).reshape(rows, k),
                np.array(list(histogram.values()), dtype=object))
    m = max(-int(keys.min(initial=0)), int(keys.max(initial=0)), 1)
    if m ** 6 * int(np.abs(w).sum()) >= 1 << 63:
        return keys.astype(object), w.astype(object)
    return keys, w


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@dataclass
class FitReport:
    law: str
    checks: List[dict]
    passed: bool
    details: dict = field(default_factory=dict)


# -- chain engine ------------------------------------------------------------


def _kernel_dtype(n_target: int):
    """int32 when every value a run to n_target forms fits in it: at a
    feasible lineage vector (x..., D) of step n each one lies in [-1,
    n^2], and the table's load-time proof keeps every vector feasible."""
    return np.int32 if (n_target - 1) ** 2 < 2 ** 31 else np.int64


def _chain_block(table: chains.TransitionTable, n_target: int, seed: int,
                 lo: int, hi: int) -> np.ndarray:
    """The observables of replications lo..hi-1 of the table's chain at
    n_target leaves, one row per replication (lo and hi multiples of 4).

    xs holds the lineage vectors (x..., D), from table.start.  A step
    fills the families the groups read on the whole block and adds the
    groups' numerators, in order, into one running sum cum; a replication
    with draw v takes the group g numbered #{g : cum_g <= v} and adds
    table.steps[g] to its vector.  The table's proof makes the numerators
    >= 0 with sum n^2 > v, so the last group is never evaluated, and the
    group taken has a positive numerator, so the proof also makes the new
    vector feasible; no state is checked."""
    m = hi - lo
    k = len(table.components)
    dt = _kernel_dtype(n_target)
    counted = table.groups[:-1]
    used = {fam for _, terms in counted for fam, _ in terms}
    xs = np.empty((k + 1, m), dtype=dt)
    xs[:] = np.array(table.start, dtype=dt)[:, None]
    steps = np.array(table.steps, dtype=dt).T
    cum, tmp, v = (np.empty(m, dt) for _ in range(3))
    values = {fam: xs[fam[0]] if len(fam) == 1 else np.empty(m, dt)
              for fam in table.families if fam in used}
    mask = np.empty(m, dtype=bool)
    cnt = np.empty(m, dtype=np.uint8 if len(table.groups) <= 256 else np.intp)
    idx = np.empty(m, dtype=np.intp)
    for n in range(2, n_target):
        nn = n * n
        raw = raw_block(seed, n, lo, hi)
        q = raw // nn  # raw - q * nn is raw % nn, and faster
        q *= nn
        raw -= q
        v[:] = raw
        for fam, out in values.items():
            if len(fam) == 1:
                continue
            i, j = fam
            if i == j:
                np.subtract(xs[i], 1, out=tmp)
                np.multiply(xs[i], tmp, out=out)
            else:
                np.multiply(xs[i], xs[j], out=out)
        cum.fill(0)
        cnt.fill(0)
        for _, terms in counted:
            for fam, c in terms:
                if c == 1:
                    np.add(cum, values[fam], out=cum)
                else:
                    np.multiply(values[fam], c, out=tmp)
                    np.add(cum, tmp, out=cum)
            np.less_equal(cum, v, out=mask)
            np.add(cnt, mask.view(np.uint8), out=cnt)
        idx[:] = cnt
        for row, d in zip(xs, steps):
            # cnt < len(steps) by construction: clipping changes nothing
            np.take(d, idx, out=tmp, mode="clip")
            np.add(row, tmp, out=row)
    obs = np.empty((len(table.observables), m), dtype=np.int64)
    point = (0,) + tuple(xs[:k].astype(np.int64))
    for i, poly in enumerate(table.observables.values()):
        obs[i] = chains.evaluate(poly, point)
    return obs.T


# distinct rows a Tally holds before it reduces them together: at least
# this many, and twice as many as its last reduction left
TALLY_ROWS = 2048


class Tally:
    """Exact histogram of int64 count vectors, fed block by block.

    Each block is reduced to its distinct rows and their counts, which
    are kept as arrays; the kept blocks are reduced together again when
    they pile up, and histogram() builds the dict once, its keys in
    sorted order."""

    def __init__(self):
        self._rows: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._held = 0
        self._floor = TALLY_ROWS

    def add(self, rows: np.ndarray) -> None:
        """Count every row of an (m, k) integer array, k fixed per Tally."""
        rows, counts = _distinct(np.asarray(rows, dtype=np.int64))
        self._rows.append(rows)
        self._counts.append(counts)
        self._held += len(rows)
        if self._held > self._floor:
            self._reduce()
            self._floor = max(TALLY_ROWS, 2 * self._held)

    def _reduce(self) -> None:
        if len(self._rows) > 1:
            rows = np.concatenate(self._rows)
            counts = np.concatenate(self._counts)
            # the blocks are freed before the sort's scratch is taken
            self._rows.clear()
            self._counts.clear()
            rows, counts = _distinct(rows, counts)
            self._rows.append(rows)
            self._counts.append(counts)
            self._held = len(rows)

    def histogram(self) -> Dict[Tuple[int, ...], int]:
        """Every distinct row counted so far, as a tuple, in lexicographic
        order, with its count."""
        if not self._rows:
            return {}
        self._reduce()
        return dict(zip(zip(*self._rows[0].T.tolist()),
                        self._counts[0].tolist()))


def _distinct(rows: np.ndarray, counts: Optional[np.ndarray] = None):
    """The distinct rows of an (m, k) int64 array in lexicographic order,
    and the summed counts of each (1 per row when counts is None).

    The rows are sorted by their _packed words, which order as they do."""
    if not len(rows):
        return rows, np.zeros(0, dtype=np.int64)
    words = _packed(rows)
    # lexsort is a merge sort: on one word of 2,000 rows, 4 times slower
    # than argsort
    order = (words[:, 0].argsort() if words.shape[1] == 1
             else np.lexsort(words.T[::-1]))
    words = words[order]
    start = np.empty(len(rows), dtype=bool)
    start[0] = True
    np.any(words[1:] != words[:-1], axis=1, out=start[1:])
    first = np.flatnonzero(start)
    if counts is None:
        counts = np.diff(np.append(first, len(rows)))
    else:
        counts = np.add.reduceat(counts[order], first)
    return rows[order[first]], counts


def _packed(rows: np.ndarray) -> np.ndarray:
    """(m, w) uint64 words that sort lexicographically as the int64 rows
    do: each column less its minimum, in the bits its range needs, packed
    greedily into as few 64-bit words as keep the columns in order, the
    first column highest.  A word, the sum of its columns' offsets times
    their place values, is computed modulo 2^64 as rows @ place less
    lo @ place."""
    lo = rows.min(axis=0).view(np.uint64)
    span = rows.max(axis=0).view(np.uint64) - lo
    words: List[List[Tuple[int, int]]] = [[]]
    used = 0
    for c, s in enumerate(span.tolist()):
        width = s.bit_length()
        if used + width > 64:
            words.append([])
            used = 0
        words[-1].append((c, width))
        used += width
    place = np.zeros((rows.shape[1], len(words)), dtype=np.uint64)
    for w, cols in enumerate(words):
        shift = 0
        for c, width in reversed(cols):
            # a constant column (width 0) may sit at shift 64; it adds 0
            if width:
                place[c, w] = 1 << shift
            shift += width
    return rows.view(np.uint64) @ place - lo @ place


def forward_rows(n: int) -> int:
    """Rows of one lockstep sub-batch of n-leaf networks: at most
    FORWARD_CELLS lineage slots, but at least the
    FORWARD_WORD_ROWS // FORWARD_WINDOW rows that amortise _grow's
    per-step calls (more slots from n = 343 on)."""
    return max(FORWARD_CELLS // (3 * n - 2),
               FORWARD_WORD_ROWS // FORWARD_WINDOW)


def forward_window(n: int) -> int:
    """Rows of one forward window of n-leaf networks: FORWARD_WINDOW
    sub-batches of forward_rows(n) rows, or as many whole ones as fit in
    FORWARD_CELLS // 8 rows where that is fewer (n <= 21), and at least
    one."""
    rows = forward_rows(n)
    return rows * max(1, min(FORWARD_WINDOW, FORWARD_CELLS // 8 // rows))


def run_experiment(cfg: ExperimentConfig,
                   raw_csv: Optional[str] = None) -> SampleSummary:
    """Run all replications, block by block in order, and summarize; with
    raw_csv also write the per-replication counts.

    A chain source runs CHUNK replications of its kernel per block.  A
    forward block is one window of forward_window(n) replications,
    whose words are read by one raw_block call per step and which is
    grown in sub-batches of forward_rows(n) rows, all counted into one
    array by patterns.count_batches; replication r reads word r of each
    step's stream-1 raw_block, so it shares no chain draw.  One Tally
    takes the count vectors of every block, chain or forward, in one
    call each."""
    if cfg.source == "forward":
        components = cfg.pattern_ids
        block = forward_window(cfg.n)

        def work(lo, hi):
            return [patterns.count_batches(
                networks.forward_batches(cfg.n, cfg.seed, lo, hi,
                                         forward_rows(cfg.n)),
                components, hi - lo)]
    else:
        table = chains.builtin_table(cfg.source)
        components = tuple(table.observables)
        block = CHUNK

        def work(lo, hi):
            hi4 = (hi + 3) // 4 * 4
            return [_chain_block(table, cfg.n, cfg.seed, lo, hi4)[: hi - lo]]

    tally = Tally()
    block_rows = [] if raw_csv else None
    for lo in range(0, cfg.reps, block):
        for rows in work(lo, min(lo + block, cfg.reps)):
            tally.add(rows)
            if block_rows is not None:
                block_rows.append(rows)
        del rows  # not held while the next block is grown
    if raw_csv:
        _write_raw_csv(raw_csv, components, block_rows)
    return SampleSummary(components=tuple(components), n=cfg.n,
                         reps=cfg.reps, seed=cfg.seed, source=cfg.source,
                         histogram=tally.histogram())


def _write_raw_csv(path: str, components, block_rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("replication",) + tuple(components))
        writer.writerows([rep] + row for rep, row in
                         enumerate(np.concatenate(block_rows).tolist()))


# -- fit checks ---------------------------------------------------------------

# The acceptance tolerances of the fit checks, pinned here: no caller
# sets them.  Only the chi-square p-value floor is a parameter, whose
# default P_THRESHOLD the verify suites use.
P_THRESHOLD = 1e-3
MIN_EXPECTED = 5.0  # least expected count of a chi-square cell
Z_THRESHOLD = 4.0  # standard errors a moment or covariance may stray
VAR_REL_TOL = 0.05  # relative variance error accepted at any sample size
COV_REL_TOL = 0.10  # relative covariance error accepted at any sample size
CORR_THRESHOLD = 0.02  # |correlation| below which two counts pass
# the product law independence_check fits: Poisson(1/8) x Poisson(1/4),
# the (b-i, cherry) law of Proposition 3
INDEPENDENCE_RATES = (0.125, 0.25)


def poisson_gof(summary: SampleSummary, lam: float, component=0,
                p_threshold: float = P_THRESHOLD) -> FitReport:
    """Chi-square fit of one component against Poisson(lam)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    hist = summary.marginal_histogram(component)
    bins = gof.poisson_bins(lam, summary.reps, MIN_EXPECTED)
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
                    component=0, moment_slack_coef: float = 6.0) -> FitReport:
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
    m3_tol = Z_THRESHOLD * se3 + slack
    m4_tol = Z_THRESHOLD * se4 + slack
    var_tol = max(VAR_REL_TOL, Z_THRESHOLD * se2)
    checks = [
        {"name": "standardized_mean", "value": z1,
         "threshold": Z_THRESHOLD * se1, "passed": abs(z1) <= Z_THRESHOLD * se1},
        {"name": "variance_ratio", "value": var_ratio,
         "threshold": var_tol, "passed": abs(var_ratio - 1.0) <= var_tol},
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
                     sigma: Sequence[Sequence[Fraction]]) -> FitReport:
    """Entrywise comparison of the empirical covariance matrix over n with
    a target matrix; tolerance is the larger of COV_REL_TOL relative and
    Z_THRESHOLD standard errors of the covariance estimate."""
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
            tol = max(COV_REL_TOL * abs(target), Z_THRESHOLD * se)
            checks.append({
                "name": f"cov[{summary.components[i]},{summary.components[j]}]",
                "value": emp, "target": target, "tolerance": tol,
                "passed": abs(emp - target) <= tol})
    diag_ok = all(summary.variance(i) > 0 for i in range(k))
    checks.append({"name": "diagonal_positive", "passed": diag_ok})
    return FitReport(law="trivariate normal covariance", checks=checks,
                     passed=all(c["passed"] for c in checks))


def independence_check(summary: SampleSummary, components=(0, 1),
                       p_threshold: float = P_THRESHOLD) -> FitReport:
    """Joint frequency table of two components against the product law
    Poisson(lam_x) x Poisson(lam_c) of INDEPENDENCE_RATES, plus the
    empirical correlation."""
    lam_x, lam_c = INDEPENDENCE_RATES
    ix, ic = (summary.index(c) for c in components)
    N = summary.reps
    # per-margin floor sqrt(MIN_EXPECTED * N) keeps joint cells >= MIN_EXPECTED
    margin_floor = max(MIN_EXPECTED, math.sqrt(MIN_EXPECTED * N))
    bins_x = gof.poisson_bins(lam_x, N, margin_floor)
    bins_c = gof.poisson_bins(lam_c, N, margin_floor)
    lowers_x = [b[0] for b in bins_x]
    lowers_c = [b[0] for b in bins_c]
    observed = [[0.0] * len(bins_c) for _ in bins_x]
    for key, w in summary.histogram.items():
        row = observed[gof.bin_index(lowers_x, key[ix])]
        row[gof.bin_index(lowers_c, key[ic])] += w
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
        {"name": "correlation", "value": corr, "threshold": CORR_THRESHOLD,
         "passed": abs(corr) < CORR_THRESHOLD},
        {"name": "marginal_mean_x", "value": mean_x, "target": lam_x,
         "passed": abs(mean_x - lam_x) <= 4 * max(se_x, 1e-12)},
    ]
    return FitReport(law=f"Poisson({lam_x:g}) x Poisson({lam_c:g})",
                     checks=checks,
                     passed=all(c["passed"] for c in checks),
                     details={"statistic": stat, "df": df})
