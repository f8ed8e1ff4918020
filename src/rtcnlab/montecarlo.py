"""Deterministic Monte Carlo over chains and the forward construction.

Replications are share-nothing: the draw for (replication r, step s) is a
pure function of the seed, so results are bit-identical for a fixed
configuration however the replications are split into blocks.  The
blocks run in order in the calling thread; each block's count vectors
are merged into an exact integer histogram by integer addition.  Every
statistic is derived from that histogram.
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
# rows x lineage slots of one lockstep forward sub-batch.  It bounds the
# memory the forward source adds: at n=24 with all 14 patterns, 2^15
# cells (468 rows) left the peak RSS of a 45 MB process within 0.3% of
# the per-network path's, 2^16 added 1.1 MB (2.5%); 2^14 halves the rows
# and doubles the per-network time at n=2000.
FORWARD_CELLS = 1 << 15


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


@dataclass
class FitReport:
    law: str
    checks: List[dict]
    passed: bool
    details: dict = field(default_factory=dict)


# -- chain engine ------------------------------------------------------------


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _poly_at(poly: Sequence[int], n: int) -> int:
    """sum(poly[k] * n**k)."""
    value = 0
    for coef in reversed(poly):
        value = value * n + coef
    return value


# instructions of a compiled step
_LIN, _SHIFT, _PROD, _TERM, _CONST, _COUNT = range(6)


class _CompiledChain:
    """The Monte Carlo kernel of one transition table, compiled once.

    The rules' sums of products of linear forms in (n, a, b, c), as
    chains.load_table parsed them, are added up per group (the rules
    sharing a change vector, in order of first appearance).  A step
    evaluates every distinct linear form and product over the state once
    for the whole block (what depends on n alone is a Python int) and
    accumulates the groups' numerators into one running sum cum; a
    replication with draw v takes the group numbered #{g : cum_g <= v}.  The arithmetic is int32 when
    magnitude_bound shows that no value can reach 2^31, else int64.

    The plan: parts are the distinct combinations of the state rows,
    factors the distinct forms with a state part, each
    (part, sign, kn, k0) = sign * part + kn*n + k0, bases the distinct
    products of factors (tuples of factor indices), and each group a
    tuple of (base, coefficient polynomial in n), base None for the term
    that depends on n alone.  program lists one step's instructions in
    order of first use; a value's buffer is reused after its last use.
    """

    def __init__(self, table: chains.TransitionTable):
        self.table = table
        k = len(table.components)
        sops: Dict[Tuple[int, ...], chains.SumOfProducts] = {}
        for rule in table.rules:
            chains._add_terms(sops.setdefault(rule.delta, {}), rule.numerator)
        self.sops = list(sops.values())
        self.deltas = np.array(list(sops), dtype=np.int64)
        self.footprints = np.array(
            [table.footprints[c] for c in table.components], dtype=np.int64)
        self.parts: List[Tuple[int, ...]] = []
        self.factors: List[Tuple[int, int, int, int]] = []
        self.bases: List[Tuple[int, ...]] = []
        self.groups = [self._compile_group(sop, k) for sop in self.sops]
        self.program, self.n_buffers = self._compile_program(k)
        self.obs_names = tuple(table.observables)

    @staticmethod
    def _index(items: list, item) -> int:
        if item not in items:
            items.append(item)
        return items.index(item)

    def _compile_group(self, sop: chains.SumOfProducts, k: int) -> tuple:
        polys: Dict[Optional[int], List[int]] = {}
        for prod, coef in sop.items():
            poly, base = [coef], []
            for form in prod:
                w = form[1:1 + k]
                if not any(w):
                    poly = _poly_mul(poly, (form[4], form[0]))
                    continue
                sign = 1 if next(x for x in w if x) > 0 else -1
                part = self._index(self.parts, tuple(sign * x for x in w))
                base.append(self._index(self.factors,
                                        (part, sign, form[0], form[4])))
            key = self._index(self.bases, tuple(sorted(base))) if base else None
            acc = polys.setdefault(key, [])
            acc.extend([0] * (len(poly) - len(acc)))
            for i, x in enumerate(poly):
                acc[i] += x
        # the n-only term last: one scalar add after the array terms
        terms = [(b, tuple(p)) for b, p in polys.items()
                 if b is not None and any(p)]
        if any(polys.get(None, ())):
            terms.append((None, tuple(polys[None])))
        return tuple(terms)

    def _compile_program(self, k: int):
        """(instructions, buffer count).  Registers 0..k-1 are the state
        rows; the others are buffers, each given to a value at its
        definition and freed after the value's last use."""
        code: list = []
        regs: Dict[tuple, int] = {}

        def define(key, ins_of):
            regs[key] = k + len(regs)
            code.append(ins_of(regs[key]))
            return regs[key]

        def part(i):
            p = self.parts[i]
            if p.count(1) == 1 and p.count(0) == k - 1:
                return p.index(1)
            if ("part", i) in regs:
                return regs[("part", i)]
            return define(("part", i), lambda r: (_LIN, r, p))

        def factor(i):
            p, sign, kn, k0 = self.factors[i]
            src = part(p)
            if sign > 0 and not (kn or k0):
                return src
            if ("factor", i) in regs:
                return regs[("factor", i)]
            return define(("factor", i),
                          lambda r: (_SHIFT, r, src, sign, kn, k0))

        def base(i):
            fs = self.bases[i]
            if len(fs) == 1:
                return factor(fs[0])
            if ("base", i) in regs:
                return regs[("base", i)]
            srcs = tuple(factor(f) for f in fs)
            return define(("base", i), lambda r: (_PROD, r, srcs))

        for g, terms in enumerate(self.groups):
            for b, poly in terms:
                code.append((_CONST, poly) if b is None
                            else (_TERM, base(b), poly))
            if g < len(self.groups) - 1:
                code.append((_COUNT,))

        def reads(ins):
            if ins[0] == _SHIFT:
                return {ins[2]}
            if ins[0] == _PROD:
                return set(ins[2])
            if ins[0] == _TERM:
                return {ins[1]}
            return set()

        last = {r: i for i, ins in enumerate(code) for r in reads(ins)}
        phys = {r: r for r in range(k)}
        free: List[int] = []
        n_buffers = 0
        program = []
        for i, ins in enumerate(code):
            op = ins[0]
            if op in (_LIN, _SHIFT, _PROD):  # defines register ins[1]
                if not free:
                    free.append(k + n_buffers)
                    n_buffers += 1
                phys[ins[1]] = free.pop()
            if op == _SHIFT:
                ins = (op, phys[ins[1]], phys[ins[2]]) + ins[3:]
            elif op == _PROD:
                ins = (op, phys[ins[1]], tuple(phys[r] for r in ins[2]))
            elif op in (_LIN, _TERM):
                ins = (op, phys[ins[1]], ins[2])
            program.append(ins)
            free += [phys[r] for r in reads(code[i])
                     if r >= k and last[r] == i]
        return tuple(program), n_buffers

    def magnitude_bound(self, n_target: int):
        """An upper bound on the absolute value of every integer that
        run_block(n_target, ...) forms on a valid table: draws, parts,
        factors, products, terms, running sums, states and loads.

        run_block checks after each step that the new state is feasible,
        so every state it evaluates at step n satisfies state >= 0 and
        footprints . state <= n, provided the initial state does at n = 2.
        The groups' sums of products are bounded by chains.magnitude_bound
        on the vertices of that simplex for n = 2 and for the last step;
        a part, a factor, a product or a term with its coefficient
        polynomial is one of the values it covers.  Infinite when a
        footprint is not positive or the initial state is infeasible."""
        fps = [int(x) for x in self.footprints]
        init = self.table.initial
        if min(fps) <= 0 or min(init) < 0 or \
                sum(f * x for f, x in zip(fps, init)) > 2:
            return math.inf
        top = max(2, n_target - 1)
        k = len(fps)
        vertices = [(n,) + (0,) * k for n in (2, top)]
        vertices += [(n,) + tuple(Fraction(n, f) if i == j else 0
                                  for j, f in enumerate(fps))
                     for n in (2, top) for i in range(k)]
        step = np.abs(self.deltas).max(axis=0) if len(self.deltas) else [0] * k
        states = [math.ceil(Fraction(top, f)) + int(d) for f, d in zip(fps, step)]
        return max(chains.magnitude_bound(self.sops, vertices), top * top,
                   *states, sum(f * s for f, s in zip(fps, states)))

    def run_block(self, n_target: int, seed: int, lo: int, hi: int) -> np.ndarray:
        m = hi - lo
        k = len(self.table.components)
        dt = np.int32 if self.magnitude_bound(n_target) < 2 ** 31 else np.int64
        state = np.empty((k, m), dtype=dt)
        state[:] = np.array(self.table.initial, dtype=dt)[:, None]
        deltas = self.deltas.T.astype(dt)
        regs = list(state) + [np.empty(m, dt) for _ in range(self.n_buffers)]
        cum, tmp, v = np.empty(m, dt), np.empty(m, dt), np.empty(m, dt)
        mask = np.empty(m, dtype=bool)
        cnt = np.empty(m, dtype=np.uint8 if len(self.groups) <= 256 else np.intp)
        for n in range(2, n_target):
            nn = n * n
            raw = raw_block(seed, n, lo, hi)
            q = raw // nn  # raw - q * nn is raw % nn, and faster
            q *= nn
            raw -= q
            v[:] = raw
            cum.fill(0)
            cnt.fill(0)
            for ins in self.program:
                op = ins[0]
                if op == _TERM:
                    c = _poly_at(ins[2], n)
                    if c == 1:
                        np.add(cum, regs[ins[1]], out=cum)
                    elif c == -1:
                        np.subtract(cum, regs[ins[1]], out=cum)
                    elif c:
                        np.multiply(regs[ins[1]], c, out=tmp)
                        np.add(cum, tmp, out=cum)
                elif op == _COUNT:
                    np.less_equal(cum, v, out=mask)
                    np.add(cnt, mask.view(np.uint8), out=cnt)
                elif op == _PROD:
                    out, srcs = regs[ins[1]], ins[2]
                    np.multiply(regs[srcs[0]], regs[srcs[1]], out=out)
                    for r in srcs[2:]:
                        np.multiply(out, regs[r], out=out)
                elif op == _SHIFT:
                    _, dst, src, sign, kn, k0 = ins
                    if sign > 0:
                        np.add(regs[src], kn * n + k0, out=regs[dst])
                    else:
                        np.subtract(kn * n + k0, regs[src], out=regs[dst])
                elif op == _LIN:
                    _combine(state, ins[2], regs[ins[1]], tmp)
                else:  # _CONST
                    np.add(cum, _poly_at(ins[1], n), out=cum)
            # no count after the last group: its running sum is n^2 > v
            if not (cum == nn).all():
                raise chains.TableError(
                    f"table {self.table.name}: numerators do not sum to n^2 "
                    f"at n={n}; transcription suspect")
            for row, d in zip(state, deltas):
                # cnt < len(deltas) by construction: clipping changes nothing
                np.take(d, cnt, out=tmp, mode="clip")
                np.add(row, tmp, out=row)
            load = _combine(state, self.footprints, cum, tmp)
            if load.max() > n + 1 or state.min() < 0:
                raise chains.TableError(
                    f"table {self.table.name}: infeasible state at n={n + 1}")
        obs = np.empty((len(self.obs_names), m), dtype=np.int64)
        point = (0,) + tuple(state.astype(np.int64))
        for i, sop in enumerate(self.table.observables.values()):
            obs[i] = chains.evaluate(sop, point)
        return obs.T


def _combine(rows: np.ndarray, coefs, out: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """out = sum(coef * row) over the rows; tmp is scratch."""
    first = True
    for row, w in zip(rows, coefs):
        if not w:
            continue
        if first:
            np.multiply(row, w, out=out)
            first = False
        elif w == 1:
            np.add(out, row, out=out)
        elif w == -1:
            np.subtract(out, row, out=out)
        else:
            np.multiply(row, w, out=tmp)
            np.add(out, tmp, out=out)
    if first:
        out.fill(0)
    return out


def _merge_counts(target: Dict[Tuple[int, ...], int], rows: np.ndarray) -> None:
    """Add the distinct rows to target in sorted order (as np.unique
    with axis=0 would give them), with their counts."""
    rows = rows[np.lexsort(rows.T[::-1])]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    first = np.flatnonzero(start)
    counts = np.diff(np.append(first, len(rows)))
    for key, cnt in zip(map(tuple, rows[first].tolist()), counts.tolist()):
        target[key] = target.get(key, 0) + cnt


def forward_rows(n: int) -> int:
    """Rows of one lockstep sub-batch of n-leaf networks: at most
    FORWARD_CELLS lineage slots, and at least one row."""
    return max(1, FORWARD_CELLS // (3 * n - 2))


def run_experiment(cfg: ExperimentConfig,
                   raw_csv: Optional[str] = None) -> SampleSummary:
    """Run all replications, block by block in order, and summarize; with
    raw_csv also write the per-replication counts.

    A chain source runs CHUNK replications of its kernel per block; the
    forward source grows one lockstep sub-batch of FORWARD_CELLS lineage
    slots per block and counts cfg.pattern_ids on it, and its replication
    r is the network networks.generate grows on stream r + 1."""
    if cfg.source == "forward":
        components = cfg.pattern_ids
        block = forward_rows(cfg.n)

        def work(lo, hi):
            return patterns.count_batch(networks.generate_batch(
                cfg.n, cfg.seed, range(lo + 1, hi + 1)), components)
    else:
        compiled = _CompiledChain(chains.builtin_table(cfg.source))
        components = compiled.obs_names
        block = CHUNK

        def work(lo, hi):
            hi4 = (hi + 3) // 4 * 4
            return compiled.run_block(cfg.n, cfg.seed, lo, hi4)[: hi - lo]

    histogram: Dict[Tuple[int, ...], int] = {}
    block_rows = [] if raw_csv else None
    for lo in range(0, cfg.reps, block):
        rows = work(lo, min(lo + block, cfg.reps))
        _merge_counts(histogram, rows)
        if block_rows is not None:
            block_rows.append(rows)
    if raw_csv:
        _write_raw_csv(raw_csv, components, block_rows)
    return SampleSummary(components=tuple(components), n=cfg.n,
                         reps=cfg.reps, seed=cfg.seed, source=cfg.source,
                         histogram=histogram)


def _write_raw_csv(path: str, components, block_rows) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("replication",) + tuple(components))
        writer.writerows([rep] + row for rep, row in
                         enumerate(np.concatenate(block_rows).tolist()))


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
        {"name": "correlation", "value": corr, "threshold": corr_threshold,
         "passed": abs(corr) < corr_threshold},
        {"name": "marginal_mean_x", "value": mean_x, "target": lam_x,
         "passed": abs(mean_x - lam_x) <= 4 * max(se_x, 1e-12)},
    ]
    return FitReport(law=f"Poisson({lam_x:g}) x Poisson({lam_c:g})",
                     checks=checks,
                     passed=all(c["passed"] for c in checks),
                     details={"statistic": stat, "df": df})
