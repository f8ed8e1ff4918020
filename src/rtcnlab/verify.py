"""Verification suites: each one turns a published claim into a concrete
check at desk scale and returns a machine-readable report.

Exact claims (coupling, closed forms, moment identities, the conjecture
table, matcher agreement) are checked in exact rational arithmetic.
Asymptotic claims are checked through their finite-n statistical
surrogates on large simulations with pinned tolerances.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from . import chains, conjecture, montecarlo, moments, networks, patterns

DEFAULTS = {
    "reps": 100_000,
    "seed": 20260809,
}
# theorem2a's pinned criteria: the largest fraction of replications in
# which a degenerate pattern may occur, and the n of its exact a-i mean
MAX_FRACTION = 0.01
MEAN_N = 200
# the least replications prop3's correlation check can pass on: it asks
# |correlation| < CORR_THRESHOLD of counts whose correlation has standard
# error 1/sqrt(reps), and Z_THRESHOLD of those must fit below it
PROP3_MIN_REPS = round((montecarlo.Z_THRESHOLD / montecarlo.CORR_THRESHOLD) ** 2)


@dataclass
class SuiteReport:
    suite: str
    checks: List[dict] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True when every check passed; a suite that ran none fails."""
        return bool(self.checks) and all(c["passed"] for c in self.checks)

    def add(self, name: str, passed: bool, **details):
        entry = {"name": name, "passed": bool(passed)}
        entry.update(_sanitize(details))
        self.checks.append(entry)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "elapsed_s": round(self.elapsed_s, 3), "checks": self.checks}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator),
                "float": float(obj)}
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)


SUITES: Dict[str, Callable[[dict], SuiteReport]] = {}
# the option keys that each suite reads; it refuses any other
OPTIONS: Dict[str, FrozenSet[str]] = {}
_MC_KEYS = ("n", "reps", "seed")


def _suite(*keys: str):
    """Register suite_<name> under <name>, reading the given option keys.
    The registered function takes the options, refuses a key it does not
    read with a ValueError, runs body on a fresh report and records its
    wall time."""

    def register(body: Callable[[SuiteReport, dict], None]
                 ) -> Callable[[dict], SuiteReport]:
        name = body.__name__.removeprefix("suite_")

        @functools.wraps(body)
        def run(opts: dict) -> SuiteReport:
            unread = sorted(set(opts) - OPTIONS[name])
            if unread:
                raise ValueError(f"suite {name!r} reads no option "
                                 f"{', '.join(map(repr, unread))}")
            rep = SuiteReport(name)
            t0 = time.time()
            body(rep, opts)
            rep.elapsed_s = time.time() - t0
            return rep

        SUITES[name] = run
        OPTIONS[name] = frozenset(keys)
        return run

    return register


def _mc_options(opts: dict, n: int) -> Tuple[int, int, int]:
    """(n, reps, seed) of a statistical suite: its options, else the given
    leaf count and the defaults."""
    return (int(opts.get("n", n)),
            int(opts.get("reps", DEFAULTS["reps"])),
            int(opts.get("seed", DEFAULTS["seed"])))


_summary_cache: Dict[tuple, montecarlo.SampleSummary] = {}


def _chain_summary(chain_id, n, reps, seed):
    """Simulation summaries are deterministic in (chain, n, reps, seed),
    so suites sharing a configuration reuse the same run."""
    key = (chain_id, n, reps, seed)
    if key not in _summary_cache:
        cfg = montecarlo.ExperimentConfig(source=chain_id, n=n, reps=reps,
                                          seed=seed)
        _summary_cache[key] = montecarlo.run_experiment(cfg)
    return _summary_cache[key]


def _merge_fit(report: SuiteReport, prefix: str, fit: montecarlo.FitReport):
    for c in fit.checks:
        report.add(f"{prefix}:{c['name']}", c["passed"],
                   **{k: v for k, v in c.items() if k not in ("name", "passed")})


# -- exact suites ------------------------------------------------------------


@_suite("n_max", "n", "chains")
def suite_coupling(rep: SuiteReport, opts: dict) -> None:
    """Exact distributional identity between full history enumeration and
    the chain laws, for every leaf count up to the configured maximum.

    The histories of each n are grown in lockstep sub-batches of
    montecarlo.forward_rows(n) rows and counted as arrays; each
    chain law is propagated once, up to n_max, by chains.exact_laws."""
    n_max = int(opts.get("n_max", opts.get("n", 7)))
    networks.check_enumerable(n_max)
    chain_ids = opts.get("chains", list(chains.TRANSCRIBED_IDS))
    tables = {cid: chains.builtin_table(cid) for cid in chain_ids}
    names = sorted({name for t in tables.values() for name in t.observables})
    columns = {cid: [names.index(name) for name in t.observables]
               for cid, t in tables.items()}
    laws = {cid: chains.exact_laws(t, n_max) for cid, t in tables.items()}
    for n in range(2, n_max + 1):
        tallies = {cid: montecarlo.Tally() for cid in tables}
        total = networks.history_count(n)
        rows = montecarlo.forward_rows(n)
        for lo in range(0, total, rows):
            batch = networks.history_batch(n, lo, min(lo + rows, total))
            counts = patterns.count_batch(batch, names)
            for cid, tally in tallies.items():
                tally.add(counts[:, columns[cid]])
        emp = {cid: tally.histogram() for cid, tally in tallies.items()}
        exact = {cid: chains.observe_law(t, next(laws[cid]))
                 for cid, t in tables.items()}
        for cid in chain_ids:
            empirical = {k: Fraction(v, total) for k, v in emp[cid].items()}
            law = {k: p for k, p in exact[cid].items() if p != 0}
            ok = empirical == law
            rep.add(f"coupling:{cid}:n={n}", ok,
                    histories=total, states=len(law))


@_suite("sigma_file")
def suite_moments(rep: SuiteReport, opts: dict) -> None:
    """Mean closed forms against their recurrences, the mixed-moment
    pairing identity, and the leading toll constant of the shifted
    second-moment recurrence."""
    sigma = moments.load_sigma(opts.get("sigma_file")) if opts.get("sigma_file") \
        else moments.default_sigma()

    mu_rec = {n: moments.trident_mean_recurrence(n) for n in range(4, 201)}
    ok = all(mu_rec[n] == moments.mean_closed_form("trident", n)
             for n in range(4, 201))
    rep.add("trident_mean_closed_form:4..200", ok, spot_mu4=mu_rec[4])
    rep.add("trident_mean_spot_value", mu_rec[4] == Fraction(2, 3),
            value=mu_rec[4])

    rho = moments.ci_mean_recurrence(60)
    ok = all(rho[n] == moments.mean_closed_form("c-i", n) for n in range(6, 61))
    rep.add("ci_mean_closed_form:6..60", ok, rho_6=rho[6])

    tau = moments.h3ci_mean_recurrence(60)
    ok = all(tau[n] == moments.mean_closed_form("h3-ci", n)
             for n in range(8, 61))
    rep.add("h3ci_mean_closed_form:8..60", ok, tau_8=tau[8])
    # the commonly quoted polynomial drops the n^2 term; document where it
    # first disagrees with the recurrence rather than failing the suite
    printed_bad = [n for n in range(8, 21)
                   if moments.h3ci_printed_closed_form(n) != tau[n]]
    rep.add("h3ci_printed_variant_reported", True,
            disagrees_at=printed_bad,
            note=("printed polynomial lacks the n^2 term (-66905671) and "
                  "negates the linear term; recurrence solution is ground "
                  "truth and its polynomial is used by mean_closed_form"))

    # solver self-consistency on the trident recurrence
    rec = moments.FirstOrderRecurrence(
        kappa=3, toll=lambda m: 1 - Fraction(1, m),
        initial_index=4, initial_value=Fraction(2, 3))
    ok = all(moments.solve_recurrence(rec, n, "closed")
             == moments.solve_recurrence(rec, n, "iterate")
             == mu_rec[n] for n in range(4, 201))
    rep.add("solver_closed_equals_iterate:4..200", ok)

    # pairing recursions and the weighted identity
    gm = moments.GaussianMixedMoments(sigma)
    pair_ok = True
    for tot in range(2, 11):
        for r in range(tot + 1):
            for s in range(tot - r + 1):
                t = tot - r - s
                S = sigma
                if r > 0:
                    lhs = gm.moment(r, s, t)
                    rhs = ((r - 1) * S[0][0] * gm.moment(r - 2, s, t)
                           + s * S[0][1] * gm.moment(r - 1, s - 1, t)
                           + t * S[0][2] * gm.moment(r - 1, s, t - 1))
                    pair_ok &= lhs == rhs
                if s > 0:
                    lhs = gm.moment(r, s, t)
                    rhs = (r * S[1][0] * gm.moment(r - 1, s - 1, t)
                           + (s - 1) * S[1][1] * gm.moment(r, s - 2, t)
                           + t * S[1][2] * gm.moment(r, s - 1, t - 1))
                    pair_ok &= lhs == rhs
                if t > 0:
                    lhs = gm.moment(r, s, t)
                    rhs = (r * S[2][0] * gm.moment(r - 1, s, t - 1)
                           + s * S[2][1] * gm.moment(r, s - 1, t - 1)
                           + (t - 1) * S[2][2] * gm.moment(r, s, t - 2))
                    pair_ok &= lhs == rhs
    rep.add("isserlis_pairing_recurrences:total<=10", pair_ok)

    ident_ok = True
    worst = None
    for tot in range(2, 9):
        for r in range(tot + 1):
            for s in range(tot - r + 1):
                t = tot - r - s
                ok, diag = moments.check_proof_identity(r, s, t, sigma)
                if not ok and worst is None:
                    worst = {"r": r, "s": s, "t": t, **diag}
                ident_ok &= ok
    rep.add("weighted_identity:total<=8", ident_ok,
            first_failure=worst)
    rep.add("isserlis_spot_values",
            gm.moment(0, 0, 2) == sigma[2][2]
            and gm.moment(1, 1, 0) == sigma[0][1],
            c002=gm.moment(0, 0, 2), c110=gm.moment(1, 1, 0))

    # leading toll constant of the shifted second-moment recurrence:
    # psi_n = phi_{n+1,2} - (1-6/n)^2 phi_{n,2} tends to 24/49; this is
    # O(1/n) slow so test the Richardson-extrapolated limit plus the trend
    tm = moments.trident_moment_table(26)
    phi2 = {}
    for n in range(2, 27):
        m1, m2 = tm[n]
        phi2[n] = m2 - m1 * m1
    psi = {n: phi2[n + 1] - (1 - Fraction(6, n)) ** 2 * phi2[n]
           for n in range(5, 26)}
    target = Fraction(24, 49)
    extrapolated = 25 * psi[25] - 24 * psi[24]
    trend = all(abs(psi[n + 5] - target) < abs(psi[n] - target)
                for n in range(5, 21, 5))
    rep.add("shifted_second_moment_leading_constant",
            trend and abs(extrapolated / target - 1) < Fraction(1, 10),
            extrapolated=extrapolated, target=target,
            raw_psi_25=psi[25], trend_decreasing=trend)


@_suite()
def suite_conjecture(rep: SuiteReport, opts: dict) -> None:
    for mode in conjecture.BASE_MODES:
        got = conjecture.classify_catalog(mode)
        for pid, want in conjecture.KNOWN_LABELS.items():
            rep.add(f"classify[{mode}]:{pid}", got[pid] is want,
                    got=got[pid].value, want=want.value)
    both = [conjecture.classify_catalog(m) for m in conjecture.BASE_MODES]
    rep.add("base_modes_agree", both[0] == both[1])


@_suite("trials", "n_max", "seed")
def suite_matcher(rep: SuiteReport, opts: dict) -> None:
    """Closed-form counters against the brute force embedding oracle on a
    pile of random networks."""
    trials = int(opts.get("trials", 1000))
    n_max = int(opts.get("n_max", 30))
    seed = int(opts.get("seed", DEFAULTS["seed"]))
    cat = patterns.catalog()
    mismatches = []
    for trial in range(trials):
        n = 2 + (trial * 7919 + seed) % (n_max - 1)
        net = networks.generate(n, seed + trial)
        for (pid, spec), fast in zip(cat.items(),
                                     patterns.count_catalog(net, cat)):
            brute = patterns.count_occurrences_bruteforce(net, spec)
            if fast != brute:
                mismatches.append({"trial": trial, "n": n, "pattern": pid,
                                   "fast": fast, "brute": brute})
    rep.add("fast_equals_bruteforce", not mismatches,
            trials=trials, n_max=n_max, mismatches=mismatches[:5])


# -- statistical suites --------------------------------------------------------


@_suite(*_MC_KEYS)
def suite_theorem1(rep: SuiteReport, opts: dict) -> None:
    """Central limit behaviour of the trident count at n=2000."""
    n, reps, seed = _mc_options(opts, n=2000)
    summary = _chain_summary("trident", n, reps, seed)
    mu = float(moments.mean_closed_form("trident", n))
    sigma2 = 24 * n / 637
    # strict sampling-error bands: the trident's own finite-size moment
    # offsets are well inside them at n=2000
    fit = montecarlo.normality_check(summary, mu, sigma2, component="trident",
                                     moment_slack_coef=0.0)
    _merge_fit(rep, "trident_clt", fit)


_POISSON_LAMBDAS = {"b-i": Fraction(1, 8), "b-ii": Fraction(1, 28),
                    "b-iii": Fraction(1, 56), "b-iv": Fraction(1, 14),
                    "b-v": Fraction(1, 28)}


@_suite(*_MC_KEYS)
def suite_theorem2b(rep: SuiteReport, opts: dict) -> None:
    """Poisson limits of the five sporadic height-2 patterns at n=1000."""
    n, reps, seed = _mc_options(opts, n=1000)
    for pid, lam in _POISSON_LAMBDAS.items():
        summary = _chain_summary(pid, n, reps, seed)
        fit = montecarlo.poisson_gof(summary, float(lam), component=pid)
        _merge_fit(rep, f"{pid}", fit)


@_suite(*_MC_KEYS)
def suite_theorem2a(rep: SuiteReport, opts: dict) -> None:
    """Degenerate patterns: vanishing occurrence fractions plus the exact
    small mean of the stacked-branching count."""
    n, reps, seed = _mc_options(opts, n=1000)
    sources = [("a-i", "a-i"), ("a-ii", "a-ii"), ("b-i", "h3-bi")]
    for chain_id, comp in sources:
        summary = _chain_summary(chain_id, n, reps, seed)
        hist = summary.marginal_histogram(comp)
        nonzero = sum(w for v, w in hist.items() if v != 0) / reps
        rep.add(f"degenerate:{comp}:nonzero_fraction", nonzero < MAX_FRACTION,
                fraction=nonzero, threshold=MAX_FRACTION)

    # exact mean of the stacked-branching count at MEAN_N against 1/(10 n)
    dist = chains.observed_distribution(chains.builtin_table("a-i"), MEAN_N)
    mean = chains.marginal_moment(dist, 0, 1)
    target = Fraction(1, 10 * MEAN_N)
    rel = abs(mean / target - 1)
    rep.add("a-i:exact_mean_near_1_over_10n", rel < Fraction(1, 4),
            mean=mean, target=target, rel_error=float(rel))


@_suite(*_MC_KEYS)
def suite_theorem2c(rep: SuiteReport, opts: dict) -> None:
    """Normal limits of the two frequent height-2 patterns at n=2000."""
    n, reps, seed = _mc_options(opts, n=2000)
    targets = {
        "c-i": (Fraction(4, 77), Fraction(4575916, 137582445)),
        "c-ii": (Fraction(2, 77), Fraction(2930764, 137582445)),
    }
    for pid, (mu_coef, var_coef) in targets.items():
        summary = _chain_summary(pid, n, reps, seed)
        fit = montecarlo.normality_check(
            summary, float(mu_coef * n), float(var_coef * n), component=pid)
        _merge_fit(rep, pid, fit)


@_suite(*_MC_KEYS)
def suite_prop3(rep: SuiteReport, opts: dict) -> None:
    """Joint law of (base count, cherry count) for the branch-plus-join
    pattern: independent Poisson(1/8) x Poisson(1/4)."""
    n, reps, seed = _mc_options(opts, n=1000)
    summary = _chain_summary("b-i", n, reps, seed)
    fit = montecarlo.independence_check(summary, components=("b-i", "cherry"))
    _merge_fit(rep, "joint", fit)


@_suite(*_MC_KEYS, "sigma_file")
def suite_prop4(rep: SuiteReport, opts: dict) -> None:
    """Covariance structure of (overlap, base, trident) counts at n=2000,
    scaled by 1/n, against the limit matrix."""
    n, reps, seed = _mc_options(opts, n=2000)
    sigma = moments.load_sigma(opts.get("sigma_file")) if opts.get("sigma_file") \
        else moments.default_sigma()
    summary = _chain_summary("c-i", n, reps, seed)
    fit = montecarlo.covariance_check(summary, n, sigma)
    _merge_fit(rep, "covariance", fit)


def run_suite(suite: str, opts: Optional[dict] = None) -> SuiteReport:
    """The report of a registered suite on the given options; a KeyError
    for an unknown suite, a ValueError for a key it does not read."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return SUITES[suite](opts or {})
