"""The three benchmark workloads, their sizes and their correctness checks.

chain_mc       run_experiment over three chain tables at threads=2, each
               summary followed by its fit check: the acceptance
               statistical path (chain kernel, Philox draws, chunk
               scheduler and its thread pool).
forward_count  run_experiment(source="forward") with all 14 catalog ids
               at threads=1: per-event generation and the closed-form
               counters, with Python-object histogram rows.
exact          coupling by history enumeration, exact rational
               propagation and the matcher oracle, single-threaded.

All three are closed batches: one process runs a job to completion, and
no other process or connection is started.  The sizes are scaled down
from the acceptance settings so that a job takes a few seconds; every
Monte Carlo job keeps at least two montecarlo.CHUNK chunks so that two
workers have work.

forward_count runs single-threaded because at threads=2 its two
pure-Python workers hand the interpreter lock back and forth, and on a
shared 2-vCPU machine the cost of that hand-off drifts with the host's
load: pass times at threads=2 varied 14% (coefficient of variation)
against 6% at threads=1, and ten runs spread 17-21% (interquartile range
over median).  The forward problem at threads=2 is still measured, in
the traced run (montecarlo.sched.*.forward_count).

Importing this module needs rtcnlab on sys.path (run.py arranges it).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from rtcnlab import chains, montecarlo, moments, networks, patterns, verify

THREADS = 2
# Each chi-square check of a correct program fails with this probability
# per run; with the acceptance gate's 1e-3 the two chi-square checks of
# chain_mc would fail about one run in 500 on an arbitrary seed.
P_THRESHOLD = 1e-5

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Sizes:
    chain: Tuple[Tuple[str, int, int], ...]   # (table, n, reps)
    forward_n: int
    forward_reps: int
    coupling_n_max: int
    exact: Tuple[Tuple[str, int], ...]        # (table, n)
    matcher_n_max: int      # the matcher suite runs n_max - 1 trials
    forward_sample: int     # networks in the stream-independent check
    setup_repeats: int      # fresh processes timed for setup_s
    layer_networks: int     # networks in the generate / counter replays


FULL = Sizes(
    chain=(("trident", 500, 16384), ("b-i", 150, 49152), ("c-i", 400, 16384)),
    forward_n=24, forward_reps=16384,
    coupling_n_max=6,
    exact=(("a-i", 80), ("c-i", 50)),
    matcher_n_max=16,
    forward_sample=6,
    setup_repeats=9,
    layer_networks=1000,
)

# Seconds-long configuration for the self-test; b-i keeps enough
# replications for the independence check's correlation bound.
SMOKE = Sizes(
    chain=(("trident", 40, 4096), ("b-i", 100, 49152), ("c-i", 40, 4096)),
    forward_n=10, forward_reps=2048,
    coupling_n_max=5,
    exact=(("a-i", 20), ("c-i", 20)),
    matcher_n_max=8,
    forward_sample=2,
    setup_repeats=1,
    layer_networks=50,
)


def setup() -> None:
    """Load what the workloads use lazily: every chain table, the
    pattern catalog, its canonical index and the limit covariance."""
    for cid in chains.BUILTIN_IDS:
        chains.builtin_table(cid)
    cat = patterns.catalog()
    patterns.resolve(cat["trident"])
    moments.default_sigma()


def digest(mapping: dict) -> str:
    """sha256 of a histogram or exact distribution, keys sorted."""
    items = sorted((list(k), str(v)) for k, v in mapping.items())
    text = json.dumps(items, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Counts correctness checks attempted and failed, keeping the names
    of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed: List[str] = []

    def add(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed.append(name)


# -- jobs: the timed work --------------------------------------------------


def chain_mc(sizes: Sizes, seed: int, threads: int = THREADS) -> dict:
    sigma = moments.default_sigma()
    out = {}
    for table, n, reps in sizes.chain:
        cfg = montecarlo.ExperimentConfig(source=table, n=n, reps=reps,
                                          seed=seed, threads=threads)
        summary = montecarlo.run_experiment(cfg)
        if table == "trident":
            fits = [montecarlo.normality_check(
                summary, float(moments.mean_closed_form("trident", n)),
                24 * n / 637, component="trident")]
        elif table == "b-i":
            fits = [montecarlo.poisson_gof(summary, 0.125, component="b-i",
                                           p_threshold=P_THRESHOLD),
                    montecarlo.independence_check(
                        summary, components=("b-i", "cherry"),
                        p_threshold=P_THRESHOLD)]
        elif table == "c-i":
            fits = [montecarlo.covariance_check(summary, n, sigma)]
        else:
            raise ValueError(f"no fit check for table {table!r}")
        out[table] = (summary, fits)
    return out


def forward_count(sizes: Sizes, seed: int, threads: int = 1) -> dict:
    ids = tuple(sorted(patterns.catalog()))
    cfg = montecarlo.ExperimentConfig(
        source="forward", n=sizes.forward_n, reps=sizes.forward_reps,
        seed=seed, pattern_ids=ids, threads=threads)
    return {"forward": montecarlo.run_experiment(cfg)}


def exact(sizes: Sizes, seed: int, threads: int = 1) -> dict:
    out = {"coupling": verify.suite_coupling(
        {"n_max": sizes.coupling_n_max})}
    for table, n in sizes.exact:
        out[f"{table}@{n}"] = chains.exact_distribution(
            chains.builtin_table(table), n)
    out["matcher"] = verify.suite_matcher(
        {"trials": sizes.matcher_n_max - 1, "n_max": sizes.matcher_n_max,
         "seed": seed})
    return out


JOBS = {"chain_mc": chain_mc, "forward_count": forward_count, "exact": exact}


def work_units(workload: str, sizes: Sizes) -> Tuple[str, int]:
    """Name and amount of the work one job does, for its throughput.

    chain_mc counts rep-steps and forward_count networks.  exact's work
    unit is its coupling history count, but the job's time also covers
    exact propagation and the matcher suite, so its throughput is a
    constant over wall_s, not a history rate."""
    if workload == "chain_mc":
        return "rep_steps_per_s", sum(reps * (n - 2)
                                      for _, n, reps in sizes.chain)
    if workload == "forward_count":
        return "networks_per_s", sizes.forward_reps
    return "work_units_per_s", sum(networks.history_count(n)
                                  for n in range(2, sizes.coupling_n_max + 1))


# -- checks ------------------------------------------------------------------


def output_digests(workload: str, out: dict) -> Dict[str, str]:
    """Digest of every histogram or exact distribution a job returned."""
    if workload == "chain_mc":
        return {t: digest(s.histogram) for t, (s, _) in out.items()}
    if workload == "forward_count":
        return {"forward": digest(out["forward"].histogram)}
    return {k: digest(v) for k, v in out.items() if "@" in k}


def check_job(workload: str, sizes: Sizes, seed: int, out: dict,
              reference: Optional[dict], checks: Checks) -> None:
    """Checks on one job's outputs.

    chain_mc: every fit check passes; on a seed with recorded outputs
    every table's histogram matches its digest bit for bit.
    forward_count: the trident sample mean lies within 4 SE of its exact
    mean.  The histogram digest is reported by run.py, not checked here,
    because a deliberate change of the forward stream changes it.
    exact: every coupling check passes, both exact distributions equal
    their recorded rationals, and the matcher reports no mismatch.
    """
    ref = (reference or {}).get(workload, {})
    if workload == "chain_mc":
        recorded = ref.get("seeds", {}).get(str(seed))
        for table, (summary, fits) in out.items():
            for fit in fits:
                for c in fit.checks:
                    checks.add(f"{table}:{fit.law}:{c['name']}", c["passed"])
            if recorded is not None:
                checks.add(f"{table}:histogram_sha256",
                           digest(summary.histogram) == recorded.get(table))
    elif workload == "forward_count":
        summary = out["forward"]
        n = sizes.forward_n
        mu = float(moments.mean_closed_form("trident", n))
        checks.add("trident_mean_within_4se",
                   abs(summary.mean("trident") - mu)
                   <= 4 * summary.mean_se("trident"))
    else:
        for c in out["coupling"].checks:
            checks.add(c["name"], c["passed"])
        recorded = ref.get("distributions", {})
        for key, value in out.items():
            if "@" in key:
                checks.add(f"exact:{key}:sha256",
                           digest(value) == recorded.get(key))
        for c in out["matcher"].checks:
            checks.add(f"matcher:{c['name']}", c["passed"])


def check_forward_sample(sizes: Sizes, seed: int, checks: Checks) -> None:
    """Closed-form counts equal the anchored matcher on networks that
    networks.generate grows from the seed; independent of the stream
    run_experiment draws from."""
    cat = patterns.catalog()
    for i in range(sizes.forward_sample):
        net = networks.generate(sizes.forward_n, seed * 1000 + i)
        for pid, spec in sorted(cat.items()):
            checks.add(f"forward_sample:{i}:{pid}",
                       patterns.count_occurrences(net, pid)
                       == patterns.count_occurrences_generic(net, spec))


def record(sizes: Sizes, seeds) -> dict:
    """Reference outputs of this commit: chain and forward histogram
    digests per seed, and the exact distributions' digests."""
    ref = {"chain_mc": {"seeds": {}}, "forward_count": {"seeds": {}},
           "exact": {"distributions": {}}}
    for seed in seeds:
        ref["chain_mc"]["seeds"][str(seed)] = output_digests(
            "chain_mc", chain_mc(sizes, seed, threads=1))
        ref["forward_count"]["seeds"][str(seed)] = output_digests(
            "forward_count", forward_count(sizes, seed, threads=1))
    for table, n in sizes.exact:
        ref["exact"]["distributions"][f"{table}@{n}"] = digest(
            chains.exact_distribution(chains.builtin_table(table), n))
    return ref
