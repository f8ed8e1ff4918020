"""Per-layer measurements for the traced run.

Three sources, each taken from outside the package:

* the chain_mc and forward_count problems at threads=1 and threads=2
  without tracing, giving the scheduler's parallel efficiency and CPU
  use (the serial baseline);
* every workload's job once with spans around the public functions the
  jobs reach (see TRACED), giving self times and counts;
* replays of the same public calls alone at the workload sizes, giving
  per-call rates for rng, chains, networks and patterns.  The forward
  source builds its networks with CounterStream.words and
  EventStructure.apply, not networks.generate, so its generation is
  replayed through those two calls; networks.generate is on exact's
  path only (suite_matcher).

All three run whatever the workload, so a traced run measures every
layer; only trace.overhead_frac, the traced over the untraced time of
the workload's own job, depends on the workload.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from pathlib import Path

from rtcnlab import chains, montecarlo, networks, patterns, rng, verify

import workloads
from spans import Tracer

# (owner, attribute, span name): every call looked up through owner.attr
# is traced.  The private entry points of montecarlo are not wrapped.
# The generic matcher is not listed: no job calls it.
TRACED = (
    (montecarlo, "run_experiment", "montecarlo.run_experiment"),
    (montecarlo, "raw_block", "rng.raw_block"),
    (rng.CounterStream, "words", "rng.counter_stream"),
    (montecarlo.SampleSummary, "__post_init__", "montecarlo.summary"),
    (montecarlo, "normality_check", "montecarlo.fit"),
    (montecarlo, "poisson_gof", "montecarlo.fit"),
    (montecarlo, "independence_check", "montecarlo.fit"),
    (montecarlo, "covariance_check", "montecarlo.fit"),
    (chains, "builtin_table", "chains.builtin_table"),
    (chains, "observed_distribution", "chains.observed_distribution"),
    (chains, "exact_distribution", "chains.exact_distribution"),
    (networks, "generate", "networks.generate"),
    (networks, "enumerate_histories", "networks.enumerate_histories"),
    (patterns, "count_occurrences", "patterns.count_occurrences"),
    (patterns, "count_occurrences_bruteforce", "patterns.bruteforce"),
    (verify, "suite_coupling", "verify.suite_coupling"),
    (verify, "suite_matcher", "verify.suite_matcher"),
)

# span name -> what to sum per call into Tracer.counted
COUNTED = {"rng.raw_block": len}

# name -> (unit, better, the end-to-end metric and workload it should move)
METRICS = {
    "rng.raw_block.s": ("s", "lower", "wall_s on chain_mc; small share"),
    "rng.words_per_s": ("1/s", "higher", "wall_s on chain_mc; small share"),
    "rng.counter_stream.s": ("s", "lower", "wall_s on forward_count; small"),
    "chains.kernel.trident.ns_per_rep_step": (
        "ns", "lower", "wall_s on chain_mc; dominant; not forward or exact"),
    "chains.kernel.b-i.ns_per_rep_step": (
        "ns", "lower", "wall_s on chain_mc; dominant; not forward or exact"),
    "chains.kernel.c-i.ns_per_rep_step": (
        "ns", "lower", "wall_s on chain_mc; dominant; not forward or exact"),
    "chains.exact.a-i.s": ("s", "lower", "wall_s on exact"),
    "chains.exact.c-i.s": ("s", "lower", "wall_s on exact"),
    "chains.exact.states": ("count", "lower", "wall_s on exact"),
    "chains.load_table.s": ("s", "lower", "setup_s on all workloads"),
    "montecarlo.sched.parallel_efficiency.chain_mc": (
        "ratio", "higher", "wall_s on chain_mc"),
    "montecarlo.sched.parallel_efficiency.forward_count": (
        "ratio", "higher", "forward problem at threads=2 only; "
        "forward_count itself runs at threads=1"),
    "montecarlo.sched.cpu_util.chain_mc": (
        "ratio", "higher", "wall_s on chain_mc"),
    "montecarlo.sched.cpu_util.forward_count": (
        "ratio", "higher", "forward problem at threads=2 only"),
    "montecarlo.rep_steps": (
        "count", "lower", "Philox words the chain kernel drew in the traced "
        "chain_mc job, one per rep-step; repeats exactly unless the "
        "kernel's drawing changes"),
    "montecarlo.hist_keys": (
        "count", "lower", "merge and summary cost on forward_count"),
    "montecarlo.summary.s": (
        "s", "lower", "wall_s on forward_count more than on chain_mc"),
    "montecarlo.fit.s": ("s", "lower", "wall_s on chain_mc; small"),
    "networks.generate.ms_per_network": (
        "ms", "lower", "wall_s on exact, through suite_matcher; small; "
        "forward_count does not call it"),
    "networks.forward_build.ms_per_network": (
        "ms", "lower", "throughput_per_s on forward_count; not exact"),
    "networks.enumerate.histories_per_s": (
        "1/s", "higher", "wall_s on exact"),
    "networks.enumerate.histories": ("count", "lower", "wall_s on exact"),
    "patterns.closed_form.us_per_network": (
        "us", "lower", "throughput_per_s on forward_count"),
    "patterns.closed_form.us_per_history": ("us", "lower", "wall_s on exact"),
    "patterns.matcher.ms_per_call": (
        "ms", "lower", "none: the generic matcher is on no timed path, "
        "only in forward_count's untimed sample check"),
    "patterns.bruteforce.ms_per_call": (
        "ms", "lower", "wall_s on exact; small"),
    "patterns.canonicalize.s": ("s", "lower", "setup_s on all workloads"),
    "verify.coupling.s": ("s", "lower", "wall_s on exact; suite glue"),
    "verify.matcher.s": ("s", "lower", "wall_s on exact; suite glue"),
    "trace.overhead_frac": ("ratio", "lower", "none"),
}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(fn, *args):
    c0, t0 = _cpu_s(), time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0, _cpu_s() - c0


def traced_run(workload: str, sizes: workloads.Sizes, seed: int,
               checks: workloads.Checks, reference: dict, run_id: str,
               out_dir: Path) -> dict:
    """Measure every per-layer metric; return {name: value}."""
    m = {}
    nproc = os.cpu_count() or 1

    # serial baseline: both Monte Carlo problems at 1 and THREADS threads
    for name in ("chain_mc", "forward_count"):
        job = workloads.JOBS[name]
        out, wall_ser, _ = _timed(job, sizes, seed, 1)
        workloads.check_job(name, sizes, seed, out, reference, checks)
        out, wall_par, cpu_par = _timed(job, sizes, seed, workloads.THREADS)
        workloads.check_job(name, sizes, seed, out, reference, checks)
        m[f"montecarlo.sched.parallel_efficiency.{name}"] = (
            wall_ser / (wall_par * workloads.THREADS))
        m[f"montecarlo.sched.cpu_util.{name}"] = cpu_par / (wall_par * nproc)

    # The workload's job untraced, then every job traced, the workload's
    # first: back to back, a drift in machine speed falls least on
    # trace.overhead_frac, and each layer's spans are measured whatever
    # the workload.
    out, untraced, _ = _timed(workloads.JOBS[workload], sizes, seed)
    workloads.check_job(workload, sizes, seed, out, reference, checks)
    tracer = Tracer(run_id)
    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name, COUNTED.get(name))
    outs, traced = {}, {}
    try:
        for name in sorted(workloads.JOBS, key=workload.__ne__):
            with tracer.span(f"job.{name}"):
                outs[name], traced[name], _ = _timed(workloads.JOBS[name],
                                                     sizes, seed)
    finally:
        tracer.restore()
    for name, out in outs.items():
        workloads.check_job(name, sizes, seed, out, reference, checks)
    m["trace.overhead_frac"] = traced[workload] / untraced - 1
    totals = tracer.totals()

    def total(name, key="total_s"):
        return totals.get(name, {}).get(key, 0.0)

    m["montecarlo.summary.s"] = total("montecarlo.summary")
    m["montecarlo.fit.s"] = total("montecarlo.fit")
    m["verify.coupling.s"] = total("verify.suite_coupling", "self_s")
    m["verify.matcher.s"] = total("verify.suite_matcher", "self_s")
    m["montecarlo.rep_steps"] = sum(
        k for name, k in tracer.counted if name == "rng.raw_block")
    m["montecarlo.hist_keys"] = (
        sum(len(s.histogram) for s, _ in outs["chain_mc"].values())
        + len(outs["forward_count"]["forward"].histogram))

    with tracer.span("replay"):
        _replay_rng(m, tracer, sizes, seed)
        _replay_chains(m, tracer, sizes, seed)
        _replay_networks_patterns(m, tracer, sizes, seed)
    tracer.write(out_dir / f"{workload}-seed{seed}-spans.json.gz",
                 {"workload": workload, "seed": seed, "totals": totals})
    return m


def _replay_rng(m, tracer, sizes, seed):
    """The raw_block calls chain_mc makes, and the CounterStream calls of
    forward_count, alone."""
    words = 0
    with tracer.span("replay.rng.raw_block"):
        t0 = time.perf_counter()
        for _, n, reps in sizes.chain:
            for step in range(2, n):
                for lo in range(0, reps, montecarlo.CHUNK):
                    hi = (min(lo + montecarlo.CHUNK, reps) + 3) // 4 * 4
                    words += len(rng.raw_block(seed, step, lo, hi))
        elapsed = time.perf_counter() - t0
    m["rng.raw_block.s"] = elapsed
    m["rng.words_per_s"] = words / elapsed
    with tracer.span("replay.rng.counter_stream"):
        t0 = time.perf_counter()
        steps = max(sizes.forward_n - 2, 1)
        for rep in range(sizes.forward_reps):
            rng.CounterStream(seed, stream=rep + 1).words(steps)
        m["rng.counter_stream.s"] = time.perf_counter() - t0


def _replay_chains(m, tracer, sizes, seed):
    """Kernel: a one-chunk threads=1 run_experiment per table minus its
    raw_block replay.  Exact propagation and table loading alone."""
    chunk = montecarlo.CHUNK
    for table, n, _ in sizes.chain:
        with tracer.span(f"replay.chains.kernel.{table}"):
            cfg = montecarlo.ExperimentConfig(source=table, n=n, reps=chunk,
                                              seed=seed, threads=1)
            t0 = time.perf_counter()
            montecarlo.run_experiment(cfg)
            t1 = time.perf_counter()
            for step in range(2, n):
                rng.raw_block(seed, step, 0, chunk)
            t2 = time.perf_counter()
        m[f"chains.kernel.{table}.ns_per_rep_step"] = (
            ((t1 - t0) - (t2 - t1)) / (chunk * (n - 2)) * 1e9)
    states = 0
    for table, n in sizes.exact:
        with tracer.span(f"replay.chains.exact.{table}"):
            t0 = time.perf_counter()
            dist = chains.exact_distribution(chains.builtin_table(table), n)
            m[f"chains.exact.{table}.s"] = time.perf_counter() - t0
        states += len(dist)
    m["chains.exact.states"] = states
    paths = sorted((Path(chains.__file__).parent / "data" / "chains")
                   .glob("*.json"))
    with tracer.span("replay.chains.load_table"):
        t0 = time.perf_counter()
        for path in paths:
            chains.load_table(path)
        m["chains.load_table.s"] = time.perf_counter() - t0


def _forward_words(sizes, seed, k):
    """The CounterStream words of the forward source's first k networks."""
    steps = max(sizes.forward_n - 2, 1)
    return [rng.CounterStream(seed, stream=rep + 1).words(steps)
            for rep in range(k)]


def _forward_build(n, words):
    """The EventStructure.apply calls that grow one forward network."""
    s = networks.EventStructure(network_root=True)
    for k in range(n - 2):
        ell = k + 2
        i, j = divmod(int(words[k]) % (ell * ell), ell)
        s.apply(networks.Branching(i) if i == j
                else networks.Reticulation(i, j))
    return s


def _replay_networks_patterns(m, tracer, sizes, seed):
    cat = patterns.catalog()
    ids = sorted(cat)
    k = sizes.layer_networks
    streams = _forward_words(sizes, seed, k)
    with tracer.span("replay.networks.forward_build"):
        t0 = time.perf_counter()
        nets = [_forward_build(sizes.forward_n, w) for w in streams]
        m["networks.forward_build.ms_per_network"] = (
            (time.perf_counter() - t0) / k * 1e3)
    with tracer.span("replay.patterns.closed_form"):
        t0 = time.perf_counter()
        for net in nets:
            for pid in ids:
                patterns.count_occurrences(net, pid)
        m["patterns.closed_form.us_per_network"] = (
            (time.perf_counter() - t0) / k * 1e6)

    # the matcher suite's networks, generated k times over
    n_max = sizes.matcher_n_max
    trials = [(2 + (trial * 7919 + seed) % (n_max - 1), seed + trial)
              for trial in range(n_max - 1)]
    with tracer.span("replay.networks.generate"):
        t0 = time.perf_counter()
        for i in range(k):
            networks.generate(*trials[i % len(trials)])
        m["networks.generate.ms_per_network"] = (
            (time.perf_counter() - t0) / k * 1e3)

    # the coupling's enumeration and counting, timed apart
    tables = [chains.builtin_table(cid) for cid in chains.TRANSCRIBED_IDS]
    names = sorted({name for t in tables for name in t.observables})
    histories = 0
    counting = 0.0
    with tracer.span("replay.networks.enumerate"):
        t0 = time.perf_counter()
        for n in range(2, sizes.coupling_n_max + 1):
            for net, _ in networks.enumerate_histories(n):
                histories += 1
                c0 = time.perf_counter()
                for name in names:
                    patterns.count_occurrences(net, name)
                counting += time.perf_counter() - c0
        enumerating = time.perf_counter() - t0 - counting
    m["networks.enumerate.histories"] = histories
    m["networks.enumerate.histories_per_s"] = histories / enumerating
    m["patterns.closed_form.us_per_history"] = counting / histories * 1e6

    # the matcher suite's networks, every catalog pattern, both oracles
    generic = brute = 0.0
    calls = 0
    with tracer.span("replay.patterns.matcher"):
        for n, net_seed in trials:
            net = networks.generate(n, net_seed)
            for pid in ids:
                t0 = time.perf_counter()
                patterns.count_occurrences_generic(net, cat[pid])
                t1 = time.perf_counter()
                patterns.count_occurrences_bruteforce(net, cat[pid])
                generic += t1 - t0
                brute += time.perf_counter() - t1
                calls += 1
    m["patterns.matcher.ms_per_call"] = generic / calls * 1e3
    m["patterns.bruteforce.ms_per_call"] = brute / calls * 1e3

    with tracer.span("replay.patterns.canonicalize"):
        rounds = []
        for _ in range(5):
            t0 = time.perf_counter()
            for pid in ids:
                patterns.canonicalize(cat[pid])
            rounds.append(time.perf_counter() - t0)
        m["patterns.canonicalize.s"] = statistics.median(rounds)
