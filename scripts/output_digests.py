#!/usr/bin/env python3
"""Print one `name sha256` line per output of a fixed set of runs, so two
checkouts can be compared for bit-identical outputs with one diff.

Usage: python scripts/output_digests.py

The outputs are:
- the exact laws of every chain table at each n <= 20, and at a-i@80,
  c-i@50, c-ii@50, b-i@120 and trident@300;
- the run_experiment histograms and raw CSVs of every chain table at
  (n, reps, seed) = (40, 1000, 3) and (300, 3000, 7);
- the forward source's run_experiment histograms and raw CSVs with
  every catalog id at (n, reps, seed) = (24, 2000, 3), (24, 9000, 11)
  and (200, 1000, 5): at n = 24 a window is 8 sub-batches of 468 rows,
  so 9,000 replications span two whole windows and a partial one that
  ends in a partial sub-batch, and at n = 200 a window is 8 sub-batches
  of 54 rows, so the last of three windows is partial;
- networks.generate's serialised network at a few (n, seed, stream),
  n = 1000 included, and the arrays of history_batch over every history
  of n = 6 (each with its dtype and shape);
- patterns.count_batch's rows with every catalog id on every history of
  n <= 6 and on the forward source's lockstep batches at n = 24 and 200;
- the coupling report (n_max 6), the six statistical suites' reports
  (theorem1, theorem2a, theorem2b, theorem2c, prop3 and prop4) at
  n = 300, 20,000 replications and seed 4 (theorem2a's exact a-i mean
  stays at its own n = 200), the conjecture report and the matcher
  report (60 trials, n_max 16, seed 4), all without their elapsed_s;
- conjecture.classify in both base modes on every valid event sequence
  of height <= 3: k = 1..E+1 initial lineages, and at each event with
  ell lineages every digit d < ell^2 read as generate reads a step's
  pair, (i, j) = divmod(d, ell), a branching when i == j.

Run it with each checkout's src on PYTHONPATH and diff the two outputs.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from rtcnlab import (chains, conjecture, montecarlo, networks, patterns,
                     verify)
from rtcnlab.networks import Branching, Reticulation

EXACT_LAST = 20
EXACT_LARGE = (("a-i", 80), ("c-i", 50), ("c-ii", 50), ("b-i", 120),
               ("trident", 300))
CHAIN_RUNS = ((40, 1000, 3), (300, 3000, 7))
FORWARD_RUNS = ((24, 2000, 3), (24, 9000, 11), (200, 1000, 5))
GENERATE_RUNS = ((2, 0, 0), (5, 0, 0), (5, 2**64 - 1, 0), (30, 7, 3),
                 (200, 9, 2**64 - 1), (1000, 42, 0), (1000, 5, 1))
HISTORY_N = 6
# (n, seed, replications) of the forward batches that count_batch counts
COUNT_FORWARD = ((24, 3, 2000), (200, 5, 600))
MC_OPTS = {"n": 300, "reps": 20_000, "seed": 4}
SUITE_OPTS = {"coupling": {"n_max": 6},
              **{suite: MC_OPTS for suite in ("theorem1", "theorem2a",
                                              "theorem2b", "theorem2c",
                                              "prop3", "prop4")},
              "conjecture": {},
              "matcher": {"trials": 60, "n_max": 16, "seed": 4}}
CLASSIFY_HEIGHT = 3


def _line(name: str, text) -> None:
    data = text if isinstance(text, bytes) else text.encode()
    print(name, hashlib.sha256(data).hexdigest())


def _law_text(law) -> str:
    return repr(sorted((s, p.numerator, p.denominator) for s, p in law.items()))


def _histogram_text(summary) -> str:
    return repr(sorted(summary.histogram.items()))


def _event_sequences(k: int, height: int):
    """Every event sequence of the given height on k initial lineages,
    valid or not, in digit order."""
    if height == 0:
        yield ()
        return
    for head in _event_sequences(k, height - 1):
        ell = k + len(head)
        for d in range(ell * ell):
            i, j = divmod(d, ell)
            yield head + (Branching(i) if i == j else Reticulation(i, j),)


def _classify_text() -> str:
    rows = []
    for height in range(CLASSIFY_HEIGHT + 1):
        for k in range(1, height + 2):
            for events in _event_sequences(k, height):
                try:
                    spec = patterns.PatternSpec(k, events)
                except patterns.PatternError:
                    continue
                for mode in conjecture.BASE_MODES:
                    res = conjecture.classify(spec, mode)
                    rows.append((repr(spec), mode, res.label.value,
                                 res.conjectural, res.consistent,
                                 [(e, lab.value) for e, lab in res.by_choice]))
    return repr(rows)


def main() -> int:
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        for n, law in enumerate(chains.exact_laws(table, EXACT_LAST), start=2):
            _line(f"exact/{cid}/n={n}", _law_text(law))
    for cid, n in EXACT_LARGE:
        law = chains.exact_distribution(chains.builtin_table(cid), n)
        _line(f"exact/{cid}/n={n}", _law_text(law))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "raw.csv"
        for n, reps, seed in CHAIN_RUNS:
            for cid in chains.BUILTIN_IDS:
                cfg = montecarlo.ExperimentConfig(source=cid, n=n, reps=reps,
                                                  seed=seed)
                summary = montecarlo.run_experiment(cfg, raw_csv=str(csv))
                name = f"mc/{cid}/n={n},reps={reps},seed={seed}"
                _line(f"{name}/histogram", _histogram_text(summary))
                _line(f"{name}/raw_csv", csv.read_bytes())
        ids = tuple(patterns.catalog())
        for n, reps, seed in FORWARD_RUNS:
            cfg = montecarlo.ExperimentConfig(source="forward", n=n,
                                              reps=reps, seed=seed,
                                              pattern_ids=ids)
            summary = montecarlo.run_experiment(cfg, raw_csv=str(csv))
            name = f"forward/n={n},reps={reps},seed={seed},ids={len(ids)}"
            _line(f"{name}/histogram", _histogram_text(summary))
            _line(f"{name}/raw_csv", csv.read_bytes())
    for n, seed, stream in GENERATE_RUNS:
        _line(f"generate/n={n},seed={seed},stream={stream}",
              networks.serialize(networks.generate(n, seed, stream)))
    batch = networks.history_batch(HISTORY_N, 0,
                                   networks.history_count(HISTORY_N))
    for field in dataclasses.fields(batch):
        arr = getattr(batch, field.name)
        _line(f"history_batch/n={HISTORY_N}/{field.name}",
              f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
    batches = [networks.history_batch(n, 0, networks.history_count(n))
               for n in range(2, HISTORY_N + 1)]
    for n, seed, reps in COUNT_FORWARD:
        batches += networks.forward_batches(n, seed, 0, reps,
                                            montecarlo.forward_rows(n))
    rows = np.concatenate([patterns.count_batch(b, ids) for b in batches])
    _line(f"count_batch/histories<={HISTORY_N},forward={COUNT_FORWARD}",
          f"{rows.dtype}{rows.shape}".encode() + rows.tobytes())
    for suite, opts in SUITE_OPTS.items():
        report = verify.run_suite(suite, opts).to_dict()
        del report["elapsed_s"]
        _line(f"verify/{suite}", json.dumps(report, sort_keys=True))
    _line(f"classify/height<={CLASSIFY_HEIGHT}", _classify_text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
