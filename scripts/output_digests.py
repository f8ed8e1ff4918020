#!/usr/bin/env python3
"""Print one `name sha256` line per output of a fixed set of runs, so two
checkouts can be compared for bit-identical outputs with one diff.

Usage: python scripts/output_digests.py

The outputs are:
- the exact laws of every chain table at each n <= 20, and at a-i@80,
  c-i@50, b-i@120 and trident@300;
- the run_experiment histograms and raw CSVs of every chain table at
  (n, reps, seed) = (40, 1000, 3) and (300, 3000, 7);
- the forward source's histogram at n = 24 with every catalog id;
- the coupling (n_max 6), theorem2b and prop3 reports at n = 300,
  20,000 replications, seed 4, the conjecture report and the matcher
  report (60 trials, n_max 16, seed 4), all without their elapsed_s.

Run it with each checkout's src on PYTHONPATH and diff the two outputs.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from rtcnlab import chains, montecarlo, patterns, verify

EXACT_LAST = 20
EXACT_LARGE = (("a-i", 80), ("c-i", 50), ("b-i", 120), ("trident", 300))
CHAIN_RUNS = ((40, 1000, 3), (300, 3000, 7))
FORWARD_RUN = (24, 2000, 3)
SUITE_OPTS = {"coupling": {"n_max": 6},
              "theorem2b": {"n": 300, "reps": 20_000, "seed": 4},
              "prop3": {"n": 300, "reps": 20_000, "seed": 4},
              "conjecture": {},
              "matcher": {"trials": 60, "n_max": 16, "seed": 4}}


def _line(name: str, text) -> None:
    data = text if isinstance(text, bytes) else text.encode()
    print(name, hashlib.sha256(data).hexdigest())


def _law_text(law) -> str:
    return repr(sorted((s, p.numerator, p.denominator) for s, p in law.items()))


def _histogram_text(summary) -> str:
    return repr(sorted(summary.histogram.items()))


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
    n, reps, seed = FORWARD_RUN
    ids = tuple(patterns.catalog())
    cfg = montecarlo.ExperimentConfig(source="forward", n=n, reps=reps,
                                      seed=seed, pattern_ids=ids)
    _line(f"forward/n={n},reps={reps},seed={seed},ids={len(ids)}",
          _histogram_text(montecarlo.run_experiment(cfg)))
    for suite, opts in SUITE_OPTS.items():
        report = verify.run_suite(suite, opts).to_dict()
        del report["elapsed_s"]
        _line(f"verify/{suite}", json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
