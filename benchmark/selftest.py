"""Self-test of the benchmark at smoke size; takes seconds.

    python3 benchmark/selftest.py

Run from the root of a source checkout.  It is kept out of the test
suite on purpose.  It checks that

* every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json names, each with its unit, and passes its checks;
* a deliberately wrong reference digest makes failed_frac > 0, for a
  chain histogram and for an exact distribution;
* in a directory holding only BENCHMARK.json and the benchmark's files
  the command exits non-zero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SEED = 3


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run._import_path(run._source_dir(root))
    import workloads

    sizes = workloads.SMOKE
    reference = workloads.record(sizes, [SEED])
    problems = []

    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run.execute(workload, SEED, 1, bool(trace), root, sizes,
                              reference)["result"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} "
                                f"differ from BENCHMARK.json {want}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: checks failed "
                                f"{res['failed']}/{res['attempted']}")

    bad = copy.deepcopy(reference)
    bad["chain_mc"]["seeds"][str(SEED)]["trident"] = "0" * 64
    key = next(iter(bad["exact"]["distributions"]))
    bad["exact"]["distributions"][key] = "0" * 64
    for workload in ("chain_mc", "exact"):
        run_ = run.execute(workload, SEED, 1, False, root, sizes, bad)
        if not run_["failed_frac"] > 0 or run_["result"]["correct"]:
            problems.append(f"{workload}: a wrong reference digest was "
                            f"not detected")

    bare = root / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for rel in spec["paths"]:
        shutil.copytree(root / rel, bare / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", "exact", "--seed",
                                             "0", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("bare directory: the command did not fail")

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
