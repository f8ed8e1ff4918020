"""Record the reference outputs the benchmark checks against.

    python3 benchmark/record_reference.py

Run from the root of a source checkout.  Writes benchmark/reference.json:
the chain_mc and forward_count histogram digests for seeds 0-15
(chain digests are checked bit for bit on those seeds; forward digests
are only reported) and the digests of the exact distributions.  Re-record
only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path.cwd() / "src")]

import workloads  # noqa: E402

SEEDS = range(16)


def main() -> int:
    ref = workloads.record(workloads.FULL, SEEDS)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
