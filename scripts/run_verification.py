#!/usr/bin/env python3
"""Run every verification suite, in the order verify registers them,
and write one JSON report per suite.

Usage: python scripts/run_verification.py [outdir] [--quick]

--quick cuts the Monte Carlo suites to 20k replications for a fast smoke
run; the default uses the acceptance settings (10^5 replications).
"""

import json
import sys
import time
from pathlib import Path

from rtcnlab import verify


def main(argv):
    outdir = Path(argv[1]) if len(argv) > 1 and not argv[1].startswith("-") \
        else Path("verification-reports")
    quick = "--quick" in argv
    outdir.mkdir(parents=True, exist_ok=True)
    opts = {}
    if quick:
        opts["reps"] = 20_000
    failures = []
    for suite in verify.SUITES:
        t0 = time.time()
        report = verify.run_suite(suite, {k: v for k, v in opts.items()
                                          if k in verify.OPTIONS[suite]})
        path = outdir / f"{suite}.json"
        path.write_text(json.dumps(report.to_dict(), sort_keys=True,
                                   indent=2) + "\n")
        status = "ok" if report.passed else "FAILED"
        print(f"{suite:10s} {status:7s} {time.time() - t0:7.1f}s -> {path}")
        if not report.passed:
            failures.append(suite)
    if failures:
        print("failed suites:", ", ".join(failures))
        return 3
    print("all suites passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
