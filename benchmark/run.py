"""rtcnlab benchmark: one command, three workloads, checked outputs.

    python3 benchmark/run.py --workload chain_mc --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the job of the workload (see workloads.py) runs
back to back for --seconds seconds and the end-to-end metrics are
reported: setup_s (median over fresh processes of import plus lazy
set-up), wall_s (median job time), throughput_per_s (the workload's work
units over wall_s), peak_rss_mb.  With --trace 1 the per-layer metrics
of layers.py are reported instead.  Every job's outputs are checked;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Results, the environment and
the spans of a traced run are written under .bench_out/.

Exit status 2, without a result, when ./src/rtcnlab is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("chain_mc", "forward_count", "exact")
OUT_DIR = ".bench_out"

# A run is flagged as made on a loaded machine, and should be discarded
# when comparing, if the 1-minute load average at its start or end
# exceeds this many times the CPU count (the benchmark itself adds at
# most about one runnable thread per worker).
LOADED_FACTOR = 1.5


def _source_dir(root: Path) -> Path:
    src = root / "src"
    if not (src / "rtcnlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rtcnlab package under {src}")
    return src


def _import_path(src: Path) -> None:
    for p in (str(BENCH_DIR), str(src)):
        if p not in sys.path:
            sys.path.insert(0, p)


def _loadavg() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def environment(root: Path, src: Path) -> dict:
    """Versions, machine and code revision.  It starts git, so an
    untraced run calls it only after peak_rss_mb() is read."""
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision, dirty = None, None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=root,
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            revision, dirty = None, None
    # content hash of the package source: identifies the code also where
    # the checkout is not a git repository
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_revision": revision,
        "git_dirty": dirty,
        "src_sha256": h.hexdigest(),
    }


def measure_setup(src: Path, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing rtcnlab and
    loading everything the workloads load lazily."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "import workloads; workloads.setup()")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(BENCH_DIR), str(src)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for
    child, as getrusage reports them (KiB on Linux).  Read before any
    child of the benchmark's own (set-up probes, git) has run, so the
    children counted are those the workload started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_passes(job, sizes, seed, seconds, on_output):
    """Run the job back to back for about `seconds` seconds (at least
    once; no pass starts that would end past the deadline by the median
    pass so far) and return each pass's wall time."""
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()  # every pass starts from the same heap
        t0 = time.perf_counter()
        out = job(sizes, seed)
        walls.append(time.perf_counter() - t0)
        on_output(out)
        if time.perf_counter() + statistics.median(walls) > deadline:
            return walls


def execute(workload: str, seed: int, seconds: float, trace: bool,
            root: Path, sizes=None, reference=None) -> dict:
    """One benchmark run; returns the result with its extra fields."""
    src = _source_dir(root)
    _import_path(src)
    import workloads

    sizes = sizes or workloads.FULL
    if reference is None:
        reference = workloads.load_reference()
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    loadavg_start = _loadavg()
    run_id = f"{workload}-{seed}-{os.getpid()}-{int(time.time())}"
    checks = workloads.Checks()
    extra = {"run_id": run_id, "workload": workload, "seed": seed,
             "trace": int(trace)}

    if trace:
        import layers

        workloads.setup()
        values = layers.traced_run(workload, sizes, seed, checks, reference,
                                   run_id, out_dir)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _, _) in layers.METRICS.items()}
        extra["moves"] = {name: moves
                          for name, (_, _, moves) in layers.METRICS.items()}
    else:
        workloads.setup()
        job = workloads.JOBS[workload]
        digests = []

        def on_output(out):
            workloads.check_job(workload, sizes, seed, out, reference, checks)
            d = workloads.output_digests(workload, out)
            if digests:
                checks.add("repeat_pass_identical", d == digests[0])
            digests.append(d)

        walls = timed_passes(job, sizes, seed, seconds, on_output)
        peak_mb = peak_rss_mb()
        setup_s = measure_setup(src, sizes.setup_repeats)
        if workload == "forward_count":
            workloads.check_forward_sample(sizes, seed, checks)
            recorded = reference.get("forward_count", {}).get(
                "seeds", {}).get(str(seed))
            extra["forward_digest_matches_record"] = (
                None if recorded is None else digests[0] == recorded)
        wall = statistics.median(walls)
        unit_name, units = workloads.work_units(workload, sizes)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "throughput_per_s": {"value": units / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        extra.update({"passes": len(walls), "pass_walls_s": walls,
                      "throughput_name": unit_name, "digests": digests[0]})
    env = environment(root, src)
    env["loadavg_start"] = loadavg_start
    env["loadavg_end"] = _loadavg()
    nproc = env["nproc"] or 1
    env["loaded"] = max(env["loadavg_start"],
                        env["loadavg_end"]) > LOADED_FACTOR * nproc
    result = {"correct": not checks.failed, "attempted": checks.attempted,
              "failed": len(checks.failed), "metrics": metrics}
    extra.update({"env": env, "failed_checks": checks.failed[:50],
                  "failed_frac": len(checks.failed) / max(checks.attempted, 1)})
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**extra, "result": result}, fh, indent=1)
    return {**extra, "result": result}


def report(run: dict) -> None:
    """Human-readable lines, then the result as the last line."""
    result = run["result"]
    print(f"# {run['workload']} seed={run['seed']} trace={run['trace']} "
          f"run_id={run['run_id']}")
    moves = run.get("moves", {})
    for name, m in result["metrics"].items():
        line = f"  {name:<52} {m['value']:>16.6g} {m['unit']}"
        print(line + (f"  [moves: {moves[name]}]" if name in moves else ""))
        if name == "throughput_per_s":  # also under the workload's name
            print(f"  {run['throughput_name']:<52} {m['value']:>16.6g} "
                  f"{m['unit']}")
    print(f"  {'failed_frac':<52} {run['failed_frac']:>16.6g} "
          f"({result['failed']}/{result['attempted']} checks)")
    for name in run["failed_checks"]:
        print(f"  FAILED {name}")
    if run.get("forward_digest_matches_record") is False:
        print("  note: forward histogram differs from the recorded digest")
    print("# env " + json.dumps(run["env"], sort_keys=True))
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        _source_dir(root)
    except FileNotFoundError as exc:
        print(f"benchmark: {exc}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    report(execute(args.workload, args.seed, args.seconds, bool(args.trace),
                   root))
    return 0


if __name__ == "__main__":
    sys.exit(main())
