"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 input-validation failure,
3 verification failure.  Every run emits a manifest (next to --out, or on
stderr when writing to stdout) recording the full configuration and the
digests of everything written, so a run can be replayed bit-exactly.
All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__, conjecture, networks, patterns, rng, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_INPUT = 2
EXIT_VERIFY_FAILED = 3


class UsageError(Exception):
    pass


class InputError(Exception):
    """A file that cannot be read or written: exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _emit(payload: str, out: str | None, manifest: dict) -> None:
    outputs = {}
    if out:
        _write(out, payload)
        outputs[out] = _digest(payload.encode())
    else:
        sys.stdout.write(payload)
        outputs["<stdout>"] = _digest(payload.encode())
    manifest["outputs"] = outputs
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    if out:
        _write(out + ".manifest.json", text)
    else:
        sys.stderr.write(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def _git_revision(directory: Path = Path(__file__).parent) -> str | None:
    """HEAD of the git checkout holding directory, else None."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=directory,
                              capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _manifest(subcommand: str, config: dict) -> dict:
    return {
        "tool": "rtcnlab",
        "version": __version__,
        "subcommand": subcommand,
        "seed": config.get("seed"),
        "config": {k: v for k, v in sorted(config.items())},
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__,
                        "cpu_count": os.cpu_count(),
                        "git_revision": _git_revision()},
    }


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_generate(args) -> int:
    if args.leaves < 2:
        raise UsageError("--leaves must be at least 2")
    net = networks.generate(args.leaves, args.seed)
    violations = networks.validate(net)
    if violations:
        sys.stderr.write("generated network failed validation:\n")
        for v in violations:
            sys.stderr.write(f"  {v}\n")
        return EXIT_INVALID_INPUT
    payload = networks.serialize(net) if args.format == "events" \
        else networks.to_dot(net)
    cfg = {"leaves": args.leaves, "seed": args.seed, "format": args.format,
           "out": args.out}
    _emit(payload, args.out, _manifest("generate", cfg))
    return EXIT_OK


def cmd_count(args) -> int:
    if args.pattern not in patterns.catalog():
        raise UsageError(f"unknown pattern id {args.pattern!r}")
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"cannot read {args.input}: {exc}\n")
        return EXIT_INVALID_INPUT
    try:
        net = networks.parse(text)
    except networks.ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_INVALID_INPUT
    count = patterns.count_occurrences(net, args.pattern)
    payload = _json_dump({"pattern": args.pattern, "count": count,
                          "leaves": net.n_leaves})
    cfg = {"input": args.input, "pattern": args.pattern, "seed": None,
           "out": args.out}
    _emit(payload, args.out, _manifest("count", cfg))
    return EXIT_OK


# the option key that each flag sets, and the suites that read it; any
# other suite would ignore the flag
_FLAG_KEYS = {"--reps": "reps", "--leaves": "n", "--sigma-file": "sigma_file"}
_FLAG_READERS = {flag: {suite for suite, keys in verify.OPTIONS.items()
                        if key in keys}
                 for flag, key in _FLAG_KEYS.items()}


def cmd_verify(args) -> int:
    flags = {"--reps": args.reps, "--leaves": args.leaves,
             "--sigma-file": args.sigma_file}
    for flag, value in flags.items():
        if value is not None and args.suite not in _FLAG_READERS[flag]:
            raise UsageError(f"{flag} is not read by suite {args.suite!r}")
    if args.reps is not None and args.reps < 2:
        raise UsageError("--reps must be at least 2")
    if args.leaves is not None and args.leaves < 2:
        raise UsageError("--leaves must be at least 2")
    if args.suite == "prop3" and args.reps is not None \
            and args.reps < verify.PROP3_MIN_REPS:
        raise UsageError(f"--reps must be at least {verify.PROP3_MIN_REPS} "
                         f"for suite 'prop3'")
    # a seed no run could use is refused by every suite, not only by
    # those that draw
    rng.check_seed(args.seed)
    opts = {_FLAG_KEYS[flag]: value for flag, value in flags.items()
            if value is not None}
    # the manifest records the seed of a suite that draws, else null
    seed = args.seed if "seed" in verify.OPTIONS[args.suite] else None
    if seed is not None:
        opts["seed"] = seed
    try:
        report = verify.run_suite(args.suite, opts)
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}") from None
    except OSError as exc:
        raise InputError(f"cannot read {exc.filename}: {exc}") from None
    payload = _json_dump(report.to_dict())
    cfg = {"suite": args.suite, "seed": seed, "reps": args.reps,
           "leaves": args.leaves, "sigma_file": args.sigma_file,
           "out": args.out}
    _emit(payload, args.out, _manifest("verify", cfg))
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_classify(args) -> int:
    if (args.pattern is None) == (args.pattern_file is None):
        raise UsageError("give exactly one of --pattern or --pattern-file")
    if args.pattern is not None:
        if args.pattern not in patterns.catalog():
            raise UsageError(f"unknown pattern id {args.pattern!r}")
        spec = patterns.catalog()[args.pattern]
    else:
        try:
            spec = patterns.load_pattern_file(args.pattern_file)
        except patterns.PatternError as exc:
            # its text begins with the file's name
            sys.stderr.write(f"cannot load pattern {exc}\n")
            return EXIT_INVALID_INPUT
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"cannot load pattern {args.pattern_file}: {exc}\n")
            return EXIT_INVALID_INPUT
    result = conjecture.classify(spec, args.base_mode)
    payload = _json_dump({
        "label": result.label.value,
        "conjectural": result.conjectural,
        "consistent": result.consistent,
        "choices": [{"event": e, "label": lab.value}
                    for e, lab in result.by_choice],
    })
    cfg = {"pattern": args.pattern, "pattern_file": args.pattern_file,
           "base_mode": args.base_mode, "seed": None, "out": args.out}
    _emit(payload, args.out, _manifest("classify", cfg))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rtcnlab",
                     description="ranked tree-child network pattern lab")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a network")
    g.add_argument("--leaves", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", choices=("events", "dot"), default="events")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_generate)

    c = sub.add_parser("count", help="count a pattern in a network file")
    c.add_argument("--input", required=True)
    c.add_argument("--pattern", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_count)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=sorted(verify.SUITES))
    v.add_argument("--seed", type=int, default=verify.DEFAULTS["seed"])
    v.add_argument("--reps", type=int, default=None)
    v.add_argument("--leaves", type=int, default=None,
                   help="override the suite's leaf count")
    v.add_argument("--sigma-file", default=None,
                   help="override the covariance matrix data file")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    k = sub.add_parser("classify", help="limit-law class of a pattern")
    k.add_argument("--pattern", default=None, help="catalog id")
    k.add_argument("--pattern-file", default=None, help="pattern JSON file")
    k.add_argument("--base-mode", choices=conjecture.BASE_MODES,
                   default="trivial-normal")
    k.add_argument("--out")
    k.set_defaults(fn=cmd_classify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except InputError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INVALID_INPUT
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
