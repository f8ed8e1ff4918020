import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rtcnlab import cli, verify

SCHEMA_DIR = Path(cli.__file__).parent / "data" / "schemas"


def _schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run(argv):
    return cli.main(argv)


def test_generate_two_leaves(tmp_path):
    out = tmp_path / "net.events"
    assert run(["generate", "--leaves", "2", "--seed", "1",
                "--format", "events", "--out", str(out)]) == 0
    assert out.read_text() == "RTCN v1 n=2\n"
    manifest = json.loads((tmp_path / "net.events.manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))


def test_generate_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["generate", "--leaves", "100", "--seed", "7",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ma = json.loads((tmp_path / "a.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.manifest.json").read_text())
    assert ma["outputs"][str(a)] == mb["outputs"][str(b)]


def test_generate_usage_error():
    assert run(["generate", "--leaves", "1"]) == 1


def test_generate_refuses_seeds_outside_64_bits(capsys):
    # -1 and 2^64 would alias 2^64 - 1 and 0 as Philox keys
    for seed in ("-1", str(2**64)):
        assert run(["generate", "--leaves", "5", "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert f"seed {seed} " in err and len(err.splitlines()) == 1
    assert run(["generate", "--leaves", "5", "--seed", str(2**64 - 1)]) == 0


def test_generate_dot(tmp_path):
    out = tmp_path / "net.dot"
    assert run(["generate", "--leaves", "8", "--seed", "2", "--format",
                "dot", "--out", str(out)]) == 0
    assert out.read_text().startswith("digraph")


def test_count_cherry_on_two_leaves(tmp_path):
    net = tmp_path / "net.events"
    run(["generate", "--leaves", "2", "--seed", "1", "--out", str(net)])
    out = tmp_path / "count.json"
    assert run(["count", "--input", str(net), "--pattern", "cherry",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("count.schema.json"))
    assert doc["count"] == 1


def test_count_trident_single_reticulation(tmp_path):
    net = tmp_path / "net.events"
    net.write_text("RTCN v1 n=3\nR 0 1\n")
    out = tmp_path / "count.json"
    assert run(["count", "--input", str(net), "--pattern", "trident",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 1


def test_count_unknown_pattern(tmp_path):
    net = tmp_path / "net.events"
    net.write_text("RTCN v1 n=2\n")
    assert run(["count", "--input", str(net), "--pattern", "zebra"]) == 1


def test_count_malformed_network(tmp_path):
    net = tmp_path / "net.events"
    net.write_text("RTCN v1 n=3\nQ 0\n")
    assert run(["count", "--input", str(net), "--pattern", "cherry"]) == 2


def test_classify_catalog_ids(tmp_path):
    out = tmp_path / "c.json"
    assert run(["classify", "--pattern", "cherry", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("classify.schema.json"))
    assert doc["label"] == "Poisson" and not doc["conjectural"]
    assert run(["classify", "--pattern", "trident", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["label"] == "Normal"


def test_classify_custom_pattern_file(tmp_path):
    spec = {"initial_lineages": 1,
            "events": [{"type": "branch", "a": 0}] * 4}
    path = tmp_path / "pat.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "c.json"
    assert run(["classify", "--pattern-file", str(path),
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["conjectural"] is True


def test_verify_conjecture_suite(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "conjecture", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("verify.schema.json"))
    assert doc["passed"] is True


def test_verify_moments_with_perturbed_sigma(tmp_path):
    good = json.loads((Path(cli.__file__).parent / "data" /
                       "sigma.json").read_text())
    good["matrix"][2][2] = "25/637"
    bad = tmp_path / "sigma.json"
    bad.write_text(json.dumps(good))
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "moments", "--sigma-file", str(bad),
                "--out", str(out)])
    assert code == 3
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("verify.schema.json"))
    assert doc["passed"] is False


def test_classify_malformed_pattern_file(tmp_path, capsys):
    path = tmp_path / "pat.json"
    path.write_text("{not json")
    assert run(["classify", "--pattern-file", str(path)]) == 2
    path.write_text(json.dumps({"initial_lineages": 2,
                                "events": [{"type": "branch", "a": 0}]}))
    assert run(["classify", "--pattern-file", str(path)]) == 2
    capsys.readouterr()
    path.write_text(json.dumps({"initial_lineages": 2}))
    assert run(["classify", "--pattern-file", str(path)]) == 2
    assert capsys.readouterr().err == \
        f"cannot load pattern {path}: missing key 'events'\n"
    path.write_text("[1, 2]")
    assert run(["classify", "--pattern-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load pattern {path}: ")
    assert len(err.splitlines()) == 1


def test_deeply_nested_json_is_input_error(tmp_path):
    # json.load raises RecursionError on this document; a run of the CLI
    # still ends with one line and the input-error code
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    for argv, err in (
            (["classify", "--pattern-file", str(path)],
             f"cannot load pattern {path}: the document is nested too deeply"),
            (["verify", "--suite", "moments", "--sigma-file", str(path)],
             "invalid input: covariance file is nested too deeply")):
        proc = subprocess.run([sys.executable, "-m", "rtcnlab.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, err + "\n"), argv


def test_verify_coupling_small(tmp_path):
    out = tmp_path / "coupling.json"
    assert run(["verify", "--suite", "coupling", "--leaves", "4",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, _schema("verify.schema.json"))
    assert all(c["passed"] for c in doc["checks"])


def test_verify_unknown_suite():
    assert run(["verify", "--suite", "nonsense"]) == 1


def test_threads_option_is_usage_error(capsys):
    assert run(["verify", "--suite", "conjecture", "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert "--threads" in err and len(err.splitlines()) == 1


def test_threads_variable_is_not_read(monkeypatch, tmp_path):
    monkeypatch.setenv("RTCN_THREADS", "abc")
    out = tmp_path / "conjecture.json"
    assert run(["verify", "--suite", "conjecture", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "conjecture.json.manifest.json")
                          .read_text())
    assert set(manifest["config"]) == {"suite", "seed", "reps", "leaves",
                                       "sigma_file", "out"}


def test_verify_rejects_single_replication(capsys):
    assert run(["verify", "--suite", "theorem1", "--reps", "1",
                "--leaves", "10"]) == 1
    assert "--reps" in capsys.readouterr().err


def test_verify_manifest_seed_is_null_for_suites_that_draw_nothing(tmp_path):
    for argv, seed in ((["--suite", "coupling", "--leaves", "4"], None),
                       (["--suite", "moments"], None),
                       (["--suite", "conjecture"], None),
                       (["--suite", "theorem1", "--leaves", "10", "--reps",
                         "50", "--seed", "7"], 7)):
        out = tmp_path / "report.json"
        assert run(["verify", *argv, "--out", str(out)]) in (0, 3), argv
        manifest = json.loads((tmp_path / "report.json.manifest.json")
                              .read_text())
        jsonschema.validate(manifest, _schema("manifest.schema.json"))
        assert (manifest["seed"], manifest["config"]["seed"]) == (seed, seed)


def test_verify_prop3_refuses_too_few_replications(capsys):
    # below (Z_THRESHOLD / CORR_THRESHOLD)^2 replications, 4 standard
    # errors of the correlation exceed its threshold
    assert verify.PROP3_MIN_REPS == 40_000
    for reps in ("2000", "39999"):
        assert run(["verify", "--suite", "prop3", "--leaves", "100",
                    "--reps", reps]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("usage error: --reps must be at least "
                                     "40000 for suite 'prop3'\n")
    # other suites keep the floor of 2
    assert run(["verify", "--suite", "theorem1", "--leaves", "10",
                "--reps", "2000"]) in (0, 3)


def test_verify_rejects_leaves_below_two(capsys):
    for leaves in ("1", "0", "-3"):
        assert run(["verify", "--suite", "coupling", "--leaves", leaves]) == 1
        err = capsys.readouterr().err
        assert "--leaves" in err and len(err.splitlines()) == 1


def test_verify_suite_without_checks_fails(monkeypatch, capsys):
    assert verify.SuiteReport("empty").passed is False
    monkeypatch.setitem(verify.SUITES, "coupling",
                        lambda opts: verify.SuiteReport("coupling"))
    assert run(["verify", "--suite", "coupling"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == [] and doc["passed"] is False


def test_bad_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_manifest_replay_reproduces_output(tmp_path):
    out = tmp_path / "net.events"
    assert run(["generate", "--leaves", "60", "--seed", "13",
                "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "net.events.manifest.json").read_text())
    cfg = manifest["config"]
    replay_out = tmp_path / "replay.events"
    argv = [manifest["subcommand"], "--leaves", str(cfg["leaves"]),
            "--seed", str(cfg["seed"]), "--format", cfg["format"],
            "--out", str(replay_out)]
    assert run(argv) == 0
    replay_manifest = json.loads(
        (tmp_path / "replay.events.manifest.json").read_text())
    assert manifest["outputs"][str(out)] == \
        replay_manifest["outputs"][str(replay_out)]


def test_unwritable_output_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "net.events"
    assert run(["generate", "--leaves", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ")
    assert len(err.splitlines()) == 1


def test_missing_sigma_file_is_input_error(tmp_path, capsys):
    sigma = tmp_path / "missing.json"
    assert run(["verify", "--suite", "moments",
                "--sigma-file", str(sigma)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {sigma}: ")
    assert len(err.splitlines()) == 1


def test_malformed_sigma_file_is_input_error(tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    for doc, message in (
            ([1, 2], "covariance file must be an object with a 3x3 'matrix'"),
            ({"matrix": [[None, 0, 0], [0, 1, 0], [0, 0, 1]]},
             "covariance entry None is not a number")):
        sigma.write_text(json.dumps(doc))
        assert run(["verify", "--suite", "moments",
                    "--sigma-file", str(sigma)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


def test_verify_flag_the_suite_does_not_read_is_usage_error(capsys):
    ignored = [("--leaves", s) for s in ("conjecture", "moments", "matcher")]
    ignored += [("--reps", s)
                for s in ("conjecture", "moments", "matcher", "coupling")]
    ignored += [("--sigma-file", s)
                for s in ("coupling", "conjecture", "matcher", "theorem1",
                          "theorem2a", "theorem2b", "theorem2c", "prop3")]
    for flag, suite in ignored:
        assert run(["verify", "--suite", suite, flag, "5"]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {flag} is not read by suite '{suite}'\n"


def test_verify_refuses_seeds_outside_64_bits(capsys):
    # coupling and conjecture draw nothing, yet refuse the seed before
    # they run
    for argv, seed in (
            (["--suite", "coupling", "--leaves", "4"], -1),
            (["--suite", "coupling", "--leaves", "4"], 2**64),
            (["--suite", "conjecture"], 2**64),
            (["--suite", "theorem1", "--leaves", "10", "--reps", "2"], -1)):
        assert run(["verify", *argv, "--seed", str(seed)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == \
            f"invalid input: seed {seed} is outside 0..2^64-1\n", argv


def test_every_suite_refuses_options_it_does_not_read():
    assert set(verify.OPTIONS) == set(verify.SUITES)
    for suite in verify.SUITES:
        with pytest.raises(ValueError, match=f"suite '{suite}' reads no "
                                             f"option 'leaves'$"):
            verify.run_suite(suite, {"leaves": 4})
    # each flag is read by the suites whose options hold its key
    assert cli._FLAG_READERS == {
        "--reps": {"theorem1", "theorem2a", "theorem2b", "theorem2c",
                   "prop3", "prop4"},
        "--leaves": {"coupling", "theorem1", "theorem2a", "theorem2b",
                     "theorem2c", "prop3", "prop4"},
        "--sigma-file": {"moments", "prop4"}}


def test_verify_coupling_leaves_above_guard_is_input_error(capsys):
    assert run(["verify", "--suite", "coupling", "--leaves", "10"]) == 2
    err = capsys.readouterr().err
    assert "enumeration guard" in err and len(err.splitlines()) == 1


def test_manifest_records_environment(tmp_path):
    out = tmp_path / "net.events"
    assert run(["generate", "--leaves", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "net.events.manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": np.__version__,
                                       "cpu_count": os.cpu_count(),
                                       "git_revision": cli._git_revision()}


def _git(cwd, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def test_git_revision_of_a_checkout(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "f").write_text("x")
    _git(tmp_path, "add", "f")
    _git(tmp_path, "commit", "-q", "-m", "x")
    (tmp_path / "pkg").mkdir()
    head = _git(tmp_path, "rev-parse", "HEAD")
    assert cli._git_revision(tmp_path / "pkg") == head
    manifest = cli._manifest("generate", {})
    manifest["outputs"] = {}
    jsonschema.validate(manifest, _schema("manifest.schema.json"))


def test_git_revision_is_null_outside_a_checkout_or_without_git(
        tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    assert cli._git_revision(tmp_path) is None
    monkeypatch.setenv("PATH", str(tmp_path))  # no git on the path
    assert cli._git_revision(Path(cli.__file__).parent) is None
    out = tmp_path / "net.events"
    assert run(["generate", "--leaves", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "net.events.manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert manifest["environment"]["git_revision"] is None
