import dataclasses
import functools
import json
import math
import random
import threading
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtcnlab import (chains, gof, montecarlo as mc, networks, patterns, rng,
                     verify)


# frozen reference values for the chi-square survival function
CHI2_REFERENCE = [
    (1, 0.5, 0.47950012218695337),
    (1, 3.84, 0.05004352124870519),
    (2, 5.99, 0.05003662708658629),
    (3, 0.35, 0.950366117368476),
    (5, 11.07, 0.050009618622405425),
    (8, 2.18, 0.9749902315383138),
    (8, 26.12, 0.001001769361809457),
    (12, 21.03, 0.049942869871754565),
    (40, 55.76, 0.04998592624419688),
    (1, 10.83, 0.0009986863791802592),
]


def test_chi2_sf_reference_values():
    for df, x, want in CHI2_REFERENCE:
        assert gof.chi2_sf(x, df) == pytest.approx(want, rel=1e-9)


def _summary_from_values(values, name="x"):
    hist = {}
    for v in values:
        hist[(int(v),)] = hist.get((int(v),), 0) + 1
    return mc.SampleSummary(components=(name,), n=0, reps=len(values),
                            seed=0, source="synthetic", histogram=hist)


def test_estimators_on_synthetic_laws():
    rng = np.random.default_rng(7)
    N = 40000
    # constant
    s = _summary_from_values([3] * N)
    assert s.mean("x") == 3 and s.variance("x") == 0
    # Bernoulli(0.3)
    vals = rng.binomial(1, 0.3, N)
    s = _summary_from_values(vals)
    se = math.sqrt(0.3 * 0.7 / N)
    assert abs(s.mean("x") - 0.3) < 4 * se
    assert abs(s.variance("x") - 0.21) < 0.01
    # Poisson(2): falling factorial moments are powers of the rate
    vals = rng.poisson(2.0, N)
    s = _summary_from_values(vals)
    for order in (1, 2, 3):
        got = s.falling_moment("x", order)
        assert got == pytest.approx(2.0 ** order, rel=0.1)


def test_poisson_gof_null_and_wrong_rate():
    rng = np.random.default_rng(12)
    s = _summary_from_values(rng.poisson(0.25, 100_000))
    ok = mc.poisson_gof(s, 0.25)
    assert ok.passed and ok.checks[0]["value"] > 1e-3
    bad = mc.poisson_gof(s, 0.125)
    assert not bad.passed
    assert bad.checks[0]["value"] < 1e-6


def test_normality_check_negative_control():
    rng = np.random.default_rng(5)
    vals = np.round(rng.normal(100, 10, 50_000)).astype(int)
    s = _summary_from_values(vals)
    good = mc.normality_check(s, 100.0, 100.0)
    # discretisation is mild at sigma=10; moments stay within tolerance
    assert good.passed
    doubled = mc.normality_check(s, 100.0, 400.0)
    assert not doubled.passed
    names = {c["name"]: c["passed"] for c in doubled.checks}
    assert not names["variance_ratio"]


def test_independence_check_synthetic():
    rng = np.random.default_rng(9)
    N = 100_000
    x = rng.poisson(0.125, N)
    c = rng.poisson(0.25, N)
    hist = {}
    for pair in zip(x.tolist(), c.tolist()):
        hist[pair] = hist.get(pair, 0) + 1
    s = mc.SampleSummary(components=("x", "c"), n=0, reps=N, seed=0,
                         source="synthetic", histogram=hist)
    fit = mc.independence_check(s, components=("x", "c"))
    assert fit.passed


def test_covariance_check_identity():
    rng = np.random.default_rng(3)
    N = 60_000
    n = 100
    cov = [[4.0, 1.0], [1.0, 9.0]]
    vals = rng.multivariate_normal([50, 80], [[c * n for c in row] for row in cov], N)
    hist = {}
    for a, b in np.round(vals).astype(int):
        hist[(int(a), int(b))] = hist.get((int(a), int(b)), 0) + 1
    s = mc.SampleSummary(components=("u", "v"), n=n, reps=N, seed=0,
                         source="synthetic", histogram=hist)
    sigma = ((Fraction(4), Fraction(1)), (Fraction(1), Fraction(9)))
    assert mc.covariance_check(s, n, sigma).passed
    wrong = ((Fraction(8), Fraction(1)), (Fraction(1), Fraction(9)))
    assert not mc.covariance_check(s, n, wrong).passed


# one fixed two-component sample, (x, c) with weights, at n = 400
PINNED_SAMPLE = mc.SampleSummary(
    components=("x", "c"), n=400, reps=100_000, seed=0, source="synthetic",
    histogram={(0, 0): 70_000, (0, 1): 17_000, (1, 0): 9_000, (1, 1): 2_500,
               (2, 0): 1_000, (0, 2): 500})


def test_fit_checks_reject_removed_keywords():
    s = PINNED_SAMPLE
    sigma = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    removed = [
        (functools.partial(mc.poisson_gof, s, 0.25), ("min_expected",)),
        (functools.partial(mc.normality_check, s, 0.1, 0.1),
         ("var_rel_tol", "z_threshold")),
        (functools.partial(mc.covariance_check, s, 400, sigma),
         ("rel_tol", "z_threshold")),
        (functools.partial(mc.independence_check, s),
         ("lam_x", "lam_c", "corr_threshold", "min_expected"))]
    for check, names in removed:
        for name in names:
            with pytest.raises(TypeError, match=name):
                check(**{name: 1.0})


def test_fit_checks_report_pinned_thresholds():
    s = PINNED_SAMPLE
    N = s.reps
    poisson = mc.poisson_gof(s, 0.25, component="c")
    assert poisson.checks[0]["threshold"] == 1e-3
    assert poisson.details["bins"] == gof.poisson_bins(0.25, N, 5.0)
    assert min(e for _, e in poisson.details["bins"]) >= 5.0
    normal = {c["name"]: c["threshold"]
              for c in mc.normality_check(s, 0.2, 0.2, component="c").checks}
    assert normal == {
        "standardized_mean": 4.0 * (1.0 / math.sqrt(N)),
        "variance_ratio": 0.05,
        "third_moment": 4.0 * math.sqrt(15.0 / N) + 6.0 / math.sqrt(400),
        "fourth_moment": 4.0 * math.sqrt(96.0 / N) + 6.0 / math.sqrt(400)}
    sigma = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(2)))
    cov = mc.covariance_check(s, 400, sigma)
    assert [c["tolerance"] for c in cov.checks[:3]] == [0.1, 0.05, 0.2]
    joint = mc.independence_check(s, components=("x", "c"))
    assert joint.law == "Poisson(0.125) x Poisson(0.25)"
    assert {c["name"]: c.get("threshold", c.get("target"))
            for c in joint.checks} == {"joint_chi_square_p": 1e-3,
                                       "correlation": 0.02,
                                       "marginal_mean_x": 0.125}


def test_theorem2a_reads_only_n_reps_and_seed():
    # max_fraction and mean_n are pinned, not options
    opts = {"n": 40, "reps": 400, "seed": 1}
    with pytest.raises(ValueError, match="suite 'theorem2a' reads no option "
                                         "'max_fraction', 'mean_n'$"):
        verify.run_suite("theorem2a", {**opts, "max_fraction": 0.5,
                                       "mean_n": 50})
    report = verify.run_suite("theorem2a", opts)
    assert [c["threshold"] for c in report.checks[:3]] == [0.01] * 3
    assert report.checks[3]["target"]["den"] == "2000"


def test_run_experiment_deterministic_and_thread_independent():
    base = dict(source="b-iv", n=120, reps=6000, seed=99)
    one = mc.run_experiment(mc.ExperimentConfig(threads=1, **base))
    again = mc.run_experiment(mc.ExperimentConfig(threads=1, **base))
    eight = mc.run_experiment(mc.ExperimentConfig(threads=8, **base))
    assert one.histogram == again.histogram == eight.histogram
    assert one.power_sums == eight.power_sums


def test_run_experiment_trident_initial_and_small():
    at_two = mc.run_experiment(mc.ExperimentConfig(
        source="trident", n=2, reps=50, seed=77))
    assert at_two.histogram == {(0,): 50}
    at_three = mc.run_experiment(mc.ExperimentConfig(
        source="trident", n=3, reps=3000, seed=77))
    assert abs(at_three.mean("trident") - 0.5) < 0.05


def _forward_reference(n, seed, reps, ids):
    """The forward source's histogram, one network at a time: replication
    r reads word r of raw_block(seed, ell, ..., stream 1) at each step
    ell, and the rule divmod(word % ell^2, ell) gives its slots."""
    hi = (reps + 3) // 4 * 4
    words = [rng.raw_block(seed, ell, 0, hi, stream=1).tolist()
             for ell in range(2, n)]
    return Counter(
        patterns.count_catalog(networks._network(
            [divmod(w[r] % (ell * ell), ell)
             for ell, w in enumerate(words, start=2)]), ids)
        for r in range(reps))


def test_forward_source_is_scalar_reference():
    ids = tuple(sorted(patterns.catalog()))
    reps = 750  # not a multiple of 4; crosses a sub-batch boundary at n=30
    assert reps > mc.forward_rows(30)
    for n in (2, 3, 8, 30):
        cfg = mc.ExperimentConfig(source="forward", n=n, reps=reps, seed=5,
                                  pattern_ids=ids)
        want = _forward_reference(n, 5, reps, ids)
        assert mc.run_experiment(cfg).histogram == dict(want), n


def test_forward_joint_histogram_matches_every_history_at_6():
    """All 14 counts jointly against the exact law over the 14,400
    histories of n = 6, by one chi-square over its 28 joint states."""
    n, reps, ids = 6, 40_000, tuple(sorted(patterns.catalog()))
    total = networks.history_count(n)
    exact = Counter(map(tuple, patterns.count_batch(
        networks.history_batch(n, 0, total), ids).tolist()))
    s = mc.run_experiment(mc.ExperimentConfig(
        source="forward", n=n, reps=reps, seed=23, pattern_ids=ids))
    assert set(s.histogram) <= set(exact)
    keys = sorted(exact)
    expected = [reps * exact[key] / total for key in keys]
    # every cell reaches MIN_EXPECTED, so none is pooled
    assert len(keys) == 28 and min(expected) >= mc.MIN_EXPECTED
    stat, df = gof.chi2_statistic([s.histogram.get(key, 0) for key in keys],
                                  expected)
    assert gof.chi2_sf(stat, df) > mc.P_THRESHOLD


def test_forward_source_thread_independent():
    base = dict(source="forward", n=6, reps=800, seed=4,
                pattern_ids=("cherry", "trident"))
    one = mc.run_experiment(mc.ExperimentConfig(threads=1, **base))
    four = mc.run_experiment(mc.ExperimentConfig(threads=4, **base))
    assert one.histogram == four.histogram


def test_chain_block_size_changes_nothing(tmp_path, monkeypatch):
    cfg = mc.ExperimentConfig(source="c-i", n=40, reps=50, seed=3)
    whole = mc.run_experiment(cfg, raw_csv=str(tmp_path / "whole.csv"))
    assert cfg.reps < mc.CHUNK
    # 50 = 4 * 12 + 2: the last block is not a multiple of 4
    monkeypatch.setattr(mc, "CHUNK", 12)
    split = mc.run_experiment(cfg, raw_csv=str(tmp_path / "split.csv"))
    assert split.histogram == whole.histogram
    assert (tmp_path / "split.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()


def test_chain_block_reads_no_os_entropy(monkeypatch):
    # np.random.Philox(key=...) seeds a seed sequence from OS entropy and
    # then discards it; the kernel's draws are re-keyed without one.
    # numpy reads the entropy through a getrandbits it bound at import,
    # so that name is refused as well as the class's method.
    table = chains.builtin_table("b-i")
    want = mc._chain_block(table, 30, 5, 0, 64)
    words = rng.CounterStream(5, 1).words(3)
    forward = list(networks.forward_batches(9, 5, 3, 70, 32))

    def refuse(*args):
        raise AssertionError("read OS entropy")

    monkeypatch.setattr(random.SystemRandom, "getrandbits", refuse)
    monkeypatch.setattr(np.random.bit_generator, "randbits", refuse,
                        raising=False)
    assert (mc._chain_block(table, 30, 5, 0, 64) == want).all()
    assert (rng.CounterStream(5, 1).words(3) == words).all()
    for b, c in zip(networks.forward_batches(9, 5, 3, 70, 32), forward,
                    strict=True):
        assert all(np.array_equal(getattr(b, f.name), getattr(c, f.name))
                   for f in dataclasses.fields(b))


def _split_run(cfg, path, monkeypatch):
    """cfg's summary written to path, with the sizes of every
    Tally.add call."""
    sizes = []
    add = mc.Tally.add

    def spy(self, rows):
        sizes.append(len(rows))
        add(self, rows)

    monkeypatch.setattr(mc.Tally, "add", spy)
    summary = mc.run_experiment(cfg, raw_csv=str(path))
    monkeypatch.setattr(mc.Tally, "add", add)
    return summary, sizes


def test_forward_block_size_changes_nothing(tmp_path, monkeypatch):
    cfg = mc.ExperimentConfig(source="forward", n=8, reps=25, seed=9,
                              pattern_ids=("cherry", "trident", "b-i"))
    whole, sizes = _split_run(cfg, tmp_path / "whole.csv", monkeypatch)
    assert sizes == [25]
    # sub-batches of two rows of 22 lineage slots, windows of three of
    # them (50 // 8 rows); the last window is one row of one sub-batch
    monkeypatch.setattr(mc, "FORWARD_CELLS", 50)
    monkeypatch.setattr(mc, "FORWARD_WORD_ROWS", 0)
    assert (mc.forward_rows(cfg.n), mc.forward_window(cfg.n)) == (2, 6)
    split, sizes = _split_run(cfg, tmp_path / "split.csv", monkeypatch)
    assert sizes == [6, 6, 6, 6, 1]
    assert split.histogram == whole.histogram
    assert (tmp_path / "split.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()


def test_forward_word_window_changes_nothing(tmp_path, monkeypatch):
    cfg = mc.ExperimentConfig(source="forward", n=8, reps=25, seed=9,
                              pattern_ids=("cherry", "trident", "b-i"))
    whole, sizes = _split_run(cfg, tmp_path / "whole.csv", monkeypatch)
    assert sizes == [25]
    # sub-batches of three rows, windows of three of them, each counted
    # by one Tally.add: 0..9, 9..18 and 18..25, the last two not
    # 4-aligned and the last one ending in a sub-batch of one row
    monkeypatch.setattr(mc, "FORWARD_CELLS", 72)
    monkeypatch.setattr(mc, "FORWARD_WINDOW", 3)
    monkeypatch.setattr(mc, "FORWARD_WORD_ROWS", 0)
    assert (mc.forward_rows(cfg.n), mc.forward_window(cfg.n)) == (3, 9)
    split, sizes = _split_run(cfg, tmp_path / "split.csv", monkeypatch)
    assert sizes == [9, 9, 7]
    assert split.histogram == whole.histogram
    assert (tmp_path / "split.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()


def test_forward_window_rule():
    # whole sub-batches, FORWARD_WINDOW of them at n = 24
    assert mc.forward_rows(24) == 468
    assert mc.forward_window(24) == 8 * 468
    for n in (2, 3, 6, 10, 21, 22, 24, 170, 200, 342, 343, 1000, 2000):
        rows, window = mc.forward_rows(n), mc.forward_window(n)
        assert window % rows == 0, n
        # a window's count rows stay within FORWARD_CELLS // 8 rows,
        # unless one sub-batch holds more
        assert window <= max(rows, mc.FORWARD_CELLS // 8), n
    # at small n a window is one sub-batch
    assert mc.forward_window(2) == mc.forward_rows(2) == 8192
    assert mc.forward_window(10) == 3 * 1170
    # from n = 343 on, a sub-batch holds FORWARD_WORD_ROWS //
    # FORWARD_WINDOW = 32 rows, past FORWARD_CELLS lineage slots, and a
    # window reads FORWARD_WORD_ROWS rows' words
    assert (mc.forward_rows(342), mc.forward_rows(343)) == (32, 32)
    assert 343 * 3 - 2 > mc.FORWARD_CELLS // 32
    for n in (1000, 2000):
        assert (mc.forward_rows(n), mc.forward_window(n)) == (32, 256)


def test_thread_budget_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("run_experiment started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for cfg in (mc.ExperimentConfig(source="b-i", n=30, reps=200, seed=1,
                                    threads=4),
                mc.ExperimentConfig(source="forward", n=30, reps=200, seed=1,
                                    pattern_ids=("cherry",), threads=4)):
        assert mc.run_experiment(cfg).reps == 200


def test_source_agreement_with_exact_law():
    """Forward-construction sampling against the exact chain law at n=5."""
    reps = 100_000
    cfg = mc.ExperimentConfig(source="forward", n=5, reps=reps, seed=11,
                              pattern_ids=("trident",), threads=4)
    s = mc.run_experiment(cfg)
    exact = chains.observed_distribution(chains.builtin_table("trident"), 5)
    observed, expected = [], []
    for key, p in sorted(exact.items()):
        observed.append(s.histogram.get(key, 0))
        expected.append(float(p) * reps)
    stat, df = gof.chi2_statistic(observed, expected)
    assert gof.chi2_sf(stat, df) > 1e-3


def test_chain_summary_matches_exact_distribution():
    reps = 60_000
    cfg = mc.ExperimentConfig(source="b-i", n=12, reps=reps, seed=21)
    s = mc.run_experiment(cfg)
    exact = chains.observed_distribution(chains.builtin_table("b-i"), 12)
    observed = []
    expected = []
    rest_o = reps
    rest_e = float(reps)
    for key, p in sorted(exact.items()):
        if float(p) * reps >= 10:
            observed.append(s.histogram.get(key, 0))
            expected.append(float(p) * reps)
            rest_o -= s.histogram.get(key, 0)
            rest_e -= float(p) * reps
    observed.append(rest_o)
    expected.append(max(rest_e, 1e-9))
    stat, df = gof.chi2_statistic(observed, expected)
    assert gof.chi2_sf(stat, df) > 1e-3


def test_raw_csv_and_report(tmp_path):
    path = tmp_path / "raw.csv"
    cfg = mc.ExperimentConfig(source="b-iv", n=60, reps=500, seed=2)
    s = mc.run_experiment(cfg, raw_csv=str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "replication,b-iv,trident"
    assert len(lines) == 501
    # csv agrees with the histogram
    rows = Counter(tuple(int(x) for x in l.split(",")[1:]) for l in lines[1:])
    assert dict(rows) == s.histogram
    doc = s.to_dict()
    assert doc["statistics"]["trident"]["mean"] == s.mean("trident")
    assert "b-iv,trident" in doc["covariances"]


def test_forward_cherry_mean_at_500():
    cfg = mc.ExperimentConfig(source="forward", n=500, reps=10_000, seed=6,
                              pattern_ids=("cherry",), threads=2)
    s = mc.run_experiment(cfg)
    se = s.mean_se("cherry")
    assert abs(s.mean("cherry") - 0.25) < 4 * se


def test_poisson_gof_too_few_samples():
    s = _summary_from_values([0, 0, 1, 0, 0])
    with pytest.raises(ValueError):
        mc.poisson_gof(s, 0.25)


def test_config_validation():
    with pytest.raises(ValueError):
        mc.ExperimentConfig(source="nope", n=10, reps=10, seed=0)
    with pytest.raises(ValueError):
        mc.ExperimentConfig(source="forward", n=10, reps=10, seed=0)
    with pytest.raises(ValueError):
        mc.ExperimentConfig(source="trident", n=1, reps=10, seed=0)
    with pytest.raises(ValueError, match="'nope'"):
        mc.ExperimentConfig(source="forward", n=10, reps=10, seed=0,
                            pattern_ids=("cherry", "nope"))
    with pytest.raises(ValueError, match="threads"):
        mc.ExperimentConfig(source="trident", n=10, reps=10, seed=0, threads=0)


def test_summary_rejects_histogram_of_wrong_size():
    with pytest.raises(ValueError, match="3 replications"):
        mc.SampleSummary(components=("x",), n=0, reps=4, seed=0,
                         source="synthetic", histogram={(0,): 2, (1,): 1})


def _scalar_sums(histogram, k):
    """The power and cross sums key by key, in Python ints."""
    power = [[sum(key[i] ** p * w for key, w in histogram.items())
              for p in range(7)] for i in range(k)]
    cross = {(i, j): sum(key[i] * key[j] * w for key, w in histogram.items())
             for i in range(k) for j in range(i + 1, k)}
    return power, cross


def _assert_sums_are_scalar_sums(histogram, k):
    s = mc.SampleSummary(components=tuple("xyzuv"[:k]), n=0,
                         reps=sum(histogram.values()), seed=0,
                         source="synthetic", histogram=histogram)
    power, cross = _scalar_sums(histogram, k)
    assert s.power_sums == power
    assert list(s.cross_sums.items()) == list(cross.items())
    if s.reps:
        for i in range(k):
            for order in range(1, 5):
                total = 0
                for key, w in histogram.items():
                    term = w
                    for d in range(order):
                        term *= key[i] - d
                    total += term
                assert s.falling_moment(i, order) == total / s.reps
    sums = [x for row in s.power_sums for x in row] + list(s.cross_sums.values())
    assert all(type(x) is int for x in sums)


_SUM_KEY = st.one_of(st.integers(0, 60), st.integers(-2000, 2000),
                     st.sampled_from([10**6, -10**6, 2**70]))


@given(k=st.integers(0, 4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_summary_sums_equal_scalar_sums(k, data):
    histogram = data.draw(st.dictionaries(st.tuples(*[_SUM_KEY] * k),
                                          st.integers(1, 10**6), max_size=30))
    _assert_sums_are_scalar_sums(histogram, k)


_TALLY_VALUE = st.one_of(st.integers(-3, 3),
                         st.integers(2**62 - 3, 2**62 + 3),
                         st.integers(-2**62 - 3, -2**62 + 3),
                         st.sampled_from([-2**63, 2**63 - 1]))


@given(k=st.sampled_from([1, 2, 14]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_tally_is_a_dict_tally(k, data):
    """Any blocks, empty ones included, counted as a dict of tuples
    counts them, its keys in sorted order; a floor of 3 rows makes the
    Tally reduce its blocks together whenever they hold more."""
    blocks = data.draw(st.lists(
        st.lists(st.tuples(*[_TALLY_VALUE] * k), max_size=8), max_size=10))
    want = Counter(row for block in blocks for row in block)
    with mock.patch.object(mc, "TALLY_ROWS", 3):
        tally = mc.Tally()
        for block in blocks:
            tally.add(np.array(block, dtype=np.int64).reshape(-1, k))
        got = tally.histogram()
    assert got == want
    assert list(got) == sorted(want)
    assert all(type(x) is int for key in got for x in key)


def test_summary_sums_at_the_int64_bound():
    # 1448^6 < 2^63 < 2 * 1448^6: one weight stays on int64, two do not
    assert 1448 ** 6 < 2**63 < 2 * 1448 ** 6
    for histogram in ({(1448, 3): 1}, {(1448, 3): 1, (-1448, 1): 1},
                      {(10**6, 0): 7, (2, 5): 3}, {}):
        _assert_sums_are_scalar_sums(histogram, 2)


# -- chain kernel -------------------------------------------------------------


def _eval_text(text, n, state):
    """A numerator's or observable's text evaluated by Python itself,
    independently of the parsed form the package evaluates."""
    return eval(text, {"__builtins__": {}}, dict(zip("abc", state), n=n))


def _reference_rows(doc, n_target, seed, reps):
    """Chain walk per replication with Python ints, read from the table's
    JSON document: the same raw_block words, each rule's numerator
    evaluated on its own, groups (rules sharing a change vector) in order
    of first appearance, and the group taken numbered #{g : cum_g <= v}."""
    comps = doc["components"]
    groups = {}
    for rule in doc["rules"]:
        delta = tuple(rule["delta"].get(x, 0) for x in comps)
        groups.setdefault(delta, []).append(rule["numerator"])
    deltas = list(groups)
    states = [[doc["initial"][x] for x in comps] for _ in range(reps)]
    hi = (reps + 3) // 4 * 4
    for n in range(2, n_target):
        words = rng.raw_block(seed, n, 0, hi).tolist()
        for state, word in zip(states, words):
            v = word % (n * n)
            cum = taken = 0
            for texts in groups.values():
                cum += sum(_eval_text(text, n, state) for text in texts)
                taken += v >= cum
            state[:] = [x + d for x, d in zip(state, deltas[taken])]
    return [tuple(_eval_text(text, 0, s) for text in doc["observables"].values())
            for s in states]


def _kernel_rows(table, n_target, seed, reps):
    rows = mc._chain_block(table, n_target, seed, 0, (reps + 3) // 4 * 4)
    return [tuple(r) for r in rows[:reps].tolist()]


def test_kernel_matches_scalar_reference_on_every_table(tmp_path):
    assert mc._kernel_dtype(2000) is np.int32
    reps = 37  # not a multiple of 4
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        doc = json.loads((chains._DATA_DIR / (cid.replace("-", "_") + ".json")
                          ).read_text())
        for n in (2, 3, 6, 17, 40):
            want = _reference_rows(doc, n, 8, reps)
            assert _kernel_rows(table, n, 8, reps) == want, (cid, n)
        path = tmp_path / f"{cid}.csv"
        mc.run_experiment(mc.ExperimentConfig(source=cid, n=40, reps=reps,
                                              seed=8), raw_csv=str(path))
        lines = path.read_text().splitlines()[1:]
        assert [tuple(int(x) for x in l.split(",")[1:]) for l in lines] == want


def test_kernel_int64_branch(monkeypatch):
    # (n_target - 1)^2 fits int32 up to n_target = 46341
    assert mc._kernel_dtype(46341) is np.int32
    assert mc._kernel_dtype(46342) is np.int64
    monkeypatch.setattr(mc, "_kernel_dtype", lambda n_target: np.int64)
    for cid in ("trident", "a-i", "c-i"):
        table = chains.builtin_table(cid)
        doc = json.loads((chains._DATA_DIR / (cid.replace("-", "_") + ".json")
                          ).read_text())
        assert _kernel_rows(table, 40, 2, 41) == _reference_rows(doc, 40, 2, 41)


_numerators = st.recursive(
    st.one_of(st.sampled_from("nabc"), st.integers(0, 12).map(str)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"-{e}")),
    max_leaves=7)


class _Poly(dict):
    """A polynomial as {sorted variable indices: coefficient}, built by
    Python's eval of a numerator's text: an expansion independent of the
    package's."""

    @staticmethod
    def of(x):
        return x if isinstance(x, _Poly) else _Poly({(): x})

    def __add__(self, other):
        out = _Poly(self)
        for mono, c in _Poly.of(other).items():
            out[mono] = out.get(mono, 0) + c
        return out

    __radd__ = __add__

    def __neg__(self):
        return _Poly({mono: -c for mono, c in self.items()})

    def __sub__(self, other):
        return self + -_Poly.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = _Poly()
        for mono, c in self.items():
            for mono2, c2 in _Poly.of(other).items():
                key = tuple(sorted(mono + mono2))
                out[key] = out.get(key, 0) + c * c2
        return out

    __rmul__ = __mul__


@settings(max_examples=150, deadline=None, derandomize=True)
@given(texts=st.lists(_numerators, min_size=1, max_size=3),
       fps=st.tuples(*[st.integers(1, 7)] * 3), data=st.data())
def test_polynomial_parse_and_family_round_trip(texts, fps, data):
    """The parsed polynomial is eval's expansion, without its zero terms,
    and equals eval at arbitrary integer points; the family form exists
    exactly when the text, as a polynomial in (a, b, c, D) with n = D +
    fps . (a, b, c), has only terms of degree 1 and 2, and then equals
    the parsed polynomial at those points."""
    polys = [chains._polynomial(t) for t in texts]
    points = [tuple(data.draw(st.integers(-50, 50)) for _ in range(4))
              for _ in range(5)]
    xs = [_Poly({(i,): 1}) for i in range(4)]
    for text, poly in zip(texts, polys):
        expanded = _Poly.of(eval(text, {"__builtins__": {}},
                                 dict(zip("nabc", xs))))
        assert poly == {mono: c for mono, c in expanded.items() if c}
        for point in points:
            assert chains.evaluate(poly, point) == \
                _eval_text(text, point[0], point[1:])
    variables = dict(zip("abc", xs), n=xs[3] + sum(f * x for f, x in zip(fps, xs)))
    for text, poly in zip(texts, polys):
        expanded = _Poly.of(eval(text, {"__builtins__": {}}, variables))
        degrees = {len(mono) for mono, c in expanded.items() if c}
        if not degrees <= {1, 2}:
            with pytest.raises(chains.TableError, match="lineage-pair family"):
                chains.family_form(poly, fps)
            continue
        form = chains.family_form(poly, fps)
        assert all(0 <= i <= 3 for fam in form for i in fam)
        for point in points:
            free = point[0] - sum(f * x for f, x in zip(fps, point[1:]))
            got = sum(c * chains.family_value(fam, point[1:] + (free,))
                      for fam, c in form.items())
            assert got == chains.evaluate(poly, point)
