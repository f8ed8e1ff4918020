import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rtcnlab import chains, gof, montecarlo as mc, networks, patterns


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


def test_forward_source_is_generate_per_stream():
    ids = tuple(sorted(patterns.catalog()))
    reps = 750  # not a multiple of 4; crosses a sub-batch boundary at n=30
    assert reps > mc.FORWARD_CELLS // (3 * 30 - 2)
    for n in (2, 3, 8, 30):
        cfg = mc.ExperimentConfig(source="forward", n=n, reps=reps, seed=5,
                                  pattern_ids=ids)
        want = Counter(
            tuple(patterns.count_occurrences(
                networks.generate(n, 5, stream=r + 1), pid) for pid in ids)
            for r in range(reps))
        assert mc.run_experiment(cfg).histogram == dict(want), n


def test_forward_source_thread_independent():
    base = dict(source="forward", n=6, reps=800, seed=4,
                pattern_ids=("cherry", "trident"))
    one = mc.run_experiment(mc.ExperimentConfig(threads=1, **base))
    four = mc.run_experiment(mc.ExperimentConfig(threads=4, **base))
    assert one.histogram == four.histogram


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
