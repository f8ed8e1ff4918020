import json
from fractions import Fraction

import pytest

from rtcnlab import chains, moments, networks, patterns


def test_builtin_ids_and_unknown():
    for cid in chains.BUILTIN_IDS:
        assert chains.builtin_table(cid).name == cid
    with pytest.raises(KeyError):
        chains.builtin_table("nope")


def test_trident_probabilities_at_state():
    t = chains.builtin_table("trident")
    nums = {r.delta: r.numerator(10, a=1) for r in t.rules}
    assert nums[(-1,)] == 3
    assert nums[(1,)] == 42
    assert nums[(0,)] == 55


def test_a_i_creation_rule_present():
    t = chains.builtin_table("a-i")
    rows = [(r.delta, r.numerator_text) for r in t.rules]
    assert ((1, -1), "2*b") in rows


def test_c_i_double_trident_rule_present():
    t = chains.builtin_table("c-i")
    rows = [(r.delta, r.numerator_text) for r in t.rules]
    assert ((1, 0, -2), "4*c*(c-1)") in rows


def test_validate_all_tables():
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        assert chains.validate_table(table, n_max=15) == []


def test_validate_b_iv_to_30():
    assert chains.validate_table(chains.builtin_table("b-iv"), n_max=30) == []


def test_validate_catches_perturbed_numerator(tmp_path):
    src = chains._DATA_DIR / "b_iv.json"
    doc = json.loads(src.read_text())
    doc["rules"][0]["numerator"] = "3*a + 1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    table = chains.load_table(bad)
    assert chains.validate_table(table, n_max=8) != []


def test_exact_distribution_trident_small():
    t = chains.builtin_table("trident")
    assert chains.exact_distribution(t, 3) == {(0,): Fraction(1, 2),
                                               (1,): Fraction(1, 2)}
    assert chains.exact_distribution(t, 4) == {(0,): Fraction(1, 3),
                                               (1,): Fraction(2, 3)}


def test_probabilities_sum_to_one_all_tables():
    for cid in chains.BUILTIN_IDS:
        dist = chains.exact_distribution(chains.builtin_table(cid), 10)
        assert sum(dist.values()) == 1


def test_trident_mean_matches_closed_form_to_25():
    t = chains.builtin_table("trident")
    for n in range(4, 26):
        dist = chains.exact_distribution(t, n)
        assert chains.marginal_moment(dist, 0, 1) == \
            moments.mean_closed_form("trident", n)


def test_marginal_moment_kinds():
    t = chains.builtin_table("trident")
    dist = chains.exact_distribution(t, 4)
    assert chains.marginal_moment(dist, 0, 1) == Fraction(2, 3)
    assert chains.marginal_moment(dist, 0, 0) == 1
    mean = chains.marginal_moment(dist, 0, 1)
    assert chains.marginal_moment(dist, 0, 2, "central") == \
        sum(p * (s[0] - mean) ** 2 for s, p in dist.items())
    assert chains.marginal_moment(dist, 0, 2, "falling") == 0  # T in {0,1}


def test_cherry_falling_moments_approach_quarter_powers():
    # E C(C-1)...(C-m+1) tends to 1/4^m; check the trend at n=120
    dist = chains.observed_distribution(chains.builtin_table("a-i"), 120)
    m1 = chains.marginal_moment(dist, 1, 1, "falling")
    m2 = chains.marginal_moment(dist, 1, 2, "falling")
    assert abs(m1 - Fraction(1, 4)) < Fraction(1, 100)
    assert abs(m2 - Fraction(1, 16)) < Fraction(1, 100)


def test_budget_guard():
    with pytest.raises(chains.BudgetExceeded):
        chains.exact_distribution(chains.builtin_table("c-i"), 60, max_states=50)


def test_coupling_all_chains_small():
    """Every builtin chain's law equals full history enumeration, n <= 5."""
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        names = list(table.observables)
        for n in (3, 4, 5):
            emp = {}
            total = 0
            for net, _ in networks.enumerate_histories(n):
                total += 1
                key = tuple(patterns.count_occurrences(net, x) for x in names)
                emp[key] = emp.get(key, 0) + 1
            empirical = {k: Fraction(v, total) for k, v in emp.items()}
            exact = {k: p for k, p in
                     chains.observed_distribution(table, n).items() if p != 0}
            assert empirical == exact, (cid, n)
