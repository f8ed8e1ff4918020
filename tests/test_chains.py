import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from rtcnlab import chains, moments, montecarlo, networks, patterns, verify


def _eval_numerator(text, n, state):
    """A numerator's text evaluated by Python itself, independently of
    the parsed form the package evaluates."""
    return eval(text, {"__builtins__": {}},
                dict(zip("abc", state), n=n))


def _reference_distribution(table, n_target):
    """The exact law by a per-state Python-int walk over the support,
    with the engine's checks: the reference for exact_distribution."""
    fps = [table.footprints[c] for c in table.components]
    dist = {table.initial: 1}
    scale = 1
    for n in range(2, n_target):
        new = {}
        for state, weight in dist.items():
            total = 0
            for rule in table.rules:
                num = _eval_numerator(rule.numerator_text, n, state)
                assert num >= 0, (n, state, rule.case)
                total += num
                if num:
                    nxt = tuple(x + d for x, d in zip(state, rule.delta))
                    new[nxt] = new.get(nxt, 0) + weight * num
            assert total == n * n, (n, state)
        dist = new
        scale *= n * n
        assert all(min(state) >= 0 and
                   sum(f * x for f, x in zip(fps, state)) <= n + 1
                   for state in dist)
    return {state: Fraction(w, scale) for state, w in dist.items()}


def _table_file(tmp_path, doc):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    return chains.load_table(path)


def _trident_doc():
    return json.loads((chains._DATA_DIR / "trident.json").read_text())


def test_builtin_ids_and_unknown():
    for cid in chains.BUILTIN_IDS:
        assert chains.builtin_table(cid).name == cid
    with pytest.raises(KeyError):
        chains.builtin_table("nope")


def test_trident_probabilities_at_state():
    t = chains.builtin_table("trident")
    nums = {r.delta: chains.evaluate(r.numerator, (10, 1)) for r in t.rules}
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
    with pytest.raises(chains.BudgetExceeded,
                       match=r"^51 states at n=24 exceeds budget 50$"):
        chains.exact_distribution(chains.builtin_table("c-i"), 60, max_states=50)


def test_exact_distribution_matches_reference_walk():
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        assert chains._grid_dtype(table, 2000) is np.int64, cid
        for n in (2, 3, 4, 7, 12, 20):
            dist = chains.exact_distribution(table, n)
            assert dist == _reference_distribution(table, n), (cid, n)
            assert all(type(x) is int for state in dist for x in state)
            assert all(p > 0 for p in dist.values())


def test_exact_laws_equal_exact_distribution():
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        laws = list(chains.exact_laws(table, 12))
        assert len(laws) == 11, cid
        for n, law in enumerate(laws, start=2):
            assert law == chains.exact_distribution(table, n), (cid, n)


def test_exact_negative_numerator_at_reachable_state(tmp_path):
    doc = _trident_doc()
    doc["rules"][0]["numerator"] += " - 1"
    doc["rules"][2]["numerator"] += " + 1"
    table = _table_file(tmp_path, doc)
    with pytest.raises(chains.TableError, match=(
            r"^negative numerator at n=2 state=\(0,\) "
            r"rule \[reticulation/inside one trident\]$")):
        chains.exact_distribution(table, 5)


def test_exact_negative_numerator_off_support_is_ignored(tmp_path):
    # u makes a numerator negative below the support and the other one
    # above it
    table = _table_file(tmp_path, _diagonal_doc("100*(a + b + 2 - n)"))
    law = chains.exact_distribution(table, 4)
    assert set(law) == {(2, 0), (1, 1), (0, 2)}
    assert chains.evaluate(table.rules[0].numerator, (4, 0, 0)) < 0
    assert chains.evaluate(table.rules[1].numerator, (4, 2, 2)) < 0
    assert chains.exact_distribution(table, 12) == \
        _reference_distribution(table, 12)


def test_exact_numerators_not_summing_to_n_squared(tmp_path):
    doc = _trident_doc()
    doc["rules"][2]["numerator"] += " + 1"
    table = _table_file(tmp_path, doc)
    with pytest.raises(chains.TableError, match=(
            r"^table trident: numerators sum to 5 != n\^2 at n=2, "
            r"state=\(0,\); transcription suspect$")):
        chains.exact_distribution(table, 5)


def test_exact_infeasible_successor(tmp_path):
    doc = _trident_doc()
    doc["footprints"]["a"] = 5
    table = _table_file(tmp_path, doc)
    with pytest.raises(chains.TableError, match=(
            r"^table trident: infeasible state \(1,\) at n=3; "
            r"transcription suspect$")):
        chains.exact_distribution(table, 5)


def _diagonal_doc(u):
    # every step adds one to a or to b, so the support at n leaves is the
    # antidiagonal a + b = n - 2 of the box [0, n - 2]^2; u vanishes on it
    return {"name": "diagonal", "components": ["a", "b"],
            "footprints": {"a": 1, "b": 1}, "initial": {"a": 0, "b": 0},
            "observables": {"a": "a"},
            "rules": [
                {"event": "e", "case": "left", "delta": {"a": 1},
                 "numerator": f"n*n - n + {u}"},
                {"event": "e", "case": "right", "delta": {"b": 1},
                 "numerator": f"n - {u}"}]}


def test_exact_python_int_grids(tmp_path):
    # a coefficient of 2^63 does not fit int64 (numpy raises OverflowError
    # on an int64 grid), so this table must run on Python-int grids; u is
    # zero on the support, so the law is still valid
    table = _table_file(tmp_path, _diagonal_doc(
        "9223372036854775808*(a + b + 2 - n)"))
    assert max(abs(c) for r in table.rules
               for c in r.numerator.values()) >= 2 ** 63
    assert chains._grid_dtype(table, 12) is object
    assert chains.exact_distribution(table, 12) == \
        _reference_distribution(table, 12)


def test_box_corners_hold_every_propagated_box(tmp_path):
    # every step of the counter adds one to a: no change vector is zero
    counter = _table_file(tmp_path, {
        "name": "counter", "components": ["a"], "footprints": {"a": 1},
        "initial": {"a": 0}, "observables": {"a": "a"},
        "rules": [{"event": "e", "case": "up", "delta": {"a": 1},
                   "numerator": "n*n"}]})
    tables = [chains.builtin_table(cid) for cid in chains.BUILTIN_IDS]
    for table in tables + [counter]:
        corners = np.array(chains._box_corners(table, 25))
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        laws = chains._propagate(table, 25, chains._MAX_STATES)
        for n, (_, live, origin, _) in enumerate(laws, start=2):
            for cell in (origin, origin + live.shape - 1):
                point = np.concatenate([[n], cell])
                assert (lo <= point).all() and (point <= hi).all(), \
                    (table.name, n)


def test_magnitude_bound_covers_partial_sums_and_products():
    # on the segment n = 2..10, a = 10, |n - a| <= 8, but evaluate forms
    # n = 10 before it subtracts a
    sop = chains._sum_of_products("n - a", ("n", "a"))
    assert chains.magnitude_bound([sop], [(2, 10), (10, 10)]) == 20
    # n - 10 vanishes at n = 10, but 100*a = 600 is formed before it
    sop = chains._sum_of_products("100*a*(n - 10)", ("n", "a"))
    assert sop == {((0, 1, 0, 0, 0), (1, 0, 0, 0, -10)): 100}
    assert chains.magnitude_bound([sop], [(10, 0), (10, 6)]) == 600
    # the terms of all the sums add up
    assert chains.magnitude_bound([sop, sop], [(10, 0), (10, 6)]) == 1200


def test_load_table_rejects_unknown_variable(tmp_path):
    doc = _trident_doc()
    doc["rules"][0]["numerator"] += " + 5*b"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 0 \[reticulation/inside one trident\]: "
            r"variable 'b' is not one of n, a: '3\*a\*\(3\*a - 2\) \+ 5\*b'$")):
        _table_file(tmp_path, doc)


def test_load_table_rejects_n_in_observable(tmp_path):
    doc = _trident_doc()
    doc["observables"]["trident"] = "a + n"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: observable 'trident': "
            r"variable 'n' is not one of a: 'a \+ n'$")):
        _table_file(tmp_path, doc)


def test_load_table_rejects_four_components(tmp_path):
    doc = _trident_doc()
    doc["components"] = ["a", "b", "c", "d"]
    with pytest.raises(chains.TableError, match=(
            r"table\.json: 4 components \['a', 'b', 'c', 'd'\]; "
            r"at most 3 \(a, b, c\)$")):
        _table_file(tmp_path, doc)


def test_load_table_rejects_unsupported_syntax(tmp_path):
    doc = _trident_doc()
    doc["rules"][2]["numerator"] = "n**2 - 3*a*(3*a - 2) - (n - 3*a)*(n - 3*a - 1)"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 2 \[any other attachment/complement\]: "
            r"unsupported syntax 'n \*\* 2': 'n\*\*2 - ")):
        _table_file(tmp_path, doc)
    doc["rules"][2]["numerator"] = "n*n -"
    with pytest.raises(chains.TableError, match=r"rule 2 .*: not an expression: 'n\*n -'$"):
        _table_file(tmp_path, doc)


def test_load_table_rejects_keys_that_are_not_components(tmp_path):
    doc = _trident_doc()
    doc["rules"][0]["delta"] = {"b": -1}
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 0 \[reticulation/inside one trident\]: delta: "
            r"'b' is not one of the components \['a'\]$")):
        _table_file(tmp_path, doc)
    for key in ("initial", "footprints"):
        doc = _trident_doc()
        doc[key]["zz"] = 1
        with pytest.raises(chains.TableError, match=(
                rf"table\.json: {key}: 'zz' is not one of the components \['a'\]$")):
            _table_file(tmp_path, doc)
        del doc[key]["zz"], doc[key]["a"]
        with pytest.raises(chains.TableError, match=(
                rf"table\.json: {key}: no value for component 'a'$")):
            _table_file(tmp_path, doc)
    # a delta may leave out a component it does not change
    doc = _trident_doc()
    del doc["rules"][2]["delta"]["a"]
    assert _table_file(tmp_path, doc).rules[2].delta == (0,)


def test_coupling_all_chains_small():
    """Every builtin chain's law equals full history enumeration, n <= 5,
    with each law from chains.observed_distribution."""
    tables = {cid: chains.builtin_table(cid) for cid in chains.BUILTIN_IDS}
    names = sorted({name for t in tables.values() for name in t.observables})
    for n in (3, 4, 5):
        total = networks.history_count(n)
        counts = patterns.count_batch(networks.history_batch(n, 0, total), names)
        for cid, table in tables.items():
            columns = [names.index(name) for name in table.observables]
            emp = Counter(map(tuple, counts[:, columns].tolist()))
            empirical = {k: Fraction(v, total) for k, v in emp.items()}
            exact = {k: p for k, p in
                     chains.observed_distribution(table, n).items() if p != 0}
            assert empirical == exact, (cid, n)


def test_coupling_sub_batch_boundaries(monkeypatch):
    """Sub-batches that split n = 5 and n = 6 unevenly (76 and 62 rows
    against 576 and 14,400 histories) give the same report."""
    want = verify.suite_coupling({"n_max": 6}).to_dict()["checks"]
    monkeypatch.setattr(montecarlo, "FORWARD_CELLS", 1000)
    for n in (5, 6):
        rows = montecarlo.FORWARD_CELLS // (3 * n - 2)
        assert rows < networks.history_count(n)
        assert networks.history_count(n) % rows
    assert verify.suite_coupling({"n_max": 6}).to_dict()["checks"] == want


def test_coupling_suite_repeated_chain_id():
    rep = verify.suite_coupling({"n_max": 5, "chains": ["trident", "c-i", "trident"]})
    assert rep.passed
    assert len(rep.checks) == 3 * 4


def test_coupling_suite_all_chains():
    rep = verify.suite_coupling({"n_max": 6, "chains": list(chains.BUILTIN_IDS)})
    assert rep.passed
    assert len(rep.checks) == 5 * len(chains.BUILTIN_IDS)
    assert {c["histories"] for c in rep.checks} == {
        networks.history_count(n) for n in range(2, 7)}
