import itertools
import json
import re
from collections import Counter
from dataclasses import replace
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


def _feasible_states(fps, n):
    """Every state x >= 0 with fps . x <= n."""
    if not fps:
        yield ()
        return
    for x in range(n // fps[0] + 1):
        for rest in _feasible_states(fps[1:], n - fps[0] * x):
            yield (x,) + rest


def _check_family_forms(table, n_max):
    """The oracle for the load-time proof: at every feasible state of
    every n <= n_max, each rule's family form equals Python's eval of its
    text and is >= 0, each change vector's summed form equals its rules'
    sum, the rules sum to n^2, and each change vector with a positive
    summed numerator leads to a feasible state at n + 1, whose lineage
    vector its step gives."""
    fps = [table.footprints[c] for c in table.components]
    forms = [chains.family_form(rule.numerator, fps) for rule in table.rules]
    for n in range(2, n_max + 1):
        for state in _feasible_states(fps, n):
            xs = state + (n - sum(f * x for f, x in zip(fps, state)),)
            sums = {}
            for rule, form in zip(table.rules, forms):
                num = _eval_numerator(rule.numerator_text, n, state)
                assert num == sum(c * chains.family_value(fam, xs)
                                  for fam, c in form.items()), (n, state)
                assert num >= 0, (n, state, rule.case)
                sums[rule.delta] = sums.get(rule.delta, 0) + num
            assert [delta for delta, _ in table.groups] == list(sums)
            for delta, terms in table.groups:
                assert sums[delta] == sum(c * chains.family_value(fam, xs)
                                          for fam, c in terms), (n, state)
            assert sum(sums.values()) == n * n, (n, state)
            for (delta, num), step in zip(sums.items(), table.steps):
                after = [x + d for x, d in zip(state, delta)]
                assert not num or min(after) >= 0 and sum(
                    f * x for f, x in zip(fps, after)) <= n + 1, (n, state, delta)
                if num:
                    # the lineage vector at n + 1
                    assert [x + s for x, s in zip(xs, step)] == after + [
                        n + 1 - sum(f * x for f, x in zip(fps, after))]


def test_validate_all_tables():
    for cid in chains.BUILTIN_IDS:
        _check_family_forms(chains.builtin_table(cid), 15)


def test_validate_b_iv_to_30():
    _check_family_forms(chains.builtin_table("b-iv"), 30)


def test_validate_catches_perturbed_numerator(tmp_path):
    doc = json.loads((chains._DATA_DIR / "b_iv.json").read_text())
    doc["rules"][0]["numerator"] = "3*a + 1"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 0 \[[^]]*\]: term 1 of degree 0 is no "
            r"lineage-pair family$")):
        _table_file(tmp_path, doc)
    doc = _trident_doc()
    doc["rules"][2]["numerator"] += " + a*a*(n - 3*a)"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 2 \[any other attachment/complement\]: "
            r"term 1\*a\*a\*D of degree 3 is no lineage-pair family$")):
        _table_file(tmp_path, doc)


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


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(chains, "_MAX_STATES", 50)
    with pytest.raises(chains.BudgetExceeded,
                       match=r"^51 states at n=24 exceeds budget 50$"):
        chains.exact_distribution(chains.builtin_table("c-i"), 60)


def test_exact_int64_guard():
    # c-i has 3 components and 340 cells: 340 * (3n + 1)^2 passes 2^63
    # near n = 5.5e7, and the run stops before any propagation
    table = chains.builtin_table("c-i")
    assert sum(chains._cells((7, 5, 3)).values()) == 340
    with pytest.raises(chains.BudgetExceeded, match=(
            r"^n=100000000 is beyond the int64 grids of table c-i$")):
        chains.exact_distribution(table, 10 ** 8)


def test_polynomials_are_canonical(tmp_path):
    want = {(0, 0): 1, (0, 1): -6, (1, 1): 9, (0,): -1, (1,): 3}
    assert chains._polynomial("(n - 3*a)*(n - 3*a - 1)") == want
    assert chains._polynomial("n*n - 6*a*n + 9*a*a - n + 3*a") == want
    assert chains._polynomial("a*(n - n) + 0*b - 0") == {}
    doc = _trident_doc()
    respelled = ["9*a*a - 6*a", "n*n - 6*a*n + 9*a*a - n + 3*a",
                 "n + a*(6*n - 18*a + 3)"]
    for rule, text in zip(doc["rules"], respelled):
        rule["numerator"] = text
    table, trident = _table_file(tmp_path, doc), chains.builtin_table("trident")
    assert [r.numerator for r in table.rules] == \
        [r.numerator for r in trident.rules]
    assert table.groups == trident.groups


def test_trident_family_form():
    t = chains.builtin_table("trident")
    forms = [chains.family_form(r.numerator, (3,)) for r in t.rules]
    # 3a(3a - 2) = 9 a(a-1) + 3 a; the complement is 6 aD + 6 a + D
    assert forms == [{(0, 0): 9, (0,): 3}, {(1, 1): 1},
                     {(0, 1): 6, (0,): 6, (1,): 1}]
    assert [chains.family_name(f, 1) for f in t.families] == [
        "a(a-1)", "a*D", "D(D-1)", "a", "D"]
    assert t.groups == [((-1,), (((0, 0), 9), ((0,), 3))),
                        ((1,), (((1, 1), 1),)),
                        ((0,), (((0, 1), 6), ((0,), 6), ((1,), 1)))]
    assert t.start == (0, 2)
    assert t.steps == [(-1, 4), (1, -2), (0, 1)]


def test_exact_distribution_matches_reference_walk():
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        for n in (2, 3, 4, 7, 12, 20):
            dist = chains.exact_distribution(table, n)
            assert dist == _reference_distribution(table, n), (cid, n)
            assert all(type(x) is int for state in dist for x in state)
            assert all(p > 0 for p in dist.values())


def test_exact_distribution_matches_reference_walk_on_sparse_boxes():
    # at n = 30 most of c-i's and c-ii's bounding box is unreached, so
    # the engine's reached states and their row-major order are tested
    # where they differ most from the box
    for cid in ("c-i", "c-ii"):
        table = chains.builtin_table(cid)
        dist = chains.exact_distribution(table, 30)
        assert dist == _reference_distribution(table, 30), cid
        states = list(dist)
        assert states == sorted(states), cid
        box = np.prod([max(s[i] for s in states) - min(s[i] for s in states)
                       + 1 for i in range(3)])
        assert len(states) < box / 4, (cid, len(states), box)


def test_exact_laws_equal_exact_distribution():
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        laws = list(chains.exact_laws(table, 12))
        assert len(laws) == 11, cid
        for n, law in enumerate(laws, start=2):
            assert law == chains.exact_distribution(table, n), (cid, n)


def test_exact_negative_numerator_at_reachable_state(tmp_path):
    # the first numerator is -1 at n=2, state (0,): load rejects the
    # constant term before any propagation
    doc = _trident_doc()
    doc["rules"][0]["numerator"] += " - 1"
    doc["rules"][2]["numerator"] += " + 1"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 0 \[reticulation/inside one trident\]: "
            r"term -1 of degree 0 is no lineage-pair family$")):
        _table_file(tmp_path, doc)
    # 9a(a-1) - 3a is -3 at a = 1; the complement keeps the sum n^2
    doc = _trident_doc()
    doc["rules"][0]["numerator"] = "3*a*(3*a - 4)"
    doc["rules"][2]["numerator"] += " + 6*a"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 0 \[reticulation/inside one trident\]: "
            r"family a has coefficient -3 < 0$")):
        _table_file(tmp_path, doc)


def test_exact_numerators_not_summing_to_n_squared(tmp_path):
    doc = _trident_doc()
    doc["rules"][2]["numerator"] += " + 1"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 2 \[any other attachment/complement\]: "
            r"term 1 of degree 0 is no lineage-pair family$")):
        _table_file(tmp_path, doc)
    # numerators summing to n^2 + a
    doc = _trident_doc()
    doc["rules"][2]["numerator"] += " + a"
    with pytest.raises(chains.TableError, match=(
            r"table\.json: family a: the rules' coefficients sum to 10, "
            r"not to its 9 cells$")):
        _table_file(tmp_path, doc)


def test_load_rejects_infeasible_successor(tmp_path):
    # two free lineages make a trident that moves a by 2: the numerators
    # pass, but at a=0, D=2, where D(D-1) is first positive, the step
    # leaves D = 2 + 1 - 3*2 free lineages
    doc = _trident_doc()
    doc["rules"][1]["delta"] = {"a": 2}
    with pytest.raises(chains.TableError, match=(
            r"table\.json: rule 1 \[reticulation/two non-trident lineages\]: "
            r"delta \(2,\) takes D to -3 from a=0, D=2, the least state where "
            r"family D\(D-1\) is positive$")):
        _table_file(tmp_path, doc)


def _infeasible_step(states, values, deltas, fps):
    """Whether some rule with a positive numerator (values, states x
    rules) moves some state (rows of n, x...) to an infeasible one."""
    after = states[:, None, 1:] + deltas[None]
    free = states[:, :1] + 1 - after @ fps
    return bool(((values > 0) & ((after < 0).any(axis=2) | (free < 0))).any())


def test_change_vector_mutant_gate():
    """Each change vector of each table moved by +-1 in one component:
    load rejects the mutant exactly when a walk over every feasible state
    at n <= 16 finds a rule that fires there and leaves the feasible
    states.  Numerators are Python's eval of the texts, once per table."""
    rejected = accepted = 0
    for cid in chains.BUILTIN_IDS:
        table = chains.builtin_table(cid)
        fps = np.array([table.footprints[c] for c in table.components])
        states = np.array([(n,) + s for n in range(2, 17)
                           for s in _feasible_states(list(fps), n)])
        codes = [compile(r.numerator_text, "", "eval") for r in table.rules]
        values = np.array([[eval(code, {"__builtins__": {}},
                                 dict(zip("abc", s[1:]), n=s[0]))
                            for code in codes] for s in states.tolist()])
        deltas = np.array([r.delta for r in table.rules])
        assert not _infeasible_step(states, values, deltas, fps), cid
        for delta, _ in table.groups:
            for i, step in itertools.product(range(len(fps)), (-1, 1)):
                moved = list(delta)
                moved[i] += step
                rules = [replace(r, delta=tuple(moved)) if r.delta == delta
                         else r for r in table.rules]
                walk = _infeasible_step(states, values,
                                        np.array([r.delta for r in rules]), fps)
                try:
                    replace(table, rules=rules)
                except chains.TableError as err:
                    assert walk, (cid, delta, moved, str(err))
                    assert "the least state where family" in str(err)
                    rejected += 1
                else:
                    assert not walk, (cid, delta, moved)
                    accepted += 1
    assert rejected + accepted == 718 and rejected and accepted


def test_load_table_rejects_values_that_are_not_integers(tmp_path):
    cases = [
        (lambda d: d["rules"][1]["delta"].update(a=1.7),
         r"rule 1 \[reticulation/two non-trident lineages\]: delta: "
         r"'a' is 1\.7, not an integer"),
        (lambda d: d["rules"][0]["delta"].update(a=True),
         r"rule 0 \[reticulation/inside one trident\]: delta: "
         r"'a' is True, not an integer"),
        (lambda d: d["initial"].update(a=0.4), r"initial: 'a' is 0\.4, "
         r"not an integer"),
        (lambda d: d["footprints"].update(a=3.9), r"footprints: 'a' is 3\.9, "
         r"not an integer"),
        (lambda d: d["footprints"].update(a=0), r"footprints: 'a' is 0, "
         r"below 1"),
        (lambda d: d["initial"].update(a=1), r"initial: state \(1,\) is "
         r"infeasible at n=2"),
    ]
    for mutate, message in cases:
        doc = _trident_doc()
        mutate(doc)
        with pytest.raises(chains.TableError,
                           match=rf"table\.json: {message}$"):
            _table_file(tmp_path, doc)


def _set(*path_and_value):
    """A mutation setting doc[path...] to value."""
    *path, key, value = path_and_value

    def mutate(doc):
        for p in path:
            doc = doc[p]
        doc[key] = value
    return mutate


def _drop(*path):
    def mutate(doc):
        for p in path[:-1]:
            doc = doc[p]
        del doc[path[-1]]
    return mutate


_RULE_0 = "rule 0 [reticulation/inside one trident]: "


_MALFORMED = [
    (None, "the document must be an object"),
    *[(_drop(key), f"no {key!r}") for key in
      ("name", "components", "footprints", "initial", "rules", "observables")],
    (_set("rules", {"0": {}}), "'rules' must be a list"),
    (_set("rules", 1, "x"), "rule 1 must be an object"),
    (_drop("rules", 0, "event"), "rule 0: no 'event'"),
    (_drop("rules", 0, "case"), "rule 0: no 'case'"),
    (_drop("rules", 0, "delta"), _RULE_0 + "no 'delta'"),
    (_drop("rules", 0, "numerator"), _RULE_0 + "no 'numerator'"),
    (_set("rules", 0, "delta", [-1]), _RULE_0 + "'delta' must be an object"),
    (_set("initial", [0]), "'initial' must be an object"),
    (_set("footprints", 3), "'footprints' must be an object"),
    (_set("observables", ["a"]), "'observables' must be an object"),
    (_set("rules", 0, "numerator", 5), _RULE_0 + "'numerator' must be a string"),
    (_set("observables", "trident", ["a"]),
     "observables: 'trident' must be a string"),
    (_set("components", "ab"), "'components' must be a list"),
    (_set("components", []), "'components' must be 1 to 3 distinct strings, "
     "not []"),
    (_set("components", ["a", "a"]), "'components' must be 1 to 3 distinct "
     "strings, not ['a', 'a']"),
    (_set("components", [1]), "'components' must be 1 to 3 distinct strings, "
     "not [1]"),
]


@pytest.mark.parametrize("mutate, message", _MALFORMED,
                         ids=[message for _, message in _MALFORMED])
def test_load_table_rejects_malformed_documents(tmp_path, mutate, message):
    doc = _trident_doc()
    if mutate is None:
        doc = [doc]
    else:
        mutate(doc)
    with pytest.raises(chains.TableError,
                       match=rf"table\.json: {re.escape(message)}$"):
        _table_file(tmp_path, doc)


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
    # bools are not integers, though Python reads True as 1
    doc["rules"][2]["numerator"] = "True*a + False"
    with pytest.raises(chains.TableError, match=(
            r"rule 2 .*: unsupported syntax 'True': 'True\*a \+ False'$")):
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
        rows = montecarlo.forward_rows(n)
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
