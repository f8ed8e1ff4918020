"""Multi-type Markov chains for pattern counts, stored as data.

Each chain tracks a small vector of pattern-type counts through the
forward construction.  A transition rule is an integer change vector
plus a polynomial numerator in (n, a, b, c); the probability of the rule
at leaf count n is numerator / n^2.  The tables live in data files, one
record per case of the underlying attachment argument, so that every row
can be audited independently.

Exact distribution propagation keeps probabilities as integers over the
common denominator prod(ell^2), so results are exact rationals.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

_DATA_DIR = Path(__file__).parent / "data" / "chains"

BUILTIN_IDS = ("trident", "a-i", "a-ii", "b-i", "b-ii", "b-iii",
               "b-iv", "b-v", "c-i", "c-ii")
# tables transcribed row-by-row from the source material; the rest were
# derived by the same attachment-case analysis and carry the same checks
TRANSCRIBED_IDS = ("trident", "a-i", "b-iv", "b-i", "c-i")

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Add, ast.Sub, ast.Mult, ast.USub, ast.Load)
_ALLOWED_NAMES = {"n", "a", "b", "c"}


class TableError(ValueError):
    pass


def _compile_poly(text: str) -> Callable:
    """Compile a polynomial over n, a, b, c.  Works on ints exactly and on
    numpy arrays elementwise."""
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise TableError(f"disallowed syntax in numerator {text!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES:
            raise TableError(f"unknown variable {node.id!r} in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, int):
            raise TableError(f"non-integer constant in {text!r}")
    code = compile(tree, "<numerator>", "eval")

    def fn(n, a=0, b=0, c=0):
        return eval(code, {"__builtins__": {}}, {"n": n, "a": a, "b": b, "c": c})

    fn.source = text
    return fn


@dataclass(frozen=True)
class TransitionRule:
    event: str
    case: str
    delta: Tuple[int, ...]
    numerator: Callable
    numerator_text: str


@dataclass
class TransitionTable:
    name: str
    description: str
    components: Tuple[str, ...]
    footprints: Dict[str, int]
    initial: Tuple[int, ...]
    rules: List[TransitionRule]
    observables: Dict[str, Callable]

    def state_kwargs(self, state: Sequence[int]) -> dict:
        return dict(zip(("a", "b", "c"), state))

    def feasible(self, n: int, state: Sequence[int]) -> bool:
        if any(x < 0 for x in state):
            return False
        load = sum(self.footprints[comp] * x
                   for comp, x in zip(self.components, state))
        return load <= n

    def observe(self, state: Sequence[int]) -> Dict[str, int]:
        kw = self.state_kwargs(state)
        return {name: fn(0, **kw) for name, fn in self.observables.items()}


_table_cache: Dict[str, TransitionTable] = {}


def builtin_table(chain_id: str) -> TransitionTable:
    if chain_id not in BUILTIN_IDS:
        raise KeyError(f"unknown chain id {chain_id!r}")
    if chain_id not in _table_cache:
        path = _DATA_DIR / (chain_id.replace("-", "_") + ".json")
        _table_cache[chain_id] = load_table(path)
    return _table_cache[chain_id]


def load_table(path) -> TransitionTable:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    comps = tuple(doc["components"])
    rules = []
    for r in doc["rules"]:
        delta = tuple(int(r["delta"].get(x, 0)) for x in comps)
        rules.append(TransitionRule(
            event=r["event"], case=r["case"], delta=delta,
            numerator=_compile_poly(r["numerator"]),
            numerator_text=r["numerator"]))
    obs = {name: _compile_poly(expr) for name, expr in doc["observables"].items()}
    return TransitionTable(
        name=doc["name"], description=doc.get("description", ""),
        components=comps, footprints=dict(doc["footprints"]),
        initial=tuple(int(doc["initial"][x]) for x in comps),
        rules=rules, observables=obs)


# -- validation ------------------------------------------------------------


def _feasible_states(table: TransitionTable, n: int):
    fps = [table.footprints[c] for c in table.components]

    def rec(i, budget, prefix):
        if i == len(fps):
            yield tuple(prefix)
            return
        for x in range(budget // fps[i] + 1):
            yield from rec(i + 1, budget - fps[i] * x, prefix + [x])

    yield from rec(0, n, [])


def validate_table(table: TransitionTable, n_max: int = 25) -> List[str]:
    """Exhaustively check, for every feasible state with n <= n_max, that
    numerators are nonnegative and sum to exactly n^2."""
    violations = []
    for n in range(2, n_max + 1):
        for state in _feasible_states(table, n):
            kw = table.state_kwargs(state)
            total = 0
            for rule in table.rules:
                num = rule.numerator(n, **kw)
                if num < 0:
                    violations.append(
                        f"n={n} state={state}: rule [{rule.event}/{rule.case}] "
                        f"numerator {num} < 0")
                total += num
            if total != n * n:
                violations.append(
                    f"n={n} state={state}: numerators sum to {total}, "
                    f"expected {n * n}")
    return violations


# -- exact distribution ----------------------------------------------------


class BudgetExceeded(RuntimeError):
    pass


def exact_distribution(table: TransitionTable, n_target: int,
                       max_states: int = 2_000_000) -> Dict[Tuple[int, ...], Fraction]:
    """Exact law of the tracked count vector at n_target leaves.

    Probabilities are propagated as integers over the common denominator
    prod_{ell=2}^{n-1} ell^2 and reduced only at the end.
    """
    if n_target < 2:
        raise ValueError("need n_target >= 2")
    dist: Dict[Tuple[int, ...], int] = {table.initial: 1}
    scale = 1
    for n in range(2, n_target):
        nn = n * n
        new: Dict[Tuple[int, ...], int] = {}
        for state, weight in dist.items():
            kw = table.state_kwargs(state)
            total = 0
            for rule in table.rules:
                num = rule.numerator(n, **kw)
                if num == 0:
                    continue
                if num < 0:
                    raise TableError(
                        f"negative numerator at n={n} state={state} "
                        f"rule [{rule.event}/{rule.case}]")
                total += num
                nxt = tuple(x + d for x, d in zip(state, rule.delta))
                new[nxt] = new.get(nxt, 0) + weight * num
            if total != nn:
                raise TableError(
                    f"table {table.name}: numerators sum to {total} != n^2 "
                    f"at n={n}, state={state}; transcription suspect")
        dist = new
        scale *= nn
        if len(dist) > max_states:
            raise BudgetExceeded(
                f"{len(dist)} states at n={n + 1} exceeds budget {max_states}")
        for state in dist:
            if not table.feasible(n + 1, state):
                raise TableError(
                    f"table {table.name}: infeasible state {state} at "
                    f"n={n + 1}; transcription suspect")
    return {state: Fraction(w, scale) for state, w in dist.items()}


def observed_distribution(table: TransitionTable, n_target: int,
                          **kwargs) -> Dict[Tuple[int, ...], Fraction]:
    """Exact law of the observable pattern counts (in the order of the
    table's observables map)."""
    names = list(table.observables)
    out: Dict[Tuple[int, ...], Fraction] = {}
    for state, p in exact_distribution(table, n_target, **kwargs).items():
        obs = table.observe(state)
        key = tuple(obs[name] for name in names)
        out[key] = out.get(key, Fraction(0)) + p
    return out


def marginal_moment(dist: Dict[Tuple[int, ...], Fraction], component: int,
                    power: int, kind: str = "raw") -> Fraction:
    """Exact moment of one component of a distribution over count vectors.

    kind: "raw" E[X^m], "central" E[(X-EX)^m], or "falling"
    E[X(X-1)...(X-m+1)].
    """
    if power == 0:
        return Fraction(1)
    if kind == "raw":
        return sum((p * Fraction(s[component]) ** power
                    for s, p in dist.items()), Fraction(0))
    if kind == "central":
        mean = marginal_moment(dist, component, 1)
        return sum((p * (Fraction(s[component]) - mean) ** power
                    for s, p in dist.items()), Fraction(0))
    if kind == "falling":
        total = Fraction(0)
        for s, p in dist.items():
            x = s[component]
            term = 1
            for i in range(power):
                term *= (x - i)
            total += p * term
        return total
    raise ValueError(f"unknown moment kind {kind!r}")
