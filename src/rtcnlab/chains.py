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
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

_DATA_DIR = Path(__file__).parent / "data" / "chains"

BUILTIN_IDS = ("trident", "a-i", "a-ii", "b-i", "b-ii", "b-iii",
               "b-iv", "b-v", "c-i", "c-ii")
# tables transcribed row-by-row from the source material; the rest were
# derived by the same attachment-case analysis and carry the same checks
TRANSCRIBED_IDS = ("trident", "a-i", "b-iv", "b-i", "c-i")

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Add, ast.Sub, ast.Mult, ast.USub, ast.Load)
_ALLOWED_NAMES = {"n", "a", "b", "c"}
# support size above which exact propagation stops with a TableError
_MAX_STATES = 2_000_000


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


def _magnitude_bound(text: str, v: int) -> int:
    """An upper bound on the absolute value of every subexpression of a
    numerator when |n|, |a|, |b|, |c| <= v."""
    bounds = []

    def rec(node) -> int:
        if isinstance(node, ast.Constant):
            b = abs(node.value)
        elif isinstance(node, ast.Name):
            b = v
        elif isinstance(node, ast.UnaryOp):
            b = rec(node.operand)
        elif isinstance(node.op, ast.Mult):
            b = rec(node.left) * rec(node.right)
        else:
            b = rec(node.left) + rec(node.right)
        bounds.append(b)
        return b

    rec(ast.parse(text, mode="eval").body)
    return max(bounds)


def _grid_dtype(table: TransitionTable, n_target: int):
    """int64 when no value exact_distribution(table, n_target) forms on
    its coordinate grids can reach 2^63, else object (Python ints).

    Every state the law reaches is the initial state plus at most
    n_target - 2 change vectors, and a box cell lies between reached
    states, so each coordinate, and each n, is at most v in absolute
    value.  The sum of the rules' subexpression bounds at v then covers
    every subexpression, group sum and total; the load bound covers the
    feasibility check."""
    step = max((abs(d) for rule in table.rules for d in rule.delta), default=0)
    v = max([n_target] + [abs(x) + (n_target - 2) * step
                          for x in table.initial])
    bound = max(sum(_magnitude_bound(rule.numerator_text, v)
                    for rule in table.rules),
                sum(abs(f) for f in table.footprints.values()) * v)
    return np.int64 if bound < 2 ** 63 else object


def _state_at(mask: np.ndarray, origin: np.ndarray) -> Tuple[int, ...]:
    """The first state, in C order of the box, where mask holds."""
    return tuple(int(x) for x in np.argwhere(mask)[0] + origin)


def exact_laws(table: TransitionTable, n_max: int
               ) -> Iterator[Dict[Tuple[int, ...], Fraction]]:
    """Exact laws of the tracked count vector at n = 2, ..., n_max leaves,
    propagated once; a law's Fractions are built only when the generator
    is advanced to it.  See exact_distribution."""
    for state in _propagate(table, n_max, _MAX_STATES):
        yield _law(*state)


def exact_distribution(table: TransitionTable, n_target: int,
                       max_states: int = _MAX_STATES) -> Dict[Tuple[int, ...], Fraction]:
    """Exact law of the tracked count vector at n_target leaves.

    The law is an object array of Python-int weights over the bounding
    box of its support (origin is the box's lowest state), over the
    common denominator prod_{ell=2}^{n-1} ell^2, reduced only at the end.
    A step evaluates each rule's numerator once on the box's coordinate
    grids, sums the rules that share a change vector and adds weights x
    sum into the grown box at that vector's offset, then trims the edges
    that hold no mass.  Box cells outside the support carry no mass, so
    the checks (negative numerator, sum != n^2, infeasible state) apply
    to the support only.
    """
    for last in _propagate(table, n_target, max_states):
        pass
    return _law(*last)


def _law(weights, live, origin, scale) -> Dict[Tuple[int, ...], Fraction]:
    idx = np.nonzero(live)
    states = (np.stack(idx, axis=1) + origin).tolist()
    return {tuple(s): Fraction(w, scale) for s, w in zip(states, weights[idx])}


def _propagate(table: TransitionTable, n_max: int, max_states: int):
    """(weights, live, origin, scale) of the law at n = 2, ..., n_max."""
    if n_max < 2:
        raise ValueError("need n_target >= 2")
    k = len(table.components)
    dtype = _grid_dtype(table, n_max)
    groups: Dict[Tuple[int, ...], List[TransitionRule]] = {}
    for rule in table.rules:
        groups.setdefault(rule.delta, []).append(rule)
    deltas = np.array(list(groups), dtype=np.int64).reshape(-1, k)
    lo = deltas.min(axis=0, initial=0)
    grow = deltas.max(axis=0, initial=0) - lo
    offsets = deltas - lo
    fps = np.array([table.footprints[c] for c in table.components],
                   dtype=dtype).reshape((k,) + (1,) * k)

    def grids(origin, shape):
        return (np.indices(shape) + origin.reshape((k,) + (1,) * k)).astype(dtype)

    weights = np.ones((1,) * k, dtype=object)
    live = np.ones((1,) * k, dtype=bool)
    origin = np.array(table.initial, dtype=np.int64)
    coords = grids(origin, live.shape)
    scale = 1
    yield weights, live, origin, scale
    for n in range(2, n_max):
        nn = n * n
        kw = table.state_kwargs(coords)
        new = np.zeros(tuple(live.shape + grow), dtype=object)
        reached = np.zeros(new.shape, dtype=bool)
        total = 0
        for rules, offset in zip(groups.values(), offsets):
            num = 0
            for rule in rules:
                part = rule.numerator(n, **kw)
                negative = live & (part < 0)
                if negative.any():
                    raise TableError(
                        f"negative numerator at n={n} "
                        f"state={_state_at(negative, origin)} "
                        f"rule [{rule.event}/{rule.case}]")
                num = num + part
            total = total + num
            fires = live & (num != 0)
            if not fires.any():
                continue
            at = tuple(slice(d, d + s) for d, s in zip(offset, live.shape))
            new[at] += weights * num
            reached[at] |= fires
        wrong = live & (total != nn)
        if wrong.any():
            raise TableError(
                f"table {table.name}: numerators sum to "
                f"{np.broadcast_to(total, live.shape)[wrong][0]} != n^2 "
                f"at n={n}, state={_state_at(wrong, origin)}; "
                f"transcription suspect")
        scale *= nn
        hit = np.nonzero(reached)
        if len(hit[0]) > max_states:
            raise BudgetExceeded(
                f"{len(hit[0])} states at n={n + 1} exceeds budget {max_states}")
        keep = tuple(slice(i.min(), i.max() + 1) for i in hit)
        weights, live = new[keep], reached[keep]
        origin = origin + lo + [s.start for s in keep]
        coords = grids(origin, live.shape)
        infeasible = live & ((coords < 0).any(axis=0)
                             | ((fps * coords).sum(axis=0) > n + 1))
        if infeasible.any():
            raise TableError(
                f"table {table.name}: infeasible state "
                f"{_state_at(infeasible, origin)} at n={n + 1}; "
                f"transcription suspect")
        yield weights, live, origin, scale


def observed_distribution(table: TransitionTable, n_target: int,
                          **kwargs) -> Dict[Tuple[int, ...], Fraction]:
    """Exact law of the observable pattern counts (in the order of the
    table's observables map)."""
    return observe_law(table, exact_distribution(table, n_target, **kwargs))


def observe_law(table: TransitionTable, law: Dict[Tuple[int, ...], Fraction]
                ) -> Dict[Tuple[int, ...], Fraction]:
    """The law of the observable pattern counts under a law of the
    tracked count vector."""
    names = list(table.observables)
    out: Dict[Tuple[int, ...], Fraction] = {}
    for state, p in law.items():
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
