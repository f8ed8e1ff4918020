"""Multi-type Markov chains for pattern counts, stored as data.

Each chain tracks a small vector of pattern-type counts through the
forward construction.  A transition rule is an integer change vector
plus a polynomial numerator in (n, a, b, c); the probability of the rule
at leaf count n is numerator / n^2.  The tables live in data files, one
record per case of the underlying attachment argument, so that every row
can be audited independently.  Each numerator and observable is parsed
once, into a sum of products of linear forms, and every evaluator (exact
propagation, validation, observation, the Monte Carlo kernel) reads that
form; table text is never executed.

Exact distribution propagation keeps probabilities as integers over the
common denominator prod(ell^2), so results are exact rationals.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

_DATA_DIR = Path(__file__).parent / "data" / "chains"

BUILTIN_IDS = ("trident", "a-i", "a-ii", "b-i", "b-ii", "b-iii",
               "b-iv", "b-v", "c-i", "c-ii")
# tables transcribed row-by-row from the source material; the rest were
# derived by the same attachment-case analysis and carry the same checks
TRANSCRIBED_IDS = ("trident", "a-i", "b-iv", "b-i", "c-i")

# support size above which exact propagation stops with a TableError
_MAX_STATES = 2_000_000

# A linear form kn*n + ka*a + kb*b + kc*c + k0 is the tuple
# (kn, ka, kb, kc, k0), a, b, c being the components by position.  A
# numerator or observable is parsed once into a sum of products: a dict
# from a sorted tuple of forms (the empty tuple is the constant 1) to its
# integer coefficient.
_FORM_VARS = ("n", "a", "b", "c")
_ONE = (0, 0, 0, 0, 1)
SumOfProducts = Dict[Tuple[Tuple[int, ...], ...], int]


class TableError(ValueError):
    pass


def _form_sop(form: Tuple[int, ...]) -> SumOfProducts:
    """One linear form as a sum of products, with its gcd and the sign of
    its first nonzero coefficient moved into the coefficient."""
    g = math.gcd(*form)
    if g == 0:
        return {}
    scale = g if next(x for x in form if x) > 0 else -g
    prim = tuple(x // scale for x in form)
    return {() if prim == _ONE else (prim,): scale}


def _as_form(sop: SumOfProducts) -> Optional[Tuple[int, ...]]:
    """The linear form a sum of products equals, or None if it has a
    product of two or more forms."""
    total = [0] * 5
    for prod, coef in sop.items():
        if len(prod) > 1:
            return None
        for i, x in enumerate(prod[0] if prod else _ONE):
            total[i] += coef * x
    return tuple(total)


def _add_terms(out: SumOfProducts, sop: SumOfProducts,
               sign: int = 1) -> SumOfProducts:
    for prod, coef in sop.items():
        coef = out.get(prod, 0) + sign * coef
        if coef:
            out[prod] = coef
        else:
            out.pop(prod, None)
    return out


def _sop(node, names) -> SumOfProducts:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return _form_sop((0, 0, 0, 0, node.value))
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise TableError(
                f"variable {node.id!r} is not one of {', '.join(names)}")
        return _form_sop(tuple(int(node.id == v) for v in _FORM_VARS) + (0,))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {p: -c for p, c in _sop(node.operand, names).items()}
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult)):
        left, right = _sop(node.left, names), _sop(node.right, names)
        if isinstance(node.op, ast.Mult):
            out: SumOfProducts = {}
            for p, c in left.items():
                for q, d in right.items():
                    _add_terms(out, {tuple(sorted(p + q)): c * d})
            return out
        sign = 1 if isinstance(node.op, ast.Add) else -1
        lf, rf = _as_form(left), _as_form(right)
        if lf is not None and rf is not None:
            return _form_sop(tuple(x + sign * y for x, y in zip(lf, rf)))
        return _add_terms(dict(left), right, sign)
    raise TableError(f"unsupported syntax {ast.unparse(node)!r}")


def _sum_of_products(text: str, names=_FORM_VARS) -> SumOfProducts:
    """A polynomial over names as a sum of coefficient x product of
    linear forms.  A sum of linear forms stays one form; only non-linear
    sums are distributed."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise TableError("not an expression") from None
    return _sop(tree.body, names)


def _form_at(form: Tuple[int, ...], point):
    """kn*n + ka*a + ... + k0 at point = (n, a, ...)."""
    value = form[4]
    for w, x in zip(form[:4], point):
        if w:
            value = value + w * x
    return value


def evaluate(sop: SumOfProducts, point, forms=None):
    """A sum of products at point = (n, a, b, c) (as many coordinates as
    the table has components), on Python ints or elementwise on arrays.
    forms, a dict, caches the values of the linear forms at point."""
    forms = {} if forms is None else forms
    total = 0
    for prod, coef in sop.items():
        term = coef
        for form in prod:
            if form not in forms:
                forms[form] = _form_at(form, point)
            term = term * forms[form]
        total = total + term
    return total


def magnitude_bound(sops: Iterable[SumOfProducts], vertices) -> int:
    """An upper bound on |x| for every integer x that evaluate forms for
    any of sops at a point of the convex hull of vertices, in any order:
    monomials of a linear form and their partial sums, partial products
    of a term with or without its coefficient, and partial sums of all
    the terms.  |form| and the sum of |monomial| are convex, so they
    peak at a vertex; a partial product is at most the product of
    max(1, peak |form|)."""
    peak: Dict[Tuple[int, ...], int] = {}
    monomials = running = 0
    for sop in sops:
        for prod, coef in sop.items():
            term = abs(coef)
            for form in prod:
                if form not in peak:
                    peak[form] = max([1] + [math.ceil(abs(_form_at(form, v)))
                                            for v in vertices])
                    absolute = tuple(map(abs, form))
                    monomials = max([monomials] + [
                        math.ceil(_form_at(absolute, map(abs, v)))
                        for v in vertices])
                term *= peak[form]
            running += term
    return max(monomials, running)


@dataclass(frozen=True)
class TransitionRule:
    event: str
    case: str
    delta: Tuple[int, ...]
    numerator: SumOfProducts
    numerator_text: str


@dataclass
class TransitionTable:
    name: str
    description: str
    components: Tuple[str, ...]
    footprints: Dict[str, int]
    initial: Tuple[int, ...]
    rules: List[TransitionRule]
    observables: Dict[str, SumOfProducts]

    def observe(self, state: Sequence[int]) -> Dict[str, int]:
        return {name: evaluate(sop, (0, *state))
                for name, sop in self.observables.items()}


_table_cache: Dict[str, TransitionTable] = {}


def builtin_table(chain_id: str) -> TransitionTable:
    if chain_id not in BUILTIN_IDS:
        raise KeyError(f"unknown chain id {chain_id!r}")
    if chain_id not in _table_cache:
        path = _DATA_DIR / (chain_id.replace("-", "_") + ".json")
        _table_cache[chain_id] = load_table(path)
    return _table_cache[chain_id]


def load_table(path) -> TransitionTable:
    """A table from its JSON file, every numerator and observable parsed
    once.  The components are the variables a, b, c by position; a
    numerator may also use n, an observable may not.  The keys of a
    rule's delta, of initial and of footprints are components; initial
    and footprints give every component; a delta may omit a component it
    leaves unchanged."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    comps = tuple(doc["components"])
    if len(comps) > 3:
        raise TableError(f"{path}: {len(comps)} components {list(comps)}; "
                         f"at most 3 (a, b, c)")
    variables = _FORM_VARS[1:len(comps) + 1]

    def parse(text, names, where):
        try:
            return _sum_of_products(text, names)
        except TableError as err:
            raise TableError(f"{path}: {where}: {err}: {text!r}") from None

    def check_keys(mapping, where, complete):
        """Every key of mapping is a component, and when complete every
        component is a key."""
        for key in mapping:
            if key not in comps:
                raise TableError(f"{path}: {where}: {key!r} is not one of "
                                 f"the components {list(comps)}")
        missing = [x for x in comps if x not in mapping]
        if complete and missing:
            raise TableError(f"{path}: {where}: no value for component "
                             f"{missing[0]!r}")

    rules = []
    for i, r in enumerate(doc["rules"]):
        where = f"rule {i} [{r['event']}/{r['case']}]"
        check_keys(r["delta"], f"{where}: delta", complete=False)
        delta = tuple(int(r["delta"].get(x, 0)) for x in comps)
        rules.append(TransitionRule(
            event=r["event"], case=r["case"], delta=delta,
            numerator=parse(r["numerator"], ("n",) + variables, where),
            numerator_text=r["numerator"]))
    obs = {name: parse(expr, variables, f"observable {name!r}")
           for name, expr in doc["observables"].items()}
    check_keys(doc["initial"], "initial", complete=True)
    check_keys(doc["footprints"], "footprints", complete=True)
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
            point, forms = (n,) + state, {}
            total = 0
            for rule in table.rules:
                num = evaluate(rule.numerator, point, forms)
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


def _box_corners(table: TransitionTable, n_target: int) -> List[tuple]:
    """The corners (n, a, b, c) of a box that holds every point at which
    exact_distribution(table, n_target) evaluates a numerator or a load:
    the law at n lives on the initial state plus n - 2 change vectors,
    and its box cells lie between the states it reaches."""
    ranges = [(2, n_target)]
    for i, x in enumerate(table.initial):
        moves = [rule.delta[i] for rule in table.rules] + [0]
        ranges.append((x + (n_target - 2) * min(moves),
                       x + (n_target - 2) * max(moves)))
    return list(itertools.product(*ranges))


def _grid_dtype(table: TransitionTable, n_target: int):
    """int64 when no value exact_distribution(table, n_target) forms on
    its coordinate grids can reach 2^63, else object (Python ints): the
    numerators, their group sums and totals, and the loads."""
    load = (0, *(table.footprints[c] for c in table.components), 0, 0, 0)[:5]
    sops = [rule.numerator for rule in table.rules] + [{(load,): 1}]
    bound = magnitude_bound(sops, _box_corners(table, n_target))
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
    A step evaluates each rule's sum of products on the box's coordinate
    grids, computing each distinct linear form once, sums the rules that
    share a change vector and adds weights x sum into the grown box at
    that vector's offset, then trims the edges that hold no mass.  Box
    cells outside the support carry no mass, so the checks (negative
    numerator, sum != n^2, infeasible state) apply to the support only.
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
        point, forms = (n,) + tuple(coords), {}
        new = np.zeros(tuple(live.shape + grow), dtype=object)
        reached = np.zeros(new.shape, dtype=bool)
        total = 0
        for rules, offset in zip(groups.values(), offsets):
            num = 0
            for rule in rules:
                part = evaluate(rule.numerator, point, forms)
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
