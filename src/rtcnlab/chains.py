"""Multi-type Markov chains for pattern counts, stored as data.

Each chain tracks a small vector of pattern-type counts through the
forward construction.  A transition rule is an integer change vector
plus a polynomial numerator in (n, a, b, c); the probability of the rule
at leaf count n is numerator / n^2.  The tables live in data files, one
record per case of the underlying attachment argument, so that every row
can be audited independently.  Each numerator and observable is parsed
once, into its canonical polynomial; table text is never executed.
Building a table proves it: every numerator is rewritten as a
non-negative combination of lineage-cell families whose totals are the
families' cell counts, and every change vector is shown to keep each
feasible state where it can fire feasible.  Exact propagation and the
Monte Carlo kernel evaluate only the per-change-vector sums of that
form, and neither checks feasibility as it steps.

Exact distribution propagation keeps probabilities as integers over the
common denominator prod(ell^2), so results are exact rationals.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

_DATA_DIR = Path(__file__).parent / "data" / "chains"

BUILTIN_IDS = ("trident", "a-i", "a-ii", "b-i", "b-ii", "b-iii",
               "b-iv", "b-v", "c-i", "c-ii")
# tables transcribed row-by-row from the source material; the rest were
# derived by the same attachment-case analysis and carry the same checks
TRANSCRIBED_IDS = ("trident", "a-i", "b-iv", "b-i", "c-i")

# support size above which exact propagation stops with BudgetExceeded
_MAX_STATES = 2_000_000

# A polynomial over (n, a, b, c), a, b, c being the components by
# position, is a dict from a monomial, the sorted tuple of its variable
# indices (the empty tuple is the constant 1), to its nonzero integer
# coefficient: one canonical form per polynomial, whatever its spelling.
_VARS = ("n", "a", "b", "c")
Polynomial = Dict[Tuple[int, ...], int]


class TableError(ValueError):
    pass


def _add(out: Polynomial, mono: Tuple[int, ...], coef: int) -> None:
    coef += out.get(mono, 0)
    if coef:
        out[mono] = coef
    else:
        out.pop(mono, None)


def _mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for m, c in p.items():
        for m2, c2 in q.items():
            _add(out, tuple(sorted(m + m2)), c * c2)
    return out


def _poly(node, names) -> Polynomial:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return {(): node.value} if node.value else {}
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise TableError(
                f"variable {node.id!r} is not one of {', '.join(names)}")
        return {(_VARS.index(node.id),): 1}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return {m: -c for m, c in _poly(node.operand, names).items()}
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult)):
        left, right = _poly(node.left, names), _poly(node.right, names)
        if isinstance(node.op, ast.Mult):
            return _mul(left, right)
        sign = 1 if isinstance(node.op, ast.Add) else -1
        for m, c in right.items():
            _add(left, m, sign * c)
        return left
    raise TableError(f"unsupported syntax {ast.unparse(node)!r}")


def _polynomial(text: str, names=_VARS) -> Polynomial:
    """A polynomial's text (integers, names, unary minus, +, - and *),
    parsed and expanded into its canonical form."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise TableError("not an expression") from None
    return _poly(tree.body, names)


def evaluate(poly: Polynomial, point):
    """A polynomial at point = (n, a, b, c) (as many coordinates as the
    table has components), on Python ints or elementwise on arrays."""
    total = 0
    for mono, coef in poly.items():
        term = coef
        for v in mono:
            term = term * point[v]
        total = total + term
    return total


# -- the lineage-cell families -----------------------------------------------
#
# A step picks one of the n^2 ordered pairs of lineages.  At a state with
# x_i copies of component i's shape (f_i lineages each), D = n - sum f_i x_i
# lineages are free; D is variable k, with footprint 1.  A family is a
# sorted tuple of variable indices: (i, i) is x_i (x_i - 1), ordered pairs
# of distinct copies, (i, j) with i < j is x_i x_j, and (i,) is x_i, one
# copy.  Each unit of a family holds f_i^2 ordered lineage pairs (cells)
# for (i, i) and (i,), and 2 f_i f_j for (i, j); so all the cells add up
# to (sum f_i x_i + D)^2 = n^2.
Family = Tuple[int, ...]


def _cells(fps: Sequence[int]) -> Dict[Family, int]:
    """Every family of a table with footprints fps, with its cell count,
    the pair families first."""
    f = tuple(fps) + (1,)
    out = {(i, j): f[i] * f[j] * (1 if i == j else 2)
           for i in range(len(f)) for j in range(i, len(f))}
    out.update({(i,): f[i] * f[i] for i in range(len(f))})
    return out


def _variables(k: int) -> Tuple[str, ...]:
    return _VARS[1:k + 1] + ("D",)


def family_name(family: Family, k: int) -> str:
    """a(a-1), a*b, a*D, D(D-1), a or D."""
    names = _variables(k)
    if len(family) == 1:
        return names[family[0]]
    i, j = family
    return f"{names[i]}({names[i]}-1)" if i == j else f"{names[i]}*{names[j]}"


def family_value(family: Family, xs):
    """A family at xs = (x_0, ..., x_{k-1}, D), on ints or arrays."""
    if len(family) == 1:
        return xs[family[0]]
    i, j = family
    return xs[i] * (xs[i] - 1) if i == j else xs[i] * xs[j]


def family_form(poly: Polynomial, fps: Sequence[int]) -> Dict[Family, int]:
    """poly as an integer combination of the families of footprints fps:
    expanded into monomials in (x..., D) through n = D + sum f_i x_i,
    then back-substituted through x^2 = x(x-1) + x.  A constant term or
    a term of degree 3 or more belongs to no family: TableError."""
    k = len(fps)
    # n, a, b, c as polynomials in (x..., D)
    subs = [{(i,): f for i, f in enumerate(fps)} | {(k,): 1}]
    subs += [{(i,): 1} for i in range(k)]
    expanded: Polynomial = {}
    for mono, coef in poly.items():
        term = {(): coef}
        for v in mono:
            term = _mul(term, subs[v])
        for m, c in term.items():
            _add(expanded, m, c)
    out: Dict[Family, int] = {}
    for mono, c in expanded.items():
        if not 1 <= len(mono) <= 2:
            term = "*".join([str(c)] + [_variables(k)[v] for v in mono])
            raise TableError(f"term {term} of degree {len(mono)} is no "
                             f"lineage-pair family")
        out[mono] = out.get(mono, 0) + c
        if len(mono) == 2 and mono[0] == mono[1]:
            out[mono[:1]] = out.get(mono[:1], 0) + c
    return {family: c for family, c in out.items() if c}


@dataclass(frozen=True)
class TransitionRule:
    event: str
    case: str
    delta: Tuple[int, ...]
    numerator: Polynomial
    numerator_text: str


@dataclass
class TransitionTable:
    """A chain's rules, proved at construction: the footprints are
    integers >= 1, the initial state is feasible at n = 2, every change
    vector is integral, and every numerator is a combination of the
    lineage-cell families with non-negative integer coefficients whose
    totals over the rules are the families' cell counts.  So at every
    feasible state of every n the numerators are >= 0 and sum to n^2.
    groups holds, per change vector in order of first appearance, the
    summed family coefficients (family, coefficient), in the order of
    families; the engines read only these.

    start is the initial lineage vector (x..., D) at n = 2, and steps[g]
    the change d + (1 - footprints . d,) that group g's vector d makes
    to it.  Each d is proved feasible too.  A family is positive exactly
    at and above its least positive state r (x = 2 for x(x-1), 1 for
    each variable of x*y and for x), and each coordinate of r + steps[g]
    grows with its own.  So if r + steps[g] is feasible for every family
    of g, every step by d lands on a feasible state; and each coordinate
    takes its least value at a feasible state of some n >= 2, so the
    proof is exact.  Neither engine checks the states it reaches."""

    name: str
    description: str
    components: Tuple[str, ...]
    footprints: Dict[str, int]
    initial: Tuple[int, ...]
    rules: List[TransitionRule]
    observables: Dict[str, Polynomial]
    families: Tuple[Family, ...] = field(init=False)
    groups: List[Tuple[Tuple[int, ...], Tuple[Tuple[Family, int], ...]]] = \
        field(init=False)
    start: Tuple[int, ...] = field(init=False)
    steps: List[Tuple[int, ...]] = field(init=False)

    def __post_init__(self):
        k = len(self.components)
        fps = tuple(self.footprints[c] for c in self.components)

        def integers(where, values, least=None):
            for comp, x in zip(self.components, values):
                if type(x) is not int:
                    raise TableError(f"{where}: {comp!r} is {x!r}, "
                                     f"not an integer")
                if least is not None and x < least:
                    raise TableError(f"{where}: {comp!r} is {x}, "
                                     f"below {least}")

        integers("footprints", fps, least=1)
        integers("initial", self.initial)
        self.start = self.initial + (
            2 - sum(f * x for f, x in zip(fps, self.initial)),)
        if min(self.start) < 0:
            raise TableError(f"initial: state {self.initial} is infeasible "
                             f"at n=2")
        cells = _cells(fps)
        totals = dict.fromkeys(cells, 0)
        groups: Dict[Tuple[int, ...], Dict[Family, int]] = {}
        first: Dict[Tuple[int, ...], str] = {}
        for i, rule in enumerate(self.rules):
            where = f"rule {i} [{rule.event}/{rule.case}]"
            integers(f"{where}: delta", rule.delta)
            try:
                form = family_form(rule.numerator, fps)
            except TableError as err:
                raise TableError(f"{where}: {err}") from None
            group = groups.setdefault(rule.delta, {})
            first.setdefault(rule.delta, where)
            for fam, c in form.items():
                if c < 0:
                    raise TableError(f"{where}: family {family_name(fam, k)} "
                                     f"has coefficient {c} < 0")
                totals[fam] += c
                group[fam] = group.get(fam, 0) + c
        for fam, want in cells.items():
            if totals[fam] != want:
                raise TableError(f"family {family_name(fam, k)}: the rules' "
                                 f"coefficients sum to {totals[fam]}, not to "
                                 f"its {want} cells")
        self.families = tuple(cells)
        self.groups = [(delta, tuple((fam, group[fam]) for fam in cells
                                     if group.get(fam)))
                       for delta, group in groups.items()]
        self.steps = [delta + (1 - sum(f * d for f, d in zip(fps, delta)),)
                      for delta, _ in self.groups]
        names = _variables(k)
        for (delta, terms), step in zip(self.groups, self.steps):
            for fam, _ in terms:
                least = [fam.count(v) for v in range(k + 1)]
                after = [x + d for x, d in zip(least, step)]
                for name, x in zip(names, after):
                    if x < 0:
                        at = ", ".join(f"{v}={y}" for v, y in zip(names, least))
                        raise TableError(
                            f"{first[delta]}: delta {delta} takes {name} to "
                            f"{x} from {at}, the least state where family "
                            f"{family_name(fam, k)} is positive")


_table_cache: Dict[str, TransitionTable] = {}


def builtin_table(chain_id: str) -> TransitionTable:
    if chain_id not in BUILTIN_IDS:
        raise KeyError(f"unknown chain id {chain_id!r}")
    if chain_id not in _table_cache:
        path = _DATA_DIR / (chain_id.replace("-", "_") + ".json")
        _table_cache[chain_id] = load_table(path)
    return _table_cache[chain_id]


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def load_table(path) -> TransitionTable:
    """A table from its JSON file, every numerator and observable parsed
    once and the table proved (see TransitionTable).  The document is an
    object with a name, 1 to 3 distinct components, footprints, initial,
    rules and observables.  The components are the variables a, b, c by
    position; a numerator may also use n, an observable may not.  The
    keys of a rule's delta, of initial and of footprints are components;
    initial and footprints give every component; a delta may omit a
    component it leaves unchanged.  A malformed document is a TableError
    naming the file and the key."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)

    def need(obj, key, kind=object, where=""):
        if key not in obj:
            raise TableError(f"{path}: {where}no {key!r}")
        if not isinstance(obj[key], kind):
            raise TableError(f"{path}: {where}{key!r} must be {_KINDS[kind]}")
        return obj[key]

    if not isinstance(doc, dict):
        raise TableError(f"{path}: the document must be an object")
    comps = need(doc, "components", list)
    if len(comps) > 3:
        raise TableError(f"{path}: {len(comps)} components {comps}; "
                         f"at most 3 (a, b, c)")
    if not comps or not all(isinstance(x, str) for x in comps) or len(
            set(comps)) < len(comps):
        raise TableError(f"{path}: 'components' must be 1 to 3 distinct "
                         f"strings, not {comps}")
    comps = tuple(comps)
    variables = _VARS[1:len(comps) + 1]

    def parse(text, names, where):
        try:
            return _polynomial(text, names)
        except TableError as err:
            raise TableError(f"{path}: {where}: {err}: {text!r}") from None

    def mapping(obj, key, where="", complete=True):
        """obj[key]: an object whose keys are components, and that gives
        every component when complete."""
        value = need(obj, key, dict, where)
        for x in value:
            if x not in comps:
                raise TableError(f"{path}: {where}{key}: {x!r} is not one "
                                 f"of the components {list(comps)}")
        missing = [x for x in comps if x not in value]
        if complete and missing:
            raise TableError(f"{path}: {where}{key}: no value for component "
                             f"{missing[0]!r}")
        return value

    rules = []
    for i, r in enumerate(need(doc, "rules", list)):
        if not isinstance(r, dict):
            raise TableError(f"{path}: rule {i} must be an object")
        at = f"rule {i}: "
        where = f"rule {i} [{need(r, 'event', where=at)}/" \
                f"{need(r, 'case', where=at)}]"
        delta = mapping(r, "delta", f"{where}: ", complete=False)
        text = need(r, "numerator", str, f"{where}: ")
        rules.append(TransitionRule(
            event=r["event"], case=r["case"],
            delta=tuple(delta.get(x, 0) for x in comps),
            numerator=parse(text, ("n",) + variables, where),
            numerator_text=text))
    observables = need(doc, "observables", dict)
    obs = {name: parse(need(observables, name, str, "observables: "),
                       variables, f"observable {name!r}")
           for name in observables}
    initial, footprints = mapping(doc, "initial"), mapping(doc, "footprints")
    try:
        return TransitionTable(
            name=need(doc, "name"), description=doc.get("description", ""),
            components=comps, footprints=dict(footprints),
            initial=tuple(initial[x] for x in comps),
            rules=rules, observables=obs)
    except TableError as err:
        raise TableError(f"{path}: {err}") from None


# -- exact distribution ----------------------------------------------------


class BudgetExceeded(RuntimeError):
    pass


def exact_laws(table: TransitionTable, n_max: int
               ) -> Iterator[Dict[Tuple[int, ...], Fraction]]:
    """Exact laws of the tracked count vector at n = 2, ..., n_max leaves,
    propagated once; a law's Fractions are built only when the generator
    is advanced to it.  See exact_distribution."""
    for state in _propagate(table, n_max):
        yield _law(*state)


def exact_distribution(table: TransitionTable, n_target: int
                       ) -> Dict[Tuple[int, ...], Fraction]:
    """Exact law of the tracked count vector at n_target leaves.

    The law is held on its reached states only: a (k, L) int64 array of
    their coordinates, in row-major order of their bounding box, and a
    length-L object vector of Python-int weights over the common
    denominator prod_{ell=2}^{n-1} ell^2, reduced only at the end.  A
    step evaluates the table's families at the L states and forms every
    change vector's numerator at once, as the int64 product of the
    (groups x families) coefficient matrix with those values.  Each group
    with a nonzero numerator adds weights x numerator into a flat dense
    box, the states' bounding box grown by the change vectors, at its
    vector's offset; the destinations of nonzero numerators, read back in
    row-major order, are the next reached states.  The box is only
    written into and read back: its unreached cells cost an allocation
    and no arithmetic.  The table's proof makes the numerators >= 0 with
    sum n^2 at every feasible state and every successor with a positive
    numerator feasible, so no state is checked as it is reached.
    """
    for last in _propagate(table, n_target):
        pass
    return _law(*last)


def _law(weights, coords, scale) -> Dict[Tuple[int, ...], Fraction]:
    return {tuple(s): Fraction(w, scale)
            for s, w in zip(coords.T.tolist(), weights.tolist())}


def _propagate(table: TransitionTable, n_max: int):
    """(weights, coords, scale) of the law at n = 2, ..., n_max: coords
    the (k, L) reached states in row-major order, weights their L
    Python-int weights over scale."""
    if n_max < 2:
        raise ValueError("need n_target >= 2")
    k = len(table.components)
    # every reached state is feasible, so its coordinates and D lie in
    # [0, n] and each family value in [0, (k*n + 1)^2); the load proves
    # every coefficient of coefs >= 0 and each family's coefficients to
    # sum to its cells, so every partial sum of coefs @ values stays
    # below the total cell count times (k*n + 1)^2
    cells = sum(_cells(table.footprints[c] for c in table.components).values())
    if cells * (k * n_max + 1) ** 2 >= 2 ** 63:
        raise BudgetExceeded(f"n={n_max} is beyond the int64 grids of "
                             f"table {table.name}")
    deltas = np.array([d for d, _ in table.groups], dtype=np.int64).reshape(-1, k)
    lo = deltas.min(axis=0, initial=0)
    grow = deltas.max(axis=0, initial=0) - lo
    offsets = deltas - lo
    fps = np.array([table.footprints[c] for c in table.components],
                   dtype=np.int64)
    column = {fam: f for f, fam in enumerate(table.families)}
    coefs = np.zeros((len(table.groups), len(table.families)), dtype=np.int64)
    for g, (_, terms) in enumerate(table.groups):
        for fam, c in terms:
            coefs[g, column[fam]] = c
    coords = np.array(table.initial, dtype=np.int64).reshape(k, 1)
    weights = np.ones(1, dtype=object)
    scale = 1
    yield weights, coords, scale
    for n in range(2, n_max):
        origin = coords.min(axis=1)
        shape = coords.max(axis=1) - origin + 1 + grow
        strides = np.cumprod(shape[::-1])[::-1] // shape
        xs = tuple(coords) + (n - fps @ coords,)
        nums = coefs @ np.array([family_value(fam, xs)
                                 for fam in table.families])
        fires = nums != 0
        shift = offsets @ strides
        dest = strides @ (coords - origin[:, None]) + shift[:, None]
        # the box starts at zero, so the first fired group's products are
        # assigned; a group's destinations are distinct, so += is exact
        new = np.zeros(strides[0] * shape[0], dtype=object)
        first, *rest = np.flatnonzero(fires.any(axis=1))
        new[dest[first]] = weights * nums[first]
        for g in rest:
            new[dest[g]] += weights * nums[g]
        reached = np.zeros(new.shape, dtype=bool)
        reached[dest[fires]] = True
        scale *= n * n
        hit = np.flatnonzero(reached)
        if len(hit) > _MAX_STATES:
            raise BudgetExceeded(
                f"{len(hit)} states at n={n + 1} exceeds budget {_MAX_STATES}")
        weights = new[hit]
        coords = np.array(np.unravel_index(hit, shape))
        coords += (origin + lo)[:, None]
        yield weights, coords, scale


def observed_distribution(table: TransitionTable, n_target: int
                          ) -> Dict[Tuple[int, ...], Fraction]:
    """Exact law of the observable pattern counts (in the order of the
    table's observables map)."""
    return observe_law(table, exact_distribution(table, n_target))


def observe_law(table: TransitionTable, law: Dict[Tuple[int, ...], Fraction]
                ) -> Dict[Tuple[int, ...], Fraction]:
    """The law of the observable pattern counts under a law of the
    tracked count vector."""
    polys = table.observables.values()
    out: Dict[Tuple[int, ...], Fraction] = {}
    for state, p in law.items():
        key = tuple(evaluate(poly, (0, *state)) for poly in polys)
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
