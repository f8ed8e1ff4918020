"""Ranked tree-child networks via the forward construction.

A network is encoded by its event log: starting from one branching event
(two open lineages), each step attaches either a branching event to one
open lineage or a reticulation event to an ordered pair of distinct open
lineages.  The log is the source of truth; the lineage-incidence
structure and the node-level DAG are derived from it deterministically.

Placement convention: a branching event replaces the chosen slot by the
left child lineage and appends the right child; a reticulation event
replaces the two chosen slots by the outer child lineages of its two new
tree nodes and appends the reticulation node's child lineage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from .rng import CounterStream, stream_words

ENUM_MAX_LEAVES = 9

# lineage producer roles
ROLE_BRANCH_CHILD = 0
ROLE_RETIC_OUTER = 1
ROLE_RETIC_MIDDLE = 2


@dataclass(frozen=True)
class Branching:
    position: int


@dataclass(frozen=True)
class Reticulation:
    pos_a: int
    pos_b: int


Event = Union[Branching, Reticulation]


class EventLogError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EventStructure:
    """Event/lineage incidence of a (partial) network or pattern.

    Events are indexed in rank order.  Each lineage records its producer
    event and role; open lineages have consumer -1.  For a network the
    implicit initial branching is event 0.
    """

    __slots__ = ("kinds", "consumed", "produced", "prod_ev", "prod_role",
                 "consumer", "open_slots", "initial_count")

    def __init__(self, initial_count: int = 0, network_root: bool = False):
        self.kinds: List[str] = []
        self.consumed: List[Tuple[int, ...]] = []
        self.produced: List[Tuple[int, ...]] = []
        self.prod_ev: List[int] = []
        self.prod_role: List[int] = []
        self.consumer: List[int] = []
        self.open_slots: List[int] = []
        self.initial_count = initial_count
        if network_root:
            # lineage 0 is the root edge, consumed by the initial branching
            self.kinds.append("B")
            self.consumed.append((0,))
            self.produced.append((1, 2))
            self.prod_ev.extend((-1, 0, 0))
            self.prod_role.extend((-1, ROLE_BRANCH_CHILD, ROLE_BRANCH_CHILD))
            self.consumer.extend((0, -1, -1))
            self.open_slots.extend((1, 2))
        else:
            for i in range(initial_count):
                self.prod_ev.append(-1)
                self.prod_role.append(-1)
                self.consumer.append(-1)
                self.open_slots.append(i)

    # -- growth -------------------------------------------------------

    def apply(self, event: Event):
        ell = len(self.open_slots)
        if isinstance(event, Branching):
            i = event.position
            if not 0 <= i < ell:
                raise EventLogError(
                    f"branching position {i} out of range for {ell} lineages")
            x = self.open_slots[i]
            e = len(self.kinds)
            self.kinds.append("B")
            self.consumed.append((x,))
            self.consumer[x] = e
            l0 = len(self.prod_ev)
            self.prod_ev.extend((e, e))
            self.prod_role.extend((ROLE_BRANCH_CHILD, ROLE_BRANCH_CHILD))
            self.consumer.extend((-1, -1))
            self.produced.append((l0, l0 + 1))
            self.open_slots[i] = l0
            self.open_slots.append(l0 + 1)
            return ("B", i, x)
        i, j = event.pos_a, event.pos_b
        if i == j:
            raise EventLogError("reticulation positions must be distinct")
        if not (0 <= i < ell and 0 <= j < ell):
            raise EventLogError(
                f"reticulation positions ({i}, {j}) out of range for {ell} lineages")
        x, y = self.open_slots[i], self.open_slots[j]
        e = len(self.kinds)
        self.kinds.append("R")
        self.consumed.append((x, y))
        self.consumer[x] = e
        self.consumer[y] = e
        l0 = len(self.prod_ev)
        self.prod_ev.extend((e, e, e))
        self.prod_role.extend((ROLE_RETIC_OUTER, ROLE_RETIC_OUTER,
                               ROLE_RETIC_MIDDLE))
        self.consumer.extend((-1, -1, -1))
        self.produced.append((l0, l0 + 1, l0 + 2))
        self.open_slots[i] = l0
        self.open_slots[j] = l0 + 1
        self.open_slots.append(l0 + 2)
        return ("R", i, j, x, y)

    def undo(self, token) -> None:
        if token[0] == "B":
            _, i, x = token
            self.kinds.pop()
            self.consumed.pop()
            self.produced.pop()
            for _ in range(2):
                self.prod_ev.pop()
                self.prod_role.pop()
                self.consumer.pop()
            self.consumer[x] = -1
            self.open_slots.pop()
            self.open_slots[i] = x
        else:
            _, i, j, x, y = token
            self.kinds.pop()
            self.consumed.pop()
            self.produced.pop()
            for _ in range(3):
                self.prod_ev.pop()
                self.prod_role.pop()
                self.consumer.pop()
            self.consumer[x] = -1
            self.consumer[y] = -1
            self.open_slots.pop()
            self.open_slots[i] = x
            self.open_slots[j] = y

    def copy(self) -> "EventStructure":
        s = EventStructure.__new__(EventStructure)
        s.kinds = self.kinds.copy()
        s.consumed = self.consumed.copy()
        s.produced = self.produced.copy()
        s.prod_ev = self.prod_ev.copy()
        s.prod_role = self.prod_role.copy()
        s.consumer = self.consumer.copy()
        s.open_slots = self.open_slots.copy()
        s.initial_count = self.initial_count
        return s

    # -- queries ------------------------------------------------------

    def is_external(self, lineage: int) -> bool:
        return self.consumer[lineage] == -1

    @property
    def n_events(self) -> int:
        return len(self.kinds)

    @property
    def n_lineages(self) -> int:
        return len(self.prod_ev)

    def final_lineages(self) -> List[int]:
        return [l for l in range(len(self.consumer)) if self.consumer[l] == -1]


@dataclass(frozen=True)
class EventLog:
    """Ordered event sequence; a log with e events has n = e + 2 leaves."""

    events: Tuple[Event, ...]

    @property
    def n_leaves(self) -> int:
        return len(self.events) + 2

    def validate(self) -> None:
        ell = 2
        for k, ev in enumerate(self.events):
            if isinstance(ev, Branching):
                if not 0 <= ev.position < ell:
                    raise EventLogError(
                        f"event {k}: position {ev.position} invalid at {ell} lineages")
            else:
                if ev.pos_a == ev.pos_b:
                    raise EventLogError(f"event {k}: reticulation positions equal")
                if not (0 <= ev.pos_a < ell and 0 <= ev.pos_b < ell):
                    raise EventLogError(
                        f"event {k}: positions ({ev.pos_a}, {ev.pos_b}) invalid "
                        f"at {ell} lineages")
            ell += 1


class Network:
    """A ranked tree-child network: event log plus derived structure."""

    def __init__(self, log: EventLog, structure: EventStructure | None = None):
        if structure is None:
            log.validate()
            structure = EventStructure(network_root=True)
            for ev in log.events:
                structure.apply(ev)
        self.log = log
        self.structure = structure

    @property
    def n_leaves(self) -> int:
        return self.log.n_leaves

    @property
    def n_events(self) -> int:
        return self.structure.n_events

    @property
    def n_reticulations(self) -> int:
        return sum(1 for k in self.structure.kinds if k == "R")

    def __eq__(self, other):
        return isinstance(other, Network) and self.log == other.log

    def __hash__(self):
        return hash(self.log)

    def to_node_graph(self) -> "NodeGraph":
        return _node_graph_from_structure(self.structure)


# -- node-level DAG -------------------------------------------------------

NODE_ROOT = "root"
NODE_TREE = "tree"
NODE_RETIC = "reticulation"
NODE_LEAF = "leaf"


@dataclass
class NodeGraph:
    """Plain node-typed digraph; validate() checks the class axioms."""

    node_types: List[str]
    edges: List[Tuple[int, int]]
    node_rank: dict  # node -> event rank (1-based), where applicable
    n_events: int

    def out_edges(self, v):
        return [e for e in self.edges if e[0] == v]

    def in_edges(self, v):
        return [e for e in self.edges if e[1] == v]


def _node_graph_from_structure(s: EventStructure) -> NodeGraph:
    types = [NODE_ROOT]
    ranks = {}
    edges: List[Tuple[int, int]] = []
    lineage_parent = {}  # lineage -> node it hangs from

    def new_node(t, rank=None):
        types.append(t)
        v = len(types) - 1
        if rank is not None:
            ranks[v] = rank
        return v

    lineage_parent[0] = 0  # root edge hangs from the root node
    for e in range(s.n_events):
        rank = e + 1
        if s.kinds[e] == "B":
            t = new_node(NODE_TREE, rank)
            (x,) = s.consumed[e]
            edges.append((lineage_parent[x], t))
            for l in s.produced[e]:
                lineage_parent[l] = t
        else:
            x, y = s.consumed[e]
            u = new_node(NODE_TREE, rank)
            w = new_node(NODE_TREE, rank)
            r = new_node(NODE_RETIC, rank)
            edges.append((lineage_parent[x], u))
            edges.append((lineage_parent[y], w))
            edges.append((u, r))
            edges.append((w, r))
            ox, oy, mid = s.produced[e]
            lineage_parent[ox] = u
            lineage_parent[oy] = w
            lineage_parent[mid] = r
    for l in s.final_lineages():
        leaf = new_node(NODE_LEAF)
        edges.append((lineage_parent[l], leaf))
    return NodeGraph(types, edges, ranks, s.n_events)


_DEGREES = {NODE_ROOT: (0, 1), NODE_TREE: (1, 2),
            NODE_RETIC: (2, 1), NODE_LEAF: (1, 0)}


def validate(obj: Union[Network, NodeGraph]) -> List[str]:
    """Check degree rules, acyclicity, the tree-child property and the
    event count.  Violations are returned, not raised."""
    g = obj.to_node_graph() if isinstance(obj, Network) else obj
    violations = []
    nv = len(g.node_types)
    indeg = [0] * nv
    outdeg = [0] * nv
    succs = [[] for _ in range(nv)]
    for u, v in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
        succs[u].append(v)
    for v, t in enumerate(g.node_types):
        want = _DEGREES.get(t)
        if want is None:
            violations.append(f"node {v}: unknown type {t!r}")
            continue
        if (indeg[v], outdeg[v]) != want:
            violations.append(
                f"node {v} ({t}): degree ({indeg[v]}, {outdeg[v]}), expected {want}")
    # acyclicity by Kahn's algorithm
    deg = indeg.copy()
    queue = [v for v in range(nv) if deg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in succs[v]:
            deg[w] -= 1
            if deg[w] == 0:
                queue.append(w)
    if seen != nv:
        violations.append("graph contains a directed cycle")
    # tree-child: every non-leaf node has a non-reticulation child
    for v, t in enumerate(g.node_types):
        if t == NODE_LEAF:
            continue
        if succs[v] and all(g.node_types[w] == NODE_RETIC for w in succs[v]):
            violations.append(f"node {v} ({t}): all children are reticulation nodes")
    n_leaves = sum(1 for t in g.node_types if t == NODE_LEAF)
    if g.n_events != n_leaves - 1:
        violations.append(
            f"event count {g.n_events} != leaves - 1 = {n_leaves - 1}")
    return violations


# -- generation and enumeration -------------------------------------------


def generate(n: int, seed: int, stream: int = 0) -> Network:
    """Grow a network to n leaves; the pair at each step is drawn
    uniformly from the ell^2 ordered possibilities, from the word of that
    step on the given stream of the seed."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    words = CounterStream(seed, stream).words(max(n - 2, 1)).tolist()
    structure = EventStructure(network_root=True)
    events: List[Event] = []
    for ell, word in zip(range(2, n), words):
        i, j = divmod(word % (ell * ell), ell)
        ev: Event = Branching(i) if i == j else Reticulation(i, j)
        structure.apply(ev)
        events.append(ev)
    return Network(EventLog(tuple(events)), structure)


@dataclass(frozen=True)
class LockstepBatch:
    """m networks with n leaves grown together, as arrays.

    Lineage slots have a fixed stride of three per event: lineage 0 is
    the root edge and event e (event 0 is the initial branching)
    produces lineages 3e+1, 3e+2 and 3e+3.  A branching's children are
    3e+1 and 3e+2 and it leaves 3e+3 unused; a reticulation's outer
    lineages are 3e+1 and 3e+2 and its middle lineage is 3e+3.  Up to
    this relabelling of lineages, row r is the EventStructure of the
    network generate grows on the row's stream.
    """

    kind: np.ndarray        # (m, n-1) bool, True for a reticulation
    consumed: np.ndarray    # (m, n-1, 2) int32, -1 for a branching's second
    consumer: np.ndarray    # (m, 3n-2) int32, -1 for an external lineage
    open_slots: np.ndarray  # (m, n) int32, the final lineages in slot order


def _step_slots(n: int, seed: int, streams: Sequence[int]) -> np.ndarray:
    """(m, n-2, 3) slots written at each step: the pair (i, j) chosen by
    generate's rule divmod(word % ell^2, ell), where i == j is a
    branching, and the appended slot ell."""
    ell = np.arange(2, n, dtype=np.uint64)
    v = stream_words(seed, streams, n - 2)
    v %= ell * ell
    slots = np.empty(v.shape + (3,), dtype=np.intp)
    np.divmod(v, ell, out=(slots[..., 0], slots[..., 1]), casting="unsafe")
    slots[..., 2] = ell
    return slots


def generate_batch(n: int, seed: int, streams: Sequence[int]) -> LockstepBatch:
    """The networks generate(n, seed, stream) for every stream, grown in
    lockstep: each step applies the event of every row at once, from
    the same words by the same rule."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    m = len(streams)
    slots = _step_slots(n, seed, streams)
    kind = np.zeros((m, n - 1), dtype=bool)
    kind[:, 1:] = slots[..., 0] != slots[..., 1]
    # per step, the lineages written to the three slots: 3e+1, 3e+2 and
    # 3e+3 for a reticulation; 3e+1, 3e+1 and 3e+2 for a branching
    e = np.arange(1, n - 1, dtype=np.int32)
    second = np.where(kind[:, 1:], 3 * e + 2, 3 * e + 1)
    placed = np.stack((np.broadcast_to(3 * e + 1, second.shape), second,
                       second + 1), axis=2)
    # the initial branching consumes the root edge, lineage 0
    consumed = np.zeros((m, n - 1, 2), dtype=np.int32)
    open_slots = np.empty((m, n), dtype=np.int32)
    open_slots[:, :2] = (1, 2)
    rows = np.arange(m)[:, None]
    # flat indices into open_slots: one index array per step is the
    # cheapest fancy indexing when m is small (large n)
    slots += n * rows[:, :, None]
    flat_open = open_slots.ravel()
    for step in range(n - 2):
        consumed[:, step + 1] = flat_open[slots[:, step, :2]]
        flat_open[slots[:, step]] = placed[:, step]
    # the per-step tables are freed first: the batch's peak memory
    # bounds the forward source's
    del slots, second, placed
    # a branching's second consumed entry still repeats its first here
    consumer = np.full((m, 3 * n - 2), -1, dtype=np.int32)
    consumer[rows[:, :, None], consumed] = np.arange(n - 1, dtype=np.int32)[:, None]
    consumed[:, :, 1][~kind] = -1
    return LockstepBatch(kind, consumed, consumer, open_slots)


def history_count(n: int) -> int:
    return math.prod(ell * ell for ell in range(2, n))


def enumerate_histories(n: int) -> Iterator[Tuple[Network, Fraction]]:
    """Every construction history exactly once, each with probability
    1 / prod(ell^2).  Guarded to small n; the count grows as (n-1)!^2."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if n > ENUM_MAX_LEAVES:
        raise ValueError(f"enumeration guard: n must be <= {ENUM_MAX_LEAVES}")
    prob = Fraction(1, history_count(n))
    structure = EventStructure(network_root=True)
    events: List[Event] = []

    def rec(ell):
        if ell == n:
            yield Network(EventLog(tuple(events)), structure.copy())
            return
        for i in range(ell):
            for j in range(ell):
                ev: Event = Branching(i) if i == j else Reticulation(i, j)
                tok = structure.apply(ev)
                events.append(ev)
                yield from rec(ell + 1)
                events.pop()
                structure.undo(tok)

    for net in rec(2):
        yield net, prob


# -- text format -----------------------------------------------------------


def serialize(network: Network) -> str:
    lines = [f"RTCN v1 n={network.n_leaves}"]
    for ev in network.log.events:
        if isinstance(ev, Branching):
            lines.append(f"B {ev.position}")
        else:
            lines.append(f"R {ev.pos_a} {ev.pos_b}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Network:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    head = lines[0].split()
    if len(head) != 3 or head[0] != "RTCN" or head[1] != "v1" or \
            not head[2].startswith("n="):
        raise ParseError("expected header 'RTCN v1 n=<leaves>'", 1)
    try:
        n = int(head[2][2:])
    except ValueError:
        raise ParseError("bad leaf count", 1) from None
    events: List[Event] = []
    event_lines: List[int] = []
    for idx, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if not ((parts[0] == "B" and len(parts) == 2)
                or (parts[0] == "R" and len(parts) == 3)):
            raise ParseError(f"unrecognized event line {line!r}", idx)
        try:
            indices = [int(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"bad index in {line!r}", idx) from None
        events.append(Branching(*indices) if parts[0] == "B"
                      else Reticulation(*indices))
        event_lines.append(idx)
    if len(events) != n - 2:
        raise ParseError(
            f"header says n={n} but {len(events)} events follow", len(lines))
    structure = EventStructure(network_root=True)
    for k, (ev, idx) in enumerate(zip(events, event_lines)):
        try:
            structure.apply(ev)
        except EventLogError as exc:
            raise ParseError(f"event {k}: {exc}", idx) from None
    return Network(EventLog(tuple(events)), structure)


def to_dot(network: Network) -> str:
    g = network.to_node_graph()
    out = ["digraph rtcn {"]
    for v, t in enumerate(g.node_types):
        rank = g.node_rank.get(v)
        label = t if rank is None else f"{t}\\nrank {rank}"
        shape = {"root": "point", "tree": "circle",
                 "reticulation": "box", "leaf": "plaintext"}[t]
        out.append(f'  n{v} [label="{label}", shape={shape}];')
    for u, v in g.edges:
        out.append(f"  n{u} -> n{v};")
    out.append("}")
    return "\n".join(out) + "\n"
