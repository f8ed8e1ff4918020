"""Ranked tree-child networks via the forward construction.

A network is encoded by its event log: starting from one branching event
(two open lineages), each step attaches either a branching event to one
open lineage or a reticulation event to an ordered pair of distinct open
lineages.  The log is the source of truth; the lineage-incidence
structure and the node-level DAG are derived from it deterministically,
and Network(log) is the one place a network is built: generate and
enumerate_histories turn step-major slot tables into logs, and parse
reads them from text.

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

from .rng import CounterStream, raw_block

ENUM_MAX_LEAVES = 9


@dataclass(frozen=True)
class Branching:
    position: int


@dataclass(frozen=True)
class Reticulation:
    pos_a: int
    pos_b: int


Event = Union[Branching, Reticulation]


class EventLogError(ValueError):
    """An event the log cannot hold; Network sets event to its index."""

    event: int | None = None


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EventStructure:
    """Event/lineage incidence of a (partial) network or pattern.

    Events are indexed in rank order.  Each lineage records its producer
    event; open lineages have consumer -1.  For a network the
    implicit initial branching is event 0.
    """

    __slots__ = ("kinds", "consumed", "produced", "prod_ev", "consumer",
                 "open_slots", "initial_count")

    def __init__(self, initial_count: int = 0, network_root: bool = False):
        self.kinds: List[str] = []
        self.consumed: List[Tuple[int, ...]] = []
        self.produced: List[Tuple[int, ...]] = []
        self.prod_ev: List[int] = []
        self.consumer: List[int] = []
        self.open_slots: List[int] = []
        self.initial_count = initial_count
        if network_root:
            # lineage 0 is the root edge, consumed by the initial branching
            self.kinds.append("B")
            self.consumed.append((0,))
            self.produced.append((1, 2))
            self.prod_ev.extend((-1, 0, 0))
            self.consumer.extend((0, -1, -1))
            self.open_slots.extend((1, 2))
        else:
            for i in range(initial_count):
                self.prod_ev.append(-1)
                self.consumer.append(-1)
                self.open_slots.append(i)

    # -- growth -------------------------------------------------------

    def apply(self, event: Event) -> None:
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
            self.consumer.extend((-1, -1))
            self.produced.append((l0, l0 + 1))
            self.open_slots[i] = l0
            self.open_slots.append(l0 + 1)
            return
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
        self.consumer.extend((-1, -1, -1))
        self.produced.append((l0, l0 + 1, l0 + 2))
        self.open_slots[i] = l0
        self.open_slots[j] = l0 + 1
        self.open_slots.append(l0 + 2)

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


class Network:
    """A ranked tree-child network: event log plus derived structure."""

    def __init__(self, log: EventLog):
        structure = EventStructure(network_root=True)
        for k, ev in enumerate(log.events):
            try:
                structure.apply(ev)
            except EventLogError as exc:
                err = EventLogError(f"event {k}: {exc}")
                err.event = k
                raise err from None
        self.log = log
        self.structure = structure

    @property
    def n_leaves(self) -> int:
        return self.log.n_leaves

    @property
    def n_events(self) -> int:
        return self.structure.n_events

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
    step on the given stream of the seed (rng.CounterStream)."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    ell = np.arange(2, n, dtype=np.uint64)
    digits = CounterStream(seed, stream).words(n - 2) % (ell * ell)
    return _network(_slots(n, digits[:, None])[:, 0].tolist())


def _network(row: Sequence[Sequence[int]]) -> Network:
    """The network whose event at step ell is given by the slots
    row[ell-2] = (i, j): Branching(i) when i == j, else
    Reticulation(i, j)."""
    return Network(EventLog(tuple(Branching(i) if i == j else Reticulation(i, j)
                                  for i, j in row)))


@dataclass(frozen=True)
class LockstepBatch:
    """m networks with n leaves grown together, as arrays.

    Lineage slots have a fixed stride of three per event: lineage 0 is
    the root edge and event e (event 0 is the initial branching)
    produces lineages 3e+1, 3e+2 and 3e+3.  A branching's children are
    3e+1 and 3e+2 and it leaves 3e+3 unused; a reticulation's outer
    lineages are 3e+1 and 3e+2 and its middle lineage is 3e+3.  The
    external lineages are those in open_slots, which _grow returns as a
    transposed view of its slot-major table.  kind and consumed are
    step-major: event e of row r is at [e, r].  Up to the relabelling
    of lineages, row r is the EventStructure of the network _network
    builds from the row's slots.
    """

    kind: np.ndarray        # (n-1, m) bool, True for a reticulation
    consumed: np.ndarray    # (n-1, m, 2) int32, -1 for a branching's second
    open_slots: np.ndarray  # (m, n) int32, the final lineages in slot order


def _slots(n: int, digits: np.ndarray) -> np.ndarray:
    """(n-2, m, 2) slots from (n-2, m) unsigned digits: at step ell the
    digit d < ell^2 is the pair (i, j) = divmod(d, ell), where i == j is
    a branching."""
    ell = np.arange(2, n, dtype=digits.dtype)[:, None]
    slots = np.empty(digits.shape + (2,), dtype=np.intp)
    np.divmod(digits, ell, out=(slots[..., 0], slots[..., 1]),
              casting="unsafe")
    return slots


def forward_batches(n: int, seed: int, lo: int, hi: int,
                    rows: int) -> Iterator[LockstepBatch]:
    """Replications lo..hi-1 of the forward source in lockstep batches of
    at most `rows` rows; replication r reads its step-ell word as word r
    of one raw_block(seed, ell, ..., stream 1) call per step over the
    4-aligned window around lo..hi-1, so any split gives the same rows.
    The window keeps only each word's digit, word % ell^2, in the
    narrowest unsigned type that holds every digit below (n-1)^2: up to
    n = 257 that is 2 bytes, a quarter of a word, and _slots divides
    2-byte digits faster.  Each step's words are reduced as drawn:
    copying 16 steps' words into one buffer and reducing them in one
    call took 5.3 against 6.6 ms a 256-row window at n = 1000, but 0.8
    against 0.5 ms a 3,744-row window at n = 24 (2-vCPU Xeon)."""
    lo4, hi4 = lo - lo % 4, hi + -hi % 4
    digits = np.empty((n - 2, hi - lo),
                      dtype=np.min_scalar_type((n - 1) ** 2 - 1))
    for ell, row in enumerate(digits, start=2):
        words = raw_block(seed, ell, lo4, hi4, 1)[lo - lo4:hi - lo4]
        q = words // (ell * ell)  # words - q * ell^2 is words % ell^2,
        q *= ell * ell            # and faster
        np.subtract(words, q, out=row, casting="unsafe")
    for a in range(0, hi - lo, rows):
        yield _grow(n, _slots(n, digits[:, a:a + rows]))


def network_batch(network: Network) -> LockstepBatch:
    """The one-row lockstep batch of a network: its event log as the
    slot table of _grow, (i, i) for a branching at slot i and (i, j) for
    a reticulation at the pair (i, j)."""
    slots = np.array([(ev.position, ev.position) if isinstance(ev, Branching)
                      else (ev.pos_a, ev.pos_b) for ev in network.log.events],
                     dtype=np.intp).reshape(-1, 1, 2)
    return _grow(network.n_leaves, slots)


def _grow(n: int, slots: np.ndarray) -> LockstepBatch:
    """The lockstep batch whose row r applies, at step ell = 2..n-1, the
    event of slots[ell-2, r] = (i, j): a branching at slot i when i == j,
    else a reticulation at the pair (i, j).  The slot table is consumed:
    it is turned into flat indices in place, once for all steps.

    The open lineages are kept slot-major, slot s of row r at cell
    s * m + r of an (n, m) table, so the slot ell that step ell appends
    is one contiguous row.  No step reads or writes that row before
    step ell, so every appended lineage is written before the loop."""
    m = slots.shape[1]
    kind = np.zeros((n - 1, m), dtype=bool)
    np.not_equal(slots[..., 0], slots[..., 1], out=kind[1:])
    # event e = ell - 1 writes placed[ell-2] = (3e+1, second) to slots
    # (i, j) and second + 1 to slot ell: second is 3e+2 for a
    # reticulation and 3e+1 for a branching, whose j is i
    placed = np.empty((n - 2, m, 2), dtype=np.int32)
    placed[..., 0] = np.arange(4, 3 * n - 3, 3, dtype=np.int32)[:, None]
    np.add(placed[..., 0], kind[1:], out=placed[..., 1])
    # the initial branching consumes the root edge, lineage 0
    consumed = np.zeros((n - 1, m, 2), dtype=np.int32)
    table = np.empty((n, m), dtype=np.int32)
    table[:2] = ((1,), (2,))
    np.add(placed[..., 1], 1, out=table[2:])
    flat = table.ravel()
    slots *= m
    # an (m, 2) addend, not (m, 1): the add then runs along 2m contiguous
    # entries, not pairs, in half the time
    slots += np.repeat(np.arange(m), 2).reshape(m, 2)
    for step, idx in enumerate(slots):
        consumed[step + 1] = flat[idx]
        flat[idx] = placed[step]
    # a branching's second consumed entry still repeats its first here
    consumed[..., 1][~kind] = -1
    return LockstepBatch(kind, consumed, table.T)


def history_count(n: int) -> int:
    return math.prod(ell * ell for ell in range(2, n))


def check_enumerable(n: int) -> None:
    """Raise ValueError unless every history of n leaves may be
    enumerated.  The count grows as (n-1)!^2: 1.3e11 at n = 10."""
    if n < 2:
        raise ValueError("need at least 2 leaves")
    if n > ENUM_MAX_LEAVES:
        raise ValueError(f"enumeration guard: n must be <= {ENUM_MAX_LEAVES}")


def _history_slots(n: int, lo: int, hi: int) -> np.ndarray:
    """(n-2, hi-lo, 2) slots of histories lo..hi-1 of n leaves.

    History h is read as a mixed-radix number whose digit at step ell
    is i*ell + j, with ell = 2 the most significant digit; its slots
    (i, j) are the ones generate's rule gives for that digit."""
    h = np.arange(lo, hi, dtype=np.uint64)
    digits = np.empty((n - 2, hi - lo), dtype=np.uint64)
    for ell in range(n - 1, 1, -1):
        h, digits[ell - 2] = np.divmod(h, ell * ell)
    return _slots(n, digits)


def enumerate_histories(n: int) -> Iterator[Tuple[Network, Fraction]]:
    """Every construction history exactly once, in history_batch's
    order, each as one Network with probability 1 / prod(ell^2).
    Guarded to small n by check_enumerable; the histories are read in
    slices of 4096, so memory stays flat."""
    check_enumerable(n)
    total = history_count(n)
    prob = Fraction(1, total)
    for lo in range(0, total, 4096):
        slots = _history_slots(n, lo, min(lo + 4096, total))
        for row in slots.transpose(1, 0, 2).tolist():
            yield _network(row), prob


def history_batch(n: int, lo: int, hi: int) -> LockstepBatch:
    """Histories lo..hi-1 of enumerate_histories(n), grown in lockstep
    from the slots of _history_slots."""
    check_enumerable(n)
    if not 0 <= lo <= hi <= history_count(n):
        raise ValueError(f"history range {lo}..{hi} outside "
                         f"0..{history_count(n)}")
    return _grow(n, _history_slots(n, lo, hi))


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
    try:
        return Network(EventLog(tuple(events)))
    except EventLogError as exc:
        raise ParseError(str(exc), event_lines[exc.event]) from None


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
