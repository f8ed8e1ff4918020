"""Fringe patterns: specification, canonical form, and occurrence counting.

A pattern is a connected substructure grown from k initial lineages by
branching/reticulation events, all of whose final lineages must land on
external lineages of the host network.  Matching is by unranked shape:
relative ranks of pattern events are ignored, and occurrences are counted
modulo the pattern's own symmetries (branching child swap, reticulation
side swap).  Overlapping occurrences count separately.

Three counting routes are provided: closed forms for the shipped catalog,
a generic anchored matcher for arbitrary patterns, and a brute force
embedding enumerator over arrays, used as the oracle in tests.  Each
closed form is written once, as masks over per-event fringe properties
that one class builds as bool arrays over a lockstep batch: count_batch
evaluates several forms on a batch, count_catalog on the one-row batch
of a network, and count_occurrences one id through count_catalog.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .networks import (Branching, Event, EventLogError, EventStructure,
                       Network, Reticulation, network_batch)

_DATA_DIR = Path(__file__).parent / "data" / "patterns"

BRUTE_MAX_HEIGHT = 4
BRUTE_MAX_LEAVES = 120
# child cells (rows x (pattern lineages + host lineages)) that one slice
# of the brute force's frontier may grow into.  On a 2-vCPU Xeon, h3-cii
# on a 120-leaf network took 0.70 s at 2^20 cells, 0.25 s at 2^22 and
# 0.19 s at 2^24, at a peak RSS of 39.1, 44.7 and 74.4 MB.
BRUTE_CELLS = 1 << 22


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class PatternSpec:
    """k initial lineages plus an event sequence (same slot semantics as
    the forward construction, acting on the pattern's own lineage list).

    Checked at construction, which keeps the built incidence as
    structure: at least one initial lineage and at most height + 1 (the
    E events of a connected pattern consume at most 2E lineages), every
    event in range, and one connected component; a PatternError
    otherwise."""

    initial_lineages: int
    events: Tuple[Event, ...]
    structure: EventStructure = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        k, E = self.initial_lineages, len(self.events)
        if k < 1:
            raise PatternError("need at least one initial lineage")
        if k > E + 1:
            raise PatternError(f"{k} initial lineages exceed height + 1 = "
                               f"{E + 1}, so the pattern is disconnected")
        s = EventStructure(initial_count=k)
        try:
            for ev in self.events:
                s.apply(ev)
        except EventLogError as exc:
            raise PatternError(str(exc)) from None
        if not _is_connected(s):
            raise PatternError("pattern is disconnected")
        object.__setattr__(self, "structure", s)

    @property
    def height(self) -> int:
        return len(self.events)


def _components(n_vertices: int, edges) -> List[int]:
    """The root of each vertex 0..n_vertices-1 after a union-find merges
    the endpoints of every edge."""
    parent = list(range(n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return [find(v) for v in range(n_vertices)]


def _is_connected(s: EventStructure) -> bool:
    # vertices: events 0..E-1 and initial lineages E..E+k-1 (the initial
    # lineages are lineages 0..k-1)
    E = s.n_events
    edges = [(E + l if s.prod_ev[l] == -1 else s.prod_ev[l], s.consumer[l])
             for l in range(s.n_lineages) if s.consumer[l] != -1]
    return len(set(_components(E + s.initial_count, edges))) == 1


TRIVIAL = PatternSpec(1, ())


# -- canonical form --------------------------------------------------------


def _valid_orders(s: EventStructure):
    """Topological orders of the event DAG (producer before consumer),
    depth first."""
    preds = [{s.prod_ev[l] for l in s.consumed[e]} - {-1}
             for e in range(s.n_events)]
    order: List[int] = []

    def extend():
        if len(order) == s.n_events:
            yield tuple(order)
        for e in range(s.n_events):
            if e not in order and preds[e].issubset(order):
                order.append(e)
                yield from extend()
                order.pop()

    return extend()


def _alignment_slots(pat: EventStructure, pe: int, swap: int) -> tuple:
    """Event pe's consumed then produced lineages under one alignment of
    its symmetry: swap exchanges a branching's children, or a
    reticulation's consumed pair and outer children together (the middle
    child is fixed).  The canonical form, the anchored matcher and the
    brute force share it."""
    if pat.kinds[pe] == "B":
        c1, c2 = pat.produced[pe]
        return pat.consumed[pe] + ((c2, c1) if swap else (c1, c2))
    px, py = pat.consumed[pe]
    pox, poy, pm = pat.produced[pe]
    if swap:
        px, py, pox, poy = py, px, poy, pox
    return (px, py, pox, poy, pm)


_EVENT_TEXT = {"B": "B({})->({},{})", "R": "R({},{})->({},{},{})"}


def _serialize_under(s: EventStructure, order, swaps) -> str:
    """The pattern's text with its events in the given order, each under
    the alignment of its swap bit, and lineages numbered by first use."""
    num: Dict[int, int] = {}
    parts = [f"k={s.initial_count}"]
    for e, sw in zip(order, swaps):
        parts.append(_EVENT_TEXT[s.kinds[e]].format(
            *[num.setdefault(l, len(num)) for l in _alignment_slots(s, e, sw)]))
    return "|".join(parts)


def canonicalize(p: PatternSpec) -> str:
    """Canonical string invariant under event re-ranking, branching child
    swaps, reticulation side swaps and initial-lineage renumbering: the
    least text over every topological order and every swap vector, so its
    cost grows exponentially with height."""
    s = p.structure
    return min(_serialize_under(s, order, swaps)
               for order in _valid_orders(s)
               for swaps in itertools.product((0, 1), repeat=s.n_events))


# -- generic matcher -------------------------------------------------------


def _match_plan(s: EventStructure):
    """Order pattern events so each one after the first touches a lineage
    of an earlier event; connectivity guarantees such an order."""
    E = s.n_events
    adj = [set() for _ in range(E)]
    for l in range(s.n_lineages):
        pe, ce = s.prod_ev[l], s.consumer[l]
        if pe != -1 and ce != -1:
            adj[pe].add(ce)
            adj[ce].add(pe)
    order = [0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for f in sorted(adj[e]):
                if f not in seen:
                    seen.add(f)
                    order.append(f)
                    nxt.append(f)
        frontier = nxt
    return order


def _count_embeddings(pat: EventStructure, net: EventStructure) -> int:
    """Number of embeddings of the pattern into the host structure.

    An embedding maps pattern events injectively to host events of the
    same kind, preserving lineage incidence up to the event symmetries;
    final pattern lineages must map to external host lineages.
    """
    E = pat.n_events
    if E == 0:
        return len(net.final_lineages())
    order = _match_plan(pat)
    pat_final = set(pat.final_lineages())

    lin_map: Dict[int, int] = {}
    used_ev = set()
    used_lin = set()
    count = 0

    def bind(pl, nl, bound):
        if pl in lin_map:
            return lin_map[pl] == nl
        if nl in used_lin:
            return False
        if pl in pat_final and not net.is_external(nl):
            return False
        lin_map[pl] = nl
        used_lin.add(nl)
        bound.append(pl)
        return True

    def try_event(pe, ne, swap, bound):
        return all(bind(pl, nl, bound) for pl, nl in zip(
            _alignment_slots(pat, pe, swap), net.consumed[ne] + net.produced[ne]))

    def candidates(pe):
        """Host events consistent with already-bound lineages."""
        for l in pat.consumed[pe]:
            if l in lin_map:
                ne = net.consumer[lin_map[l]]
                return [ne] if ne != -1 else []
        for l in pat.produced[pe]:
            if l in lin_map:
                ne = net.prod_ev[lin_map[l]]
                return [ne] if ne != -1 else []
        return [e for e in range(net.n_events) if net.kinds[e] == pat.kinds[pe]]

    def rec(i):
        nonlocal count
        if i == E:
            count += 1
            return
        pe = order[i]
        for ne in candidates(pe):
            if ne in used_ev or net.kinds[ne] != pat.kinds[pe]:
                continue
            # branching: child swap; reticulation: joint side swap (the
            # consumed pair and outer children swap together, the middle
            # child is fixed)
            for swap in (0, 1):
                bound: List[int] = []
                used_ev.add(ne)
                if try_event(pe, ne, swap, bound):
                    rec(i + 1)
                for pl in bound:
                    used_lin.discard(lin_map.pop(pl))
                used_ev.discard(ne)

    rec(0)
    return count


def count_occurrences_generic(network: Union[Network, EventStructure],
                              p: PatternSpec) -> int:
    net = network.structure if isinstance(network, Network) else network
    pat = p.structure
    return _divide(_count_embeddings(pat, net), _count_embeddings(pat, pat))


@dataclass(frozen=True)
class _BrutePlan:
    """What the brute force needs of one pattern.

    kinds[i] is the kind of pattern event i (rank order).  slots[i] holds
    one entry per alignment: the host slot positions and pattern lineages
    of the slots already bound by events before i, then those of the free
    slots; a host event's slots are its consumed then produced lineages.
    final lists the final pattern lineages."""

    kinds: Tuple[str, ...]
    slots: Tuple[Tuple[Tuple[np.ndarray, ...], ...], ...]
    n_lineages: int
    final: np.ndarray
    automorphisms: int = 1


@functools.lru_cache(maxsize=64)
def _brute_plan(p: PatternSpec) -> _BrutePlan:
    """The plan of a pattern of height >= 1, with its automorphism count
    from the same enumeration, pattern into itself."""
    pat = p.structure
    bound = set()
    slots = []
    for pe in range(pat.n_events):
        per_alignment = []
        for swap in (0, 1):
            pls = _alignment_slots(pat, pe, swap)
            b = [i for i, pl in enumerate(pls) if pl in bound]
            f = [i for i, pl in enumerate(pls) if pl not in bound]
            per_alignment.append(tuple(
                _frozen(x)
                for x in (b, [pls[i] for i in b], f, [pls[i] for i in f])))
        bound.update(pls)
        slots.append(tuple(per_alignment))
    plan = _BrutePlan(tuple(pat.kinds), tuple(slots), pat.n_lineages,
                      _frozen(pat.final_lineages()))
    aut = _embeddings(plan, pat)
    return dataclasses.replace(plan, automorphisms=aut)


def _frozen(values) -> np.ndarray:
    """A read-only index array: cached plans are shared by every caller."""
    a = np.array(values, dtype=np.intp)
    a.flags.writeable = False
    return a


def _embeddings(plan: _BrutePlan, host: EventStructure) -> int:
    """Number of injective event maps, kind by kind and in pattern rank
    order, that keep lineage incidence under some alignment of every
    event and land the final pattern lineages on external host lineages.

    The frontier of partial maps is a set of rows: lin (the host lineage
    of each pattern lineage, or -1) and taken (host lineages used).  Each
    pattern event tries every host event of its kind under both
    alignments; a candidate survives when its bound slots agree with lin
    and its free slots land on host lineages not yet taken.  A pattern
    event's produced lineages are free slots, so a host event already
    mapped (its produced lineages taken) is never mapped again: the maps
    are injective on host events.  The rows are expanded depth first, one
    slice of at most BRUTE_CELLS child cells at a time."""
    n_lin = len(host.consumer)
    width = plan.n_lineages + n_lin
    external = np.array(host.consumer) == -1
    cand = {kind: np.array([host.consumed[e] + host.produced[e]
                            for e in range(host.n_events) if host.kinds[e] == kind],
                           dtype=np.intp).reshape(-1, w)
            for kind, w in (("B", 3), ("R", 5))}

    def expand(depth, lin, taken) -> int:
        if depth == len(plan.kinds):
            return int(np.count_nonzero(external[lin[:, plan.final]].all(axis=1)))
        hosts = cand[plan.kinds[depth]]
        if not len(hosts):
            return 0
        step = max(1, BRUTE_CELLS // (2 * len(hosts) * width))
        total = 0
        for lo in range(0, len(lin), step):
            part = (lin[lo:lo + step], taken[lo:lo + step])
            children = [_extend(*part, hosts, *slots)
                        for slots in plan.slots[depth]]
            total += expand(depth + 1, *(np.concatenate(c) for c in zip(*children)))
        return total

    return expand(0, np.full((1, plan.n_lineages), -1, dtype=np.intp),
                  np.zeros((1, n_lin), dtype=bool))


def _extend(lin, taken, hosts, bpos, bpl, fpos, fpl):
    """Children of rows (lin, taken) that map the next pattern event to
    some host event under one alignment."""
    ok = ~taken[:, hosts[:, fpos]].any(axis=2)
    if len(bpos):
        ok &= (lin[:, bpl, None] == hosts[:, bpos].T).all(axis=1)
    r, j = np.nonzero(ok)
    new = hosts[j[:, None], fpos]
    lin, taken = lin[r], taken[r]
    lin[:, fpl] = new
    taken[np.arange(len(r))[:, None], new] = True
    return lin, taken


def count_occurrences_bruteforce(network: Union[Network, EventStructure],
                                 p: Union[str, PatternSpec]) -> int:
    """Oracle: enumerate injective event maps in pattern rank order, trying
    every host event of the right kind under both symmetry alignments,
    then divide the consistent embeddings by the automorphism count (the
    same enumeration, pattern into itself).  Unlike the anchored matcher
    this never uses incidence to pick candidates, only to reject them."""
    p = catalog()[p] if isinstance(p, str) else p
    net = network.structure if isinstance(network, Network) else network
    if p.height > BRUTE_MAX_HEIGHT:
        raise PatternError(f"brute force guard: height <= {BRUTE_MAX_HEIGHT}")
    if len(net.final_lineages()) > BRUTE_MAX_LEAVES:
        raise PatternError(f"brute force guard: <= {BRUTE_MAX_LEAVES} leaves")
    if p.height == 0:
        return len(net.final_lineages())
    plan = _brute_plan(p)
    return _divide(_embeddings(plan, net), plan.automorphisms)


def _divide(emb: int, aut: int) -> int:
    if emb % aut:
        raise PatternError(
            f"{emb} embeddings not divisible by {aut} automorphisms")
    return emb // aut


# -- closed-form counters for the catalog ----------------------------------


class _BatchFringe:
    """Per-event masks that the closed forms count, for every network of
    a LockstepBatch: (m, n-1) bool arrays whose entry (r, e) is set when
    event e of network r has the property.

    cherry: a branching with both children external.  full: a
    reticulation with all three produced lineages external.  For the
    first consumed lineage x of an event, with producer p: bp_x, p is a
    branching and x's sibling is external; ro_x, x is an outer lineage of
    a reticulation p whose other two lineages are external; rm_x, x is
    the middle lineage of a reticulation p whose outer lineages are
    external.  The root edge has no producer p, and no mask that needs
    one holds for it.  The _y masks are the same for the second
    consumed lineage y; they, and distinct (x and y come from different
    events), are meaningful only under full.  Among the full
    reticulations whose x and y come from one event p: same_branch, p is
    a branching; b_iv, x and y are an outer and the middle lineage of p
    and p's other outer lineage is external; b_v, x and y are p's outer
    lineages and its middle lineage is external.
    """

    def __init__(self, batch):
        ext = batch.consumer < 0
        retic = batch.kind
        branch = ~retic
        c1, c2, c3 = ext[:, 1::3], ext[:, 2::3], ext[:, 3::3]
        self.cherry = branch & c1 & c2
        self.full = retic & c1 & c2 & c3
        x, y = batch.consumed[:, :, 0], batch.consumed[:, :, 1]
        # per lineage: bp at 3e+1 and 3e+2, ro at 3e+1 and 3e+2, rm at 3e+3
        lineage = np.zeros_like(ext)
        lineage[:, 1::3], lineage[:, 2::3] = branch & c2, branch & c1
        self.bp_x, self.bp_y = _at(lineage, x), _at(lineage, y)
        lineage[:, 1::3], lineage[:, 2::3] = retic & c2 & c3, retic & c1 & c3
        self.ro_x, self.ro_y = _at(lineage, x), _at(lineage, y)
        lineage[:, 1::3], lineage[:, 2::3] = False, False
        lineage[:, 3::3] = retic & c1 & c2
        self.rm_x, self.rm_y = _at(lineage, x), _at(lineage, y)
        ev_x, ev_y = (x - 1) // 3, (y - 1) // 3
        self.distinct = ev_x != ev_y
        same = self.full & ~self.distinct
        self.same_branch = same & ~_at(retic, ev_x)
        same_retic = same & _at(retic, ev_x)
        one_mid = (x % 3 == 0) | (y % 3 == 0)
        # the lineage of the shared event that the reticulation left
        rem = np.where(same_retic, 9 * ev_x + 6 - x - y, 0)
        self.b_iv = same_retic & one_mid & _at(ext, rem)
        self.b_v = same_retic & ~one_mid & _at(ext, 3 * ev_x + 3)


def _at(a, idx):
    """a[r, idx[r, k]] for a C-contiguous a.  An index of -1 reads some
    other cell of a; the callers mask those entries out."""
    rows, width = a.shape
    return a.ravel()[idx + width * np.arange(rows)[:, None]]


# the catalog's closed forms: the masks of a fringe whose set entries,
# each one event, are the occurrences
_CLOSED_FORMS = {
    "cherry": lambda f: (f.cherry,),
    "trident": lambda f: (f.full,),
    "a-i": lambda f: (f.cherry & f.bp_x,),
    "a-ii": lambda f: (f.same_branch,),
    "b-i": lambda f: (f.full & f.bp_x, f.full & f.bp_y),
    "b-ii": lambda f: (f.cherry & f.ro_x,),
    "b-iii": lambda f: (f.cherry & f.rm_x,),
    "b-iv": lambda f: (f.b_iv,),
    "b-v": lambda f: (f.b_v,),
    "c-i": lambda f: (f.full & f.ro_x, f.full & f.ro_y),
    "c-ii": lambda f: (f.full & f.rm_x, f.full & f.rm_y),
    "h3-bi": lambda f: (f.full & f.bp_x & f.bp_y & f.distinct,),
    "h3-ci": lambda f: (f.full & f.ro_x & f.ro_y & f.distinct,),
    "h3-cii": lambda f: (f.full & f.rm_x & f.rm_y & f.distinct,),
}


def count_batch(batch, pattern_ids) -> np.ndarray:
    """(m, len(pattern_ids)) int64 occurrence counts of catalog patterns
    on every network of a networks.LockstepBatch, from one build of its
    fringe masks; row r equals the anchored matcher's counts on the
    network of row r."""
    try:
        forms = [_CLOSED_FORMS[pid] for pid in pattern_ids]
    except KeyError as err:
        raise KeyError(f"unknown pattern id {err.args[0]!r}") from None
    f = _BatchFringe(batch)
    out = np.empty((len(batch.kind), len(forms)), dtype=np.int64)
    for k, form in enumerate(forms):
        out[:, k] = sum(np.count_nonzero(m, axis=1) for m in form(f))
    return out


# -- catalog ---------------------------------------------------------------

_catalog_cache: Optional[Dict[str, PatternSpec]] = None
_canonical_to_id: Optional[Dict[str, str]] = None


def spec_from_dict(d) -> PatternSpec:
    """A pattern from its document (see load_pattern_file); a document of
    another shape is a PatternError naming the key."""

    def need(obj, key, where="", integer=False):
        if key not in obj:
            raise PatternError(f"{where}missing key {key!r}")
        if integer and type(obj[key]) is not int:
            raise PatternError(f"{where}{key!r} must be an integer, "
                               f"not {obj[key]!r}")
        return obj[key]

    if not isinstance(d, dict):
        raise PatternError("the document must be an object")
    k = need(d, "initial_lineages", integer=True)
    docs = need(d, "events")
    if not isinstance(docs, list) or not all(isinstance(e, dict) for e in docs):
        raise PatternError("'events' must be a list of objects")
    events: List[Event] = []
    for i, ev in enumerate(docs):
        where = f"event {i}: "
        kind = need(ev, "type", where)
        if kind == "branch":
            events.append(Branching(need(ev, "a", where, integer=True)))
        elif kind == "retic":
            events.append(Reticulation(need(ev, "a", where, integer=True),
                                       need(ev, "b", where, integer=True)))
        else:
            raise PatternError(f"{where}'type' is {kind!r}, not 'branch' "
                               f"or 'retic'")
    return PatternSpec(k, tuple(events))


def load_pattern_file(path) -> PatternSpec:
    """A pattern from its JSON document, {"initial_lineages": k,
    "events": [{"type": "branch", "a": i} | {"type": "retic", "a": i,
    "b": j}, ...]} with int k, i and j; a malformed or invalid pattern, or
    one nested too deeply to parse, is a PatternError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise PatternError(f"{path}: the document is nested too "
                               f"deeply") from None
    try:
        return spec_from_dict(doc)
    except PatternError as err:
        raise PatternError(f"{path}: {err}") from None


def catalog() -> Dict[str, PatternSpec]:
    """The shipped patterns: height 1 (cherry, trident), the nine height-2
    shapes, and the height-3 overlap shapes, each under its file's name
    with "-" for "_" (its document's id)."""
    global _catalog_cache
    if _catalog_cache is None:
        _catalog_cache = {path.stem.replace("_", "-"): load_pattern_file(path)
                          for path in sorted(_DATA_DIR.glob("*.json"))}
    return dict(_catalog_cache)


def _canonical_index() -> Dict[str, str]:
    global _canonical_to_id
    if _canonical_to_id is None:
        _canonical_to_id = {canonicalize(spec): pid
                            for pid, spec in catalog().items()}
    return _canonical_to_id


def resolve(p: Union[str, PatternSpec]) -> Tuple[Optional[str], PatternSpec]:
    """Map a pattern or id to (catalog id or None, spec).  A spec whose
    height and initial lineages no catalog shape shares is not
    canonicalised: isomorphic shapes share both."""
    cat = catalog()
    if isinstance(p, str):
        if p not in cat:
            raise KeyError(f"unknown pattern id {p!r}")
        return p, cat[p]
    size = (p.height, p.initial_lineages)
    if all((q.height, q.initial_lineages) != size for q in cat.values()):
        return None, p
    return _canonical_index().get(canonicalize(p)), p


def count_occurrences(network: Union[Network, EventStructure],
                      p: Union[str, PatternSpec]) -> int:
    """Occurrences of the pattern on the fringe of the network.

    On a Network, catalog shapes, by id or by spec, are counted by
    count_catalog from their closed forms.  Anything else, and every
    pattern on a bare EventStructure (such as a pattern's own structure,
    whose initial lineages have no producer), goes through the anchored
    matcher.  Both agree with the brute force oracle.
    """
    pid, spec = resolve(p)
    if pid is not None and isinstance(network, Network):
        return count_catalog(network, (pid,))[0]
    return count_occurrences_generic(network, spec)


def count_catalog(network: Network,
                  pattern_ids: Sequence[str]) -> Tuple[int, ...]:
    """The occurrences of each catalog id on the network, in order: the
    row of count_batch on the network's one-row lockstep batch."""
    return tuple(count_batch(network_batch(network), pattern_ids)[0].tolist())


# -- decomposition ---------------------------------------------------------


def maximal_events(p: PatternSpec) -> List[int]:
    s = p.structure
    return [e for e in range(s.n_events)
            if all(s.consumer[l] == -1 for l in s.produced[e])]
