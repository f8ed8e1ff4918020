"""Fringe patterns: specification, canonical form, and occurrence counting.

A pattern is a connected substructure grown from k initial lineages by
branching/reticulation events, all of whose final lineages must land on
external lineages of the host network.  Matching is by unranked shape:
relative ranks of pattern events are ignored, and occurrences are counted
modulo the pattern's own symmetries (branching child swap, reticulation
side swap).  Overlapping occurrences count separately.

Two counting routes are provided: closed forms for the shipped catalog,
and a brute force embedding enumerator over arrays for any pattern,
which is also the oracle for the closed forms.  Each closed form is
written once, as masks over per-event fringe properties.
They are evaluated once, on every 14-bit event code, into a count
table: count_batches reads it at the code of every event of a run of
lockstep batches, count_batch of one batch, count_catalog on the
one-row batch of a network, and count_occurrences one id through
count_catalog.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    child is fixed).  The canonical form and the brute force share it."""
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


# -- brute force -----------------------------------------------------------


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


def count_occurrences_generic(network: Union[Network, EventStructure],
                              p: PatternSpec) -> int:
    """Occurrences of any pattern on a network or a bare structure, with
    no guard: the external lineages at height 0, otherwise _embeddings of
    the pattern into the host over its automorphisms."""
    net = network.structure if isinstance(network, Network) else network
    if p.height == 0:
        return len(net.final_lineages())
    plan = _brute_plan(p)
    return _divide(_embeddings(plan, net), plan.automorphisms)


def count_occurrences_bruteforce(network: Union[Network, EventStructure],
                                 p: Union[str, PatternSpec]) -> int:
    """Oracle: count_occurrences_generic behind the guards, height <=
    BRUTE_MAX_HEIGHT and <= BRUTE_MAX_LEAVES leaves.  Incidence never
    picks a host event's candidates, it only rejects them."""
    p = catalog()[p] if isinstance(p, str) else p
    net = network.structure if isinstance(network, Network) else network
    if p.height > BRUTE_MAX_HEIGHT:
        raise PatternError(f"brute force guard: height <= {BRUTE_MAX_HEIGHT}")
    if len(net.final_lineages()) > BRUTE_MAX_LEAVES:
        raise PatternError(f"brute force guard: <= {BRUTE_MAX_LEAVES} leaves")
    return count_occurrences_generic(net, p)


def _divide(emb: int, aut: int) -> int:
    if emb % aut:
        raise PatternError(
            f"{emb} embeddings not divisible by {aut} automorphisms")
    return emb // aut


# -- closed-form counters for the catalog ----------------------------------


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
_FORM_COLUMN = {pid: k for k, pid in enumerate(_CLOSED_FORMS)}
_CODE_BITS = 14


class _CodeFringe:
    """The masks that the closed forms count, as bool arrays over every
    event code (see _event_codes for its bits).

    cherry: a branching with both children external.  full: a
    reticulation with all three produced lineages external.  bp_x, ro_x,
    rm_x, bp_y, ro_y, rm_y and distinct are the code's bits 4-10.
    same_branch, b_iv and b_v are its bits 11-13 at a full reticulation
    whose x and y come from one event."""

    def __init__(self):
        code = np.arange(1 << _CODE_BITS, dtype=np.uint16)
        bits = [code & 1 << k != 0 for k in range(_CODE_BITS)]
        retic, c1, c2, c3 = bits[:4]
        self.cherry = ~retic & c1 & c2
        self.full = retic & c1 & c2 & c3
        (self.bp_x, self.ro_x, self.rm_x, self.bp_y, self.ro_y, self.rm_y,
         self.distinct) = bits[4:11]
        same = self.full & ~self.distinct
        self.same_branch, self.b_iv, self.b_v = (same & b for b in bits[11:])


@functools.cache
def _pair_bits() -> np.ndarray:
    """Bits 4-9 and 11-13 of an event's code (see _event_codes), indexed
    by x | y << 8 for the lineage codes x and y of its two consumed
    lineages.

    A lineage's code is its producer's own code plus 16 times its
    position: 0, 1 or 2 for lineage 3p+1, 3p+2 or 3p+3 of producer p.
    The root edge, which has no producer, has code 0: no role."""
    lin = np.arange(64)
    retic, pos = lin & 1, lin >> 4
    ext = [lin >> k & 1 for k in (1, 2, 3)]  # by position
    # the other two lineages of the lineage's producer, the sibling first
    a = np.where(pos == 0, ext[1], ext[0])
    b = np.where(pos == 2, ext[1], ext[2])
    outer = pos < 2
    role = ((1 - retic) & outer & a
            | (retic & outer & a & b) << 1
            | (retic & (pos == 2) & a & b) << 2)
    # y down the rows, x across the columns; bits 11-13 read x's
    # producer as the one event both come from, so x and y hold two of
    # its three positions and rem is the third
    x, y = lin[None, :], lin[:, None]
    one_mid = (pos[x] == 2) | (pos[y] == 2)
    rem = np.clip(3 - pos[x] - pos[y], 0, 2)
    same = (1 - retic[x]
            | (retic[x] & one_mid & x >> 1 + rem) << 1
            | (retic[x] & ~one_mid & x >> 3) << 2)
    table = np.zeros((64, 256), dtype=np.int16)
    table[:, :64] = role[x] << 4 | role[y] << 7 | same << 11
    # cached tables are shared by every caller
    table.flags.writeable = False
    return table.ravel()


def _event_codes(batch) -> np.ndarray:
    """(n-1, m) int16 code of every event of a networks.LockstepBatch,
    step-major like the batch: 14 bits that fix every closed form's
    count at the event.

    Bits 0-3, the event's own code: bit 0 is set for a reticulation,
    bits 1, 2 and 3 when its produced lineage 3e+1, 3e+2 or 3e+3 is
    external (3e+3 of a branching is unused, so never external).  Bits
    4-6 are the roles bp, ro and rm of the first consumed lineage x and
    bits 7-9 those of the second, y.  With p the lineage's producer: bp,
    p is a branching and the lineage's sibling is external; ro, the
    lineage is an outer lineage of a reticulation p whose other two
    lineages are external; rm, it is the middle lineage of a
    reticulation p whose outer lineages are external.  Bit 10 is set
    when x and y come from different events.  Bits 11-13 read x's
    producer p as the event both come from: p is a branching; x and y
    are an outer and the middle lineage of a reticulation p whose other
    outer lineage is external (b-iv); x and y are the outer lineages of
    a reticulation p whose middle lineage is external (b-v).  The bits
    of y, bit 10 and bits 11-13 hold some value for a branching, which
    reads no y; the closed forms read them only under full."""
    kind, consumed = batch.kind, batch.consumed
    n_events, m = kind.shape
    rows = np.arange(m)
    # per lineage, lineage-major: lineage l of row r at l * m + r; each
    # flat index is built in place in one intp buffer
    ext = np.zeros((3 * n_events + 1, m), dtype=np.uint8)
    idx = batch.open_slots.astype(np.intp)
    idx *= m
    idx += rows[:, None]
    ext.ravel()[idx] = 1
    own = (kind.view(np.uint8) | ext[1::3] << 1 | ext[2::3] << 2
           | ext[3::3] << 3)
    lin = ext
    for pos in range(3):
        np.add(own, 16 * pos, out=lin[1 + pos::3])
    # x and y of each event side by side; a branching's y, -1, reads
    # some lineage code
    xy = consumed.reshape(n_events, 2 * m)
    idx = xy.astype(np.intp)
    idx *= m
    idx += np.repeat(rows, 2)
    pair = lin.ravel()[idx]
    # the pair table's index, x | y << 8, widened into the front of idx,
    # which np.take would otherwise copy it into
    at = idx.ravel()[:n_events * m].reshape(n_events, m)
    at[:] = pair.view(np.uint16)
    code = np.take(_pair_bits(), at)
    # then each lineage's producer, event (l + 2) // 3 - 1, in int32
    # (int64 division is three times slower) in the same buffer
    ev = idx.view(np.int32).ravel()[:2 * n_events * m].reshape(n_events,
                                                                2 * m)
    np.add(xy, 2, out=ev)
    ev //= 3
    code |= np.left_shift(ev[:, 0::2] != ev[:, 1::2], 10, dtype=np.int16)
    code |= own
    return code


@functools.cache
def _count_table() -> np.ndarray:
    """One 16-byte record per event code c: byte k is the occurrences of
    the k-th closed form at an event of code c, its masks summed, and
    bytes 14 and 15 are zero.  Built on first use; a gather by code
    moves whole records."""
    f = _CodeFringe()
    table = np.zeros((1 << _CODE_BITS, 16), dtype=np.uint8)
    for k, form in enumerate(_CLOSED_FORMS.values()):
        for mask in form(f):
            table[:, k] += mask
    table.flags.writeable = False
    return table.view("V16")[:, 0]


def count_batch(batch, pattern_ids) -> np.ndarray:
    """(m, len(pattern_ids)) int64 occurrence counts of catalog patterns
    on every network of a networks.LockstepBatch.  Row r equals the
    brute force's counts on the network of row r."""
    return count_batches((batch,), pattern_ids, batch.kind.shape[1])


def count_batches(batches: Iterable, pattern_ids, m: int) -> np.ndarray:
    """(m, len(pattern_ids)) int64 occurrence counts of catalog patterns
    on the networks of an iterable of networks.LockstepBatch of one leaf
    count, m rows in all, in order.  Each batch's count table records,
    gathered at every event's code, are summed over its events into its
    rows of one (m, 16) array, uint16 below 2^15 events; the ids'
    columns are taken from it once.  No batch is held while the next one
    is drawn."""
    try:
        cols = [_FORM_COLUMN[pid] for pid in pattern_ids]
    except KeyError as err:
        raise KeyError(f"unknown pattern id {err.args[0]!r}") from None
    table = _count_table()
    sums = None
    a = 0
    for batch in batches:
        codes = _event_codes(batch)
        if sums is None:
            # an event adds at most 2 to a count
            sums = np.empty((m, table.itemsize), dtype=np.uint16
                            if len(codes) < 1 << 15 else np.int64)
        b = a + codes.shape[1]
        np.take(table, codes).view(np.uint8).reshape(
            codes.shape + (table.itemsize,)).sum(axis=0, dtype=sums.dtype,
                                                 out=sums[a:b])
        a = b
        del batch, codes
    if a != m or sums is None:
        raise ValueError(f"the batches hold {a} rows, not {m}")
    return sums[:, cols].astype(np.int64)


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
    whose initial lineages have no producer), is enumerated by
    count_occurrences_generic, the brute force without its guards.
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
