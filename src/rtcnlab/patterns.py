"""Fringe patterns: specification, canonical form, and occurrence counting.

A pattern is a connected substructure grown from k initial lineages by
branching/reticulation events, all of whose final lineages must land on
external lineages of the host network.  Matching is by unranked shape:
relative ranks of pattern events are ignored, and occurrences are counted
modulo the pattern's own symmetries (branching child swap, reticulation
side swap).  Overlapping occurrences count separately.

Three counting routes are provided: closed-form counters for the shipped
catalog, a generic anchored matcher for arbitrary patterns, and a brute
force embedding enumerator used as the oracle in tests.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .networks import (Branching, Event, EventLogError, EventStructure,
                       Network, Reticulation, ROLE_RETIC_MIDDLE,
                       ROLE_RETIC_OUTER)

_DATA_DIR = Path(__file__).parent / "data" / "patterns"

BRUTE_MAX_HEIGHT = 4
BRUTE_MAX_LEAVES = 120


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class PatternSpec:
    """k initial lineages plus an event sequence (same slot semantics as
    the forward construction, acting on the pattern's own lineage list)."""

    initial_lineages: int
    events: Tuple[Event, ...]

    @property
    def height(self) -> int:
        return len(self.events)

    def structure(self) -> EventStructure:
        s = EventStructure(initial_count=self.initial_lineages)
        for ev in self.events:
            s.apply(ev)
        return s

    def footprint(self) -> int:
        return len(self.structure().final_lineages())

    def validate(self) -> None:
        if self.initial_lineages < 1:
            raise PatternError("need at least one initial lineage")
        try:
            s = self.structure()
        except EventLogError as exc:
            raise PatternError(str(exc)) from None
        if not _is_connected(s):
            raise PatternError("pattern is disconnected")


TRIVIAL = PatternSpec(1, ())


def _is_connected(s: EventStructure) -> bool:
    # vertices: events 0..E-1 and initial lineages E..E+k-1
    k = s.initial_count
    E = s.n_events
    if E == 0:
        return k == 1
    parent = list(range(E + k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for l in range(s.n_lineages):
        pe = s.prod_ev[l]
        ce = s.consumer[l]
        pv = (E + l) if pe == -1 else pe  # initial lineages are the first k
        if ce != -1:
            union(pv, ce)
    root = find(0)
    return all(find(v) == root for v in range(E + k))


# -- canonical form --------------------------------------------------------


@dataclass(frozen=True)
class CanonicalPattern:
    text: str
    automorphisms: int


def _valid_orders(s: EventStructure):
    """Topological orders of the event DAG (producer before consumer)."""
    E = s.n_events
    preds = [set() for _ in range(E)]
    for e in range(E):
        for l in s.consumed[e]:
            if s.prod_ev[l] != -1:
                preds[e].add(s.prod_ev[l])
    for perm in itertools.permutations(range(E)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[p] < pos[e] for e in range(E) for p in preds[e]):
            yield perm


def _serialize_under(s: EventStructure, order, swaps) -> str:
    num: Dict[int, int] = {}
    counter = itertools.count()

    def label(l):
        if l not in num:
            num[l] = next(counter)
        return num[l]

    parts = [f"k={s.initial_count}"]
    for e, sw in zip(order, swaps):
        if s.kinds[e] == "B":
            (x,) = s.consumed[e]
            c1, c2 = s.produced[e]
            if sw:
                c1, c2 = c2, c1
            parts.append(f"B({label(x)})->({label(c1)},{label(c2)})")
        else:
            x, y = s.consumed[e]
            ox, oy, m = s.produced[e]
            if sw:
                x, y, ox, oy = y, x, oy, ox
            parts.append(f"R({label(x)},{label(y)})->({label(ox)},{label(oy)},{label(m)})")
    return "|".join(parts)


def canonicalize(p: PatternSpec) -> CanonicalPattern:
    """Canonical string invariant under event re-ranking, branching child
    swaps, reticulation side swaps and initial-lineage renumbering."""
    p.validate()
    s = p.structure()
    E = s.n_events
    if E == 0:
        return CanonicalPattern("k=1", 1)
    best = None
    for order in _valid_orders(s):
        for swaps in itertools.product((0, 1), repeat=E):
            text = _serialize_under(s, order, swaps)
            if best is None or text < best:
                best = text
    aut = _count_embeddings(s, s, require_external=True)
    return CanonicalPattern(best, aut)


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
    if len(order) != E:
        raise PatternError("pattern events are not connected")
    return order


def _event_alignments(kind):
    # branching: child swap; reticulation: joint side swap (consumed pair
    # and outer children swap together, the middle child is fixed)
    return (0, 1)


def _count_embeddings(pat: EventStructure, net: EventStructure,
                      require_external: bool = True) -> int:
    """Number of embeddings of the pattern into the host structure.

    An embedding maps pattern events injectively to host events of the
    same kind, preserving lineage incidence up to the event symmetries;
    final pattern lineages must map to external host lineages.
    """
    E = pat.n_events
    if E == 0:
        return len(net.final_lineages()) if require_external else net.n_lineages
    order = _match_plan(pat)
    pat_final = set(pat.final_lineages())

    ev_map: Dict[int, int] = {}
    lin_map: Dict[int, int] = {}
    used_ev = set()
    used_lin = set()
    count = 0

    def bind(pl, nl, bound):
        if pl in lin_map:
            return lin_map[pl] == nl
        if nl in used_lin:
            return False
        if require_external and pl in pat_final and not net.is_external(nl):
            return False
        lin_map[pl] = nl
        used_lin.add(nl)
        bound.append(pl)
        return True

    def try_event(pe, ne, swap, bound):
        if pat.kinds[pe] == "B":
            pcons = pat.consumed[pe]
            ncons = net.consumed[ne]
            pprod = pat.produced[pe]
            nprod = net.produced[ne]
            if swap:
                pprod = (pprod[1], pprod[0])
        else:
            px, py = pat.consumed[pe]
            pox, poy, pm = pat.produced[pe]
            if swap:
                px, py, pox, poy = py, px, poy, pox
            pcons = (px, py)
            pprod = (pox, poy, pm)
            ncons = net.consumed[ne]
            nprod = net.produced[ne]
        for pl, nl in zip(pcons + pprod, ncons + nprod):
            if not bind(pl, nl, bound):
                return False
        return True

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
            for swap in _event_alignments(pat.kinds[pe]):
                bound: List[int] = []
                ev_map[pe] = ne
                used_ev.add(ne)
                if try_event(pe, ne, swap, bound):
                    rec(i + 1)
                for pl in bound:
                    used_lin.discard(lin_map.pop(pl))
                used_ev.discard(ne)
                ev_map.pop(pe, None)

    rec(0)
    return count


def count_occurrences_generic(network: Union[Network, EventStructure],
                              p: PatternSpec) -> int:
    net = network.structure if isinstance(network, Network) else network
    p.validate()
    pat = p.structure()
    emb = _count_embeddings(pat, net)
    aut = _count_embeddings(pat, pat)
    assert emb % aut == 0, "embedding count not divisible by automorphisms"
    return emb // aut


def count_occurrences_bruteforce(network: Union[Network, EventStructure],
                                 p: Union[str, PatternSpec]) -> int:
    """Oracle: enumerate injective event maps in pattern rank order, trying
    every host event of the right kind under both symmetry alignments,
    then divide the consistent embeddings by the automorphism count.
    Unlike the anchored matcher this never uses incidence to pick
    candidates, only to reject assignments."""
    p = catalog()[p] if isinstance(p, str) else p
    net = network.structure if isinstance(network, Network) else network
    if p.height > BRUTE_MAX_HEIGHT:
        raise PatternError(f"brute force guard: height <= {BRUTE_MAX_HEIGHT}")
    if len(net.final_lineages()) > BRUTE_MAX_LEAVES:
        raise PatternError(f"brute force guard: <= {BRUTE_MAX_LEAVES} leaves")
    p.validate()
    pat = p.structure()
    E = pat.n_events
    if E == 0:
        return len(net.final_lineages())
    pat_final = set(pat.final_lineages())
    by_kind = {"B": [], "R": []}
    for e in range(net.n_events):
        by_kind[net.kinds[e]].append(e)

    lin_map: Dict[int, int] = {}
    used_lin = set()
    used_ev = set()
    emb = 0

    def slots(pe, swap):
        if pat.kinds[pe] == "B":
            pl = pat.consumed[pe] + (pat.produced[pe][::-1] if swap
                                     else pat.produced[pe])
        else:
            px, py = pat.consumed[pe]
            pox, poy, pm = pat.produced[pe]
            if swap:
                px, py, pox, poy = py, px, poy, pox
            pl = (px, py, pox, poy, pm)
        return pl

    def rec(pe):
        nonlocal emb
        if pe == E:
            if all(net.is_external(lin_map[l]) for l in pat_final):
                emb += 1
            return
        for ne in by_kind[pat.kinds[pe]]:
            if ne in used_ev:
                continue
            nl = net.consumed[ne] + net.produced[ne]
            for swap in (0, 1):
                bound = []
                ok = True
                for a, b in zip(slots(pe, swap), nl):
                    if a in lin_map:
                        if lin_map[a] != b:
                            ok = False
                            break
                    elif b in used_lin:
                        ok = False
                        break
                    else:
                        lin_map[a] = b
                        used_lin.add(b)
                        bound.append(a)
                if ok:
                    used_ev.add(ne)
                    rec(pe + 1)
                    used_ev.discard(ne)
                for a in bound:
                    used_lin.discard(lin_map.pop(a))

    rec(0)
    aut = _count_embeddings(pat, pat)
    assert emb % aut == 0
    return emb // aut


# -- closed-form counters for the catalog ----------------------------------


def _ext(s, l):
    return s.consumer[l] == -1


def _branch_parent(s, l):
    """Producer of l if it is a branching event with external sibling."""
    e = s.prod_ev[l]
    if e == -1 or s.kinds[e] != "B":
        return None
    a, b = s.produced[e]
    return e if _ext(s, b if l == a else a) else None


def _retic_parent_outer(s, l):
    e = s.prod_ev[l]
    if e == -1 or s.kinds[e] != "R" or s.prod_role[l] != ROLE_RETIC_OUTER:
        return None
    a, b, m = s.produced[e]
    other = b if l == a else a
    return e if _ext(s, other) and _ext(s, m) else None


def _retic_parent_mid(s, l):
    if s.prod_role[l] != ROLE_RETIC_MIDDLE:
        return None
    e = s.prod_ev[l]
    a, b, m = s.produced[e]
    return e if _ext(s, a) and _ext(s, b) else None


def _full_retic_events(s):
    for e in range(s.n_events):
        if s.kinds[e] == "R":
            a, b, m = s.produced[e]
            if _ext(s, a) and _ext(s, b) and _ext(s, m):
                yield e


def _count_cherry(s):
    return sum(1 for e in range(s.n_events)
               if s.kinds[e] == "B"
               and _ext(s, s.produced[e][0]) and _ext(s, s.produced[e][1]))


def _count_trident(s):
    return sum(1 for _ in _full_retic_events(s))


def _count_a_i(s):
    c = 0
    for f in range(1, s.n_events):
        if s.kinds[f] != "B":
            continue
        a, b = s.produced[f]
        if _ext(s, a) and _ext(s, b) and _branch_parent(s, s.consumed[f][0]) is not None:
            c += 1
    return c


def _count_a_ii(s):
    c = 0
    for r in _full_retic_events(s):
        x, y = s.consumed[r]
        ex, ey = s.prod_ev[x], s.prod_ev[y]
        if ex != -1 and ex == ey and s.kinds[ex] == "B":
            c += 1
    return c


def _count_b_i(s):
    c = 0
    for r in _full_retic_events(s):
        for l in s.consumed[r]:
            if _branch_parent(s, l) is not None:
                c += 1
    return c


def _count_b_ii(s):
    c = 0
    for f in range(1, s.n_events):
        if s.kinds[f] != "B":
            continue
        a, b = s.produced[f]
        if _ext(s, a) and _ext(s, b) and \
                _retic_parent_outer(s, s.consumed[f][0]) is not None:
            c += 1
    return c


def _count_b_iii(s):
    c = 0
    for f in range(1, s.n_events):
        if s.kinds[f] != "B":
            continue
        a, b = s.produced[f]
        if _ext(s, a) and _ext(s, b) and \
                _retic_parent_mid(s, s.consumed[f][0]) is not None:
            c += 1
    return c


def _count_b_iv(s):
    c = 0
    for r in _full_retic_events(s):
        x, y = s.consumed[r]
        ex, ey = s.prod_ev[x], s.prod_ev[y]
        if ex == -1 or ex != ey or s.kinds[ex] != "R":
            continue
        roles = {s.prod_role[x], s.prod_role[y]}
        if roles == {ROLE_RETIC_OUTER, ROLE_RETIC_MIDDLE}:
            rem = [l for l in s.produced[ex] if l not in (x, y)]
            if all(_ext(s, l) for l in rem):
                c += 1
    return c


def _count_b_v(s):
    c = 0
    for r in _full_retic_events(s):
        x, y = s.consumed[r]
        ex, ey = s.prod_ev[x], s.prod_ev[y]
        if ex == -1 or ex != ey or s.kinds[ex] != "R":
            continue
        if s.prod_role[x] == ROLE_RETIC_OUTER and s.prod_role[y] == ROLE_RETIC_OUTER:
            if _ext(s, s.produced[ex][2]):
                c += 1
    return c


def _count_c_i(s):
    c = 0
    for r in _full_retic_events(s):
        for l in s.consumed[r]:
            e = s.prod_ev[l]
            if e != -1 and s.kinds[e] == "R" and s.prod_role[l] == ROLE_RETIC_OUTER:
                a, b, m = s.produced[e]
                other = b if l == a else a
                if _ext(s, other) and _ext(s, m):
                    c += 1
    return c


def _count_c_ii(s):
    c = 0
    for r in _full_retic_events(s):
        for l in s.consumed[r]:
            if _retic_parent_mid(s, l) is not None:
                c += 1
    return c


def _count_h3_bi(s):
    c = 0
    for r in _full_retic_events(s):
        x, y = s.consumed[r]
        e1, e2 = _branch_parent(s, x), _branch_parent(s, y)
        if e1 is not None and e2 is not None and e1 != e2:
            c += 1
    return c


def _count_h3_ci(s):
    c = 0
    for r in _full_retic_events(s):
        x, y = s.consumed[r]
        e1, e2 = _retic_parent_outer(s, x), _retic_parent_outer(s, y)
        if e1 is not None and e2 is not None and e1 != e2:
            c += 1
    return c


def _count_h3_cii(s):
    c = 0
    for r in _full_retic_events(s):
        x, y = s.consumed[r]
        e1, e2 = _retic_parent_mid(s, x), _retic_parent_mid(s, y)
        if e1 is not None and e2 is not None and e1 != e2:
            c += 1
    return c


_FAST_COUNTERS = {
    "cherry": _count_cherry,
    "trident": _count_trident,
    "a-i": _count_a_i,
    "a-ii": _count_a_ii,
    "b-i": _count_b_i,
    "b-ii": _count_b_ii,
    "b-iii": _count_b_iii,
    "b-iv": _count_b_iv,
    "b-v": _count_b_v,
    "c-i": _count_c_i,
    "c-ii": _count_c_ii,
    "h3-bi": _count_h3_bi,
    "h3-ci": _count_h3_ci,
    "h3-cii": _count_h3_cii,
}


# -- the same counters over a lockstep batch -------------------------------


class _BatchFringe:
    """Per-event masks (m, n-1) of a LockstepBatch that the batch
    counters sum.

    cherry: a branching with both children external; full: a
    reticulation with all three lineages external.  bp_x, ro_x and rm_x
    hold where _branch_parent, _retic_parent_outer and _retic_parent_mid
    of the event's first consumed lineage x are not None; the _y masks
    are the same for the second one, y, and are meaningful only under
    full (a branching's y is -1).  distinct: x and y come from different
    events.  same_branch, b_iv and b_v: full reticulations whose x and y
    come from one event, as in _count_a_ii, _count_b_iv and _count_b_v.
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


def _rowsum(*masks):
    return sum(np.count_nonzero(mask, axis=1) for mask in masks)


_BATCH_COUNTERS = {
    "cherry": lambda f: _rowsum(f.cherry),
    "trident": lambda f: _rowsum(f.full),
    "a-i": lambda f: _rowsum(f.cherry & f.bp_x),
    "a-ii": lambda f: _rowsum(f.same_branch),
    "b-i": lambda f: _rowsum(f.full & f.bp_x, f.full & f.bp_y),
    "b-ii": lambda f: _rowsum(f.cherry & f.ro_x),
    "b-iii": lambda f: _rowsum(f.cherry & f.rm_x),
    "b-iv": lambda f: _rowsum(f.b_iv),
    "b-v": lambda f: _rowsum(f.b_v),
    "c-i": lambda f: _rowsum(f.full & f.ro_x, f.full & f.ro_y),
    "c-ii": lambda f: _rowsum(f.full & f.rm_x, f.full & f.rm_y),
    "h3-bi": lambda f: _rowsum(f.full & f.bp_x & f.bp_y & f.distinct),
    "h3-ci": lambda f: _rowsum(f.full & f.ro_x & f.ro_y & f.distinct),
    "h3-cii": lambda f: _rowsum(f.full & f.rm_x & f.rm_y & f.distinct),
}


def count_batch(batch, pattern_ids) -> np.ndarray:
    """(m, len(pattern_ids)) int64 occurrence counts of catalog patterns
    on every network of a networks.LockstepBatch; row r equals
    count_occurrences on the network of row r."""
    f = _BatchFringe(batch)
    out = np.empty((len(batch.kind), len(pattern_ids)), dtype=np.int64)
    for k, pid in enumerate(pattern_ids):
        out[:, k] = _BATCH_COUNTERS[pid](f)
    return out


# -- catalog ---------------------------------------------------------------

_catalog_cache: Optional[Dict[str, PatternSpec]] = None
_canonical_to_id: Optional[Dict[str, str]] = None


def spec_from_dict(d: dict) -> PatternSpec:
    events: List[Event] = []
    for ev in d["events"]:
        if ev["type"] == "branch":
            events.append(Branching(ev["a"]))
        elif ev["type"] == "retic":
            events.append(Reticulation(ev["a"], ev["b"]))
        else:
            raise PatternError(f"unknown event type {ev['type']!r}")
    return PatternSpec(d["initial_lineages"], tuple(events))


def spec_to_dict(p: PatternSpec) -> dict:
    events = []
    for ev in p.events:
        if isinstance(ev, Branching):
            events.append({"type": "branch", "a": ev.position})
        else:
            events.append({"type": "retic", "a": ev.pos_a, "b": ev.pos_b})
    return {"initial_lineages": p.initial_lineages, "events": events}


def load_pattern_file(path) -> PatternSpec:
    with open(path, "r", encoding="utf-8") as fh:
        p = spec_from_dict(json.load(fh))
    p.validate()
    return p


def catalog() -> Dict[str, PatternSpec]:
    """The shipped patterns: height 1 (cherry, trident), the nine height-2
    shapes, and the height-3 overlap shapes."""
    global _catalog_cache
    if _catalog_cache is None:
        entries = {}
        for path in sorted(_DATA_DIR.glob("*.json")):
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
            spec = spec_from_dict(d)
            spec.validate()
            entries[d["id"]] = spec
        _catalog_cache = entries
    return dict(_catalog_cache)


def catalog_footprints() -> Dict[str, int]:
    return {pid: spec.footprint() for pid, spec in catalog().items()}


def _canonical_index() -> Dict[str, str]:
    global _canonical_to_id
    if _canonical_to_id is None:
        _canonical_to_id = {canonicalize(spec).text: pid
                            for pid, spec in catalog().items()}
    return _canonical_to_id


def resolve(p: Union[str, PatternSpec]) -> Tuple[Optional[str], PatternSpec]:
    """Map a pattern or id to (catalog id or None, spec)."""
    if isinstance(p, str):
        cat = catalog()
        if p not in cat:
            raise KeyError(f"unknown pattern id {p!r}")
        return p, cat[p]
    pid = _canonical_index().get(canonicalize(p).text)
    return pid, p


def count_occurrences(network: Union[Network, EventStructure],
                      p: Union[str, PatternSpec]) -> int:
    """Occurrences of the pattern on the fringe of the network.

    Catalog shapes use O(events) closed-form counters; anything else goes
    through the anchored matcher.  Both agree with the brute force oracle.
    """
    net = network.structure if isinstance(network, Network) else network
    pid, spec = resolve(p)
    if pid is not None:
        return _FAST_COUNTERS[pid](net)
    return count_occurrences_generic(net, spec)


# -- decomposition ---------------------------------------------------------


def maximal_events(p: PatternSpec) -> List[int]:
    s = p.structure()
    return [e for e in range(s.n_events)
            if all(s.consumer[l] == -1 for l in s.produced[e])]


def remove_event(p: PatternSpec, event_index: int) -> List[PatternSpec]:
    """Remove a maximal event; return the connected remainders (one or
    two), with bare lineages returned as the trivial pattern."""
    s = p.structure()
    if event_index not in maximal_events(p):
        raise PatternError("only maximal events can be removed")
    keep = [e for e in range(s.n_events) if e != event_index]
    # union-find over kept events and initial lineages
    k = s.initial_count
    ids = {("e", e): i for i, e in enumerate(keep)}
    for i in range(k):
        ids[("l", i)] = len(ids)
    parent = list(range(len(ids)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    def vertex(l):
        pe = s.prod_ev[l]
        return ids[("e", pe)] if pe != -1 else ids.get(("l", l))

    for e in keep:
        for l in s.consumed[e]:
            v = vertex(l)
            if v is not None:
                union(v, ids[("e", e)])
    comps: Dict[int, Dict[str, list]] = {}
    for key, idx in ids.items():
        comps.setdefault(find(idx), {"events": [], "lineages": []})[
            "events" if key[0] == "e" else "lineages"].append(key[1])
    out = []
    for comp in comps.values():
        evs = sorted(comp["events"])
        if not evs:
            out.append(TRIVIAL)
            continue
        # replay the component's events in rank order to rebuild a spec
        init = set(comp["lineages"])
        for e in evs:
            for l in s.consumed[e]:
                if s.prod_ev[l] == -1 and l not in init:
                    init.add(l)
        init_order = sorted(init)
        slots = list(init_order)
        new_events: List[Event] = []
        for e in evs:
            cons = s.consumed[e]
            if s.kinds[e] == "B":
                i = slots.index(cons[0])
                new_events.append(Branching(i))
                a, b = s.produced[e]
                slots[i] = a
                slots.append(b)
            else:
                i, j = slots.index(cons[0]), slots.index(cons[1])
                new_events.append(Reticulation(i, j))
                ox, oy, m = s.produced[e]
                slots[i] = ox
                slots[j] = oy
                slots.append(m)
        spec = PatternSpec(len(init_order), tuple(new_events))
        spec.validate()
        out.append(spec)
    if len(out) not in (1, 2):
        raise PatternError(f"unexpected decomposition into {len(out)} parts")
    return out


def decompose_last_event(p: PatternSpec) -> List[PatternSpec]:
    if p.height < 1:
        raise PatternError("height-0 pattern has no event to remove")
    return remove_event(p, p.height - 1)
