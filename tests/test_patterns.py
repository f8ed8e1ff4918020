import ast
import dataclasses
import itertools
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtcnlab import montecarlo as mc
from rtcnlab import networks as nw
from rtcnlab import patterns as pt
from rtcnlab import rng
from rtcnlab.networks import Branching, EventLog, Network, Reticulation
from rtcnlab.patterns import PatternSpec

CAT = pt.catalog()

# external-lineage counts that the chain denominators rely on
EXPECTED_FOOTPRINTS = {
    "cherry": 2, "trident": 3, "a-i": 3, "a-ii": 3,
    "b-i": 4, "b-ii": 4, "b-iii": 4, "b-iv": 4, "b-v": 4,
    "c-i": 5, "c-ii": 5, "h3-bi": 5, "h3-ci": 7, "h3-cii": 7,
}


def test_catalog_footprints():
    assert {pid: len(spec.structure.final_lineages())
            for pid, spec in CAT.items()} == \
        EXPECTED_FOOTPRINTS


# the canonical text of each catalog shape
CANONICAL_TEXTS = {
    "cherry": "k=1|B(0)->(1,2)",
    "trident": "k=2|R(0,1)->(2,3,4)",
    "a-i": "k=1|B(0)->(1,2)|B(1)->(3,4)",
    "a-ii": "k=1|B(0)->(1,2)|R(1,2)->(3,4,5)",
    "b-i": "k=2|B(0)->(1,2)|R(1,3)->(4,5,6)",
    "b-ii": "k=2|R(0,1)->(2,3,4)|B(2)->(5,6)",
    "b-iii": "k=2|R(0,1)->(2,3,4)|B(4)->(5,6)",
    "b-iv": "k=2|R(0,1)->(2,3,4)|R(2,4)->(5,6,7)",
    "b-v": "k=2|R(0,1)->(2,3,4)|R(2,3)->(5,6,7)",
    "c-i": "k=3|R(0,1)->(2,3,4)|R(2,5)->(6,7,8)",
    "c-ii": "k=3|R(0,1)->(2,3,4)|R(4,5)->(6,7,8)",
    "h3-bi": "k=2|B(0)->(1,2)|B(3)->(4,5)|R(1,4)->(6,7,8)",
    "h3-ci": "k=4|R(0,1)->(2,3,4)|R(5,6)->(7,8,9)|R(2,7)->(10,11,12)",
    "h3-cii": "k=4|R(0,1)->(2,3,4)|R(5,6)->(7,8,9)|R(4,9)->(10,11,12)",
}


def test_catalog_canonical_texts():
    assert {pid: pt.canonicalize(spec) for pid, spec in CAT.items()} == \
        CANONICAL_TEXTS
    assert pt.canonicalize(pt.TRIVIAL) == "k=1"


@pytest.mark.parametrize("k, events, message", [
    (0, (), "need at least one initial lineage"),
    (1, (Branching(3),), "branching position 3 out of range for 1 lineages"),
    (2, (Branching(0),), "pattern is disconnected"),
    (3, (Branching(0),),
     "3 initial lineages exceed height + 1 = 2, so the pattern is "
     "disconnected"),
])
def test_invalid_specs_raise_at_construction(k, events, message):
    with pytest.raises(pt.PatternError, match=f"^{re.escape(message)}$"):
        PatternSpec(k, events)


def test_structure_is_built_once_and_not_compared():
    a = PatternSpec(1, (Branching(0),))
    assert a.structure is not CAT["cherry"].structure
    assert a == CAT["cherry"] and hash(a) == hash(CAT["cherry"])
    assert repr(a) == ("PatternSpec(initial_lineages=1, "
                       "events=(Branching(position=0),))")
    assert a.structure.final_lineages() == [1, 2]


def test_initial_lineages_above_the_bound_are_not_allocated(tmp_path):
    # a connected pattern of height E has at most E + 1 initial lineages;
    # a larger count is refused before its lineages are built
    path = tmp_path / "pat.json"
    path.write_text(json.dumps({"initial_lineages": 10**6, "events": []}))
    with pytest.raises(pt.PatternError, match=f"^{re.escape(str(path))}: "
                       r"1000000 initial lineages exceed height \+ 1 = 1, "):
        pt.load_pattern_file(path)


def test_catalog_ids_are_the_documents_ids():
    for path in (Path(pt.__file__).parent / "data" / "patterns").glob("*.json"):
        pid = json.loads(path.read_text())["id"]
        assert CAT[pid] == pt.load_pattern_file(path), path


def test_catalog_basic_shapes():
    assert CAT["cherry"] == PatternSpec(1, (Branching(0),))
    assert CAT["trident"] == PatternSpec(2, (Reticulation(0, 1),))


def test_canonicalize_cherry_child_swap():
    a = PatternSpec(1, (Branching(0),))
    assert pt.canonicalize(a) == pt.canonicalize(CAT["cherry"])


def test_canonicalize_trident_side_swap():
    a = PatternSpec(2, (Reticulation(0, 1),))
    b = PatternSpec(2, (Reticulation(1, 0),))
    assert pt.canonicalize(a) == pt.canonicalize(b)


def test_canonicalize_distinguishes_shapes():
    texts = {pt.canonicalize(spec) for spec in CAT.values()}
    assert len(texts) == len(CAT)


def test_canonicalize_idempotent_under_reordering():
    # the two lower events of the double-branch shape commute in rank
    a = PatternSpec(1, (Branching(0), Branching(0), Branching(1)))
    b = PatternSpec(1, (Branching(0), Branching(1), Branching(0)))
    assert pt.canonicalize(a) == pt.canonicalize(b)


def test_canonicalize_rejects_disconnected():
    with pytest.raises(pt.PatternError):
        pt.canonicalize(PatternSpec(2, (Branching(0),)))


def test_count_cherry_on_two_leaf_network():
    assert pt.count_occurrences(nw.generate(2, 0), "cherry") == 1


def test_count_trident_after_single_reticulation():
    net = Network(EventLog((Reticulation(0, 1),)))
    assert pt.count_occurrences(net, "trident") == 1
    assert pt.count_occurrences(net, "cherry") == 0


def test_overlap_shape_contains_two_base_occurrences():
    # grow exactly the two-branch overlap: branch both lineages, then join
    log = EventLog((Branching(0), Branching(1), Reticulation(0, 1)))
    net = Network(log)
    assert pt.count_occurrences(net, "h3-bi") == 1
    assert pt.count_occurrences(net, "b-i") == 2
    # and the trident-based analog: two tridents joined through outers
    log = EventLog((Branching(0), Branching(1), Reticulation(0, 1),
                    Reticulation(2, 3), Reticulation(0, 2)))
    net = Network(log)
    assert pt.count_occurrences(net, "h3-ci") == 1
    assert pt.count_occurrences(net, "c-i") == 2


@given(n=st.integers(2, 16), seed=st.integers(0, 2**32))
@example(n=25, seed=775)
@example(n=28, seed=868)
@example(n=31, seed=961)
@example(n=34, seed=1054)
@example(n=37, seed=1147)
@example(n=40, seed=1240)
@settings(max_examples=40, deadline=None)
def test_fast_equals_generic_equals_bruteforce(n, seed):
    _assert_counters_agree(nw.generate(n, seed), (n, seed))


def test_fast_equals_generic_equals_bruteforce_on_pattern_hosts():
    # a pattern's initial lineages, like the root edge, have no producer;
    # only the matcher and the brute force count on a pattern's structure
    for host_id, host in CAT.items():
        _assert_counters_agree(host.structure, host_id)


def _assert_counters_agree(host, label):
    """On a network the closed forms, by id and by spec, agree with the
    matcher and the brute force; on a bare structure the last two do."""
    brute = []
    for pid, spec in CAT.items():
        # a spec resolves to its catalog id, as the pattern files do
        single = pt.count_occurrences(host, spec)
        generic = pt.count_occurrences_generic(host, spec)
        brute.append(pt.count_occurrences_bruteforce(host, spec))
        assert single == generic == brute[-1], (pid, label)
    if isinstance(host, Network):
        assert pt.count_catalog(host, CAT) == tuple(brute), label


# Hosts on which every two catalog ids have different counts, and on
# which every closed form with one mask replaced by another, or dropped,
# miscounts; the exceptions are the h3 forms with distinct replaced or
# dropped, which their _x and _y masks already imply.  The generate(n, s)
# hosts were chosen greedily from n = 2..40 and s < 30.
PINNED_HOSTS = ((30, 9), (37, 24), (5, 11), (25, 10), (6, 5), (11, 23),
                (8, 7), (7, 18))
# a reticulation of two cherries' children that a later branching
# consumes: bp_x and bp_y hold there without full, as on none of the
# generated networks above
NOT_FULL_H3_BI = EventLog((Branching(0), Branching(1), Reticulation(0, 1),
                           Branching(0)))


def test_closed_forms_equal_matcher_on_pinned_hosts():
    # a closed form moved to another id, or a mask swapped inside one,
    # changes count_catalog on some pinned host
    hosts = [nw.generate(n, seed) for n, seed in PINNED_HOSTS]
    hosts.append(Network(NOT_FULL_H3_BI))
    rows = []
    for net in hosts:
        rows.append(pt.count_catalog(net, CAT))
        assert rows[-1] == tuple(pt.count_occurrences_generic(net, spec)
                                 for spec in CAT.values()), nw.serialize(net)
    by_id = list(zip(*rows))
    for a, b in itertools.combinations(range(len(CAT)), 2):
        assert by_id[a] != by_id[b], (list(CAT)[a], list(CAT)[b])


@given(n=st.integers(2, 25), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_footprint_conservation(n, seed):
    net = nw.generate(n, seed)
    counts = dict(zip(CAT, pt.count_catalog(net, CAT)))
    # disjoint-lineage partitions used by the couplings
    assert 3 * counts["a-i"] + 2 * (counts["cherry"] - counts["a-i"]) <= n
    assert 4 * counts["b-iv"] + 3 * (counts["trident"] - counts["b-iv"]) <= n
    assert (5 * counts["h3-bi"] + 4 * (counts["b-i"] - 2 * counts["h3-bi"])
            + 2 * counts["cherry"]) <= n
    # overlap identities
    assert counts["b-i"] >= 2 * counts["h3-bi"]
    assert counts["c-i"] >= 2 * counts["h3-ci"]
    assert counts["c-ii"] >= 2 * counts["h3-cii"]


@given(n=st.integers(2, 14), seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_counts_survive_reserialization(n, seed):
    net = nw.generate(n, seed)
    net2 = nw.parse(nw.serialize(net))
    for pid in ("cherry", "trident", "b-i", "c-i"):
        assert pt.count_occurrences(net, pid) == pt.count_occurrences(net2, pid)


def _standalone_b_i(s):
    """Independent counter for b-i occurrences not inside an overlap: the
    join event has exactly one side hanging off a one-child-external
    branching."""
    total = 0
    for r in range(s.n_events):
        if s.kinds[r] != "R":
            continue
        if not all(s.consumer[l] == -1 for l in s.produced[r]):
            continue
        sides = 0
        for l in s.consumed[r]:
            e = s.prod_ev[l]
            if e == -1 or s.kinds[e] != "B":
                continue
            a, b = s.produced[e]
            sib = b if l == a else a
            if s.consumer[sib] == -1:
                sides += 1
        if sides == 1:
            total += 1
    return total


@given(n=st.integers(2, 25), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_overlap_counting_identity(n, seed):
    # total = standalone + 2 * overlap, with the standalone count taken
    # from an independent inline implementation
    net = nw.generate(n, seed)
    s = net.structure
    assert pt.count_occurrences(net, "b-i") == \
        _standalone_b_i(s) + 2 * pt.count_occurrences(net, "h3-bi")



def test_count_catalog_is_count_occurrences_per_id():
    net = nw.generate(12, 3)
    ids = ("trident", "cherry", "trident", "h3-cii")
    assert pt.count_catalog(net, ids) == tuple(
        pt.count_occurrences(net, pid) for pid in ids)
    assert pt.count_catalog(net, ()) == ()
    with pytest.raises(KeyError, match="unknown pattern id 'nope'"):
        pt.count_catalog(net, ("cherry", "nope"))


def test_count_batch_on_histories_equals_scalar_counts():
    # every history with n <= 5, against the anchored matcher
    for n in range(2, 6):
        got = pt.count_batch(nw.history_batch(n, 0, nw.history_count(n)), CAT)
        want = [[pt.count_occurrences_generic(net, spec) for spec in CAT.values()]
                for net, _ in nw.enumerate_histories(n)]
        assert got.tolist() == want, n


class _BatchFringe:
    """Reference masks of every network of a LockstepBatch, built from
    its consumed lineages alone: (m, n-1) bool arrays whose entry (r, e)
    is set when event e of network r has the property.

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
        retic = batch.kind.T.copy()
        consumed = batch.consumed.transpose(1, 0, 2).copy()
        # external: consumed by no event (a branching's unused third
        # lineage included)
        ext = np.ones((len(retic), 3 * retic.shape[1] + 1), dtype=bool)
        r, e, k = np.nonzero(consumed >= 0)
        ext[r, consumed[r, e, k]] = False
        branch = ~retic
        c1, c2, c3 = ext[:, 1::3], ext[:, 2::3], ext[:, 3::3]
        self.cherry = branch & c1 & c2
        self.full = retic & c1 & c2 & c3
        x, y = consumed[:, :, 0], consumed[:, :, 1]
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


def _reference_counts(batch, ids):
    """(m, len(ids)) counts of each closed form's reference masks."""
    f = _BatchFringe(batch)
    return np.array([sum(np.count_nonzero(m, axis=1)
                         for m in pt._CLOSED_FORMS[pid](f))
                     for pid in ids], dtype=np.int64).T


def test_count_batch_equals_reference_masks():
    ids = tuple(CAT)
    batches = [nw.history_batch(n, 0, nw.history_count(n))
               for n in range(2, 7)]
    for n, seed, reps in ((24, 3, 1200), (200, 5, 300)):
        batches += nw.forward_batches(n, seed, 0, reps, mc.forward_rows(n))
    # the last host's counts are summed past 2^15 events
    batches += [nw.network_batch(nw.generate(n, seed))
                for n, seed in PINNED_HOSTS + ((1 << 15 | 2, 1),)]
    batches.append(nw.network_batch(Network(NOT_FULL_H3_BI)))
    for batch in batches:
        want = _reference_counts(batch, ids)
        assert (pt.count_batch(batch, ids) == want).all()
        # any order and repetition of the ids reads the same columns
        pick = [5, 0, 13, 5] + list(range(14))
        assert (pt.count_batch(batch, [ids[k] for k in pick])
                == want[:, pick]).all()
    # several batches counted into one array: 468 + 468 + 264 rows
    parts = list(nw.forward_batches(24, 3, 0, 1200, mc.forward_rows(24)))
    assert [len(b.open_slots) for b in parts] == [468, 468, 264]
    want = np.concatenate([_reference_counts(b, ids) for b in parts])
    assert (pt.count_batches(iter(parts), ids, 1200) == want).all()
    with pytest.raises(ValueError, match="hold 1200 rows, not 1201"):
        pt.count_batches(iter(parts), ids, 1201)


def _anchored_embeddings(plan, host, e):
    """pt._embeddings with the pattern's last event mapped to host event
    e only: every catalog shape has one maximal event, its last, which
    every automorphism fixes, so this over plan.automorphisms is the
    number of occurrences anchored at e."""
    external = np.array(host.consumer) == -1

    def rows(events, kind):
        return np.array([host.consumed[f] + host.produced[f] for f in events],
                        dtype=np.intp).reshape(-1, 3 if kind == "B" else 5)

    lin = np.full((1, plan.n_lineages), -1, dtype=np.intp)
    taken = np.zeros((1, len(host.consumer)), dtype=bool)
    last = len(plan.kinds) - 1
    for depth, kind in enumerate(plan.kinds):
        events = [f for f in ([e] if depth == last else range(host.n_events))
                  if host.kinds[f] == kind]
        children = [pt._extend(lin, taken, rows(events, kind), *slots)
                    for slots in plan.slots[depth]]
        lin, taken = (np.concatenate(c) for c in zip(*children))
    return int(np.count_nonzero(external[lin[:, plan.final]].all(axis=1)))


def _code_witnesses():
    """{code: [(n, slot rows, event)]}: the first two events of each
    event code seen on every history of n <= 7 and on 20,000 forward
    networks at n = 12 (seed 7), each with its network's slots."""
    seen = {}
    sources = [(n, nw._history_slots(n, lo, min(lo + (1 << 15),
                                                 nw.history_count(n))))
               for n in range(3, 8)
               for lo in range(0, nw.history_count(n), 1 << 15)]
    words = [rng.raw_block(7, ell, 0, 20_000, 1) for ell in range(2, 12)]
    digits = np.array([w % (ell * ell) for ell, w in enumerate(words, 2)])
    sources.append((12, nw._slots(12, digits)))
    for n, slots in sources:
        flat = pt._event_codes(nw._grow(n, slots.copy())).ravel()
        # the first and the second place of each code, event-major
        first = np.unique(flat, return_index=True)[1]
        rest = np.ones(len(flat), dtype=bool)
        rest[first] = False
        second = np.flatnonzero(rest)[np.unique(flat[rest],
                                                return_index=True)[1]]
        for at in sorted(np.concatenate([first, second]).tolist()):
            found = seen.setdefault(int(flat[at]), [])
            if len(found) < 2:
                e, r = divmod(at, slots.shape[1])
                found.append((n, slots[:, r].tolist(), e))
    return seen


def test_count_table_is_the_anchored_brute_force(monkeypatch):
    """Each event code's record in the count table is the brute force's
    count of every catalog shape anchored at an event of that code, the
    same at both of its witnesses."""
    plans = {pid: pt._brute_plan(spec) for pid, spec in CAT.items()}
    assert all(pt.maximal_events(spec) == [spec.height - 1]
               for spec in CAT.values())
    seen = _code_witnesses()
    want = {}
    for code, witnesses in seen.items():
        counts = set()
        for n, row, e in witnesses:
            host = nw._network(row).structure
            counts.add(tuple(
                pt._divide(_anchored_embeddings(plans[pid], host, e),
                           plans[pid].automorphisms)
                for pid in pt._FORM_COLUMN))
        assert len(counts) == 1, (code, witnesses)
        want[code] = counts.pop()
    # 5, 26, 91, 204 and 275 distinct codes at n = 3..7, 310 with n = 12
    assert len(want) == 310
    assert all(len(w) == 2 for w in seen.values())

    def wrong(table):
        records = table.view(np.uint8).reshape(-1, 16)
        return [(code, pid) for code, counts in want.items()
                for pid, k in pt._FORM_COLUMN.items()
                if records[code, k] != counts[k]]

    assert wrong(pt._count_table()) == []
    # one mask dropped, one bit read from the wrong lineage, one shape's
    # masks swapped for another's
    for pid, form in (("c-ii", lambda f: (f.full & f.rm_x,)),
                      ("a-i", lambda f: (f.cherry & f.bp_y,)),
                      ("b-v", lambda f: (f.b_iv,))):
        with monkeypatch.context() as patch:
            patch.setitem(pt._CLOSED_FORMS, pid, form)
            assert wrong(pt._count_table.__wrapped__()), pid


def test_trivial_pattern_counts_external_lineages():
    net = nw.generate(7, 1)
    assert pt.count_occurrences(net, pt.TRIVIAL) == 7


def test_pattern_file_round_trip():
    path = Path(pt.__file__).parent / "data" / "patterns" / "c_ii.json"
    assert pt.load_pattern_file(path) == CAT["c-ii"]


def _mutated(edit):
    """The cherry's pattern document, changed in place by edit."""
    path = Path(pt.__file__).parent / "data" / "patterns" / "cherry.json"
    doc = json.loads(path.read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "the document must be an object"),
    (_mutated(lambda d: d.pop("initial_lineages")),
     "missing key 'initial_lineages'"),
    (_mutated(lambda d: d.pop("events")), "missing key 'events'"),
    (_mutated(lambda d: d.update(initial_lineages=True)),
     "'initial_lineages' must be an integer, not True"),
    (_mutated(lambda d: d.update(initial_lineages=1.5)),
     "'initial_lineages' must be an integer, not 1.5"),
    (_mutated(lambda d: d["events"][0].update(a=False)),
     "event 0: 'a' must be an integer, not False"),
    (_mutated(lambda d: d["events"][0].pop("a")), "event 0: missing key 'a'"),
    (_mutated(lambda d: d["events"].append({"type": "retic", "a": 0,
                                            "b": "1"})),
     "event 1: 'b' must be an integer, not '1'"),
    (_mutated(lambda d: d.update(events=d["events"][0])),
     "'events' must be a list of objects"),
    (_mutated(lambda d: d.update(events=[[0]])),
     "'events' must be a list of objects"),
    (_mutated(lambda d: d["events"][0].update(type="fork")),
     "event 0: 'type' is 'fork', not 'branch' or 'retic'"),
])
def test_load_pattern_file_names_the_bad_key(tmp_path, doc, message):
    path = tmp_path / "pat.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(pt.PatternError,
                       match=f"^{re.escape(f'{path}: {message}')}$"):
        pt.load_pattern_file(path)


def _random_pattern(rng, height, disjoint_lead):
    """A random valid pattern of the given height; with disjoint_lead its
    second event consumes no lineage of its first, as in h3-ci."""
    while True:
        k = rng.randint(2 if disjoint_lead else 1, 4)
        events, ell = [], k
        for _ in range(height):
            if ell >= 2 and rng.random() < 0.5:
                events.append(Reticulation(*rng.sample(range(ell), 2)))
            else:
                events.append(Branching(rng.randrange(ell)))
            ell += 1
        try:
            spec = PatternSpec(k, tuple(events))
        except pt.PatternError:
            continue
        s = spec.structure
        if disjoint_lead == all(s.prod_ev[l] != 0 for l in s.consumed[1]):
            return spec


def _planted(rng, spec, n, copies, suffix):
    """A network of n leaves: a random network, then `copies` times
    spec's events on random open lineages, then `suffix` uniform random
    events.  A later copy may consume lineages of an earlier one."""
    ell = n - copies * spec.height - suffix
    events = list(nw.generate(ell, rng.randrange(2**32)).log.events)
    for _ in range(copies):
        at = rng.sample(range(ell), spec.initial_lineages)
        for ev in spec.events:
            if isinstance(ev, Branching):
                events.append(Branching(at[ev.position]))
            else:
                events.append(Reticulation(at[ev.pos_a], at[ev.pos_b]))
            at.append(ell)
            ell += 1
    for ell in range(ell, n):
        i, j = rng.randrange(ell), rng.randrange(ell)
        events.append(Branching(i) if i == j else Reticulation(i, j))
    return Network(EventLog(tuple(events)))


def test_bruteforce_equals_generic_on_random_patterns():
    rng = random.Random(20260809)
    for height in (3, 4):
        for lead in (False, True):
            for _ in range(6):
                spec = _random_pattern(rng, height, lead)
                low = max(2, spec.initial_lineages)
                nets = [_planted(rng, spec, rng.randint(
                            low + copies * height + suffix, 40), copies, suffix)
                        for copies, suffix in ((1, 0), (2, 0), (3, 0), (1, 3), (2, 8))]
                nets.append(nw.generate(rng.randint(2, 40), rng.randrange(99)))
                got = [pt.count_occurrences_bruteforce(net, spec) for net in nets]
                assert got == [pt.count_occurrences_generic(net, spec)
                               for net in nets], spec
                assert got[0] >= 1, spec


def test_bruteforce_slices_do_not_change_counts(monkeypatch):
    nets = [nw.generate(n, n) for n in (9, 17, 30)]
    want = [list(pt.count_catalog(net, CAT)) for net in nets]
    monkeypatch.setattr(pt, "BRUTE_CELLS", 3)
    got = [[pt.count_occurrences_bruteforce(net, spec) for spec in CAT.values()]
           for net in nets]
    assert got == want


def test_bruteforce_maps_are_injective(monkeypatch):
    # two disjoint cherries, a shape the public entry points refuse: only
    # the taken-lineage check keeps its events on distinct host events
    monkeypatch.setattr(pt, "_is_connected", lambda s: True)
    plan = pt._brute_plan.__wrapped__(PatternSpec(2, (Branching(0), Branching(1))))
    for events, c in (((Branching(0), Branching(1)), 2),
                      ((Reticulation(0, 1), Branching(0), Branching(1),
                        Branching(2)), 3)):
        net = Network(EventLog(events))
        assert pt.count_occurrences(net, "cherry") == c
        assert pt._embeddings(plan, net.structure) == 4 * c * (c - 1)


def test_bruteforce_automorphisms_equal_matcher_self_embeddings():
    for pid, spec in CAT.items():
        s = spec.structure
        assert pt._brute_plan(spec).automorphisms == \
            pt._count_embeddings(s, s), pid


def test_wrong_automorphism_count_raises(monkeypatch):
    net = nw.generate(2, 0)
    plan = pt._brute_plan(CAT["cherry"])
    monkeypatch.setattr(pt, "_brute_plan", lambda p: dataclasses.replace(
        plan, automorphisms=plan.automorphisms + 1))
    with pytest.raises(pt.PatternError, match="not divisible"):
        pt.count_occurrences_bruteforce(net, "cherry")
    count = pt._count_embeddings
    monkeypatch.setattr(pt, "_count_embeddings",
                        lambda pat, host: count(pat, host) + (pat is host))
    with pytest.raises(pt.PatternError, match="not divisible"):
        pt.count_occurrences_generic(net, CAT["cherry"])


def test_no_assert_statements_in_package():
    # python -O drops assert statements, so no check may rely on one
    root = Path(pt.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_eval_exec_or_compile_in_package():
    # table text is parsed into sums of products, never executed
    root = Path(pt.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("eval", "exec", "compile")]
    assert found == []


def test_bruteforce_guards():
    tall = PatternSpec(1, (Branching(0),) * 5)
    with pytest.raises(pt.PatternError):
        pt.count_occurrences_bruteforce(nw.generate(5, 0), tall)
