import json

import pytest
from hypothesis import given, settings, strategies as st

from rtcnlab import networks as nw
from rtcnlab import patterns as pt
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
    assert pt.catalog_footprints() == EXPECTED_FOOTPRINTS


def test_catalog_basic_shapes():
    assert CAT["cherry"] == PatternSpec(1, (Branching(0),))
    assert CAT["trident"] == PatternSpec(2, (Reticulation(0, 1),))


def test_canonicalize_cherry_child_swap():
    a = PatternSpec(1, (Branching(0),))
    assert pt.canonicalize(a).text == pt.canonicalize(CAT["cherry"]).text


def test_canonicalize_trident_side_swap():
    a = PatternSpec(2, (Reticulation(0, 1),))
    b = PatternSpec(2, (Reticulation(1, 0),))
    assert pt.canonicalize(a).text == pt.canonicalize(b).text


def test_canonicalize_distinguishes_shapes():
    texts = {pt.canonicalize(spec).text for spec in CAT.values()}
    assert len(texts) == len(CAT)


def test_canonicalize_idempotent_under_reordering():
    # the two lower events of the double-branch shape commute in rank
    a = PatternSpec(1, (Branching(0), Branching(0), Branching(1)))
    b = PatternSpec(1, (Branching(0), Branching(1), Branching(0)))
    assert pt.canonicalize(a).text == pt.canonicalize(b).text


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
@settings(max_examples=40, deadline=None)
def test_fast_equals_generic_equals_bruteforce(n, seed):
    net = nw.generate(n, seed)
    for pid, spec in CAT.items():
        fast = pt.count_occurrences(net, pid)
        generic = pt.count_occurrences_generic(net, spec)
        brute = pt.count_occurrences_bruteforce(net, spec)
        assert fast == generic == brute, (pid, n, seed)


@given(n=st.integers(2, 25), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_footprint_conservation(n, seed):
    net = nw.generate(n, seed)
    counts = {pid: pt.count_occurrences(net, pid) for pid in CAT}
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



def test_count_batch_on_histories_equals_scalar_counts():
    ids = sorted(CAT)
    for n in range(2, 7):
        got = pt.count_batch(nw.history_batch(n, 0, nw.history_count(n)), ids)
        want = [[pt.count_occurrences(net, pid) for pid in ids]
                for net, _ in nw.enumerate_histories(n)]
        assert got.tolist() == want, n

def test_trivial_pattern_counts_external_lineages():
    net = nw.generate(7, 1)
    assert pt.count_occurrences(net, pt.TRIVIAL) == 7


def test_decompose_cherry_and_trident():
    assert pt.decompose_last_event(CAT["cherry"]) == [pt.TRIVIAL]
    assert pt.decompose_last_event(CAT["trident"]) == [pt.TRIVIAL, pt.TRIVIAL]


def test_decompose_b_iv_gives_trident():
    parts = pt.decompose_last_event(CAT["b-iv"])
    assert len(parts) == 1
    assert pt.canonicalize(parts[0]).text == pt.canonicalize(CAT["trident"]).text


def test_decompose_h3_shapes():
    parts = pt.decompose_last_event(CAT["h3-bi"])
    cherry = pt.canonicalize(CAT["cherry"]).text
    assert sorted(pt.canonicalize(q).text for q in parts) == sorted([cherry, cherry])
    parts = pt.decompose_last_event(CAT["h3-ci"])
    trident = pt.canonicalize(CAT["trident"]).text
    assert [pt.canonicalize(q).text for q in parts] == [trident, trident]


def test_pattern_file_round_trip(tmp_path):
    path = tmp_path / "pat.json"
    spec = CAT["c-ii"]
    path.write_text(json.dumps(pt.spec_to_dict(spec)))
    assert pt.load_pattern_file(path) == spec


def test_bruteforce_guards():
    tall = PatternSpec(1, (Branching(0),) * 5)
    with pytest.raises(pt.PatternError):
        pt.count_occurrences_bruteforce(nw.generate(5, 0), tall)
