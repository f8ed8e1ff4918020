from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtcnlab import networks as nw
from rtcnlab.networks import Branching, EventLog, Network, Reticulation


def test_apply_branching_at_two_lineages():
    root = nw.EventStructure(network_root=True)
    assert len(root.open_slots) == 2
    grown = root.copy()
    grown.apply(Branching(0))
    assert len(grown.open_slots) == 3
    assert grown.kinds == ["B", "B"]  # the initial branching, then ours
    assert grown.consumed[1] == (root.open_slots[0],)
    # the copied structure is untouched
    assert len(root.open_slots) == 2


def test_apply_reticulation_at_two_lineages():
    net = Network(EventLog((Reticulation(0, 1),)))
    assert len(net.structure.open_slots) == 3
    assert net.n_reticulations == 1


def test_apply_two_steps_by_hand():
    net = Network(EventLog((Reticulation(0, 1), Branching(2))))
    assert net.n_leaves == 4
    assert net.n_events == 3  # including the implicit initial branching
    assert net.n_reticulations == 1


def test_apply_index_errors():
    for event in (Reticulation(0, 2), Branching(5)):
        with pytest.raises(nw.EventLogError):
            nw.EventStructure(network_root=True).apply(event)
        with pytest.raises(nw.EventLogError):
            Network(EventLog((event,)))


def test_generate_two_leaves_is_unique():
    nets = {nw.serialize(nw.generate(2, seed)) for seed in range(10)}
    assert nets == {"RTCN v1 n=2\n"}


def test_generate_three_leaves_reticulation_fraction():
    # 2 of the 4 ordered pairs at two lineages produce a reticulation
    hits = sum(nw.generate(3, seed).n_reticulations for seed in range(4000))
    assert abs(hits / 4000 - 0.5) < 0.04  # ~5 sigma


def test_generate_determinism_large():
    a = nw.generate(1000, 42)
    b = nw.generate(1000, 42)
    assert a.log == b.log
    assert nw.serialize(a) == nw.serialize(b)


def test_generate_rejects_small_n():
    with pytest.raises(ValueError):
        nw.generate(1, 0)
    with pytest.raises(ValueError):
        nw.generate_batch(1, 0, [1])


def test_generate_batch_is_generate_relabelled():
    for n in (2, 3, 9):
        batch = nw.generate_batch(n, 7, range(1, 41))
        for r in range(40):
            s = nw.generate(n, 7, stream=r + 1).structure
            # event e's k-th produced lineage sits in slot 3e+1+k
            slot = {0: 0}
            for e, produced in enumerate(s.produced):
                for k, lineage in enumerate(produced):
                    slot[lineage] = 3 * e + 1 + k
            assert batch.kind[r].tolist() == [k == "R" for k in s.kinds]
            assert batch.consumed[r].tolist() == [
                [slot[l] for l in c] + [-1] * (2 - len(c)) for c in s.consumed]
            consumer = [-1] * (3 * n - 2)
            for lineage, e in enumerate(s.consumer):
                consumer[slot[lineage]] = e
            assert batch.consumer[r].tolist() == consumer
            assert batch.open_slots[r].tolist() == [slot[l] for l in s.open_slots]


@given(n=st.integers(2, 40), seed=st.integers(0, 2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_generated_networks_validate(n, seed):
    net = nw.generate(n, seed)
    assert nw.validate(net) == []
    assert net.n_leaves == n
    assert net.n_events == n - 1
    retics = sum(1 for ev in net.log.events if isinstance(ev, Reticulation))
    assert net.n_reticulations == retics


def test_enumerate_histories_small_counts():
    hist3 = list(nw.enumerate_histories(3))
    assert len(hist3) == 4
    assert all(p == Fraction(1, 4) for _, p in hist3)
    hist4 = list(nw.enumerate_histories(4))
    assert len(hist4) == 36
    assert sum(p for _, p in hist4) == 1


def test_enumerate_histories_trident_fraction_at_four():
    from rtcnlab import patterns
    zero = sum(1 for net, _ in nw.enumerate_histories(4)
               if patterns.count_occurrences(net, "trident") == 0)
    assert zero == 12  #= P(T_4 = 0) * 36 = 1/3 * 36


def test_enumerate_histories_guard():
    with pytest.raises(ValueError):
        next(nw.enumerate_histories(10))


def test_validate_flags_tree_child_violation():
    # root -> tree node whose two children are both reticulation nodes
    g = nw.NodeGraph(
        node_types=[nw.NODE_ROOT, nw.NODE_TREE, nw.NODE_RETIC, nw.NODE_RETIC,
                    nw.NODE_TREE, nw.NODE_TREE, nw.NODE_LEAF, nw.NODE_LEAF,
                    nw.NODE_LEAF, nw.NODE_LEAF],
        edges=[(0, 1), (1, 2), (1, 3), (4, 2), (5, 3), (2, 6), (3, 7),
               (4, 8), (5, 9)],
        node_rank={}, n_events=3)
    msgs = "\n".join(nw.validate(g))
    assert "children are reticulation nodes" in msgs


def test_validate_flags_cycle():
    g = nw.NodeGraph(
        node_types=[nw.NODE_ROOT, nw.NODE_TREE, nw.NODE_TREE, nw.NODE_TREE,
                    nw.NODE_LEAF, nw.NODE_LEAF],
        edges=[(0, 1), (1, 2), (2, 3), (3, 1), (2, 4), (3, 5)],
        node_rank={}, n_events=3)
    msgs = "\n".join(nw.validate(g))
    assert "cycle" in msgs


def test_serialize_two_leaves():
    assert nw.serialize(nw.generate(2, 0)) == "RTCN v1 n=2\n"


def test_serialize_parse_round_trip_explicit():
    log = EventLog((Reticulation(0, 1), Branching(2)))
    net = Network(log)
    text = nw.serialize(net)
    assert text == "RTCN v1 n=4\nR 0 1\nB 2\n"
    assert nw.serialize(nw.parse(text)) == text


def test_round_trip_generated():
    net = nw.generate(100, 7)
    assert nw.parse(nw.serialize(net)).log == net.log


def test_parse_error_reports_line():
    with pytest.raises(nw.ParseError) as err:
        nw.parse("RTCN v1 n=4\nR 0 1\nQ 2\n")
    assert err.value.line == 3
    assert str(err.value) == "line 3: unrecognized event line 'Q 2'"
    # an event the log cannot hold is reported on its own line
    with pytest.raises(nw.ParseError) as err:
        nw.parse("RTCN v1 n=6\nB 0\nB 1\nR 0 2\nR 0 9\n")
    assert err.value.line == 5
    with pytest.raises(nw.ParseError):
        nw.parse("bogus header\n")


@st.composite
def random_logs(draw):
    n = draw(st.integers(2, 12))
    events = []
    for k in range(n - 2):
        ell = k + 2
        i = draw(st.integers(0, ell - 1))
        j = draw(st.integers(0, ell - 1))
        events.append(Branching(i) if i == j else Reticulation(i, j))
    return EventLog(tuple(events))


@given(random_logs())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(log):
    net = Network(log)
    assert nw.parse(nw.serialize(net)).log == log
    assert nw.validate(net) == []


def test_dot_export_mentions_types():
    dot = nw.to_dot(nw.generate(5, 3))
    assert dot.startswith("digraph")
    assert "reticulation" in dot or "tree" in dot
    assert "rank" in dot
