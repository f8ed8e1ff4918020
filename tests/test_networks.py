import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtcnlab import networks as nw, rng
from rtcnlab.networks import Branching, EventLog, Network, Reticulation


def _reticulations(net):
    return sum(1 for ev in net.log.events if isinstance(ev, Reticulation))


def test_apply_branching_at_two_lineages():
    s = nw.EventStructure(network_root=True)
    assert len(s.open_slots) == 2
    first = s.open_slots[0]
    assert s.apply(Branching(0)) is None
    assert len(s.open_slots) == 3
    assert s.kinds == ["B", "B"]  # the initial branching, then ours
    assert s.consumed[1] == (first,)


def test_apply_reticulation_at_two_lineages():
    net = Network(EventLog((Reticulation(0, 1),)))
    assert len(net.structure.open_slots) == 3
    assert net.structure.kinds == ["B", "R"]


def test_apply_two_steps_by_hand():
    net = Network(EventLog((Reticulation(0, 1), Branching(2))))
    assert net.n_leaves == 4
    assert net.n_events == 3  # including the implicit initial branching
    assert _reticulations(net) == 1


def test_apply_index_errors():
    for event in (Reticulation(0, 2), Branching(5)):
        with pytest.raises(nw.EventLogError):
            nw.EventStructure(network_root=True).apply(event)
        with pytest.raises(nw.EventLogError, match=r"^event 0: ") as err:
            Network(EventLog((event,)))
        assert err.value.event == 0


def test_generate_two_leaves_is_unique():
    nets = {nw.serialize(nw.generate(2, seed)) for seed in range(10)}
    assert nets == {"RTCN v1 n=2\n"}


def test_generate_three_leaves_reticulation_fraction():
    # 2 of the 4 ordered pairs at two lineages produce a reticulation
    hits = sum(_reticulations(nw.generate(3, seed)) for seed in range(4000))
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
        list(nw.forward_batches(1, 0, 0, 1, 1))


# the axis of each array of a lockstep batch that runs over its rows:
# kind and consumed are step-major
ROW_AXIS = {"kind": 1, "consumed": 1, "open_slots": 0}


def _rows(batch, lo, hi):
    """Every array of a lockstep batch, cut to rows lo..hi-1."""
    assert [f.name for f in dataclasses.fields(batch)] == list(ROW_AXIS)
    return {name: np.take(getattr(batch, name), np.arange(lo, hi), axis=axis)
            for name, axis in ROW_AXIS.items()}


def _assert_row_is_relabelled(batch, r, s):
    """Row r of a lockstep batch is the EventStructure s, up to the
    relabelling of lineages."""
    # event e's k-th produced lineage sits in slot 3e+1+k
    slot = {0: 0}
    for e, produced in enumerate(s.produced):
        for k, lineage in enumerate(produced):
            slot[lineage] = 3 * e + 1 + k
    row = _rows(batch, r, r + 1)
    assert row["kind"][:, 0].tolist() == [k == "R" for k in s.kinds]
    assert row["consumed"][:, 0].tolist() == [
        [slot[l] for l in c] + [-1] * (2 - len(c)) for c in s.consumed]
    assert row["open_slots"][0].tolist() == [slot[l] for l in s.open_slots]


def _forward_slots(n, seed, reps):
    """The slot rows of forward replications 0..reps-1, read word by
    word: replication r takes word r of each step's stream-1 raw_block."""
    hi = (reps + 3) // 4 * 4
    words = [rng.raw_block(seed, ell, 0, hi, stream=1).tolist()
             for ell in range(2, n)]
    return [[divmod(w[r] % (ell * ell), ell)
             for ell, w in enumerate(words, start=2)] for r in range(reps)]


def test_forward_batch_rows_are_their_networks_relabelled():
    # the window keeps digits in 1, 2 and 4 bytes at n = 9, 20 and 260
    for n in (2, 3, 9, 20, 260):
        (batch,) = nw.forward_batches(n, 7, 0, 40, 40)
        for r, row in enumerate(_forward_slots(n, 7, 40)):
            _assert_row_is_relabelled(batch, r, nw._network(row).structure)


def test_forward_batches_are_rows_of_one_batch():
    # windows 3..9 and 9..10 are not 4-aligned; numpy bounds and seeds
    # read the same words
    seed = np.uint64(2**64 - 1)
    (whole,) = nw.forward_batches(5, seed, 0, 12, 12)
    for lo, hi, rows in ((np.int64(3), np.int64(9), 4), (9, 10, 1),
                         (0, 12, 5)):
        at = lo
        for part in nw.forward_batches(5, seed, lo, hi, rows):
            m = len(part.open_slots)
            want = _rows(whole, at, at + m)
            for name, arr in _rows(part, 0, m).items():
                assert np.array_equal(arr, want[name]), name
            at += m
        assert at == hi


def test_history_batch_slices_are_rows_of_the_full_batch():
    for n in (2, 3, 5, 6):
        total = nw.history_count(n)
        full = nw.history_batch(n, 0, total)
        assert full.kind.shape == (n - 1, total)
        for lo, hi in ((0, 1), (total // 3, min(total // 3 + 7, total)),
                       (total - 1, total), (total, total)):
            part = nw.history_batch(n, lo, hi)
            want = _rows(full, lo, hi)
            for name, arr in _rows(part, 0, hi - lo).items():
                assert np.array_equal(arr, want[name]), (n, lo, name)


def test_history_batch_is_enumeration_relabelled():
    for n in (2, 3, 4, 5):
        batch = nw.history_batch(n, 0, nw.history_count(n))
        for r, (net, _) in enumerate(nw.enumerate_histories(n)):
            _assert_row_is_relabelled(batch, r, net.structure)


def test_history_batch_guards():
    with pytest.raises(ValueError, match="enumeration guard"):
        nw.history_batch(nw.ENUM_MAX_LEAVES + 1, 0, 1)
    with pytest.raises(ValueError):
        nw.history_batch(1, 0, 1)
    for lo, hi in ((-1, 3), (4, 3), (0, 37)):
        with pytest.raises(ValueError):
            nw.history_batch(4, lo, hi)

@given(n=st.integers(2, 40), seed=st.integers(0, 2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_generated_networks_validate(n, seed):
    net = nw.generate(n, seed)
    assert nw.validate(net) == []
    assert net.n_leaves == n
    assert net.n_events == n - 1
    assert net.structure.kinds.count("R") == _reticulations(net)


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


def test_enumerate_histories_order():
    # the digit i*ell + j of each step, ell = 2 the most significant, in
    # itertools.product order; n = 6 spans more than one 4096-row slice
    for n in range(2, 7):
        want = [tuple(Branching(d // ell) if d // ell == d % ell
                      else Reticulation(d // ell, d % ell)
                      for ell, d in zip(range(2, n), digits))
                for digits in itertools.product(
                    *(range(ell * ell) for ell in range(2, n)))]
        got = [net.log.events for net, _ in nw.enumerate_histories(n)]
        assert got == want, n


def test_enumerate_histories_starts_at_once_at_the_guard():
    net, prob = next(nw.enumerate_histories(nw.ENUM_MAX_LEAVES))
    assert net.log.events == (Branching(0),) * (nw.ENUM_MAX_LEAVES - 2)
    assert prob == Fraction(1, nw.history_count(nw.ENUM_MAX_LEAVES))


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
