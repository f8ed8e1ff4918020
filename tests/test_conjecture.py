import functools
import itertools

import pytest

from rtcnlab import conjecture as cj
from rtcnlab import patterns as pt
from rtcnlab.networks import Branching, Reticulation
from rtcnlab.patterns import PatternSpec

CAT = pt.catalog()


def test_base_cases():
    assert cj.classify(pt.TRIVIAL).label is cj.ClassLabel.NORMAL
    assert cj.classify(CAT["cherry"]).label is cj.ClassLabel.POISSON
    assert cj.classify(CAT["trident"]).label is cj.ClassLabel.NORMAL


def test_published_labels_both_modes():
    for mode in cj.BASE_MODES:
        got = cj.classify_catalog(mode)
        for pid, want in cj.KNOWN_LABELS.items():
            assert got[pid] is want, (mode, pid)
    assert cj.classify_catalog("trivial-normal") == cj.classify_catalog("height1")


def test_known_labels_not_conjectural():
    for pid in cj.KNOWN_LABELS:
        res = cj.classify(CAT[pid])
        assert not res.conjectural
        assert res.consistent


def test_custom_pattern_is_conjectural():
    spec = PatternSpec(1, (Branching(0), Branching(0), Branching(0),
                           Branching(0)))
    res = cj.classify(spec)
    assert res.conjectural
    assert res.label is cj.ClassLabel.DEGENERATE


def test_invariant_under_canonical_relabelling():
    a = PatternSpec(2, (Reticulation(0, 1), Branching(0)))
    b = PatternSpec(2, (Reticulation(1, 0), Branching(1)))
    assert pt.canonicalize(a) == pt.canonicalize(b)
    assert cj.classify(a).label is cj.classify(b).label


def test_rejects_disconnected():
    with pytest.raises(pt.PatternError):
        cj.classify(PatternSpec(2, (Branching(0),)))


def _extensions(spec: PatternSpec):
    """All one-event connected extensions of a pattern."""
    footprint = len(spec.structure.final_lineages())
    out = []
    for i in range(footprint):
        out.append(PatternSpec(spec.initial_lineages,
                               spec.events + (Branching(i),)))
        for j in range(footprint):
            if i != j:
                out.append(PatternSpec(spec.initial_lineages,
                                       spec.events + (Reticulation(i, j),)))
    # reticulation joining an open slot with one fresh initial lineage;
    # old slot indices at or past the initial block shift by one
    k = spec.initial_lineages
    shifted = tuple(
        Branching(e.position if e.position < k else e.position + 1)
        if isinstance(e, Branching) else
        Reticulation(e.pos_a if e.pos_a < k else e.pos_a + 1,
                     e.pos_b if e.pos_b < k else e.pos_b + 1)
        for e in spec.events)
    for i in range(footprint):
        slot = i if i < k else i + 1
        out.append(PatternSpec(k + 1, shifted + (Reticulation(slot, k),)))
    return out


def _all_shapes(max_height):
    seeds = [CAT["cherry"], CAT["trident"]]
    by_canon = {pt.canonicalize(s): s for s in seeds}
    frontier = list(by_canon.values())
    for _ in range(max_height - 1):
        new = []
        for spec in frontier:
            for ext in _extensions(spec):
                key = pt.canonicalize(ext)
                if key not in by_canon:
                    by_canon[key] = ext
                    new.append(ext)
        frontier = new
    return list(by_canon.values())


def test_monotone_no_degenerate_extension_is_normal():
    """Attaching any event to a degenerate pattern never yields a normal
    one; exhaustive over all shapes of height <= 4."""
    shapes = _all_shapes(3)
    assert len(shapes) >= 11
    checked = 0
    for spec in shapes:
        res = cj.classify(spec)
        if res.label is not cj.ClassLabel.DEGENERATE:
            continue
        for ext in _extensions(spec):  # extensions have height <= 4
            checked += 1
            assert cj.classify(ext).label is not cj.ClassLabel.NORMAL, \
                pt.canonicalize(ext)
    assert checked > 50


def remove_event(p: PatternSpec, event_index: int):
    """Remove a maximal event; return the connected remainders (one or
    two), with bare lineages returned as the trivial pattern."""
    s = p.structure
    if event_index not in pt.maximal_events(p):
        raise pt.PatternError("only maximal events can be removed")
    keep = [e for e in range(s.n_events) if e != event_index]
    # components over kept events and initial lineages
    ids = {("e", e): i for i, e in enumerate(keep)}
    for i in range(s.initial_count):
        ids[("l", i)] = len(ids)

    def vertex(l):
        pe = s.prod_ev[l]
        return ids[("e", pe)] if pe != -1 else ids[("l", l)]

    roots = pt._components(len(ids), [
        (vertex(l), ids[("e", e)]) for e in keep for l in s.consumed[e]])
    comps = {}
    for key, idx in ids.items():
        comps.setdefault(roots[idx], {"events": [], "lineages": []})[
            "events" if key[0] == "e" else "lineages"].append(key[1])
    out = []
    for comp in comps.values():
        evs = sorted(comp["events"])
        if not evs:
            out.append(pt.TRIVIAL)
            continue
        # replay the component's events in rank order to rebuild a spec
        slots = sorted(comp["lineages"])
        k = len(slots)
        new_events = []
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
        out.append(PatternSpec(k, tuple(new_events)))
    assert len(out) in (1, 2), f"decomposition into {len(out)} parts"
    return out


def _remove_last_event(p):
    return remove_event(p, p.height - 1)


def test_decompose_cherry_and_trident():
    assert _remove_last_event(CAT["cherry"]) == [pt.TRIVIAL]
    assert _remove_last_event(CAT["trident"]) == [pt.TRIVIAL, pt.TRIVIAL]


def test_decompose_b_iv_gives_trident():
    parts = _remove_last_event(CAT["b-iv"])
    assert len(parts) == 1
    assert pt.canonicalize(parts[0]) == pt.canonicalize(CAT["trident"])


def test_decompose_h3_shapes():
    parts = _remove_last_event(CAT["h3-bi"])
    cherry = pt.canonicalize(CAT["cherry"])
    assert sorted(pt.canonicalize(q) for q in parts) == sorted([cherry, cherry])
    parts = _remove_last_event(CAT["h3-ci"])
    trident = pt.canonicalize(CAT["trident"])
    assert [pt.canonicalize(q) for q in parts] == [trident, trident]


N, P, D = cj.ClassLabel.NORMAL, cj.ClassLabel.POISSON, cj.ClassLabel.DEGENERATE


def _combine(parts):
    """The conjectured rule: the class of a pattern from the classes of
    the remainders that peeling one maximal event leaves."""
    if len(parts) == 1:
        return P if parts[0] is N else D
    if parts.count(N) == 2:
        return N
    return P if set(parts) == {N, P} else D


def _reference_choices(p, mode):
    """The peeling rule itself, with no cache and no closed form: each
    maximal event of p with the label its remainders combine to, or
    ((-1, label),) for a base case.  Every level below the top asserts
    that its choices agree."""
    if p.height == 0:
        return ((-1, N),)
    if mode == "height1" and p.height == 1:
        pinned = {pt.canonicalize(CAT["cherry"]): P,
                  pt.canonicalize(CAT["trident"]): N}
        return ((-1, pinned[pt.canonicalize(p)]),)
    return tuple((e, _combine([_reference_label(q, mode)
                               for q in remove_event(p, e)]))
                 for e in pt.maximal_events(p))


def _reference_label(p, mode):
    labels = {lab for _, lab in _reference_choices(p, mode)}
    assert len(labels) == 1, (p, labels)
    return labels.pop()


@functools.lru_cache(maxsize=None)
def _height_le_4():
    """TRIVIAL, the catalog and every one-event extension of the shapes
    of height <= 3."""
    shapes = [pt.TRIVIAL, *CAT.values()]
    shapes += [ext for spec in _all_shapes(3) for ext in _extensions(spec)]
    return shapes


def _chain(height):
    return PatternSpec(1, (Branching(0),) * height)


def _ladder(height):
    # each reticulation joins the last outer lineage with a fresh one
    return PatternSpec(height + 1, tuple(Reticulation(0, i)
                                         for i in range(1, height + 1)))


def _branch_then_ladder(height):
    return PatternSpec(height, (Branching(0),) + tuple(
        Reticulation(0, i) for i in range(1, height)))


def _binary_tree(height):
    """Branchings in breadth-first order: event t splits node t of a
    heap-numbered binary tree into nodes 2t+1 and 2t+2."""
    slots, events = [0], []
    for t in range(height):
        i = slots.index(t)
        events.append(Branching(i))
        slots[i] = 2 * t + 1
        slots.append(2 * t + 2)
    return PatternSpec(1, tuple(events))


def test_closed_form_is_the_peeling_rule():
    known = {pt.canonicalize(CAT[pid]) for pid in cj.KNOWN_LABELS}
    for spec in _height_le_4():
        conjectural = pt.canonicalize(spec) not in known
        for mode in cj.BASE_MODES:
            choices = _reference_choices(spec, mode)
            assert len({lab for _, lab in choices}) == 1, (spec, mode)
            want = cj.Classification(choices[0][1], conjectural, True, choices)
            assert cj.classify(spec, mode) == want, (spec, mode)


def test_peeling_splits_height_and_initial_lineages():
    # the induction step of the closed form: r = height - k + 1 drops by
    # one over a single remainder and splits over two
    for spec in _height_le_4():
        for e in pt.maximal_events(spec):
            parts = remove_event(spec, e)
            assert len(parts) in (1, 2)
            assert sum(q.height for q in parts) == spec.height - 1, (spec, e)
            assert sum(q.initial_lineages for q in parts) == \
                spec.initial_lineages, (spec, e)


@pytest.mark.parametrize("height", range(5, 9))
@pytest.mark.parametrize("build, label", [
    (_chain, D), (_ladder, N), (_branch_then_ladder, P)])
def test_tall_shapes_match_the_reference(build, label, height):
    spec = build(height)
    for mode in cj.BASE_MODES:
        res = cj.classify(spec, mode)
        assert res.label is label
        assert res.by_choice == _reference_choices(spec, mode)


def test_classify_needs_no_canonical_form(monkeypatch):
    # no catalog shape has height 40 or 5, so resolve has nothing to look up
    def refuse(p):
        raise AssertionError("canonicalize called")

    monkeypatch.setattr(pt, "canonicalize", refuse)
    for spec in (_chain(40), _binary_tree(5)):
        for mode in cj.BASE_MODES:
            res = cj.classify(spec, mode)
            assert res.label is D and res.conjectural and res.consistent
            assert res.by_choice == tuple(
                (e, D) for e in pt.maximal_events(spec))


def _permutation_orders(s):
    """Reference: every permutation of the events that puts each
    producer before its consumers."""
    preds = [{s.prod_ev[l] for l in s.consumed[e]} - {-1}
             for e in range(s.n_events)]
    for perm in itertools.permutations(range(s.n_events)):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[p] < pos[e] for e in range(s.n_events) for p in preds[e]):
            yield perm


def test_valid_orders_are_the_topological_permutations():
    for spec in _height_le_4():
        s = spec.structure
        got = list(pt._valid_orders(s))
        assert len(got) == len(set(got)), spec
        assert sorted(got) == list(_permutation_orders(s)), spec
