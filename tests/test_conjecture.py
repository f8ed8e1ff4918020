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


def test_all_height_le_4_shapes_classify_consistently():
    # every maximal-event choice must give the same label
    for spec in _all_shapes(3):
        for ext in _extensions(spec):
            assert cj.classify(ext).consistent, pt.canonicalize(ext)


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
    specs = list(CAT.values())
    specs += [ext for spec in _all_shapes(3) for ext in _extensions(spec)]
    for spec in specs:
        s = spec.structure
        got = list(pt._valid_orders(s))
        assert len(got) == len(set(got)), spec
        assert sorted(got) == list(_permutation_orders(s)), spec
