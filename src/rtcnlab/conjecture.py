"""Recursive limit-law classification of fringe patterns.

Peeling the last event off a pattern leaves one connected remainder or
two; the class of the pattern is determined by the classes of the
remainders:

  one remainder P:    P normal -> Poisson; anything else -> degenerate
  two remainders:     both normal -> normal; normal + Poisson -> Poisson;
                      anything else -> degenerate

The base of the recursion is the bare single lineage, which classifies
as normal (mode "trivial-normal"); alternatively the two height-1 shapes
can be pinned directly (mode "height1"), and both modes must agree on
the shipped catalog.  Labels for shapes outside the catalog are
conjectural.  An unranked shape may have several maximal events; the
classifier tries each of them and reports disagreement instead of
silently picking one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from . import patterns
from .patterns import PatternSpec


class ClassLabel(Enum):
    NORMAL = "Normal"
    POISSON = "Poisson"
    DEGENERATE = "Degenerate"

    @property
    def frequency_order(self) -> int:
        # reporting order only: normal patterns occur most often
        return {"Normal": 2, "Poisson": 1, "Degenerate": 0}[self.value]


# the thirteen published classifications
KNOWN_LABELS: Dict[str, ClassLabel] = {
    "cherry": ClassLabel.POISSON,
    "trident": ClassLabel.NORMAL,
    "a-i": ClassLabel.DEGENERATE,
    "a-ii": ClassLabel.DEGENERATE,
    "b-i": ClassLabel.POISSON,
    "b-ii": ClassLabel.POISSON,
    "b-iii": ClassLabel.POISSON,
    "b-iv": ClassLabel.POISSON,
    "b-v": ClassLabel.POISSON,
    "c-i": ClassLabel.NORMAL,
    "c-ii": ClassLabel.NORMAL,
    "h3-bi": ClassLabel.DEGENERATE,
    "h3-ci": ClassLabel.NORMAL,
}

BASE_MODES = ("trivial-normal", "height1")


@dataclass(frozen=True)
class Classification:
    label: ClassLabel
    conjectural: bool
    consistent: bool
    by_choice: Tuple[Tuple[int, ClassLabel], ...]


def _combine(parts) -> ClassLabel:
    if len(parts) == 1:
        return (ClassLabel.POISSON if parts[0] is ClassLabel.NORMAL
                else ClassLabel.DEGENERATE)
    a, b = parts
    normals = sum(1 for x in (a, b) if x is ClassLabel.NORMAL)
    if normals == 2:
        return ClassLabel.NORMAL
    if normals == 1 and ClassLabel.POISSON in (a, b):
        return ClassLabel.POISSON
    return ClassLabel.DEGENERATE


@functools.lru_cache(maxsize=None)
def _height1_canon() -> Dict[str, ClassLabel]:
    cat = patterns.catalog()
    return {patterns.canonicalize(cat["cherry"]): ClassLabel.POISSON,
            patterns.canonicalize(cat["trident"]): ClassLabel.NORMAL}


def _base_label(p: PatternSpec, mode: str,
                key: Optional[str] = None) -> Optional[ClassLabel]:
    """p's pinned label if p is a base case, else None (key: p's text)."""
    if p.height == 0:
        # forced in either mode: a bare lineage must act as a normal part
        # for the published height-2 labels to come out right
        return ClassLabel.NORMAL
    if mode == "height1" and p.height == 1:
        return _height1_canon().get(key or patterns.canonicalize(p))
    return None


def _peel(p: PatternSpec, mode: str,
          cache: Dict[str, ClassLabel]) -> Tuple[Tuple[int, ClassLabel], ...]:
    """Each maximal event of p with the label its remainders combine to."""
    return tuple((e, _combine([_classify_canonical(q, mode, cache)
                               for q in patterns.remove_event(p, e)]))
                 for e in patterns.maximal_events(p))


def _classify_canonical(p: PatternSpec, mode: str,
                        cache: Dict[str, ClassLabel]) -> ClassLabel:
    key = patterns.canonicalize(p)
    if key not in cache:
        label = _base_label(p, mode, key)
        if label is None:
            labels = {lab for _, lab in _peel(p, mode, cache)}
            if len(labels) != 1:
                raise InconsistentClassification(p, labels)
            label = labels.pop()
        cache[key] = label
    return cache[key]


class InconsistentClassification(RuntimeError):
    def __init__(self, pattern, labels):
        super().__init__(
            f"maximal-event choices disagree: {sorted(l.value for l in labels)}")
        self.pattern = pattern
        self.labels = labels


def classify(p: PatternSpec, base_mode: str = "trivial-normal") -> Classification:
    """Classify a pattern, trying every maximal event at the top level."""
    if base_mode not in BASE_MODES:
        raise ValueError(f"unknown base mode {base_mode!r}")
    conjectural = patterns.resolve(p)[0] not in KNOWN_LABELS
    label = _base_label(p, base_mode)
    if label is not None:
        return Classification(label, conjectural, True, ((-1, label),))
    by_choice = _peel(p, base_mode, {})
    labels = {lab for _, lab in by_choice}
    consistent = len(labels) == 1
    label = max(labels, key=lambda l: l.frequency_order) if not consistent \
        else labels.pop()
    return Classification(label, conjectural, consistent, by_choice)


def classify_catalog(base_mode: str = "trivial-normal") -> Dict[str, ClassLabel]:
    out = {}
    for pid, spec in patterns.catalog().items():
        out[pid] = classify(spec, base_mode).label
    return out
