"""Limit-law classification of fringe patterns, in closed form.

The paper classifies every fringe pattern of height 1 or 2 as normal,
Poisson or degenerate, and conjectures the same trichotomy for every
pattern.  The conjectured rule peels a maximal event off a pattern,
which leaves one connected remainder or two, and combines the classes
of the remainders:

  one remainder P:    P normal -> Poisson; anything else -> degenerate
  two remainders:     both normal -> normal; normal + Poisson -> Poisson;
                      anything else -> degenerate

with the bare single lineage as normal (mode "trivial-normal"), or with
the two height-1 shapes pinned as well (mode "height1": cherry Poisson,
trident normal).

That recursion has a closed form.  Let r = height - initial lineages + 1
(r >= 0, as a connected pattern has at most height + 1 initial
lineages).  The label is normal at r = 0, Poisson at r = 1 and
degenerate at r >= 2.  Proof, by induction on height: write the labels
as 0, 1 and 2 for normal, Poisson and degenerate, so the rule above is
min(2, a + 1) for one remainder a and min(2, a + b) for two remainders
a and b.  Peeling a maximal event e of p either leaves one remainder,
with p's initial lineages and one event fewer, whose r is r(p) - 1; or
two, whose initial lineages and events split p's less e, whose r values
sum to r(p).  So min(2, r) of the remainders combines to min(2, r(p)).
The bare lineage has r = 0 (normal); the cherry has r = 1 (Poisson) and
the trident r = 0 (normal), so pinning them agrees too.  Hence both base
modes and every choice of maximal event give the same label: a
classification is always consistent, and the base mode changes only
whether a height-1 shape reports the base case or its one maximal event.

Labels for shapes outside the catalog are conjectural.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple

from . import patterns
from .patterns import PatternSpec


class ClassLabel(Enum):
    NORMAL = "Normal"
    POISSON = "Poisson"
    DEGENERATE = "Degenerate"


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

# the label at r = 0, 1 and >= 2
_BY_EXCESS = (ClassLabel.NORMAL, ClassLabel.POISSON, ClassLabel.DEGENERATE)


@dataclass(frozen=True)
class Classification:
    label: ClassLabel
    conjectural: bool
    consistent: bool
    by_choice: Tuple[Tuple[int, ClassLabel], ...]


def classify(p: PatternSpec, base_mode: str = "trivial-normal") -> Classification:
    """The class of a pattern from r = height - initial lineages + 1 (see
    the module docstring).  by_choice is ((-1, label),) for a base case
    (height 0, and height 1 in mode "height1"), else one (event, label)
    pair per maximal event, each with the same label."""
    if base_mode not in BASE_MODES:
        raise ValueError(f"unknown base mode {base_mode!r}")
    conjectural = patterns.resolve(p)[0] not in KNOWN_LABELS
    label = _BY_EXCESS[min(2, p.height - p.initial_lineages + 1)]
    if p.height == 0 or (base_mode == "height1" and p.height == 1):
        by_choice = ((-1, label),)
    else:
        by_choice = tuple((e, label) for e in patterns.maximal_events(p))
    return Classification(label, conjectural, True, by_choice)


def classify_catalog(base_mode: str = "trivial-normal") -> Dict[str, ClassLabel]:
    out = {}
    for pid, spec in patterns.catalog().items():
        out[pid] = classify(spec, base_mode).label
    return out
