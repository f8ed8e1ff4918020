"""In-memory spans around calls into rtcnlab's public functions.

A span records its name, start, end, parent span, thread id and the run
id.  Spans are recorded from outside the package: `Tracer.wrap` replaces
a module or class attribute with a timing wrapper, so every caller that
looks the attribute up at call time is traced, and `Tracer.restore` puts
the original back.  Nothing under src/ is edited.  A wrapped function
can also be given a count, a function of each call's result (say, the
number of words drawn) whose values are kept in `Tracer.counted`.

A span opened on a thread with no open span of its own (a Monte Carlo
worker) takes as parent the innermost span open on the thread that
created the tracer, so worker time nests under `run_experiment`.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (span id, parent id or 0, name, thread id, start, end); times are
# time.perf_counter() seconds
Span = Tuple[int, int, str, int, float, float]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counted: List[Tuple[str, int]] = []   # (span name, count)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack, time.perf_counter()

    def _exit(self, frame, name: str) -> None:
        end = time.perf_counter()
        sid, parent, stack, start = frame
        stack.pop()
        self.spans.append((sid, parent, name, threading.get_ident(), start,
                           end))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        try:
            yield frame[0]
        finally:
            self._exit(frame, name)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace every call made through owner.attr until restore(); with
        count, also keep count(result) of every call."""
        original = getattr(owner, attr)
        enter, leave, counted = self._enter, self._exit, self.counted
        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                # one span per item: the time spent producing it
                it = original(*args, **kwargs)
                while True:
                    frame = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, name)
                    yield item
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                frame = enter()
                try:
                    out = original(*args, **kwargs)
                finally:
                    leave(frame, name)
                if count is not None:
                    # list.append is atomic; worker threads call this too
                    counted.append((name, count(out)))
                return out
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------

    def totals(self) -> Dict[str, dict]:
        """Per span name: call count, summed duration and summed self time.

        Self time is a span's duration minus the part of it covered by
        its children; overlapping children (parallel workers) are merged
        before subtracting.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, _tid, start, end in self.spans:
            if parent:
                children[parent].append((start, end))
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _parent, name, _tid, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - _covered(start, end,
                                                      children.get(sid, ()))
        return dict(out)

    def write(self, path, extra: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        tids = sorted({s[3] for s in self.spans})
        tindex = {tid: i for i, tid in enumerate(tids)}
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = dict(extra)
        doc.update({
            "run_id": self.run_id,
            "span_fields": ["id", "parent", "name", "thread", "start_s",
                            "end_s"],
            "names": names,
            "threads": [str(t) for t in tids],
            "spans": [[sid, parent, index[name], tindex[tid],
                       round(start - t0, 7), round(end - t0, 7)]
                      for sid, parent, name, tid, start, end
                      in sorted(self.spans)],
        })
        text = json.dumps(doc, separators=(",", ":"))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(text)


def _covered(start: float, end: float, intervals) -> float:
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
