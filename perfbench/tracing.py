"""Spans recorded from outside the program, around calls into its layers.

A :class:`SpanRecorder` wraps public functions; each call becomes a span
``(trace, span, parent, name, start, end)`` kept in memory.  The benchmark
opens one trace per hand-in (its root span is ``bench.turn``), so every
layer call a batch causes shares the batch's trace id.  Nothing inside
the program is changed: wrappers go on before a pass and come off after.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

Span = Tuple[int, int, int, str, float, float]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Trace id of the batch being handed in.
        self.trace = 0
        self._stack = [0]  # open span ids; 0 is "no parent"
        self._next_id = 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn*, recording a span named *name* per call."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((self.trace, span_id, parent, name, start, end))

        return traced

    def seconds(self) -> Dict[str, float]:
        """Total span seconds per name."""
        totals: Dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            totals[name] += end - start
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for trace, span, parent, name, start, end in self.spans:
                f.write(
                    json.dumps(
                        {
                            "trace": trace,
                            "span": span,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


class Patches:
    """Attribute replacements undone together (``with Patches() as p``)."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object, bool]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        # Class attributes are read from __dict__ so a classmethod is put
        # back as the descriptor it was, not as a bound method.
        own = vars(owner) if isinstance(owner, type) else owner.__dict__
        self._saved.append((owner, name, own.get(name), name in own))
        setattr(owner, name, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, value, present = self._saved.pop()
            if present:
                setattr(owner, name, value)
            else:
                delattr(owner, name)
