"""In-memory span recorder for the traced benchmark run.

A span is one wall-clock interval spent inside a wrapped entry point: its
name, start, end, the enclosing span (``parent``, used for self time) and
the span that was active when its work was caused (``cause``: for an event
callback, the span that scheduled the event; otherwise the parent).  Spans
live in flat ``array`` columns so a few hundred thousand of them per run
stay cheap, and are written to disk only after the run ends.

Self time of a span is its duration minus the durations of its direct
children.  :meth:`SpanRecorder.self_test` checks that spans nest (every
child inside its parent, no self time below zero, which overlapping
siblings would give) and that the root span agrees with the wall time the
caller measured around the run without the recorder.
"""

from __future__ import annotations

import json
import os
from array import array
from time import perf_counter
from typing import Optional

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Columnar span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (the name table is kept)."""
        self.name = array("i")
        self.parent = array("i")
        self.cause = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.active = False

    def name_id(self, name: str, layer: str) -> int:
        """Intern ``name`` (charged to ``layer``) and return its id."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    # -- recording ------------------------------------------------------
    def open(self, nid: int, cause: Optional[int] = None) -> int:
        """Open a span; ``cause`` defaults to the enclosing span."""
        stack = self.stack
        index = len(self.name)
        parent = stack[-1] if stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.cause.append(parent if cause is None else cause)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    # -- analysis -------------------------------------------------------
    def self_times(self) -> array:
        """Per-span self time: duration minus direct children's durations."""
        start, end, parent = self.start, self.end, self.parent
        own = array("d", (end[i] - start[i] for i in range(len(start))))
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer, over every recorded span."""
        own = self.self_times()
        layers = self.layers
        totals: dict[str, float] = {}
        name = self.name
        for i in range(len(own)):
            layer = layers[name[i]]
            totals[layer] = totals.get(layer, 0.0) + own[i]
        return totals

    def self_test(self, root: int, outside_wall: float,
                  slack: float = 0.01) -> list[str]:
        """Structural checks; returns a list of problems (empty = pass).

        * every span is closed and ends no earlier than it starts;
        * every child span lies inside its parent's interval;
        * every span descends from ``root`` (nothing leaked outside it);
        * no span's self time is negative (its children do not overlap);
        * the root's duration is within ``slack`` (relative, plus 1 ms) of
          ``outside_wall``, the wall time timed around the run by a clock
          the recorder does not own, and not longer than it.
        """
        problems: list[str] = []
        start, end, parent = self.start, self.end, self.parent
        if self.stack:
            problems.append(f"{len(self.stack)} span(s) still open")
        for i in range(len(start)):
            if end[i] < start[i]:
                problems.append(f"span {i} ({self.names[self.name[i]]}) "
                                "ends before it starts")
                break
            p = parent[i]
            if i == root:
                continue
            if p < 0:
                problems.append(f"span {i} ({self.names[self.name[i]]}) "
                                "has no parent under the root")
                break
            if start[i] < start[p] or end[i] > end[p]:
                problems.append(
                    f"span {i} ({self.names[self.name[i]]}) lies outside "
                    f"its parent {p} ({self.names[self.name[p]]})")
                break
        own = self.self_times()
        for i in range(len(own)):
            if own[i] < -1e-9:
                problems.append(
                    f"span {i} ({self.names[self.name[i]]}) has negative "
                    f"self time {own[i]:.9f} s: its children overlap")
                break
        root_wall = end[root] - start[root]
        if not (outside_wall * (1.0 - slack) - 1e-3 <= root_wall
                <= outside_wall):
            problems.append(f"root span lasted {root_wall:.6f} s, the run "
                            f"timed outside it {outside_wall:.6f} s")
        return problems

    # -- export ---------------------------------------------------------
    def write(self, directory: str, stem: str) -> str:
        """Write spans as raw columns plus a JSON header; returns its path.

        ``<stem>.json`` names the columns, their array type codes and the
        name/layer tables; ``<stem>.<column>.bin`` hold the native-endian
        column data (``array.fromfile`` reads them back).
        """
        os.makedirs(directory, exist_ok=True)
        columns = {"name": self.name, "parent": self.parent,
                   "cause": self.cause, "start": self.start, "end": self.end}
        for column, data in columns.items():
            with open(os.path.join(directory, f"{stem}.{column}.bin"),
                      "wb") as handle:
                data.tofile(handle)
        header = {
            "spans": len(self.name),
            "columns": {c: data.typecode for c, data in columns.items()},
            "names": self.names,
            "layers": self.layers,
            "time": "perf_counter seconds",
        }
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w") as handle:
            json.dump(header, handle)
        return path
