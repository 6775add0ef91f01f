"""The ordered buffer of unstable operations inside Eunomia.

``Ops`` in Algorithm 3 is a *set* in the abstract protocol; the implementation
(§6) keeps it ordered by timestamp so that FIND_STABLE is an in-order prefix
scan.  Every backend realizes that design over the total order
``(timestamp, origin partition id, per-partition sequence)`` — the last two
components break ties between concurrent updates from different partitions
(the paper allows any order for equal timestamps) while keeping keys unique.

Two interchangeable strategies (``EunomiaConfig.buffer_backend``):

* ``"runs"`` (default) — :class:`repro.datastruct.runbuffer.RunBuffer`:
  exploits Algorithm 3's per-origin monotonicity for O(1) appends and a
  k-way-merge FIND_STABLE.  Fastest; requires the monotone-ingestion
  contract the stabilizer already enforces via ``PartitionTime``.
* ``"rbtree"`` — :class:`TreeOpBuffer` over the paper's red–black tree:
  O(log n) everything, no ingestion-order assumptions.  It is the
  paper-faithful reference the ``"runs"`` equivalence tests compare
  against.

:func:`OpBuffer` is the strategy facade: a factory returning the chosen
backend instance.  It is deliberately *not* a wrapper object — ``add()`` is
the hot path, and a delegation layer would tax every call; call sites hold
the backend directly.
"""

from __future__ import annotations

from typing import Any, Optional

from .rbtree import RedBlackTree
from .runbuffer import RunBuffer

__all__ = ["OpBuffer", "TreeOpBuffer", "BUFFER_BACKENDS", "DEFAULT_BACKEND"]

#: Recognized ``buffer_backend`` strategy names.
BUFFER_BACKENDS = ("runs", "rbtree")

#: The run-aware buffer is the default: Algorithm 3 guarantees the monotone
#: ingestion it needs, and it wins every micro-benchmark (see
#: ``benchmarks/bench_trees.py::bench_opbuffer_ingestion``).
DEFAULT_BACKEND = "runs"


class TreeOpBuffer:
    """Timestamp-ordered buffer over the red–black tree (§6)."""

    __slots__ = ("_tree", "total_added")

    def __init__(self) -> None:
        self._tree = RedBlackTree()
        self.total_added = 0

    def __len__(self) -> int:
        return len(self._tree)

    def __bool__(self) -> bool:
        return bool(self._tree)

    def add(self, ts: int, origin: int, seq: int, op: Any) -> None:
        """Buffer ``op`` under its (unique) ordering key."""
        self._tree.insert((ts, origin, seq), op)
        self.total_added += 1

    def extend_run(self, entries: list) -> int:
        """Bulk-append interface parity with :class:`RunBuffer`.

        Trees gain nothing from batching — every key still pays its
        O(log n) insert — so this is the plain loop; it exists so the
        batched ingestion path is backend-agnostic.
        """
        insert = self._tree.insert
        for ts, origin, seq, op in entries:
            insert((ts, origin, seq), op)
        self.total_added += len(entries)
        return len(entries)

    def contains(self, ts: int, origin: int, seq: int) -> bool:
        return (ts, origin, seq) in self._tree

    def pop_stable(self, stable_ts: int) -> list:
        """Extract every op with ``ts <= stable_ts`` in total order.

        This is FIND_STABLE + removal (Alg. 3 lines 9–11): because the key's
        first component is the timestamp, ``pop_leq((stable_ts, inf, inf))``
        returns exactly the stable prefix, already serialized consistently
        with causality (Property 1) with deterministic tie-breaks.
        """
        bound = (stable_ts, float("inf"), float("inf"))
        return [op for _, op in self._tree.pop_leq(bound)]

    def min_ts(self) -> Optional[int]:
        """Timestamp of the oldest buffered op, or None when empty."""
        if not self._tree:
            return None
        (ts, _, _), _ = self._tree.min_item()
        return ts

    def drop_stable(self, stable_ts: int) -> int:
        """Discard the stable prefix without returning it (follower replicas).

        Alg. 4 lines 13–15: when a follower learns StableTime from the
        leader, it prunes ops known to have been processed — counting, not
        collecting, so no op list is built.  Returns the number dropped.
        """
        bound = (stable_ts, float("inf"), float("inf"))
        return self._tree.drop_leq(bound)


def OpBuffer(backend: str = DEFAULT_BACKEND):
    """Strategy facade: build the op buffer for ``backend``."""
    if backend == "runs":
        return RunBuffer()
    if backend == "rbtree":
        return TreeOpBuffer()
    raise ValueError(
        f"unknown buffer backend {backend!r} (expected one of "
        f"{', '.join(BUFFER_BACKENDS)})"
    )
