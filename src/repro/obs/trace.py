"""Sampled per-op causal tracing across the whole protocol spine.

A :class:`Tracer` follows a *sampled* subset of updates through named
pipeline stages — from the client issuing the op to it becoming visible at
every remote datacenter — and records one :class:`Span` per sampled op
with sim-time stamps and the serving site for every stage it passes.

Three properties make tracing safe to leave attached to golden runs:

* **zero RNG draws** — sampling is a deterministic hash of the op's
  identity ``Update.uid = (origin_dc, partition_index, seq)``, so an
  instrumented run consumes exactly the same random streams as a bare one;
* **zero event-loop interaction** — the tracer never schedules, delays, or
  reorders anything; every hook is a plain in-memory append on a code path
  that was executing anyway;
* **~0 disabled cost** — components reach the tracer through
  ``metrics.tracer`` (``None`` unless observability was attached), so the
  per-op price of the instrumentation is one attribute read and one
  ``is None`` test.

The ``STAGES`` registry below is the single source of truth for stage
names; ``scripts/check_docs.py`` lints it against the documentation the
same way it lints the fault and placement knob tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Tuple

__all__ = ["STAGES", "STAGE_DESCRIPTIONS", "Span", "Tracer"]

#: Every pipeline stage a span can pass through, in canonical pipeline
#: order.  Not every protocol visits every stage — an eventual store stops
#: at replicate/visible, only the sequencer stores visit seq_order, and
#: only durable Eunomia deployments visit the WAL stages.
STAGES = (
    "issue",
    "commit",
    "replicate",
    "seq_order",
    "uplink_ship",
    "wal_stage",
    "wal_fsync",
    "ingest",
    "merge",
    "propagate",
    "recv_apply",
    "visible",
)

#: Human explanations, keyed by stage name (the docs table mirrors these).
STAGE_DESCRIPTIONS = {
    "issue": "client hands the op to its serving partition",
    "commit": "origin partition stamps and stores the op locally",
    "replicate": "payload multicast directly to sibling partitions",
    "seq_order": "sequencer assigns the global number, sseq/aseq only",
    "uplink_ship": "uplink ships ordering metadata to the stabilizer",
    "wal_stage": "stabilizer stages the op's record in its WAL",
    "wal_fsync": "group-commit fsync covering the staged record",
    "ingest": "stabilizer accepts the op, PartitionTime advances",
    "merge": "shard coordinator's K-way merge releases the op",
    "propagate": "ordered stable run shipped to remote receivers",
    "recv_apply": "remote receiver releases the op to a local partition",
    "visible": "op installed and client-visible at a remote datacenter",
}

#: canonical position per stage (export sorts ties by pipeline order)
_STAGE_ORDER = {name: i for i, name in enumerate(STAGES)}


@dataclass(slots=True)
class Span:
    """One sampled op's journey: (stage, sim-time seconds, site) events.

    Events are appended in simulation order per site; multi-site stages
    (``recv_apply``/``visible`` fire once per remote datacenter) appear
    once per site.
    """

    uid: Tuple[int, int, int]
    key: Any = None
    events: list = field(default_factory=list)

    def stage_times(self, stage: str) -> list:
        """All (time, site) pairs recorded for ``stage``."""
        return [(t, site) for s, t, site in self.events if s == stage]

    def sorted_events(self) -> list:
        """Events in (time, pipeline-order) order — export's timeline."""
        return sorted(self.events,
                      key=lambda e: (e[1], _STAGE_ORDER.get(e[0], 99)))

    def to_dict(self) -> dict:
        return {"uid": list(self.uid), "key": repr(self.key),
                "events": [[s, t, site] for s, t, site in self.events]}


class Tracer:
    """Deterministically sampled span collector (1-in-``sample_every``).

    ``max_spans`` bounds memory on unbounded runs: once the cap is hit, no
    *new* spans open (existing ones keep collecting stages) and ``dropped``
    counts the ops that would have been sampled.
    """

    def __init__(self, sample_every: int = 16, max_spans: int = 100_000):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self.max_spans = max_spans
        self.spans: dict = {}
        self.dropped = 0
        #: WAL name -> spans staged since that WAL's last successful commit
        self._wal_pending: dict = {}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sampled(self, uid: Tuple[int, int, int]) -> bool:
        """Deterministic 1-in-N membership by op-identity hash (no RNG)."""
        dc, part, seq = uid
        h = (seq * 0x9E3779B1 ^ dc * 0x85EBCA6B ^ part * 0xC2B2AE3D)
        return (h & 0xFFFFFFFF) % self.sample_every == 0

    # ------------------------------------------------------------------
    # Recording (called from instrumented components)
    # ------------------------------------------------------------------
    def commit(self, update, now: float,
               issued_at: Optional[float] = None) -> Optional[Span]:
        """Open the span at the origin partition's commit.

        Records the ``issue`` stage first when the client's send time is
        known (threaded through ``ClientUpdate.issued_at``).  Returns the
        span, or ``None`` when the op is not sampled (the caller can skip
        any further per-op work).
        """
        uid = update.uid
        if not self.sampled(uid):
            return None
        span = self.spans.get(uid)
        if span is None:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return None
            span = Span(uid=uid, key=update.key)
            self.spans[uid] = span
        site = update.origin_dc
        if issued_at is not None:
            span.events.append(("issue", issued_at, site))
        span.events.append(("commit", now, site))
        return span

    def stage(self, update, stage: str, now: float, site: int) -> None:
        """Record ``stage`` for ``update`` if it is being traced."""
        span = self.spans.get(update.uid)
        if span is not None:
            span.events.append((stage, now, site))

    def ingest(self, update, now: float, site: int) -> None:
        """Record ``ingest``, opening the span if the op has none yet.

        The geo spine opens spans at the origin partition's commit, so
        here the span already exists and this is a first-site-only stage
        append; rig loads (``harness/loadgen.py``) feed the stabilizer
        from emulators with no commit path, so their sampled ops open at
        service ingestion instead.
        """
        uid = update.uid
        span = self.spans.get(uid)
        if span is None:
            if not self.sampled(uid):
                return
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return
            span = Span(uid=uid, key=getattr(update, "key", None))
            self.spans[uid] = span
        else:
            for s, _, st in span.events:
                if s == "ingest" and st == site:
                    return
        span.events.append(("ingest", now, site))

    def stage_once(self, update, stage: str, now: float, site: int) -> None:
        """Like :meth:`stage`, but first occurrence per (stage, site) only —
        for paths that legally repeat (retransmissions, post-crash
        re-sends), where only the first traversal is the pipeline latency.
        """
        span = self.spans.get(update.uid)
        if span is None:
            return
        for s, _, st in span.events:
            if s == stage and st == site:
                return
        span.events.append((stage, now, site))

    # ------------------------------------------------------------------
    # WAL stages (group commit covers many ops at once)
    # ------------------------------------------------------------------
    def wal_staged(self, wal_name: str, update, now: float,
                   site: int) -> None:
        """Record ``wal_stage`` and park the span until that WAL fsyncs."""
        span = self.spans.get(update.uid)
        if span is None:
            return
        for s, _, _ in span.events:
            if s == "wal_stage":
                return  # first durable replica only
        span.events.append(("wal_stage", now, site))
        self._wal_pending.setdefault(wal_name, []).append(span)

    def wal_synced(self, wal_name: str, now: float, site: int) -> None:
        """Close ``wal_fsync`` for every span staged since the last commit."""
        pending = self._wal_pending.pop(wal_name, None)
        if not pending:
            return
        for span in pending:
            for s, _, _ in span.events:
                if s == "wal_fsync":
                    break
            else:
                span.events.append(("wal_fsync", now, site))

    def wal_hook(self, env, site: int) -> Callable:
        """A ``WriteAheadLog.obs_hook`` closure bound to ``env``'s clock."""
        return lambda wal: self.wal_synced(wal.name, env.now, site)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def iter_spans(self) -> Iterable[Span]:
        """Spans in deterministic (uid) order."""
        return (self.spans[uid] for uid in sorted(self.spans))

    def to_dicts(self) -> list:
        return [span.to_dict() for span in self.iter_spans()]
