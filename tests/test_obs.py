"""Observability layer (repro.obs): invariance, accuracy, and wiring.

Two properties carry the whole design and get the heaviest coverage
here:

* **Golden invariance** — attaching the full surface (sampled tracing +
  SLO sketches + gauge scraper) must not move a single bit of any
  protocol's golden digest.  The instruments draw no randomness, send no
  messages, and schedule only read-only periodics, so ``observe=True``
  runs must reproduce ``tests/golden/baseline_goldens.json`` exactly.
* **Sketch accuracy** — the log-bin histogram promises every quantile
  within its relative-error bound of the exact nearest-rank value; a
  hypothesis property checks it against arbitrary value sets.
"""

import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import capture_golden
from repro.metrics.collector import MetricsHub
from repro.metrics.summary import EmptySeriesWarning, percentile
from repro.obs import (
    STAGES,
    LogBinHistogram,
    P2Quantile,
    Tracer,
    chrome_trace,
    render_slo_report,
)
from repro.workload.generator import WorkloadSpec

GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "baseline_goldens.json").read_text())
STRICT_FIELDS = ("fingerprints", "snapshot_sha", "stable_sha",
                 "vis_sorted_sha", "ops", "converged")
PROTOCOLS = ("eventual", "gentlerain", "cure", "sseq", "aseq", "eunomia")


class _Uid:
    """Minimal update stand-in: anything with ``.uid`` + ``.key``."""

    def __init__(self, dc, part, seq):
        self.uid = (dc, part, seq)
        self.origin_dc = dc
        self.key = f"k{seq}"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_sampling_is_deterministic_and_thin():
    tracer = Tracer(sample_every=8)
    picks = [tracer.sampled((0, 1, seq)) for seq in range(4096)]
    assert picks == [tracer.sampled((0, 1, seq)) for seq in range(4096)]
    rate = sum(picks) / len(picks)
    assert 0.05 < rate < 0.25  # ~1/8 with hash jitter
    # sample_every=1 traces everything
    assert all(Tracer(sample_every=1).sampled((d, p, s))
               for d in range(3) for p in range(2) for s in range(16))


def test_tracer_span_lifecycle_and_dedup():
    tracer = Tracer(sample_every=1)
    up = _Uid(0, 1, 7)
    span = tracer.commit(up, 1.0, issued_at=0.5)
    assert span is not None
    tracer.stage(up, "replicate", 1.01, 0)
    tracer.stage_once(up, "recv_apply", 1.05, 2)
    tracer.stage_once(up, "recv_apply", 1.09, 2)   # retransmission: ignored
    tracer.stage_once(up, "recv_apply", 1.06, 1)   # other site: kept
    tracer.stage_once(up, "visible", 1.07, 1)
    assert span.stage_times("issue") == [(0.5, 0)]
    assert span.stage_times("commit") == [(1.0, 0)]
    assert span.stage_times("recv_apply") == [(1.05, 2), (1.06, 1)]
    # sorted_events is time-major, pipeline-order minor
    stages = [s for s, _, _ in span.sorted_events()]
    assert stages[0] == "issue" and stages[1] == "commit"
    assert {s for s, _, _ in span.events} <= set(STAGES)


def test_tracer_wal_group_commit_fanout():
    tracer = Tracer(sample_every=1)
    a, b = _Uid(0, 0, 1), _Uid(0, 0, 2)
    for up in (a, b):
        tracer.commit(up, 1.0)
        tracer.wal_staged("dc0/wal", up, 1.0, 0)
    tracer.wal_synced("dc0/wal", 1.2, 0)
    for up in (a, b):
        span = tracer.spans[up.uid]
        assert span.stage_times("wal_stage") == [(1.0, 0)]
        assert span.stage_times("wal_fsync") == [(1.2, 0)]
    # a second fsync of the same WAL touches nothing (pending was drained)
    tracer.wal_synced("dc0/wal", 1.4, 0)
    assert tracer.spans[a.uid].stage_times("wal_fsync") == [(1.2, 0)]


# ----------------------------------------------------------------------
# Golden invariance — the acceptance criterion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_observability_preserves_goldens(protocol):
    """Tracing + sketches + gauges on → bit-identical golden digest."""
    golden = next(g for g in GOLDENS
                  if g["protocol"] == protocol and g["seed"] == 1234)
    kwargs = {"pending_backend": "scan"} if protocol == "cure" else {}
    observed = capture_golden(protocol, 1234, observe=True, **kwargs)
    for field in STRICT_FIELDS:
        assert observed[field] == golden[field], (
            f"{protocol}: observability changed golden field {field!r}")


# ----------------------------------------------------------------------
# Sketches
# ----------------------------------------------------------------------
def _nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


@given(values=st.lists(st.floats(min_value=1e-3, max_value=1e5,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=300),
       q=st.sampled_from([50.0, 90.0, 99.0, 99.9]))
@settings(max_examples=60, deadline=None)
def test_logbin_quantile_within_relative_error(values, q):
    rel_err = 0.01
    hist = LogBinHistogram(rel_err=rel_err)
    for v in values:
        hist.add(v)
    exact = _nearest_rank(values, q)
    approx = hist.quantile(q)
    assert abs(approx - exact) <= 2 * rel_err * exact + 1e-9


def test_logbin_merge_and_zero_bucket():
    a, b = LogBinHistogram(), LogBinHistogram()
    for v in (0.0, 0.0, 5.0):
        a.add(v)
    for v in (10.0, 20.0):
        b.add(v)
    a.merge(b)
    assert a.n == 5 and a.min == 0.0 and a.max == 20.0
    assert a.quantile(10.0) == 0.0          # zero bucket dominates low tail
    assert a.quantile(100.0) == pytest.approx(20.0, rel=0.05)
    with pytest.raises(ValueError):
        a.merge(LogBinHistogram(rel_err=0.05))


def test_p2_tracks_median_of_uniform_ramp():
    est = P2Quantile(0.5)
    for i in range(1, 1001):
        est.add(float(i))
    assert est.value == pytest.approx(500.0, rel=0.05)
    small = P2Quantile(0.9)
    for v in (3.0, 1.0, 2.0):
        small.add(v)
    assert small.value == 3.0               # exact below 5 observations


def test_metrics_hub_sketch_registry():
    hub = MetricsHub()
    sk = hub.sketch("op_ms")
    sk.add(4.0)
    assert hub.sketch("op_ms") is sk        # same name -> same sketch
    hub.observe("op_ms", 6.0)
    assert sk.n == 2


# ----------------------------------------------------------------------
# Metrics fixes (satellites a + f)
# ----------------------------------------------------------------------
def test_percentile_empty_warns_and_strict_raises():
    with pytest.warns(EmptySeriesWarning):
        assert percentile([], 99.0) == 0.0
    with pytest.raises(ValueError, match="empty"):
        percentile([], 99.0, strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # non-empty input must not warn
        assert percentile([1.0, 3.0], 50.0) == 2.0


def test_metrics_hub_queries_return_copies():
    hub = MetricsHub()
    hub.record("lat", 1.0)
    hub.mark("ops", 0.5)
    hub.point("gauge", 0.5, 2.0)
    for got, again in [(hub.sample_values("lat"), hub.sample_values("lat")),
                       (hub.mark_times("ops"), hub.mark_times("ops")),
                       (hub.point_series("gauge"), hub.point_series("gauge"))]:
        assert got == again
        got.clear()
        assert again != [] and got == []    # mutation did not reach the hub
    assert hub.sample_values("lat") == [1.0]


# ----------------------------------------------------------------------
# End-to-end: gauges, report, chrome trace
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def observed_run():
    spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=2, clients_per_dc=2,
                         seed=11)
    system = build_geo_system("eunomia", spec,
                              WorkloadSpec(read_ratio=0.75, n_keys=64))
    obs = system.observe(sample_every=4)
    system.run(1.5)
    system.quiesce(1.5)
    return system, obs


def test_gauge_scraper_records_nonnegative_series(observed_run):
    system, obs = observed_run
    for dc in range(3):
        for name in ("stab_lag_ms", "receiver_backlog", "runbuffer_depth",
                     "uplink_pending"):
            points = system.metrics.point_series(f"gauge:{name}:dc{dc}")
            assert points, f"gauge:{name}:dc{dc} never scraped"
            assert all(v >= 0.0 for _, v in points)
    lag = [v for _, v in system.metrics.point_series("gauge:stab_lag_ms:dc0")]
    assert max(lag) > 0.0                   # lag is real, not a dead zero


def test_gst_family_reports_pending_depth_gauge():
    spec = GeoSystemSpec(n_dcs=2, partitions_per_dc=2, clients_per_dc=2,
                         seed=3)
    system = build_geo_system("gentlerain", spec,
                          WorkloadSpec(read_ratio=0.5, n_keys=32))
    system.observe(sample_every=8)
    system.run(1.0)
    system.quiesce(1.0)
    for dc in range(2):
        points = system.metrics.point_series(f"gauge:pending_depth:dc{dc}")
        assert points and all(v >= 0.0 for _, v in points)


def test_slo_report_renders_all_tables(observed_run):
    system, obs = observed_run
    report = render_slo_report(system.metrics, tracer=obs.tracer)
    assert "operation latency" in report
    assert "remote visibility latency" in report
    assert "stabilization lag" in report
    assert "dc0->dc1" in report and "sampled spans" in report
    assert "no SLO data recorded" in render_slo_report(MetricsHub())


def test_chrome_trace_export_shape(observed_run):
    system, obs = observed_run
    trace = chrome_trace(tracer=obs.tracer, metrics=system.metrics)
    events = trace["traceEvents"]
    assert trace["displayTimeUnit"] == "ms"
    phases = {e["ph"] for e in events}
    assert {"M", "X", "C"} <= phases
    slices = [e for e in events if e["ph"] == "X"]
    assert slices and all(e["dur"] >= 0 and e["ts"] >= 0 for e in slices)
    assert {e["name"] for e in slices} <= set(STAGES)
    counters = [e for e in events if e["ph"] == "C"]
    assert any("stab_lag_ms" in e["name"] for e in counters)
    json.dumps(trace)                       # must be serializable as-is


def test_service_rig_observe_opens_spans_at_ingest():
    from repro.core.config import EunomiaConfig
    from repro.harness.loadgen import build_eunomia_rig

    rig = build_eunomia_rig(4, config=EunomiaConfig(durability="wal"))
    tracer = rig.observe(sample_every=4)
    rig.run(1.0)
    assert len(tracer) > 0
    stages = {s for span in tracer.iter_spans() for s, _, _ in span.events}
    # emulator loads have no client/commit path: spans open at ingestion
    # and still pick up the WAL group-commit + propagation stages
    assert {"ingest", "wal_stage", "wal_fsync", "propagate"} <= stages


def test_chaos_case_collects_mttr_and_trace():
    from repro.harness.chaos import run_case, sample_schedule

    schedule = sample_schedule("eunomia", seed=5)
    result = run_case(schedule)
    assert result.ok, result.failures
    assert result.mttr and all(
        m["mttr_s"] is None or m["mttr_s"] >= 0.0 for m in result.mttr)
    assert result.trace is not None
    cats = {e.get("cat") for e in result.trace["traceEvents"]}
    assert "fault" in cats                  # fault instants on their track
