"""Self-tests of the benchmark itself.

* the span recorder's structural checks (nesting, non-negative self
  times, root span against the wall time timed outside it);
* the determinism guard names the first metric that differs;
* the per-layer table, ``BENCHMARK.json`` and ``predictions.json`` name
  the same rows;
* the bypass half of the prediction table holds on a seed that was not
  used while the benchmark was built: every row a workload is predicted
  to bypass reads exactly zero there, and the uplink costs more wall time
  per op on the update-heavy workload than on the read-mostly one.

Run from the repository root (takes a few minutes)::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from bench import (  # noqa: E402
    CheckFailed, Outcome, expect_same, measure_traced)
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a seed no tuning run used
SEED = 9001

#: simulated seconds per traced rep: the bypass checks are counts, so a
#: short run exercises every layer a full one does
SHORT_SIM_SECONDS = 0.5


@functools.lru_cache(maxsize=None)
def traced_table(name: str) -> tuple[dict, Outcome]:
    workload = WORKLOADS[name]
    workload = dataclasses.replace(
        workload, sim_seconds=min(workload.sim_seconds, SHORT_SIM_SECONDS))
    outcome = Outcome()
    rows = measure_traced(workload, SEED, 0.0, outcome, lambda _: None,
                          os.path.join(HERE, "out"))
    return {name: value for name, (value, _) in rows.items()}, outcome


def _load(path: str):
    with open(os.path.join(ROOT, path)) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------
def _recorder_with(intervals):
    """A recorder holding ``(name, layer, start, end, parent)`` spans."""
    rec = SpanRecorder()
    for name, layer, start, end, parent in intervals:
        rec.name.append(rec.name_id(name, layer))
        rec.parent.append(parent)
        rec.cause.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_times_sum_to_root():
    rec = _recorder_with([
        ("root", "sim.loop", 0.0, 10.0, -1),
        ("event:core.uplink", "core.uplink", 1.0, 5.0, 0),
        ("send", "sim.network", 2.0, 3.0, 1),
        ("event:core.partition", "core.partition", 6.0, 9.0, 0),
    ])
    assert rec.self_test(0, 10.0) == []
    assert rec.layer_self_seconds() == {
        "sim.loop": 3.0, "core.uplink": 3.0, "sim.network": 1.0,
        "core.partition": 3.0}


def test_self_test_flags_overlapping_siblings():
    rec = _recorder_with([
        ("root", "sim.loop", 0.0, 10.0, -1),
        ("event", "core.uplink", 1.0, 5.0, 0),
        ("send", "sim.network", 1.5, 4.0, 1),
        ("send", "sim.network", 2.0, 4.5, 1),
    ])
    assert any("negative self time" in p for p in rec.self_test(0, 10.0))


def test_self_test_flags_a_root_that_disagrees_with_outside_wall():
    rec = _recorder_with([("root", "sim.loop", 0.0, 10.0, -1)])
    assert rec.self_test(0, 10.05) == []
    assert any("timed outside" in p for p in rec.self_test(0, 12.0))
    assert any("timed outside" in p for p in rec.self_test(0, 9.0))


def test_self_test_flags_a_child_outside_its_parent():
    rec = _recorder_with([
        ("root", "sim.loop", 0.0, 10.0, -1),
        ("event", "core.uplink", 1.0, 5.0, 0),
        ("send", "sim.network", 4.0, 6.0, 1),
    ])
    assert any("outside its parent" in p for p in rec.self_test(0, 10.0))


def test_recorder_nests_real_spans():
    rec = SpanRecorder()
    root = rec.open(rec.name_id("root", "sim.loop"))
    inner = rec.open(rec.name_id("inner", "other"))
    rec.close(inner)
    rec.close(root)
    assert rec.parent[inner] == root
    wall = rec.end[root] - rec.start[root]
    assert rec.self_test(root, wall) == []


# ----------------------------------------------------------------------
# Determinism guard
# ----------------------------------------------------------------------
def test_guard_names_the_first_differing_metric():
    reference = {"events": 10, "ops": 5, "vis_extra_p99_ms": 1.5}
    expect_same(reference, dict(reference), "between repeats")
    with pytest.raises(CheckFailed, match="^ops differs"):
        expect_same(reference, {"events": 10, "ops": 6,
                                "vis_extra_p99_ms": 2.0}, "between repeats")


# ----------------------------------------------------------------------
# Names and predictions
# ----------------------------------------------------------------------
def test_table_benchmark_json_and_predictions_agree():
    table, _ = traced_table("geo_read_mostly")
    declared = [row["name"] for row in _load("BENCHMARK.json")["per_layer"]]
    predictions = _load("perfbench/predictions.json")
    assert declared == list(table)
    assert set(predictions) == set(table)
    for name, entry in predictions.items():
        assert set(entry["exercised_by"]).isdisjoint(entry["bypassed_by"])
        assert set(entry["on"]) <= set(entry["exercised_by"]), name
        assert set(entry["exercised_by"]) | set(entry["bypassed_by"]) \
            <= set(WORKLOADS), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bypassed_rows_read_zero(name):
    table, outcome = traced_table(name)
    assert outcome.failed == 0, outcome.problems
    predictions = _load("perfbench/predictions.json")
    nonzero = sorted(metric for metric, entry in predictions.items()
                     if name in entry["bypassed_by"] and table[metric] != 0)
    assert nonzero == []


def test_uplink_costs_more_per_op_when_updates_dominate():
    heavy, _ = traced_table("geo_update_heavy_ft")
    light, _ = traced_table("geo_read_mostly")
    assert (heavy["core.uplink.self_us_per_op"]
            > light["core.uplink.self_us_per_op"])
