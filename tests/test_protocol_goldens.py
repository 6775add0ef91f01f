"""Equivalence guard for the single-spine deployment refactor.

``tests/golden/baseline_goldens.json`` was captured against the
*pre-refactor* builders (every baseline over its own
``baselines/common.py`` frame) immediately before the ``ProtocolSpec``
spine landed.  These tests prove the refactor is observationally
invisible: every protocol, rebuilt as a plugin over
``core/protocols.py`` + ``geo/``, reproduces its golden digest
bit-for-bit — final stores, the full ordered remote-visibility timeline,
and operation counts.

``build_geo_system`` is the one deployment entry point, so these digests
pin every protocol's only assembly path.
"""

import json
from pathlib import Path

import pytest

from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.goldens import GOLDEN_SPEC, GOLDEN_WORKLOAD, capture_golden
from repro.workload import WorkloadSpec

GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "baseline_goldens.json").read_text())

#: digest fields that must match the pre-refactor capture exactly
STRICT_FIELDS = ("fingerprints", "snapshot_sha", "stable_sha",
                 "vis_sorted_sha", "ops", "converged")


def golden_id(golden):
    return f"{golden['protocol']}-seed{golden['seed']}"


@pytest.mark.parametrize("golden", GOLDENS, ids=golden_id)
def test_spine_reproduces_pre_refactor_golden(golden):
    kwargs = {}
    if golden["protocol"] == "cure":
        # The golden predates the run-aware pending set; pin its backend
        # to the classic scan the capture ran with.  The "runs" default is
        # pinned transitively by test_cure_pending_backends_equivalent.
        kwargs["pending_backend"] = "scan"
    fresh = capture_golden(golden["protocol"], golden["seed"], **kwargs)
    for field in STRICT_FIELDS:
        assert fresh[field] == golden[field], (
            f"{golden_id(golden)}: {field} drifted across the refactor")


def test_cure_pending_backends_equivalent():
    """The run-aware pending set is a pure data-structure swap.

    Installs within one release round may reorder (LWW makes the store
    invariant), so the comparison uses the order-independent visibility
    digest alongside stores and op counts.
    """
    runs = capture_golden("cure", GOLDENS[0]["seed"], pending_backend="runs")
    scan = capture_golden("cure", GOLDENS[0]["seed"], pending_backend="scan")
    for field in ("fingerprints", "snapshot_sha", "vis_sorted_sha", "ops",
                  "converged"):
        assert runs[field] == scan[field], f"{field} differs across backends"


def test_cure_rejects_unknown_pending_backend():
    spec = GeoSystemSpec(seed=1, **GOLDEN_SPEC)
    with pytest.raises(ValueError):
        build_geo_system("cure", spec, WorkloadSpec(**GOLDEN_WORKLOAD),
                         pending_backend="heap")


def test_unknown_options_rejected_up_front():
    """A typo'd tunable — or one meant for another protocol — must fail
    loudly instead of silently running the experiment without it."""
    spec = GeoSystemSpec(seed=1, **GOLDEN_SPEC)
    wl = WorkloadSpec(**GOLDEN_WORKLOAD)
    with pytest.raises(TypeError, match="timngs"):
        build_geo_system("eunomia", spec, wl, timngs=123)
    with pytest.raises(TypeError, match="pending_backend"):
        build_geo_system("eventual", spec, wl, pending_backend="runs")
    with pytest.raises(TypeError, match="chain_length"):
        build_geo_system("gentlerain", spec, wl, chain_length=3)
    # S-Seq vs A-Seq is chosen by protocol name, not a flag.
    with pytest.raises(TypeError, match="synchronous"):
        build_geo_system("sseq", spec, wl, synchronous=True)
    # The stabilizer buffer is chosen by EunomiaConfig.buffer_backend only.
    with pytest.raises(TypeError, match="tree_factory"):
        build_geo_system("eunomia", spec, wl, tree_factory=dict)

