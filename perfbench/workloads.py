"""The benchmark's four workloads and their correctness oracles.

Each workload builds a deployment from a seed, runs it for a fixed span of
simulated time, and reports three things about that run:

* ``ops()`` — work completed, the numerator of ``ops_per_wall_s``;
* ``samples()`` — the simulated series behind the paper metrics
  (steady-window throughput, update latency, extra visibility delay);
* ``check()`` — drains the deployment and runs the oracles, returning
  ``(attempted, failed, problems)``.

All traffic is closed loop and every client or load generator is simulated
inside this one single-threaded process.  Deployment shapes and seeds
follow ``benchmarks/bench_geo_e2e.py`` (3 DCs x 4 partitions x 8 sessions;
``--seed 31`` and ``--seed 33`` reproduce its two deployments).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from repro.baselines.gst import GstTimings
from repro.calibration import Calibration
from repro.checker.causal import CausalChecker
from repro.checker.history import SessionHistory
from repro.core.config import EunomiaConfig
from repro.geo.system import GeoSystemSpec, build_geo_system
from repro.harness.loadgen import INTRA_DC_LATENCY, build_eunomia_rig
from repro.metrics import throughput
from repro.workload import WorkloadSpec

__all__ = ["WORKLOADS", "Workload", "percentile", "subseed"]

#: Per-op generation cost of the rig's emulated partitions.  At the
#: calibrated 160 us the 60 emulators cannot load the stabilizer; 25 us is
#: the overload setting of ``benchmarks/bench_ablations.py``, and drives the
#: K=4 x R=2 service past saturation so the rig's throughput is the
#: service's, not the emulators'.
RIG_GEN_US = 25.0

#: Simulated seconds the rig runs before its measured window opens.  At
#: 25 us its stabilization rate swings by +-30% over the first ~0.15 s while
#: the shard queues fill, and is flat from then on.
RIG_WARMUP_S = 0.15

#: Offset between the sub-seeds of one run (see :func:`subseed`).
SUBSEED_STRIDE = 1000


def subseed(seed: int, index: int) -> int:
    """Deployment seed ``index`` of a run started with ``--seed seed``."""
    return seed + SUBSEED_STRIDE * index


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for an empty series)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _in_window(points, window) -> list[float]:
    lo, hi = window
    return [value for t, value in points if lo <= t <= hi]


class GeoDeployment:
    """A full geo-replicated deployment with a recorded client history."""

    def __init__(self, workload: "Workload", seed: int):
        self.workload = workload
        self.history = SessionHistory()
        spec = GeoSystemSpec(n_dcs=3, partitions_per_dc=4, clients_per_dc=8,
                             seed=seed)
        self.system = build_geo_system(
            workload.protocol, spec, workload.client_spec(),
            history=self.history, **workload.options())
        self.loop = self.system.env.loop
        self.network = self.system.env.network

    def start(self) -> None:
        self.system.start()

    def observe(self):
        """Attach per-op stage tracing (every op sampled)."""
        return self.system.observe(sample_every=1, gauges=False,
                                   slo=False).tracer

    def run(self) -> None:
        self.system.run(self.workload.sim_seconds)

    def ops(self) -> int:
        return len(self.system.metrics.marks.get("ops", ()))

    def samples(self) -> dict:
        system = self.system
        window = system.window()
        n = system.spec.n_dcs
        metrics = system.metrics
        latency = []
        for dc in range(n):
            latency += _in_window(
                metrics.point_series(f"latency_ms:update:dc{dc}"), window)
        vis = []
        for origin in range(n):
            for dest in range(n):
                if origin != dest:
                    vis += system.visibility_extra_ms(origin, dest)
        return {"throughput": system.total_throughput(),
                "update_latency_ms": latency, "vis_extra_ms": vis}

    def check(self) -> tuple[int, int, list[str]]:
        """Quiesce, then run the causal checker, the per-pair apply count
        and the convergence check."""
        system = self.system
        system.quiesce(2.0)
        problems: list[str] = []
        checker = CausalChecker(self.history)
        violations = checker.check() + checker.check_write_read_pairs()
        problems += [str(v) for v in violations[:5]]
        dc_of = {client.name: client.dc_id for client in system.clients}
        issued = Counter(dc_of[r.client] for r in self.history.all_updates())
        missing = 0
        n = system.spec.n_dcs
        for origin in range(n):
            worst = 0
            for dest in range(n):
                if origin == dest:
                    continue
                applied = len(system.metrics.points.get(
                    f"vis_extra_ms:{origin}->{dest}", ()))
                if applied != issued[origin]:
                    problems.append(
                        f"dc{origin}->dc{dest}: {applied} remote applies "
                        f"for {issued[origin]} issued updates")
                worst = max(worst, abs(applied - issued[origin]))
            missing += worst
        converged = system.converged()
        if not converged:
            problems.append("datacenters did not converge after quiesce")
        failed = len(violations) + missing + (0 if converged else 1)
        return self.history.total_ops, failed, problems


class RigDeployment:
    """The §7.1 saturation rig: emulated partitions -> stabilizer -> sink."""

    def __init__(self, workload: "Workload", seed: int):
        self.workload = workload
        self.rig = build_eunomia_rig(workload.rig_partitions,
                                     config=workload.options()["config"],
                                     calibration=Calibration(
                                         emulated_partition_gen_us=RIG_GEN_US),
                                     seed=seed)
        self.loop = self.rig.env.loop
        self.network = self.rig.env.network
        self.window = (0.0, 0.0)
        sink = self.rig.sink
        sink.record = True
        arrivals: list[tuple[float, tuple]] = []
        self.arrivals = arrivals
        handler = type(sink).on_remote_stable_batch

        def on_remote_stable_batch(msg, src):
            arrivals.append((sink.now, msg.ops))
            handler(sink, msg, src)
        sink.on_remote_stable_batch = on_remote_stable_batch

        # Per emulator: every recorded op, and (time, fully-acked ts) each
        # time the minimum acknowledgement over all replicas advanced.
        self.recorded: list[list] = []
        self.acked: list[list[tuple[float, int]]] = []
        for driver in self.rig.drivers:
            self._hook_driver(driver)

    def _hook_driver(self, driver) -> None:
        uplink = driver.uplink
        recorded: list = []
        acked: list[tuple[float, int]] = []
        self.recorded.append(recorded)
        self.acked.append(acked)
        record = uplink.record

        def record_op(op):
            recorded.append(op)
            record(op)
        uplink.record = record_op
        handler = type(driver).on_batch_ack

        def on_batch_ack(msg, src):
            handler(driver, msg, src)
            floor = min(uplink.acked_ts(r) for r in uplink.replicas)
            if not acked or floor > acked[-1][1]:
                acked.append((driver.now, floor))
        driver.on_batch_ack = on_batch_ack

    def start(self) -> None:
        self.rig.start()

    def observe(self):
        return self.rig.observe(sample_every=1)

    def run(self) -> None:
        start = self.loop.now
        self.rig.env.run(until=start + self.workload.sim_seconds)
        self.window = (start + RIG_WARMUP_S, self.loop.now)

    def ops(self) -> int:
        return self.rig.sink.received

    def samples(self) -> dict:
        window = self.window
        lo, hi = window
        vis = []
        for t, ops in self.arrivals:
            if lo <= t <= hi:
                vis += [(t - op.commit_time - INTRA_DC_LATENCY) * 1e3
                        for op in ops]
        latency = []
        for recorded, acked in zip(self.recorded, self.acked):
            i = 0
            for t, floor in acked:
                while i < len(recorded) and recorded[i].ts <= floor:
                    if lo <= t <= hi:
                        latency.append((t - recorded[i].commit_time) * 1e3)
                    i += 1
        marks = self.rig.metrics.mark_times(self.rig.throughput_mark)
        return {"throughput": throughput(marks, window),
                "update_latency_ms": latency, "vis_extra_ms": vis}

    def check(self) -> tuple[int, int, list[str]]:
        """Stop the emulators, drain, and check exactly-once at the sink."""
        rig = self.rig
        for driver in rig.drivers:
            driver.stop()
        expected = sum(driver.generated for driver in rig.drivers)
        deadline = self.loop.now + 2.0
        while rig.sink.received < expected and self.loop.now < deadline:
            rig.env.run(until=self.loop.now + 0.02)
        seen = Counter(rig.sink.collected)
        missing = duplicated = 0
        for driver in rig.drivers:
            for seq in range(1, driver.generated + 1):
                count = seen.pop((0, driver.index, seq), 0)
                if count == 0:
                    missing += 1
                elif count > 1:
                    duplicated += count - 1
        unexpected = sum(seen.values())
        problems = []
        if missing or duplicated or unexpected:
            problems.append(f"sink: {missing} stabilized ops missing, "
                            f"{duplicated} duplicated, {unexpected} unknown")
        return expected, missing + duplicated + unexpected, problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str
    sim_seconds: float
    #: deployments (distinct sub-seeds) one run measures; its simulated
    #: metrics are medians over them
    subseeds: int
    read_ratio: float = 0.0
    n_keys: int = 0
    distribution: str = "uniform"
    config: Optional[Callable[[], EunomiaConfig]] = None
    timings: Optional[Callable[[], GstTimings]] = None
    rig_partitions: int = 0

    def client_spec(self) -> WorkloadSpec:
        return WorkloadSpec(read_ratio=self.read_ratio, n_keys=self.n_keys,
                            distribution=self.distribution)

    def options(self) -> dict:
        options = {}
        if self.config is not None:
            options["config"] = self.config()
        if self.timings is not None:
            options["timings"] = self.timings()
        return options

    def deploy(self, seed: int):
        if self.rig_partitions:
            return RigDeployment(self, seed)
        return GeoDeployment(self, seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="geo_read_mostly",
        why="paper default traffic (90:10, uniform 500 keys) on EunomiaKV: "
            "substrate-heavy, the stabilizer barely shows",
        protocol="eunomia", sim_seconds=2.0, subseeds=3,
        read_ratio=0.9, n_keys=500),
    Workload(
        name="geo_update_heavy_ft",
        why="10:90 with FT R=2: nearly every op crosses partition, uplink, "
            "stabilizer, propagation and receiver",
        protocol="eunomia", sim_seconds=2.0, subseeds=6,
        read_ratio=0.1, n_keys=500,
        config=lambda: EunomiaConfig(fault_tolerant=True, n_replicas=2)),
    Workload(
        name="stabilizer_saturation",
        why="paper 7.1 max-throughput rig: 60 emulated partitions overload "
            "a K=4 x R=2 stabilizer with a WAL; only run of shard and WAL",
        protocol="eunomia", sim_seconds=0.3, subseeds=2,
        config=lambda: EunomiaConfig(fault_tolerant=True, n_replicas=2,
                                     n_shards=4, durability="wal"),
        rig_partitions=60),
    Workload(
        name="cure_zipf",
        why="Cure at paper cadence, 75:25 over 1000 power-law keys: the "
            "baselines' periodic GST rounds and shared hot keys",
        protocol="cure", sim_seconds=2.0, subseeds=3,
        read_ratio=0.75, n_keys=1000, distribution="zipf",
        timings=lambda: GstTimings(heartbeat_interval=0.010,
                                   gst_interval=0.005)),
)}
