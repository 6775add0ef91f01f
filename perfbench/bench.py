"""Measurement loops behind ``run.py``: untraced and traced runs.

An untraced run (:func:`measure`) times repeated build-and-run reps of a
workload, cycling through its sub-seeds until ``--seconds`` have passed,
and reports the simulated metrics of each sub-seed's first rep as a
median over sub-seeds.  Every later rep of a sub-seed must reproduce the
first one's simulated values exactly (the determinism guard), and the
first rep of each sub-seed is drained and checked by the workload's
oracles.

A traced run (:func:`measure_traced`) times untraced reps of one seed,
then installs :class:`~instrument.Instrumentation` and repeats the same
seed traced.  The traced reps must reproduce the untraced simulated values
and each other's per-layer counts exactly, and pass the span self-test.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from instrument import Instrumentation
from workloads import WORKLOADS, percentile, subseed

#: extra build-and-start timings per run, on top of one per timed rep
SETUP_REPEATS = 15

#: traced and untraced reps per traced run (at least)
TRACE_REPS = 2

#: the end-to-end rows of the JSON line; the table adds the raw wall rate,
#: the host factor and ``failed_op_ratio`` (which the JSON line carries as
#: ``failed``/``attempted``)
END_TO_END = ("setup_s", "ops_per_wall_s", "peak_rss_mb",
              "sim_throughput_ops_s", "update_latency_p50_ms",
              "update_latency_p99_ms", "vis_extra_p50_ms", "vis_extra_p99_ms")

#: Wall seconds :func:`calibrate`'s kernel takes on an uncontended core of
#: the host the benchmark was built on (a 2-vCPU VM, CPython 3.11).  Wall
#: rows are rescaled to that speed, which cancels the slow phases a shared
#: host goes through; the value only sets the scale of those rows.
REFERENCE_KERNEL_S = 0.020

_KERNEL_TABLE = {i: i * 7 % 1013 for i in range(4096)}


def calibrate() -> float:
    """Wall seconds of a fixed, allocation-free pure-Python kernel.

    Timed just before and just after every rep.  Its ratio to
    ``REFERENCE_KERNEL_S`` is how much slower than nominal the host is
    running interpreter code at that moment; the kernel is part of the
    benchmark, so it is the same on every commit measured.
    """
    gc.collect()
    table = _KERNEL_TABLE
    total = 0
    t0 = time.perf_counter()
    for i in range(150_000):
        total += table[i & 4095] ^ (i >> 3)
    return time.perf_counter() - t0


def reset_peak_rss() -> None:
    """Start a new resident-memory high-water mark for this process.

    Linux resets ``VmHWM`` to the current resident size when ``5`` is
    written to ``/proc/self/clear_refs``; elsewhere this does nothing and
    :func:`peak_rss_mb` falls back to the process-lifetime peak.
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory (MiB) since :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CheckFailed(RuntimeError):
    """A determinism or tracer self-check failed; the run is invalid."""


def _counts(table: dict) -> dict:
    """The deterministic rows of a per-layer table (all but wall time)."""
    return {k: v for k, v in table.items() if not k.endswith("self_us_per_op")}


def expect_same(reference: dict, found: dict, what: str) -> None:
    """The determinism guard: raise naming the first (sorted) key whose
    value differs between two runs that must agree exactly."""
    for key in sorted(set(reference) | set(found)):
        if reference.get(key) != found.get(key):
            raise CheckFailed(f"{key} differs {what} ({reference.get(key)!r}"
                              f" vs {found.get(key)!r})")


def fingerprint(deployment) -> dict:
    """Simulated values of one run that must repeat exactly per seed."""
    samples = deployment.samples()
    latency, vis = samples["update_latency_ms"], samples["vis_extra_ms"]
    return {
        "sim_throughput_ops_s": samples["throughput"],
        "update_latency_p50_ms": percentile(latency, 0.50),
        "update_latency_p99_ms": percentile(latency, 0.99),
        "update_latency_samples": len(latency),
        "vis_extra_p50_ms": percentile(vis, 0.50),
        "vis_extra_p99_ms": percentile(vis, 0.99),
        "vis_extra_samples": len(vis),
        "ops": deployment.ops(),
        "events": deployment.loop.processed_events,
        "messages_sent": deployment.network.messages_sent,
        "bytes_sent": deployment.network.bytes_sent,
    }


def timed_rep(workload, seed: int, instrumentation=None):
    """Build, start and run one deployment.

    Returns ``(deployment, setup_seconds, run_seconds, tracer)``; the
    tracer is the attached stage tracer when ``instrumentation`` is given.
    """
    gc.collect()
    t0 = time.perf_counter()
    deployment = workload.deploy(seed)
    tracer = deployment.observe() if instrumentation is not None else None
    deployment.start()
    t1 = time.perf_counter()
    if instrumentation is not None:
        instrumentation.begin(deployment.loop)
    deployment.run()
    if instrumentation is not None:
        instrumentation.end(deployment.loop)
    t2 = time.perf_counter()
    return deployment, t1 - t0, t2 - t1, tracer


def setup_samples(workload, seed: int, repeats: int) -> list[float]:
    """Build-and-start wall times of ``repeats`` fresh deployments."""
    out = []
    for _ in range(repeats):
        gc.collect()
        t0 = time.perf_counter()
        workload.deploy(seed).start()
        out.append(time.perf_counter() - t0)
    return out


class Outcome:
    """Correctness tally over every check a run made."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result) -> None:
        attempted, failed, problems = result
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


#: simulated rows, each the median over a run's deployments of the
#: per-deployment value: (name, unit, fingerprint key of the sample count)
SIMULATED_ROWS = (
    ("sim_throughput_ops_s", "ops/sim-s", None),
    ("update_latency_p50_ms", "ms", "update_latency_samples"),
    ("update_latency_p99_ms", "ms", "update_latency_samples"),
    ("vis_extra_p50_ms", "ms", "vis_extra_samples"),
    ("vis_extra_p99_ms", "ms", "vis_extra_samples"),
)


def measure(workload, seed: int, seconds: float, outcome: Outcome,
            log) -> dict:
    """The untraced run: ``name -> (value, unit, sample count)``.

    ``setup_s`` and ``ops_per_wall_s`` are medians over every build and
    every rep, each scaled by the host speed :func:`calibrate` measured
    around it (the raw median rate and the host factor are reported too).
    Simulated rows are computed per deployment and the median is taken
    over the run's deployments, so one deployment with an unusual tail
    episode does not set the run's p99.
    """
    n_sub = workload.subseeds
    reset_peak_rss()
    before = calibrate()
    raw_setups = setup_samples(workload, subseed(seed, 0), SETUP_REPEATS)
    after = calibrate()
    host = (before + after) / (2 * REFERENCE_KERNEL_S)
    setups = [setup / host for setup in raw_setups]
    rates: list[float] = []
    raw_rates: list[float] = []
    hosts: list[float] = []
    first: dict[int, dict] = {}
    begin = time.perf_counter()
    rep = 0
    while rep < 2 * n_sub or time.perf_counter() - begin < seconds:
        index = rep % n_sub
        before = calibrate()
        deployment, setup, wall, _ = timed_rep(workload,
                                               subseed(seed, index))
        host = (before + calibrate()) / (2 * REFERENCE_KERNEL_S)
        hosts.append(host)
        setups.append(setup / host)
        raw_rates.append(deployment.ops() / wall)
        rates.append(raw_rates[-1] * host)
        fp = fingerprint(deployment)
        if index in first:
            expect_same(first[index], fp,
                        f"between repeats of seed {subseed(seed, index)}")
        else:
            first[index] = fp
            outcome.add(deployment.check())
        log(f"  rep {rep}: seed {subseed(seed, index)} "
            f"{wall:.3f} s wall, {deployment.ops()} ops, host x{host:.3f}")
        del deployment
        rep += 1
    rows = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_wall_s": (statistics.median(rates), "ops/s", len(rates)),
        "peak_rss_mb": (peak_rss_mb(), "MiB", 1),
    }
    for name, unit, count in SIMULATED_ROWS:
        rows[name] = (statistics.median(fp[name] for fp in first.values()),
                      unit, sum(fp[count] for fp in first.values()) if count
                      else n_sub)
    rows["ops_per_wall_s.raw"] = (statistics.median(raw_rates), "ops/s",
                                  len(raw_rates))
    rows["host_slowdown"] = (statistics.median(hosts), "ratio", len(hosts))
    return rows


def measure_traced(workload, seed: int, seconds: float, outcome: Outcome,
                   log, out_dir: str) -> dict:
    """Untraced reps, then traced reps of one seed: the per-layer table."""
    seed = subseed(seed, 0)
    begin = time.perf_counter()
    untraced_walls: list[float] = []
    baseline = None
    while len(untraced_walls) < TRACE_REPS:
        deployment, _, wall, _ = timed_rep(workload, seed)
        fp = fingerprint(deployment)
        if baseline is None:
            baseline = fp
            outcome.add(deployment.check())
        expect_same(baseline, fp, f"between untraced repeats of seed {seed}")
        untraced_walls.append(wall)
        log(f"  untraced: {wall:.3f} s wall")
        del deployment

    inst = Instrumentation()
    inst.install()
    try:
        traced_walls: list[float] = []
        tables: list[dict] = []
        while (len(traced_walls) < TRACE_REPS
               or time.perf_counter() - begin < seconds):
            inst.reset()
            deployment, _, wall, tracer = timed_rep(workload, seed, inst)
            problems = inst.rec.self_test(inst.root, wall)
            if problems:
                raise CheckFailed("tracer self-test: " + "; ".join(problems))
            expect_same(baseline, fingerprint(deployment),
                         f"between untraced and traced runs of seed {seed}")
            table = inst.layer_metrics(deployment.ops(),
                                       workload.sim_seconds, tracer)
            if tables:
                expect_same(_counts(tables[0]), _counts(table),
                             f"between traced repeats of seed {seed}")
            tables.append(table)
            traced_walls.append(wall)
            log(f"  traced: {wall:.3f} s wall, {len(inst.rec)} spans")
            del deployment, tracer
        stem = f"spans-{workload.name}-seed{seed}"
        log(f"  spans written to {inst.rec.write(out_dir, stem)}")
    finally:
        inst.uninstall()
    rows = dict(tables[0])
    for name, (_, unit) in tables[0].items():
        if name.endswith("self_us_per_op"):
            rows[name] = (statistics.median(t[name][0] for t in tables), unit)
    rows["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls),
        "ratio")
    for a, b in inst.extra_stage_pairs:
        log(f"  note: stage pair {a}__{b} seen but not reported")
    return rows


def print_table(title: str, rows: dict, samples: dict) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<46} {value:>14.6g} {unit}{suffix}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str, log) -> tuple[Outcome, dict]:
    """Measure one workload, print its table; returns (outcome, metrics)."""
    workload = WORKLOADS[name]
    outcome = Outcome()
    if trace:
        rows = measure_traced(workload, seed, seconds, outcome, log,
                              out_dir)
        print_table(f"{name} per-layer (seed {seed}, traced)", rows, {})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}
    else:
        measured = measure(workload, seed, seconds, outcome, log)
        rows = {k: (v, u) for k, (v, u, _) in measured.items()}
        rows["failed_op_ratio"] = (
            outcome.failed / max(outcome.attempted, 1), "fraction")
        counts = {k: n for k, (_, _, n) in measured.items()}
        counts["failed_op_ratio"] = outcome.attempted
        print_table(f"{name} end-to-end (seed {seed})", rows, counts)
        metrics = {k: {"value": measured[k][0], "unit": measured[k][1]}
                   for k in END_TO_END}
    for problem in outcome.problems[:10]:
        print(f"  VIOLATION: {problem}")
    return outcome, metrics
