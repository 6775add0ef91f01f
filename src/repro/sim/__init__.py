"""Discrete-event simulation substrate.

The paper evaluates Eunomia on a 20-machine private cloud with netem-emulated
WAN latencies.  This package is the laptop-scale stand-in: a deterministic
discrete-event simulator with

* an event loop (:mod:`repro.sim.loop`),
* processes that consume modelled CPU time per message
  (:mod:`repro.sim.process`),
* a FIFO network driven by latency models, including the paper's exact
  3-datacenter RTT matrix (:mod:`repro.sim.network`,
  :mod:`repro.sim.latency`),
* failure and straggler injection (:mod:`repro.sim.failure`), and
* named, reproducible RNG streams (:mod:`repro.sim.rng`).
"""

from .disk import DiskModel
from .env import Environment
from .failure import FailureSchedule, Straggler
from .latency import (
    PAPER_RTT_MS,
    ConstantLatency,
    JitteredLatency,
    LatencyModel,
    RttMatrix,
    paper_topology,
)
from .loop import EventLoop, PeriodicHandle, SimulationError
from .network import Network
from .process import CostModel, PeriodicTask, Process
from .rng import RngRegistry

__all__ = [
    "DiskModel",
    "Environment",
    "EventLoop",
    "PeriodicHandle",
    "SimulationError",
    "Network",
    "Process",
    "CostModel",
    "PeriodicTask",
    "RngRegistry",
    "LatencyModel",
    "ConstantLatency",
    "JitteredLatency",
    "RttMatrix",
    "PAPER_RTT_MS",
    "paper_topology",
    "FailureSchedule",
    "Straggler",
]
