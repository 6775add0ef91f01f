"""Clock models: physical clocks with drift, NTP discipline, hybrid logical
clocks (the timestamp source of Algorithm 2), and vector clocks (§4)."""

from .hlc import HybridLogicalClock
from .ntp import NtpSynchronizer
from .physical import PhysicalClock
from .vector import (
    VectorClock,
    vc_bump,
    vc_concurrent,
    vc_leq,
    vc_lt,
    vc_merge,
    vc_zero,
)

__all__ = [
    "PhysicalClock",
    "HybridLogicalClock",
    "NtpSynchronizer",
    "VectorClock",
    "vc_zero",
    "vc_merge",
    "vc_leq",
    "vc_lt",
    "vc_concurrent",
    "vc_bump",
]
