"""Every comparison system from the paper's evaluation, implemented on the
same substrate as EunomiaKV:

* :mod:`sequencer` — traditional per-DC sequencers, plain and
  chain-replicated (§7.1's competitor);
* :mod:`seqstore` — S-Seq and A-Seq geo-replicated stores (§2, Figure 1);
* :mod:`gentlerain` / :mod:`cure` — global-stabilization stores over the
  shared :mod:`gst` machinery (Figures 1, 5, 6);
* :mod:`eventual` — the zero-overhead eventually consistent yardstick.

Each module registers a :class:`~repro.core.protocols.ProtocolSpec`
plugin, so every baseline deploys through the same
:func:`~repro.geo.system.build_geo_system` spine as EunomiaKV — the same
topology, NTP-disciplined clocks, ring, closed-loop clients, and failure
injection (the paper makes the same point: GentleRain and Cure "are
implemented using the codebase of EunomiaKV").
"""

from ..core.protocols import available_protocols
from .cure import CurePartition, CureProtocol
from .eventual import EventualPartition, EventualProtocol
from .gentlerain import GentleRainPartition, GentleRainProtocol
from .gst import GstPartition, GstProtocol, GstTimings
from .messages import (
    ChainForward,
    GstBroadcast,
    GstHeartbeat,
    GstReport,
    SeqReply,
    SeqRequest,
)
from .seqstore import SeqPartition, SequencerProtocol
from .sequencer import ChainSequencerNode, Sequencer, build_chain

__all__ = [
    "Sequencer",
    "ChainSequencerNode",
    "build_chain",
    "SeqPartition",
    "SequencerProtocol",
    "GstTimings",
    "GstPartition",
    "GstProtocol",
    "GentleRainPartition",
    "GentleRainProtocol",
    "CurePartition",
    "CureProtocol",
    "EventualPartition",
    "EventualProtocol",
    "PROTOCOLS",
    "SeqRequest",
    "SeqReply",
    "ChainForward",
    "GstHeartbeat",
    "GstReport",
    "GstBroadcast",
]

def __getattr__(name: str):
    if name == "PROTOCOLS":
        # Live view, not an import-time snapshot: protocols registered
        # after import (via repro.register_protocol) appear immediately.
        return available_protocols()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

