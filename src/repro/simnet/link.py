"""Point-to-point channel model.

Each host connects to the switch with a full-duplex link; each direction
is an independent :class:`Channel` that serializes frames at the link
rate.  A frame transfer across the fabric occupies the sender's egress
channel and the receiver's ingress channel in sequence, which is what
creates realistic fan-in (incast) and fan-out contention.

The model is *conservative work-conserving FIFO*: a channel transmits
frames back-to-back in arrival order.  Because the NIC engine fragments
messages into frames and round-robins between queue pairs, concurrent
flows share a channel in proportion to their offered frames, which
approximates fair sharing at frame granularity.
"""

from __future__ import annotations

from repro.simnet.kernel import Simulator, Timeout

__all__ = ["Channel"]


class Channel:
    """One direction of a link: serializes frames at a fixed rate."""

    def __init__(self, sim: Simulator, rate_bps: float, name: str = ""):
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.name = name
        self._busy_until = 0.0
        #: total bytes ever serialized on this channel
        self.bytes_sent = 0
        #: total seconds the channel spent transmitting
        self.busy_seconds = 0.0

    def serialization_time(self, nbytes: int) -> float:
        return nbytes * 8.0 / self.rate_bps

    def reserve(self, nbytes: int, earliest: float) -> float:
        """Reserve the channel for one frame; return its finish time.

        ``earliest`` is the first instant the frame can start (e.g. its
        arrival time at this channel).  The reservation is made
        immediately — callers must reserve in the order frames actually
        reach the channel, which the NIC engine guarantees.
        """
        if nbytes < 0:
            raise ValueError(f"negative frame size {nbytes}")
        start = max(earliest, self._busy_until, self.sim.now)
        tx_time = self.serialization_time(nbytes)
        finish = start + tx_time
        self._busy_until = finish
        self.bytes_sent += nbytes
        self.busy_seconds += tx_time
        return finish

    def utilization(self, since: float = 0.0) -> float:
        """Fraction of time spent transmitting since *since*."""
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Channel {self.name} {self.rate_bps / 1e9:.1f} Gb/s>"
