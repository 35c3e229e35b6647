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

from repro.simnet.kernel import Simulator

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

    def reserve(self, nbytes: int, earliest: float) -> float:
        """Reserve the channel for one frame; return its finish time."""
        if nbytes < 0:
            raise ValueError(f"negative frame size {nbytes}")
        return self.reserve_frames((nbytes,), (earliest,))[0]

    def reserve_frames(self, sizes, earliest, lag: float = 0.0) -> list:
        """Reserve the channel now for a message's frames, in the order
        they reach it (the NIC engine guarantees it); return each one's
        finish.  Frame *i* of ``sizes[i]`` bytes reaches the channel at
        ``earliest[i] + lag`` and starts then or once it is free."""
        rate, busy, now = self.rate_bps, self._busy_until, self.sim.now
        if busy < now:
            busy = now
        finishes, i = [], 0
        for nbytes in sizes:  # a bare index beats zip() and enumerate()
            at = earliest[i] + lag
            i += 1
            busy = (at if at > busy else busy) + nbytes * 8.0 / rate
            finishes.append(busy)
        self._busy_until = busy
        return finishes
