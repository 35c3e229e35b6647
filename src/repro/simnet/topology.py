"""Cluster topology: hosts behind a single cut-through switch.

The paper's testbed is 12 machines on one FDR switch, so the fabric
model is deliberately simple: every host has a full-duplex link to one
switch with an uncongested backplane.  Congestion therefore happens
exactly where it does on such a pod — at host egress and host ingress.

A message's journey is computed analytically: its frames serialize on
the sender's egress channel at send time, cross two propagation hops
plus the switch latency, and serialize on the receiver's ingress
channel, claimed when the first frame arrives — two kernel queue
entries per message however many frames it has.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.simnet.config import NetworkConfig
from repro.simnet.cpu import Cpu
from repro.simnet.kernel import Event, Simulator
from repro.simnet.link import Channel

__all__ = ["Host", "Network"]


class Host:
    """A machine: CPU model plus the two directions of its fabric link."""

    def __init__(self, sim: Simulator, host_id: int, config: NetworkConfig):
        self.sim = sim
        self.host_id = host_id
        self.name = f"host{host_id}"
        self.config = config
        self.cpu = Cpu(
            sim,
            cores=config.cores_per_host,
            copy_bandwidth_Bps=config.copy_bandwidth_Bps,
        )
        self.egress = Channel(sim, config.link_rate_bps, f"{self.name}.tx")
        self.ingress = Channel(sim, config.link_rate_bps, f"{self.name}.rx")
        self.loopback = Channel(sim, config.loopback_rate_bps,
                                f"{self.name}.loop")
        #: arbitrary attachment point for services (NICs, daemons)
        self.services: dict[str, object] = {}
        #: the rack this host hangs off, assigned by its :class:`Network`
        self.rack: Optional[Rack] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name}>"


class Rack:
    """A top-of-rack domain with an (optionally oversubscribed) uplink."""

    def __init__(self, sim: Simulator, rack_id: int, num_hosts: int,
                 config: NetworkConfig):
        self.rack_id = rack_id
        uplink_rate = max(
            config.link_rate_bps,
            num_hosts * config.link_rate_bps / config.oversubscription,
        )
        self.up = Channel(sim, uplink_rate, f"rack{rack_id}.up")
        self.down = Channel(sim, uplink_rate, f"rack{rack_id}.down")


class Network:
    """The fabric: owns the hosts and moves frames between them.

    With ``config.racks == 1`` (the default, the paper's testbed) every
    host hangs off one cut-through switch.  With more racks, hosts are
    assigned round-robin and cross-rack frames additionally traverse the
    source rack's uplink and the destination rack's downlink, whose
    capacity is governed by ``config.oversubscription``.
    """

    def __init__(
        self,
        sim: Simulator,
        num_hosts: int,
        config: Optional[NetworkConfig] = None,
    ):
        if num_hosts < 1:
            raise ValueError(f"need at least one host, got {num_hosts}")
        self.sim = sim
        self.config = cfg = config or NetworkConfig()
        self.hosts = [Host(sim, i, cfg) for i in range(num_hosts)]
        self.racks = [
            Rack(sim, r, -(-num_hosts // cfg.racks), cfg)
            for r in range(cfg.racks)
        ]
        for host in self.hosts:
            host.rack = self.racks[host.host_id % cfg.racks]
        #: propagation + switch latency excluding serialization, within
        #: a rack and across two (two extra hops: ToR -> spine -> ToR)
        self.one_way_base_delay = 2 * cfg.link_prop_delay_s + cfg.switch_latency_s
        self._cross_rack_delay = self.one_way_base_delay + (
            2 * cfg.link_prop_delay_s + cfg.switch_latency_s)
        #: total bytes carried across the switch
        self.bytes_carried = 0
        #: total frames carried
        self.frames_carried = 0
        #: optional partition filter: ``filter(src_id, dst_id) -> bool``;
        #: True silently drops the message (its delivery event never
        #: fires — the fabric ate it, exactly like a real partition)
        self.fault_filter: Optional[Callable[[int, int], bool]] = None
        #: messages eaten by the fault filter
        self.messages_dropped = 0

    def __len__(self) -> int:
        return len(self.hosts)

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    def transmit_message(
        self,
        src: Host,
        dst: Host,
        nbytes: int,
        frame_size: Optional[int] = None,
        header_bytes: int = 0,
        on_delivered: Optional[Callable[..., None]] = None,
        args: tuple = (),
    ) -> Optional[Event]:
        """Send a whole message, fragmented into frames.

        Delivery of the **last** frame either calls
        ``on_delivered(*args)`` straight from the delivery timer (and
        nothing is returned), or, without ``on_delivered``, fires the
        returned event — the form for a caller that waits on it.

        The egress chain is computed analytically at send time (no
        per-frame simulator events).  The *ingress* reservation is
        deferred to the first frame's arrival: receiver-side channel
        time is claimed in arrival order, so concurrent senders share a
        hot receiver fairly instead of in send-call order.  Cost: two
        simulator events per message regardless of frame count (one
        over loopback; one more for the returned event).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        sim = self.sim
        done = None
        if on_delivered is None:
            done = Event(sim)
            on_delivered = done.succeed
        if (
            self.fault_filter is not None
            and src is not dst
            and self.fault_filter(src.host_id, dst.host_id)
        ):
            # partitioned: the message vanishes in the fabric; no bytes
            # are accounted and delivery never happens — loss is the
            # caller's (transport's) problem, as on a real network
            self.messages_dropped += 1
            return done
        frame_size = frame_size or self.config.frame_size
        nframes = max(1, -(-nbytes // frame_size))
        wire_bytes = nbytes + nframes * header_bytes
        self.bytes_carried += wire_bytes
        self.frames_carried += nframes
        now = sim.now
        if src is dst:
            finish = src.loopback.reserve(nbytes, earliest=now)
            sim.call_later(finish - now, on_delivered, *args)
            return done
        src_rack, dst_rack = src.rack, dst.rack
        if src_rack is dst_rack:
            dst_rack, base = None, self.one_way_base_delay
        else:
            base = self._cross_rack_delay
        if nframes == 1:
            sizes = [nbytes + header_bytes]
        else:
            sizes = [frame_size + header_bytes] * (nframes - 1)
            sizes.append(nbytes - (nframes - 1) * frame_size + header_bytes)
        # sender-side chain: host egress, then the rack uplink
        out = src.egress.reserve_frames(sizes, [now] * nframes)
        if dst_rack is not None:
            out = src_rack.up.reserve_frames(sizes, out)
        sim.call_later(out[0] + base - now, self._claim_ingress,
                       sizes, out, base, dst, dst_rack, on_delivered, args)
        return done

    def _claim_ingress(self, sizes, out, base: float, dst: Host,
                       dst_rack: Optional[Rack], on_delivered, args) -> None:
        """The first frame arrived, *base* after it left: claim the rack
        downlink (if *dst_rack*), then ingress, and time the delivery."""
        if dst_rack is not None:
            out, base = dst_rack.down.reserve_frames(sizes, out, base), 0.0
        last = dst.ingress.reserve_frames(sizes, out, base)[-1]
        self.sim.call_later(last - self.sim.now, on_delivered, *args)
