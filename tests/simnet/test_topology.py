"""Unit tests for channels, hosts and the single-switch fabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.config import Gbps, KiB, MiB, NetworkConfig
from repro.simnet.kernel import Simulator
from repro.simnet.link import Channel
from repro.simnet.topology import Network


def make_net(num_hosts=2, **overrides):
    """A network whose frames hold the 1 MB messages these tests send."""
    sim = Simulator()
    overrides.setdefault("frame_size", 1_000_000)
    cfg = NetworkConfig(**overrides)
    return sim, Network(sim, num_hosts, cfg)


def send_frame(net, src, dst, nbytes, **kw):
    """One unfragmented frame of *nbytes* from host *src* to *dst*."""
    assert nbytes <= net.config.frame_size
    return net.transmit_message(net.host(src), net.host(dst), nbytes, **kw)


def test_channel_serialization_time():
    sim = Simulator()
    ch = Channel(sim, rate_bps=8e9)  # 1 GB/s
    # a fresh channel finishes a 1 MB frame after its serialization time
    assert ch.reserve(1_000_000, earliest=0.0) == pytest.approx(1e-3)


def test_channel_back_to_back_frames_queue():
    sim = Simulator()
    ch = Channel(sim, rate_bps=8e9)
    f1 = ch.reserve(1_000_000, earliest=0.0)
    f2 = ch.reserve(1_000_000, earliest=0.0)
    assert f1 == pytest.approx(1e-3)
    assert f2 == pytest.approx(2e-3)


def test_channel_respects_earliest_arrival():
    sim = Simulator()
    ch = Channel(sim, rate_bps=8e9)
    finish = ch.reserve(1_000_000, earliest=5.0)
    assert finish == pytest.approx(5.001)


def test_channel_rejects_bad_rate_and_size():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, rate_bps=0)
    ch = Channel(sim, rate_bps=1e9)
    with pytest.raises(ValueError):
        ch.reserve(-1, earliest=0.0)


def _reserve_one(ch, nbytes, earliest):
    """The per-frame reference the frame loop must match bit for bit."""
    start = max(earliest, ch._busy_until, ch.sim.now)
    tx_time = nbytes * 8.0 / ch.rate_bps
    finish = start + tx_time
    ch._busy_until = finish
    return finish


_frame = st.tuples(st.integers(0, 1 << 20), st.floats(0.0, 2e-3))


@settings(max_examples=200, deadline=None)
@given(rate=st.sampled_from([Gbps(54.3), Gbps(8), 3.3e8, 1e12]),
       prior=st.lists(_frame, max_size=10), now=st.floats(0.0, 2e-3),
       frames=st.lists(_frame, min_size=1, max_size=40),
       lag=st.sampled_from([0.0, 3e-6, 1.7e-7]))
def test_a_frame_train_reserves_what_frame_by_frame_would(rate, prior, now,
                                                          frames, lag):
    """Random sizes, ``earliest`` instants, hop delays and prior busy
    state: the loop gives identical finishes and busy horizon."""
    sims = Simulator(), Simulator()
    train, reference = (Channel(sim, rate) for sim in sims)
    for ch in (train, reference):
        for nbytes, at in prior:
            _reserve_one(ch, nbytes, at)
        ch.sim.run(until=now)
    got = train.reserve_frames([n for n, _ in frames],
                               [t for _, t in frames], lag)
    want = [_reserve_one(reference, n, t + lag) for n, t in frames]
    assert got == want
    assert train._busy_until == reference._busy_until


def test_network_point_to_point_delivery_time():
    sim, net = make_net(link_rate_bps=Gbps(8), link_prop_delay_s=1e-6,
                        switch_latency_s=1e-6)
    # 1 MB at 1 GB/s: two serializations (egress + ingress) pipeline but a
    # single frame pays both, plus 3 us of propagation/switch.
    done = send_frame(net, 0, 1, 1_000_000)
    sim.run()
    expected = 1e-3 + 3e-6 + 1e-3
    assert sim.now == pytest.approx(expected)
    assert done.processed


def test_network_stream_throughput_is_link_limited():
    sim, net = make_net(link_rate_bps=Gbps(8), link_prop_delay_s=0.0,
                        switch_latency_s=0.0)
    # 100 frames of 1 MB: steady-state throughput must be ~1 GB/s, i.e.
    # finish at ~100 ms + one extra ingress serialization.
    for _ in range(100):
        send_frame(net, 0, 1, 1_000_000)
    sim.run()
    assert sim.now == pytest.approx(0.101, rel=1e-6)


def test_network_incast_serializes_on_receiver_ingress():
    sim, net = make_net(num_hosts=3, link_rate_bps=Gbps(8),
                        link_prop_delay_s=0.0, switch_latency_s=0.0)
    # Two senders each push 10 MB to host 2 simultaneously: receiver link
    # carries 20 MB at 1 GB/s -> ~20 ms total, not ~10 ms.
    for _ in range(10):
        send_frame(net, 0, 2, 1_000_000)
        send_frame(net, 1, 2, 1_000_000)
    sim.run()
    # 20 ms of ingress serialization plus one frame of pipeline fill.
    assert 0.020 <= sim.now <= 0.0215


def test_network_disjoint_pairs_do_not_contend():
    sim, net = make_net(num_hosts=4, link_rate_bps=Gbps(8),
                        link_prop_delay_s=0.0, switch_latency_s=0.0)
    for _ in range(10):
        send_frame(net, 0, 1, 1_000_000)
        send_frame(net, 2, 3, 1_000_000)
    sim.run()
    # Both flows complete in parallel: ~10 ms + pipeline tail, not 20 ms.
    assert sim.now < 0.0115


def test_network_local_delivery_bypasses_fabric():
    sim, net = make_net()
    send_frame(net, 0, 0, 1_000_000)
    sim.run()
    assert net.host(0).egress._busy_until == 0.0
    # local copies run at memory bandwidth, far faster than the link
    assert sim.now < 1e-3


def test_network_accounting():
    sim, net = make_net()
    send_frame(net, 0, 1, 64 * KiB)
    send_frame(net, 1, 0, 64 * KiB)
    sim.run()
    assert net.bytes_carried == 128 * KiB
    assert net.frames_carried == 2


def test_host_cpu_and_channels_exist():
    _sim, net = make_net(cores_per_host=4)
    host = net.host(0)
    assert host.cpu.cores == 4
    assert host.egress.rate_bps == host.ingress.rate_bps


def test_network_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, 0)


def test_delivery_callback_runs():
    sim, net = make_net()
    hits = []
    send_frame(net, 0, 1, 1024, on_delivered=lambda: hits.append(sim.now))
    sim.run()
    assert len(hits) == 1 and hits[0] > 0


def test_default_config_matches_fdr():
    cfg = NetworkConfig()
    assert cfg.link_rate_bps == pytest.approx(Gbps(54.3))
    assert cfg.frame_size == 64 * KiB
