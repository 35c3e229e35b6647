"""Multi-rack topology with oversubscribed uplinks."""

import pytest

from repro.simnet.config import Gbps, NetworkConfig
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Network


def make_net(num_hosts, **overrides):
    sim = Simulator()
    return sim, Network(sim, num_hosts, NetworkConfig(**overrides))


def test_single_rack_is_default():
    _sim, net = make_net(4)
    assert len(net.racks) == 1
    assert net.host(0).rack is net.host(3).rack


def test_hosts_assigned_round_robin():
    _sim, net = make_net(6, racks=2)
    assert net.host(0).rack is net.racks[0]
    assert net.host(1).rack is net.racks[1]
    assert net.host(2).rack is net.racks[0]


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(racks=0)
    with pytest.raises(ValueError):
        NetworkConfig(oversubscription=0.5)


def test_cross_rack_pays_extra_latency():
    sim1, net1 = make_net(4, racks=2, link_prop_delay_s=1e-6,
                          switch_latency_s=1e-6)
    net1.transmit_message(net1.host(0), net1.host(2), 1000)  # same rack
    sim1.run()
    same_rack = sim1.now

    sim2, net2 = make_net(4, racks=2, link_prop_delay_s=1e-6,
                          switch_latency_s=1e-6)
    net2.transmit_message(net2.host(0), net2.host(1), 1000)  # cross rack
    sim2.run()
    cross_rack = sim2.now
    # two extra propagation hops + one switch, plus store-and-forward
    # serialization on the uplink and downlink channels
    uplink_rate = net2.racks[0].up.rate_bps
    extra_ser = 2 * 1000 * 8 / uplink_rate
    assert cross_rack == pytest.approx(same_rack + 3e-6 + extra_ser)


def test_full_bisection_uplink_does_not_throttle():
    # 4 hosts, 2 racks, 1:1 oversubscription: uplink carries 2x link rate
    sim, net = make_net(4, racks=2, oversubscription=1.0,
                        link_rate_bps=Gbps(8), link_prop_delay_s=0.0,
                        switch_latency_s=0.0)
    # hosts 0,2 in rack 0 each stream to their cross-rack peer
    for _ in range(10):
        net.transmit_message(net.host(0), net.host(1), 1_000_000)
        net.transmit_message(net.host(2), net.host(3), 1_000_000)
    sim.run()
    # both flows run at link rate: ~10 ms + pipeline tail
    assert sim.now < 0.013


def test_oversubscribed_uplink_throttles_cross_rack():
    sim, net = make_net(4, racks=2, oversubscription=2.0,
                        link_rate_bps=Gbps(8), link_prop_delay_s=0.0,
                        switch_latency_s=0.0)
    for _ in range(10):
        net.transmit_message(net.host(0), net.host(1), 1_000_000)
        net.transmit_message(net.host(2), net.host(3), 1_000_000)
    sim.run()
    # 2:1 oversubscription: the shared uplink halves aggregate rate
    assert 0.0195 < sim.now < 0.024


def test_same_rack_traffic_unaffected_by_oversubscription():
    sim, net = make_net(4, racks=2, oversubscription=4.0,
                        link_rate_bps=Gbps(8), link_prop_delay_s=0.0,
                        switch_latency_s=0.0)
    for _ in range(10):
        net.transmit_message(net.host(0), net.host(2), 1_000_000)
    sim.run()
    assert sim.now < 0.013
