"""Cost-model sensitivity: the sorters respond to their knobs sanely."""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from repro.sort import RSort, SortComputeModel, TeraSortBaseline, TeraSortModel
from repro.sort.rsort import SortComputeModel as SCM


def fresh_cluster():
    return build_cluster(
        num_machines=3,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=128 * MiB,
    )


def test_more_disks_speed_up_terasort():
    def run(disks):
        cluster = fresh_cluster()
        sorter = TeraSortBaseline(
            cluster, records_per_worker=1500, seed=2, scale=100,
            tag=f"d{disks}",
        )
        sorter.model = TeraSortModel(disks_per_node=disks)
        return cluster.run_app(sorter.run()).elapsed

    slow = run(2)
    fast = run(8)
    assert fast < 0.5 * slow


def test_slower_cpu_model_slows_rsort():
    def run(per_compare):
        cluster = fresh_cluster()
        sorter = RSort(
            cluster, records_per_worker=1500, seed=2, scale=100, tag="cpu",
        )
        sorter.model = SortComputeModel(per_compare_s=per_compare)
        return cluster.run_app(sorter.run()).elapsed

    base = run(2e-9)
    slow = run(40e-9)
    assert slow > 1.5 * base


def test_sort_cost_model_math():
    model = SCM(per_compare_s=10e-9, cores_used=1)
    assert model.sort_cost(0) == 0.0
    assert model.sort_cost(1) == 0.0
    # n log2 n at n=1024: 1024 * 10 * 10ns
    assert model.sort_cost(1024) == pytest.approx(1024 * 10 * 10e-9)
    halved = SCM(per_compare_s=10e-9, cores_used=2)
    assert halved.sort_cost(1024) == pytest.approx(model.sort_cost(1024) / 2)


def test_terasort_model_math():
    model = TeraSortModel(map_per_record_s=100e-9, cores_used=4)
    assert model.map_cost(4_000_000) == pytest.approx(0.1)
    assert model.sort_cost(1) == 0.0


def test_shuffle_slack_guards_skew():
    """A pathologically small shuffle region must fail loudly, not
    corrupt neighbouring memory."""
    from repro.core import BoundsError, RegionUnavailableError

    cluster = fresh_cluster()
    sorter = RSort(cluster, records_per_worker=1500, seed=2,
                   tag="tiny-slack")
    sorter.shuffle_slack = 0.05
    # client-side bounds checking catches it before any wire traffic;
    # had it slipped through, the remote MR check would NAK the write
    with pytest.raises((BoundsError, RegionUnavailableError)):
        cluster.run_app(sorter.run())


def test_rsort_scales_down_to_one_record_each():
    cluster = fresh_cluster()
    sorter = RSort(cluster, records_per_worker=1, seed=5, tag="tiny")
    stats = cluster.run_app(sorter.run())
    output = cluster.run_app(sorter.collect_output())
    assert len(output) == 3
    assert stats.elapsed > 0
