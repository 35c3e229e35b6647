#!/usr/bin/env python
"""Quickstart: the memory-like API in five minutes.

Builds a 4-machine simulated cluster, allocates a named region of
distributed DRAM, maps it, and runs one-sided reads/writes/atomics —
then prints where the region's stripes landed and what each step cost
in *simulated* time.

Run:  python examples/quickstart.py
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import MiB


def main():
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=256 * MiB,
    )
    client = cluster.client(1)
    sim = cluster.sim

    def app():
        # ---- control path: pay once ---------------------------------
        t0 = sim.now
        region = yield from client.alloc("greeting", 4 * MiB)
        t_alloc = sim.now - t0
        print(f"alloc  : {t_alloc * 1e6:8.1f} us  "
              f"({len(region.stripes)} stripes on servers {region.hosts})")

        t0 = sim.now
        mapping = yield from client.map(region)
        t_map = sim.now - t0
        print(f"map    : {t_map * 1e6:8.1f} us  (connections + caching)")

        # ---- data path: one-sided RDMA, microseconds ----------------
        t0 = sim.now
        yield from mapping.write(0, b"hello, distributed DRAM!")
        t_write = sim.now - t0
        print(f"write  : {t_write * 1e6:8.1f} us")

        t0 = sim.now
        data = yield from mapping.read(0, 24)
        t_read = sim.now - t0
        print(f"read   : {t_read * 1e6:8.1f} us  -> {data!r}")

        # remote atomics on an 8-byte counter at offset 1 MiB
        old = yield from mapping.faa(1 * MiB, 7)
        old2 = yield from mapping.faa(1 * MiB, 5)
        print(f"atomics: fetch-and-add returned {old}, then {old2}")

        # a second client maps the same region by name and sees the data
        other = cluster.client(3)
        their_mapping = yield from other.map("greeting")
        their_view = yield from their_mapping.read(0, 24)
        print(f"shared : client 3 reads {their_view!r}")

        yield from client.free("greeting")
        print("freed  : region released cluster-wide")

    cluster.run_app(app())
    print(f"\nsimulated time elapsed: {sim.now:.6f} s")


if __name__ == "__main__":
    main()
