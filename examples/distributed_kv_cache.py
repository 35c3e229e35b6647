#!/usr/bin/env python
"""A serverless distributed KV cache on the memory-like API.

The hash table lives entirely in RStore regions: gets are optimistic
one-sided reads, puts lock slots with remote compare-and-swap.  No
machine runs any cache server code — the memory servers' CPUs stay
idle while four clients hammer the shared table.  After the get/put
mix each client evicts the cold half of its keys and reads all of them
back in one batched ``multi_get``.  A memcached-style sockets server
handles the same workload for comparison, one request per key.

Run:  python examples/distributed_kv_cache.py
"""

from repro.baselines import TcpKvClient, TcpKvServer
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB

MACHINES = 5
OPS_PER_CLIENT = 100
KEYS_PER_CLIENT = 20
#: the eviction pass deletes keys ``0 .. EVICTED - 1`` of each client
EVICTED = 10
#: ops each client issues: the mix, the evictions, the read-back
TOTAL_OPS = OPS_PER_CLIENT + EVICTED + KEYS_PER_CLIENT


def keys_of(prefix):
    return [f"{prefix}-{k}".encode() for k in range(KEYS_PER_CLIENT)]


def main():
    cluster = build_cluster(
        num_machines=MACHINES,
        config=RStoreConfig(stripe_size=256 * KiB),
        server_capacity=64 * MiB,
    )
    sim = cluster.sim

    def rstore_worker(host, table_name, done):
        view = yield from RKVStore.open(cluster.client(host), table_name)
        keys = keys_of(f"h{host}")
        for i in range(OPS_PER_CLIENT):
            if i % 4 == 0:  # every key is written once in the first 80
                key = keys[i // 4 % KEYS_PER_CLIENT]
                yield from view.put(key, f"value-{i}".encode())
            else:
                yield from view.get(keys[i % KEYS_PER_CLIENT])
        for key in keys[:EVICTED]:
            yield from view.delete(key)
        values = yield from view.multi_get(keys)
        done.append(sum(v is not None for v in values))

    def run_rstore():
        creator = cluster.client(1)
        store = yield from RKVStore.create(creator, "cache", slots=1024)
        yield from store.put(b"warm", b"up")
        done = []
        t0 = sim.now
        procs = [
            sim.process(rstore_worker(h, "cache", done))
            for h in (1, 2, 3, 4)
        ]
        yield sim.all_of(procs)
        return 4 * TOTAL_OPS / (sim.now - t0), done

    def tcp_worker(client, done):
        keys = keys_of(f"c{client.host_id}")
        for i in range(OPS_PER_CLIENT):
            if i % 4 == 0:  # every key is written once in the first 80
                key = keys[i // 4 % KEYS_PER_CLIENT]
                yield from client.put(key, f"value-{i}".encode())
            else:
                yield from client.get(keys[i % KEYS_PER_CLIENT])
        for key in keys[:EVICTED]:
            yield from client.delete(key)
        values = []
        for key in keys:
            values.append((yield from client.get(key)))
        done.append(sum(v is not None for v in values))

    def run_tcp():
        server = TcpKvServer(cluster, host_id=0)
        clients = []
        for host in (1, 2, 3, 4):
            clients.append(
                (yield from TcpKvClient(cluster, host).connect(server))
            )
        done = []
        t0 = sim.now
        procs = [sim.process(tcp_worker(c, done)) for c in clients]
        yield sim.all_of(procs)
        return 4 * TOTAL_OPS / (sim.now - t0), done

    rstore_ops, rstore_live = cluster.run_app(run_rstore())
    idle = all(
        cluster.net.host(h).cpu.busy_seconds < 1e-2
        for h in range(MACHINES)
        if h != 1
    )
    tcp_ops, tcp_live = cluster.run_app(run_tcp())

    print(f"RStore KV (one-sided) : {rstore_ops / 1e3:7.1f} kops/s "
          f"(server CPUs idle: {idle})")
    print(f"sockets KV (memcached): {tcp_ops / 1e3:7.1f} kops/s "
          "(every op crosses the server CPU)")
    print(f"speedup               : {rstore_ops / tcp_ops:7.2f}x")
    agree = "same on both stores" if sorted(rstore_live) == sorted(
        tcp_live) else "STORES DISAGREE"
    print(f"after evicting {EVICTED} of {KEYS_PER_CLIENT} keys per client: "
          f"{sum(rstore_live)} keys live in the read-back ({agree})")


if __name__ == "__main__":
    main()
