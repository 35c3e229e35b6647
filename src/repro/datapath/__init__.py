"""Adaptive data-path selection: one-sided vs server-op vs remote-fetch.

Per "RDMA vs. RPC for Implementing Distributed Data Structures" the
winning substrate flips with op size, pointer-chasing depth, and
contention, and RFP shows server-computes/client-fetches beats both
for some shapes.  This package adds the two missing substrates and the
per-mapping policy that picks between them:

* :mod:`repro.datapath.policy` — :class:`PathPolicy`, the op × mode
  matrix and the :class:`ModeChooser` that predicts each op's mode.
* :mod:`repro.datapath.ops` — the slot codec shared with ``repro.kv``.
* :mod:`repro.datapath.server_exec` — the server-side executor
  (``dp_exec`` handler); imported by :mod:`repro.core.server` only.
* :mod:`repro.datapath.router` — the client-side transport the kv and
  coord structures ship their composite ops over: ``dp_exec``, redial,
  re-drive, fetch buffers; imported lazily by the client.

This module re-exports only the dependency-free pieces so importing
``repro.datapath`` never drags in the RPC or client machinery.
"""

from repro.datapath.ops import slot_size
from repro.datapath.policy import PathPolicy

__all__ = ["PathPolicy", "slot_size"]
