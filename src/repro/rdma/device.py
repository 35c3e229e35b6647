"""NIC cost model.

Constants are calibrated to published ConnectX-3 / FDR measurements so
that a small one-sided READ lands in the ~2 µs range the paper calls
"close-to-hardware", and so that control-path operations (registration,
QP creation, connect) are two to four orders of magnitude slower than a
data-path operation — the asymmetry RStore's separation philosophy
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.config import us

__all__ = ["NicModel", "PAGE_SIZE"]

PAGE_SIZE = 4096


@dataclass
class NicModel:
    """Timing parameters of one RDMA NIC."""

    # -- data path ---------------------------------------------------------
    #: posting a WQE: doorbell write + WQE fetch by the NIC (s)
    doorbell_s: float = us(0.20)
    #: NIC processing per work request (address translation, DMA setup);
    #: bounds the small-message rate at ~1/wqe_processing (s)
    wqe_processing_s: float = us(0.25)
    #: target-side NIC handling of an inbound one-sided request (s)
    remote_dma_s: float = us(0.30)
    #: raising a completion + CQE write back to host memory (s)
    completion_s: float = us(0.30)
    #: extra latency of an atomic (PCIe round trip + lock) at the target (s)
    atomic_extra_s: float = us(0.50)
    #: per-frame wire overhead: IB LRH/BTH/ICRC etc. (bytes)
    frame_header_bytes: int = 64
    #: size of a READ request / ACK control message on the wire (bytes)
    control_message_bytes: int = 32

    # -- control path --------------------------------------------------------
    #: fixed cost of registering a memory region (syscall, pinning setup) (s)
    reg_mr_base_s: float = us(30.0)
    #: per-page cost of registration (pin + IOMMU map) (s)
    reg_mr_per_page_s: float = us(0.35)
    #: creating a queue pair (s)
    create_qp_s: float = us(80.0)
    #: creating a completion queue (s)
    create_cq_s: float = us(25.0)
    #: allocating a protection domain (s)
    alloc_pd_s: float = us(10.0)
    #: CM address/route resolution + transition INIT->RTR->RTS, charged on
    #: top of the 1.5 RTT handshake (s)
    cm_setup_s: float = us(120.0)

    # -- failure handling ----------------------------------------------------
    #: transport retry budget before a send completes with RETRY_EXC_ERR (s)
    retry_timeout_s: float = 0.5
