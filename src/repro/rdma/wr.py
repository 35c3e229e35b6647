"""Work requests.

A :class:`SendWR` describes one operation posted to a send queue; a
:class:`RecvWR` describes one receive buffer posted to a receive queue.

``wire_length`` supports the reproduction's scaled experiments: when an
application simulates data larger than CPython can materialise, it keeps
real bytes for a representative sample and sets ``wire_length`` to the
logical transfer size; the fabric charges time for ``wire_length`` while
the byte copy moves the real payload.  It defaults to the real length.
RStore sets it from the mapping's ``wire_scale``, fixed once at
``map()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.rdma.memory import MemoryRegion
from repro.rdma.types import Opcode, RdmaError

__all__ = ["SendWR", "RecvWR"]


@dataclass(slots=True)
class SendWR:
    """One send-queue work request."""

    opcode: Opcode
    wr_id: Any = None
    #: local memory: region plus an address *within* it
    local_mr: Optional[MemoryRegion] = None
    local_addr: int = 0
    length: int = 0
    #: remote memory (one-sided ops only)
    remote_addr: int = 0
    rkey: int = 0
    #: request a completion on the send CQ (unsignaled sends skip it)
    signaled: bool = True
    #: atomics: compare/swap operands (CAS) or the addend (FAA)
    compare: int = 0
    swap: int = 0
    #: logical size on the wire; defaults to ``length`` (see module doc)
    wire_length: Optional[int] = None
    #: era stamp: the target NIC NAKs a one-sided WR whose ``epoch`` is
    #: older than its fence for control shard ``shard`` (None: unfenced)
    epoch: Optional[int] = None
    shard: int = 0
    #: race-sanitizer stamp of the client op this WR belongs to, and the
    #: "ordered by other means" mark for raw WRs (see repro.sanitize)
    rsan: Any = None
    rsan_sync: bool = False
    # -- the posting NIC's progress notes, reset on every post
    _wc_raised: bool = field(default=False, init=False, repr=False,
                             compare=False)
    #: the partition watchdog's queue entry, withdrawn by the completion
    _watchdog: Optional[tuple] = field(default=None, init=False,
                                       repr=False, compare=False)
    _obs_posted: Optional[float] = field(default=None, init=False,
                                         repr=False, compare=False)
    _obs_launched: Optional[float] = field(default=None, init=False,
                                           repr=False, compare=False)
    # -- the posting QP's: sequence number the responder admits in order,
    # -- and the completion parked until every earlier WR has one
    _psn: int = field(default=0, init=False, repr=False, compare=False)
    _wc: Any = field(default=None, init=False, repr=False, compare=False)
    # -- the race sanitizer's, set at post: the posting actor's sequence
    # -- number and its vector clock (see RaceSanitizer.on_post)
    _rsan_seq: int = field(default=0, init=False, repr=False, compare=False)
    _rsan_vec: Any = field(default=None, init=False, repr=False,
                           compare=False)

    def validate(self) -> None:
        if self.opcode is Opcode.RECV:
            raise RdmaError("RECV is posted via post_recv, not post_send")
        if self.opcode in (Opcode.ATOMIC_CAS, Opcode.ATOMIC_FAA):
            if self.length not in (0, 8):
                raise RdmaError("atomics operate on exactly 8 bytes")
            # Atomics need no local MR: the old value returns in the
            # completion (and lands in local memory only given one).
            self.length = 8
        elif self.length < 0:
            raise RdmaError(f"negative length {self.length}")
        elif self.length > 0 and self.local_mr is None:
            raise RdmaError("a work request with a payload needs a local MR")
        if self.local_mr is not None:
            err = _check_local(self.local_mr, self.local_addr, self.length)
            if err:
                raise RdmaError(err)
        if self.wire_length is not None and self.wire_length < self.length:
            raise RdmaError(
                f"wire_length {self.wire_length} smaller than payload "
                f"{self.length}"
            )

    @property
    def bytes_on_wire(self) -> int:
        return self.wire_length if self.wire_length is not None else self.length


@dataclass
class RecvWR:
    """One receive-queue work request (a landing buffer for SENDs)."""

    local_mr: MemoryRegion
    local_addr: int = 0
    length: int = 0
    wr_id: Any = None

    def __post_init__(self):
        if self.local_addr == 0:
            self.local_addr = self.local_mr.addr
        if self.length == 0:
            self.length = self.local_mr.length - (
                self.local_addr - self.local_mr.addr
            )
        err = _check_local(self.local_mr, self.local_addr, self.length)
        if err:
            raise RdmaError(err)


def _check_local(mr: MemoryRegion, addr: int, length: int) -> Optional[str]:
    if addr < mr.addr or addr + length > mr.addr + mr.length:
        return (
            f"local access [{addr:#x}, +{length}) outside region "
            f"[{mr.addr:#x}, +{mr.length})"
        )
    return None
