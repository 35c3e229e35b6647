"""Shared enums and exceptions for the RDMA model."""

from __future__ import annotations

import enum

__all__ = ["Opcode", "WcStatus", "QpState", "Access", "RdmaError", "QpError"]


class Opcode(enum.Enum):
    """Work-request / completion opcodes: exactly the verbs RStore runs —
    one-sided READ/WRITE/CAS/FAA for data, SEND/RECV for control RPC."""

    SEND = "send"
    RECV = "recv"
    RDMA_WRITE = "rdma_write"
    RDMA_READ = "rdma_read"
    ATOMIC_CAS = "atomic_cas"
    ATOMIC_FAA = "atomic_faa"


class WcStatus(enum.Enum):
    """Work-completion status codes."""

    SUCCESS = "success"
    LOC_LEN_ERR = "local_length_error"
    REM_ACCESS_ERR = "remote_access_error"
    REM_INV_REQ_ERR = "remote_invalid_request"
    RETRY_EXC_ERR = "transport_retry_exceeded"
    WR_FLUSH_ERR = "work_request_flushed"


class QpState(enum.Enum):
    """Queue-pair lifecycle (collapsed INIT/RTR/RTS handshake)."""

    RESET = "reset"
    CONNECTED = "connected"  # RTS: ready to send and receive
    ERROR = "error"


class Access(enum.Flag):
    """Memory-region access permissions."""

    LOCAL_WRITE = enum.auto()
    REMOTE_READ = enum.auto()
    REMOTE_WRITE = enum.auto()
    REMOTE_ATOMIC = enum.auto()

    @classmethod
    def all_remote(cls) -> "Access":
        return (
            cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE | cls.REMOTE_ATOMIC
        )


class RdmaError(Exception):
    """Synchronous verbs failure (bad arguments, wrong state, full queue)."""


class QpError(RdmaError):
    """The queue pair is in the ERROR state."""
