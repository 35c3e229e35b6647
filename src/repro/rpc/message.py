"""RPC wire messages.

Requests and responses are pickled for transmission, which gives every
message an honest byte size without hand-maintained size tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["RpcRequest", "RpcResponse"]


@dataclass
class RpcRequest:
    call_id: int
    method: str
    args: tuple = ()
    #: always None; kept so every pickled message keeps its size
    wire_size: Optional[int] = None


@dataclass
class RpcResponse:
    call_id: int
    result: Any = None
    #: stringified remote exception, None on success
    error: Optional[str] = None
    error_type: str = ""
    #: always None; kept so every pickled message keeps its size
    wire_size: Optional[int] = None
