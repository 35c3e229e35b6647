"""Must-flag / must-pass fixture for RL001 (control-path isolation).

A data-path module (lives under ``coord/``) that imports master/RPC
machinery and uses the control path at steady state, directly or
through helper chains.  Never imported — repro-lint parses it as text.
``# -> RLxxx`` markers name the expected finding on that line: the
call site for a direct call, the first hop of each offending chain.
"""

from repro.rpc import RpcChannel            # -> RL001
import repro.core.master                    # -> RL001


def hot_loop(client):
    # steady-state function name carries no create/open/setup token
    desc = yield from client.lookup("x")    # -> RL001
    mapping = yield from client.map(desc)   # -> RL001
    return mapping


def open_queue(client):
    # a create/open-style function MAY use the control path: no finding
    yield from client.alloc("q", 4096)
    return (yield from client.map("q"))


class SlotStore:
    def __init__(self, client):
        self.client = client

    # the direct control call lives in a control-named helper: allowed
    def _open_view(self):
        mapping = yield from self.client.map("kv.slots")
        return mapping

    # an innocuous-named middle hop: itself a 1-hop chain
    def _view(self):
        mapping = yield from self._open_view()  # -> RL001
        return mapping

    def read_slot(self, index):
        mapping = yield from self._open_view()  # -> RL001
        return (yield from mapping.read(index * 64, 64))

    def read_slot_deep(self, index):
        mapping = yield from self._view()  # -> RL001
        return (yield from mapping.read(index * 64, 64))

    # must-pass: a control-named caller may orchestrate setup hops
    def open_slots(self):
        mapping = yield from self._view()
        return mapping

    # must-pass: steady state done right — the mapped state is passed
    # in, nothing here can reach the master
    def read_hot(self, mapping, index):
        return (yield from mapping.read(index * 64, 64))
