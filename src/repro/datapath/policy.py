"""Data-path policy: which substrate runs a composite operation.

Three concrete modes plus the adaptive chooser:

* ``one_sided`` — the classic RStore path: the client drives every
  probe/lock/publish with one-sided READ/WRITE/CAS and the server CPU
  stays idle.
* ``server_op`` — the whole composite op (a probe chain, a counter
  burst) ships to the owning memory server over the RPC channel and is
  applied there against the arena; one round trip replaces a
  pointer-chasing conversation.
* ``remote_fetch`` — RFP-style: the server computes the result and
  deposits it into a per-client fetch buffer; the client picks it up
  with a one-sided READ, so large results never ride the (pickled,
  CPU-charged) message channel.

:data:`ALLOWED_MODES` is the op × mode matrix, declared here and
nowhere else.  :class:`ModeChooser` is what a data structure holds:
one handle's candidate modes per op and, under ``adaptive``, the
choice among them.  It predicts instead of measuring: each op runs on
the mode whose idle latency :meth:`ModeChooser.estimate` puts lowest,
given what the client knows before it sends — the op, the slots its
walk expects to read, whether the key's last lookup missed, how many
slots a one-sided get reads in its first round trip, and the handle's
sizes — and the declared cost constants (``NicModel``, the
fabric's link and switch delays and link rate, RPC dispatch, CPU
copies).  It keeps no statistics and draws no randomness (repro-lint
RL002).
"""

from __future__ import annotations

from repro.datapath.ops import WORD, pad
from repro.rpc.channel import MSG_SIZE
from repro.rpc.endpoint import DISPATCH_CPU_S
from repro.simnet.config import KiB

__all__ = ["PathPolicy", "ALLOWED_MODES", "ModeChooser"]


class PathPolicy:
    """The policy vocabulary (plain strings, picklable, config-able)."""

    ONE_SIDED = "one_sided"
    SERVER_OP = "server_op"
    REMOTE_FETCH = "remote_fetch"
    ADAPTIVE = "adaptive"

    #: the concrete substrates an op can actually run on, least server
    #: involvement first
    MODES = (ONE_SIDED, SERVER_OP, REMOTE_FETCH)
    #: everything a handle may be opened with
    POLICIES = MODES + (ADAPTIVE,)

    @classmethod
    def validate(cls, policy: str) -> str:
        if policy not in cls.POLICIES:
            raise ValueError(
                f"unknown path policy {policy!r} "
                f"(expected one of {', '.join(cls.POLICIES)})"
            )
        return policy


#: The op × mode matrix: the modes each composite op may run on, in
#: ``PathPolicy.MODES`` order.  A fixed policy runs an op in its own
#: mode where the row allows it, else in the row's last (the nearest
#: below it); ``adaptive`` chooses within the row.  ``get`` is the one
#: op whose reply is worth a deposit; ``put`` and ``burst`` reply with a
#: status or a few integers.  ``delete`` is rare, needs the
#: found-vs-absent answer the server-op store protocol does not carry,
#: and must never claim a fresh slot.  ``multi_get`` already turns N
#: probes into two flushes per hop by doorbell batching, and no
#: workload measures a server-side batch winning.
ALLOWED_MODES = {
    "get": (PathPolicy.ONE_SIDED, PathPolicy.SERVER_OP,
            PathPolicy.REMOTE_FETCH),
    "put": (PathPolicy.ONE_SIDED, PathPolicy.SERVER_OP),
    "burst": (PathPolicy.ONE_SIDED, PathPolicy.SERVER_OP),
    "delete": (PathPolicy.ONE_SIDED,),
    "multi_get": (PathPolicy.ONE_SIDED,),
}

#: what the pickled ``dp_exec`` request adds around an op's payload —
#: op fields, region name, a full 16-slot probe run; ~0.4 KiB measured
_ENVELOPE = 1 * KiB
#: what a pickled ``dp_exec`` request or reply carries around its
#: payload as the estimate counts it — call id, op fields, region name:
#: 0.12 KiB for a reply, 0.26-0.45 KiB for a request, measured
_MESSAGE = KiB // 4
#: size of each per-(client, server) remote-fetch deposit buffer; a
#: table whose slots outgrow it is refused the ``remote_fetch`` policy,
#: and ``adaptive`` stops considering that mode for it
FETCH_BYTES = 256 * KiB


class ModeChooser:
    """The per-op mode choice of one client handle (a table, a counter).

    *sizes* maps an op to the largest ``(request, reply)`` payload
    bytes the handle sends and gets back (absent: negligible); a
    table's ``get`` is ``(key size, slot size)`` and its ``put``
    ``(slot size, 0)``.  Of each row of :data:`ALLOWED_MODES` only the
    modes whose transport fits are kept: a server-side request rides
    the RPC channel, the reply rides it too (``server_op``) or the
    fetch buffer (``remote_fetch``); one-sided IO carries anything.  A
    fixed policy one of whose ops does not fit raises ``ValueError``
    here, before the first op; ``adaptive`` chooses among what is left.
    """

    def __init__(self, client, policy, sizes=None):
        self.client = client
        self.policy = PathPolicy.validate(
            policy if policy is not None else PathPolicy.ONE_SIDED)
        channel = MSG_SIZE - _ENVELOPE
        reply_room = {PathPolicy.SERVER_OP: channel,
                      PathPolicy.REMOTE_FETCH: FETCH_BYTES}
        self._sizes = sizes = sizes or {}
        #: op -> the modes its next call may run on
        self._candidates: dict[str, tuple] = {}
        for op, allowed in ALLOWED_MODES.items():
            request, reply = sizes.get(op, (0, 0))
            fits = tuple(
                mode for mode in allowed if mode == PathPolicy.ONE_SIDED
                or (request <= channel and reply <= reply_room[mode]))
            if self.policy != PathPolicy.ADAPTIVE:
                mode = self.policy if self.policy in allowed else allowed[-1]
                if mode not in fits:
                    raise ValueError(
                        f"path policy {self.policy!r} runs {op} as {mode}, "
                        f"which cannot carry its {request}-byte request "
                        f"and {reply}-byte reply ({channel}-byte channel, "
                        f"{FETCH_BYTES}-byte fetch buffer)")
                fits = (mode,)
            self._candidates[op] = fits
        #: ``(op, hops, miss, window)`` -> the mode :meth:`pick`
        #: settled on
        self._picked: dict[tuple, str] = {}
        #: ``(hops, window)`` -> the one-sided get's estimate, which
        #: :meth:`window` weighs
        self._gets: dict[tuple, float] = {}
        # deferred: repro.core imports this module (through repro.coord)
        from repro.core.pipeline import ISSUE_OVERHEAD_S

        #: what the client pays to issue one doorbell of one-sided WRs
        self._issue = ISSUE_OVERHEAD_S
        nic = client.nic
        self._nic = nic.model
        self._base = nic.network.one_way_base_delay
        self._bit = 8 / nic.network.config.link_rate_bps
        self._copy = 1 / nic.host.cpu.copy_bandwidth_Bps

    def connect(self, mapping, ops):
        """Connect every server-side path the handle's *ops* may run on
        to each host of *mapping*, all hosts at once (generator): set-up
        belongs to the open, not to the first op that reaches a server.
        A handle whose *ops* all run one-sided connects nothing."""
        modes = {mode for op in ops for mode in self._candidates[op]}
        if modes - {PathPolicy.ONE_SIDED}:
            yield from self.client.datapath.connect(
                mapping, fetch=PathPolicy.REMOTE_FETCH in modes)

    def pick(self, op: str, hops: int, miss: bool, window: int = 1) -> str:
        """The mode the next *op* runs on: the candidate :meth:`estimate`
        puts cheapest, the earlier in :data:`ALLOWED_MODES` on a tie —
        worked out once per ``(op, hops, miss, window)``."""
        modes = self._candidates[op]
        if len(modes) == 1:
            return modes[0]
        key = (op, hops, miss, window)
        mode = self._picked.get(key)
        if mode is None:
            mode = self._picked[key] = min(
                modes, key=lambda m: self.estimate(op, m, hops, miss, window))
        return mode

    def window(self, depths) -> int:
        """How many slots from its home a one-sided ``get`` of a key the
        client never located reads in its first round trip: the window
        :meth:`estimate` prices cheapest in expectation over *depths*,
        the count of keys the client has located at each chain depth
        (``depths[0]``: at their home slot).  The narrower on a tie,
        and 1 when the client has located none."""
        located = [(hops, count) for hops, count in enumerate(depths, 1)
                   if count]
        if not located:
            return 1
        gets = self._gets

        def expected(window):
            total = 0.0
            for hops, count in located:
                cost = gets.get((hops, window))
                if cost is None:
                    cost = gets[hops, window] = self.estimate(
                        "get", PathPolicy.ONE_SIDED, hops, False, window)
                total += count * cost
            return total

        # a window past the deepest key located only adds bytes
        return min(range(1, located[-1][0] + 1), key=expected)

    def estimate(self, op: str, mode: str, hops: int, miss: bool,
                 window: int = 1) -> float:
        """Idle latency (s) of one *op* on *mode*: its dependent round
        trips, each the sum of the declared costs it pays, no queueing.

        *hops* counts what the one-sided form pays a round trip each
        for: the slots a ``get`` or ``put`` walk expects to read (one
        for a hinted key), a ``burst``'s FAAs.  A server-side walk
        reads the same slots in one round trip, only their headers for
        a lookup (``server_exec``).  *miss*: the key's last lookup found
        it absent, so no value comes back.  *window*: the slots a
        one-sided ``get`` reads from its home in its first round trip,
        each one's bytes twice (the run, then its words); each slot its
        walk reads past them costs a round trip of its own.
        """
        one_sided = mode == PathPolicy.ONE_SIDED
        if op == "burst":  # a lone FAA pays no issue overhead
            if one_sided:
                return hops * self._doorbell(1, 0, 0, True)
            return self._rpc(hops * WORD, hops * WORD, max(1, hops) * WORD)
        if op == "put":
            slot = self._sizes[op][0]
            if one_sided:  # [READ, CAS] per hop, then [WRITE body, word]
                return (hops * (self._issue
                                + self._doorbell(2, 0, slot, True))
                        + slot * self._copy + self._issue
                        + self._doorbell(2, slot, 0, False))
            return self._rpc(slot, 0, (hops + 1) * slot)
        key, slot = self._sizes[op]
        if one_sided:  # [READ run, READ words], then [READ slot, READ word]
            run = (2 * window - 1) * slot + WORD
            return (self._issue + self._doorbell(2, 0, run, False)
                    + max(0, hops - window)
                    * (self._issue + self._doorbell(2, 0, slot + WORD, False)))
        head = 2 * WORD + pad(key)
        if miss:
            return self._rpc(key, 0, hops * head)
        walk = (hops - 1) * head + slot
        if mode == PathPolicy.SERVER_OP:
            return self._rpc(key, slot, walk)
        # the hit is deposited, and a one-sided READ picks it up
        return (self._rpc(key, 0, walk + slot) + self._issue
                + self._doorbell(1, 0, slot, False))

    def _way(self, nbytes: int) -> float:
        """One way across the fabric: the switch path, then a message of
        *nbytes* (a control message at least) serialized at the
        sender's egress and again at the receiver's ingress."""
        nic = self._nic
        size = max(nbytes, nic.control_message_bytes) + nic.frame_header_bytes
        return self._base + 2 * size * self._bit

    def _doorbell(self, wrs: int, out: int, back: int, atomic: bool):
        """One doorbell of *wrs* one-sided WRs carrying *out* bytes to
        the server and *back* bytes from it, posted to completion."""
        nic = self._nic
        return (nic.doorbell_s + wrs * nic.wqe_processing_s + self._way(out)
                + nic.remote_dma_s + atomic * nic.atomic_extra_s
                + self._way(back) + nic.completion_s)

    def _rpc(self, out: int, back: int, server: int) -> float:
        """One ``dp_exec`` round trip with *out* payload bytes out and
        *back* back, the server copying *server* bytes: each message is
        copied into its channel and out of it, and posted as a SEND."""
        nic = self._nic
        out, back = out + _MESSAGE, back + _MESSAGE
        post = nic.doorbell_s + nic.wqe_processing_s + nic.completion_s
        return (2 * post + self._way(out) + self._way(back) + DISPATCH_CPU_S
                + (2 * out + 2 * back + server) * self._copy)
