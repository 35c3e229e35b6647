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
nowhere else.  :class:`AdaptiveSelector` implements ``adaptive``: a
per-op-class EWMA of observed latency per mode, with deterministic
round-robin probing and hysteresis + patience so the choice cannot
flap on noise.  It draws no randomness (repro-lint RL002: seeded
replay must hold).  :class:`ModeChooser` is what a data structure
holds: the selector bound to one handle's client, policy and payload
sizes, which also takes the measurement.
"""

from __future__ import annotations

from repro.rpc.channel import MSG_SIZE
from repro.simnet.config import KiB

__all__ = ["PathPolicy", "ALLOWED_MODES", "AdaptiveSelector", "ModeChooser"]


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
#: size of each per-(client, server) remote-fetch deposit buffer; a
#: table whose slots outgrow it is refused the ``remote_fetch`` policy,
#: and ``adaptive`` stops considering that mode for it
FETCH_BYTES = 256 * KiB


class _ClassState:
    """Selector state for one op class (a row of the matrix)."""

    __slots__ = ("ewma", "samples", "current", "streak", "count",
                 "probe_cursor")

    def __init__(self):
        #: mode -> smoothed latency (seconds); absent = never sampled
        self.ewma: dict[str, float] = {}
        #: mode -> warm samples folded in (drives bias correction)
        self.samples: dict[str, int] = {}
        self.current: str | None = None
        self.streak = 0
        self.count = 0
        self.probe_cursor = 0


class AdaptiveSelector:
    """Deterministic per-op-class mode chooser with hysteresis.

    ``choose`` returns the mode to run the next op on; ``observe``
    feeds the measured latency back.  Cold start samples every mode
    once (in a fixed order); afterwards the current best-by-EWMA mode
    serves, with every ``probe_every``-th op per class re-sampling a
    non-current mode round-robin so a regime shift is eventually seen.
    A switch requires :attr:`PATIENCE` consecutive observations in which
    some other mode beats the current one by more than
    :attr:`HYSTERESIS` (relative) — flapping between near-equal modes
    is impossible.
    """

    #: a challenger must beat the current mode by this fraction ...
    HYSTERESIS = 0.2
    #: ... on this many observations in a row before the mode switches
    PATIENCE = 3
    #: EWMA weight of a new sample once a mode has more than 1/ALPHA
    ALPHA = 0.3

    def __init__(self, probe_every: int):
        self.probe_every = probe_every
        self.switches = 0
        self._classes: dict[str, _ClassState] = {}

    def _state(self, op_class: str) -> _ClassState:
        st = self._classes.get(op_class)
        if st is None:
            st = self._classes[op_class] = _ClassState()
        return st

    def choose(self, op_class: str, allowed: tuple) -> str:
        """The mode of *allowed* the next *op_class* operation runs on."""
        st = self._state(op_class)
        st.count += 1
        for mode in allowed:
            if mode not in st.ewma:
                return mode  # cold start: sample each mode once
        if st.current is None or st.current not in allowed:
            st.current = min(allowed, key=lambda m: st.ewma[m])
        if st.count % self.probe_every == 0 and len(allowed) > 1:
            others = [m for m in allowed if m != st.current]
            probe = others[st.probe_cursor % len(others)]
            st.probe_cursor += 1
            return probe
        return st.current

    def observe(self, op_class: str, mode: str, latency_s: float,
                cold: bool) -> None:
        """Feed one observed end-to-end latency back into the EWMA.

        A *cold* observation — the op paid set-up: a redial after a
        channel died, or a channel or fetch buffer for a host a remap
        added (a handle connects its hosts at open,
        :meth:`ModeChooser.connect`) — is discarded: the selector ranks
        steady-state data-path cost, and a sample inflated by set-up
        would poison a mode's EWMA for hundreds of operations.  A mode
        whose cold-start sample is dropped simply stays unsampled and
        is chosen again.
        """
        if cold:
            return
        st = self._state(op_class)
        prev = st.ewma.get(mode)
        n = st.samples.get(mode, 0) + 1
        st.samples[mode] = n
        # bias-corrected smoothing: the first few samples average as a
        # true mean (1/n weight) instead of letting sample #1 dominate
        # the estimate — a single deep-chain or contended op must not
        # misrank a mode for hundreds of operations
        alpha = max(self.ALPHA, 1.0 / n)
        st.ewma[mode] = (latency_s if prev is None
                         else prev + alpha * (latency_s - prev))
        if st.current is None:
            if all(m in st.ewma for m in PathPolicy.MODES):
                st.current = min(PathPolicy.MODES, key=lambda m: st.ewma[m])
            return
        best = min(st.ewma, key=lambda m: st.ewma[m])
        cur = st.ewma.get(st.current)
        if (best != st.current and cur is not None
                and st.ewma[best] < cur * (1 - self.HYSTERESIS)):
            st.streak += 1
            if st.streak >= self.PATIENCE:
                st.current = best
                st.streak = 0
                self.switches += 1
        else:
            st.streak = 0


class ModeChooser(AdaptiveSelector):
    """The per-op mode choice of one client handle (a table, a counter).

    *sizes* maps an op to the largest ``(request, reply)`` payload
    bytes the handle sends and gets back (absent: negligible).  Of each
    row of :data:`ALLOWED_MODES` only the modes whose transport fits
    are kept: a server-side request rides the RPC channel, the reply
    rides it too (``server_op``) or the fetch buffer
    (``remote_fetch``); one-sided IO carries anything.  A fixed policy
    one of whose ops does not fit raises ``ValueError`` here, before
    the first op; ``adaptive`` chooses among what is left.

    A row of one is returned as is and never timed.  Otherwise the
    selector picks, and ``pick`` hands out a ``(now, setup_events)``
    token that ``done`` turns into the observed latency — cold when the
    client did set-up work in between.  :meth:`connect` sets up every
    host at open, so a cold sample means a redial or a host a remap
    added, not a first contact.
    """

    def __init__(self, client, policy, sizes=None):
        super().__init__(client.config.datapath_probe_every)
        self.client = client
        self.policy = PathPolicy.validate(
            policy if policy is not None else PathPolicy.ONE_SIDED)
        channel = MSG_SIZE - _ENVELOPE
        reply_room = {PathPolicy.SERVER_OP: channel,
                      PathPolicy.REMOTE_FETCH: FETCH_BYTES}
        sizes = sizes or {}
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

    def connect(self, mapping, ops):
        """Connect every server-side path the handle's *ops* may run on
        to each host of *mapping*, all hosts at once (generator): set-up
        belongs to the open, not to the first op that reaches a server.
        A handle whose *ops* all run one-sided connects nothing."""
        modes = {mode for op in ops for mode in self._candidates[op]}
        if modes - {PathPolicy.ONE_SIDED}:
            yield from self.client.datapath.connect(
                mapping, fetch=PathPolicy.REMOTE_FETCH in modes)

    def pick(self, op: str):
        """``(mode, token)`` for the next *op* operation."""
        modes = self._candidates[op]
        if len(modes) == 1:
            return modes[0], None
        return (self.choose(op, modes),
                (self.client.sim.now, self.client.setup_events))

    def done(self, op: str, mode: str, token) -> None:
        """Close the measurement ``pick`` opened (no-op without one)."""
        if token is not None:
            started_at, setup_before = token
            self.observe(
                op, mode, self.client.sim.now - started_at,
                cold=self.client.setup_events != setup_before,
            )
