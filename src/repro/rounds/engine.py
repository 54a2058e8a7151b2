"""The shared round engine: one send -> environment -> transition loop.

The paper's central object is the heard-of collection: every environment is
fully described by the ``HO(p, r)`` sets it produces.  Accordingly there is
exactly one way a round happens, regardless of the layer that drives it:

1. the process computes its round message with the sending function,
2. the *environment* decides which senders it hears of (the heard-of set),
3. the process applies its transition function to the received partial
   vector, and the outcome is recorded.

:class:`RoundEngine` owns that loop.  The *environment* step is abstracted
behind the :class:`RoundTransport` protocol with two implementations:

* :class:`OracleTransport` -- the heard-of set comes from a heard-of oracle
  (:mod:`repro.adversaries`); rounds execute in lockstep for all processes.
  This is the engine behind the slimmed-down
  :class:`~repro.core.machine.HOMachine`.
* :class:`StepTransport` -- the heard-of set emerges from messages actually
  delivered by the step-level system model; the predicate-implementation
  programs (:mod:`repro.predimpl`) deposit receptions as they take receive
  steps and ask the engine to finish rounds per process, at their own pace.

Both paths write the unified :class:`~repro.rounds.record.RoundRecord`
schema through a structural :class:`RoundTraceSink`, so the analysis layer
never needs to know which transport produced a trace.  In the hot path,
heard-of sets are integer bitmasks (:mod:`repro.rounds.bitmask`);
``frozenset`` only appears at API boundaries.

This module deliberately depends on nothing above :mod:`repro.rounds`: the
algorithm and the sinks are structural protocols, so the import direction is
strictly ``core / predimpl / sysmodel -> rounds``.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from .bitmask import full_mask, iter_bits, mask_of
from .record import ProcessId, Round, RoundRecord

#: Cap on distinct masks whose member tuples OracleTransport memoises.
#: Structured environments (partitions, crash complements, the full set)
#: produce a handful of distinct masks and stay far below it; noisy oracles
#: whose every mask is fresh fall back to building the tuple per query.
_BITS_CACHE_LIMIT = 4096


class RoundAlgorithm(Protocol):
    """The slice of :class:`repro.core.algorithm.HOAlgorithm` the engine uses."""

    @property
    def n(self) -> int: ...

    def send(self, round: Round, process: ProcessId, state: Any) -> Any: ...

    def transition(
        self, round: Round, process: ProcessId, state: Any, received: Mapping[ProcessId, Any]
    ) -> Any: ...

    def decision(self, state: Any) -> Optional[Any]: ...


@runtime_checkable
class RoundTraceSink(Protocol):
    """Where the engine writes unified per-round records and decisions.

    Implemented by :class:`repro.core.types.RunTrace` (round-level) and
    :class:`repro.sysmodel.trace.SystemRunTrace` (step-level).
    """

    def record_round_result(self, record: RoundRecord) -> None: ...

    def record_decision(
        self, process: ProcessId, value: Any, round: Round, time: float
    ) -> None: ...


@runtime_checkable
class RoundObserver(Protocol):
    """A hook fed every :class:`RoundRecord` the engine produces, as it is produced.

    Observers see records on *both* transport paths -- lockstep oracle
    rounds and per-process step-backed rounds -- right after the trace sink
    does, so online consumers (the streaming predicate monitors of
    :mod:`repro.predicates.monitors`) never need the recorded collection.
    An observer may additionally expose a boolean ``stop_requested``
    attribute; :attr:`RoundEngine.stop_requested` folds those into one
    early-stop signal that run loops poll between rounds.
    """

    def on_record(self, record: RoundRecord) -> None: ...


class RoundTransport(Protocol):
    """The environment of the round engine: who is heard of, with what payloads.

    ``round_view`` returns the heard-of mask and the received partial vector
    for one (round, process) pair.  *payloads* is the dense per-process
    payload sequence of lockstep execution; step-backed transports ignore it
    because delivered messages already carry their payloads.
    """

    def round_view(
        self, round: Round, process: ProcessId, payloads: Optional[Sequence[Any]]
    ) -> Tuple[int, Mapping[ProcessId, Any]]: ...


class OracleTransport:
    """Oracle-backed environment: ``HO(p, r)`` comes from a heard-of oracle.

    The oracle is any callable ``(round, process) -> iterable of processes``;
    oracles that implement the mask-native ``ho_mask(round, process)`` fast
    path (every oracle in :mod:`repro.adversaries`) skip set construction
    entirely.  Returned sets/masks are clamped to ``Pi``, so oracles may be
    sloppy about bounds.  Transition functions receive a plain dict in
    ascending process id.
    """

    __slots__ = ("oracle", "n", "_full", "_mask_fn", "_bits_cache")

    def __init__(self, oracle: Any, n: int) -> None:
        self.oracle = oracle
        self.n = n
        self._full = full_mask(n)
        mask_fn = getattr(oracle, "ho_mask", None)
        self._mask_fn: Callable[[Round, ProcessId], int] = (
            mask_fn if callable(mask_fn) else self._mask_from_sets
        )
        #: mask -> tuple of member ids; environments reuse the same heard-of
        #: sets over and over (blocks, the full set, crash complements), so
        #: materialised views iterate a cached tuple at C speed instead of
        #: walking mask bits per (process, round).  Bounded: a noisy oracle
        #: producing a fresh mask per query must not accumulate O(rounds * n)
        #: tuples over a long run.
        self._bits_cache: Dict[int, Tuple[ProcessId, ...]] = {}

    def _mask_from_sets(self, round: Round, process: ProcessId) -> int:
        return mask_of(q for q in self.oracle(round, process) if 0 <= q < self.n)

    def round_view(
        self, round: Round, process: ProcessId, payloads: Optional[Sequence[Any]]
    ) -> Tuple[int, Mapping[ProcessId, Any]]:
        mask = self._mask_fn(round, process) & self._full
        if payloads is None:
            raise ValueError(
                "OracleTransport requires the lockstep payload sequence; "
                "per-process finish_rounds is a step-transport operation"
            )
        bits = self._bits_cache.get(mask)
        if bits is None:
            bits = tuple(iter_bits(mask))
            if len(self._bits_cache) < _BITS_CACHE_LIMIT:
                self._bits_cache[mask] = bits
        return mask, {q: payloads[q] for q in bits}


class StepTransport:
    """Step-backed environment: heard-of sets emerge from delivered messages.

    Each process owns a mailbox of ``(round, sender) -> payload`` entries.
    The predicate-implementation program :meth:`deposit`\\ s a reception as
    soon as its receive step returns round evidence; when the program leaves
    a round, the engine pulls the round's view out of the mailbox and
    :meth:`advance` discards entries for finished rounds.  :meth:`reset`
    models a crash: the mailbox is volatile state.
    """

    __slots__ = ("n", "_mail")

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"number of processes must be positive, got {n}")
        self.n = n
        self._mail: List[Dict[Tuple[Round, ProcessId], Any]] = [{} for _ in range(n)]

    def deposit(self, process: ProcessId, round: Round, sender: ProcessId, payload: Any) -> None:
        """Record that *process* obtained *sender*'s round-*round* payload."""
        self._mail[process][(round, sender)] = payload

    def round_view(
        self, round: Round, process: ProcessId, payloads: Optional[Sequence[Any]] = None
    ) -> Tuple[int, Mapping[ProcessId, Any]]:
        received = {
            sender: payload
            for (message_round, sender), payload in self._mail[process].items()
            if message_round == round
        }
        return mask_of(received), received

    def advance(self, process: ProcessId, next_round: Round) -> None:
        """Discard mailbox entries of rounds before *next_round* (they are finished)."""
        box = self._mail[process]
        self._mail[process] = {key: value for key, value in box.items() if key[0] >= next_round}

    def reset(self, process: ProcessId) -> None:
        """Clear the mailbox of *process* (volatile state lost in a crash)."""
        self._mail[process].clear()


class RoundEngine:
    """The unified round executor over one algorithm, transport and trace sink.

    Lockstep use (oracle transport)::

        engine = RoundEngine(algorithm, OracleTransport(oracle, n), trace)
        states = {p: algorithm.initial_state(p, value_p) for p in range(n)}
        engine.execute_round(1, states)   # mutates states, records the round

    Per-process use (step transport): the program calls
    :meth:`send_payload` at the top of each round, deposits receptions into
    the :class:`StepTransport` as they arrive, and calls
    :meth:`finish_rounds` when it leaves the round -- the engine applies the
    transition for the finished round, empty transitions for skipped rounds,
    records everything, and prunes the mailbox.
    """

    __slots__ = ("algorithm", "transport", "sink", "n", "observers")

    def __init__(
        self,
        algorithm: RoundAlgorithm,
        transport: RoundTransport,
        sink: Any,
        observers: Sequence[RoundObserver] = (),
    ) -> None:
        self.algorithm = algorithm
        self.transport = transport
        self.sink = sink
        self.n = algorithm.n
        self.observers: List[RoundObserver] = list(observers)

    def add_observer(self, observer: RoundObserver) -> None:
        """Attach *observer* to the record stream (fed after the trace sink)."""
        self.observers.append(observer)

    @property
    def stop_requested(self) -> bool:
        """Whether any observer requests an early stop (polled between rounds)."""
        return any(getattr(observer, "stop_requested", False) for observer in self.observers)

    # ------------------------------------------------------------------ #
    # lockstep execution (oracle-backed)
    # ------------------------------------------------------------------ #

    def execute_round(
        self, round: Round, states: MutableMapping[ProcessId, Any]
    ) -> MutableMapping[ProcessId, Any]:
        """Execute one full round for all processes, in lockstep.

        *states* maps each process to its current state and is updated in
        place.  Time is recorded as the round number (round-level runs have
        no finer clock).
        """
        algorithm = self.algorithm
        transport = self.transport
        sink = self.sink
        observers = self.observers
        n = self.n
        time = float(round)

        payloads = [algorithm.send(round, p, states[p]) for p in range(n)]
        sink.messages_sent += n * n

        delivered = 0
        for p in range(n):
            mask, received = transport.round_view(round, p, payloads)
            delivered += len(received)
            new_state = algorithm.transition(round, p, states[p], received)
            states[p] = new_state
            decision = algorithm.decision(new_state)
            record = RoundRecord(
                process=p,
                round=round,
                ho_mask=mask,
                state_after=new_state,
                decision=decision,
                sent_payload=payloads[p],
                time=time,
            )
            sink.record_round_result(record)
            for observer in observers:
                observer.on_record(record)
            if decision is not None:
                sink.record_decision(p, decision, round, time)
        sink.messages_delivered += delivered
        return states

    # ------------------------------------------------------------------ #
    # per-process execution (step-backed)
    # ------------------------------------------------------------------ #

    def send_payload(self, round: Round, process: ProcessId, state: Any) -> Any:
        """The sending function ``S_p^r``: the payload *process* broadcasts."""
        return self.algorithm.send(round, process, state)

    def finish_rounds(
        self,
        process: ProcessId,
        round: Round,
        next_round: Round,
        state: Any,
        time: float,
    ) -> Any:
        """Finish *round* for *process* and skip ahead to *next_round*.

        Applies ``T^round`` to the messages the transport collected, then
        ``T^{r'}`` with the empty view for every skipped round
        ``round < r' < next_round`` (a jump over rounds whose messages were
        never received), records every executed round through the sink, and
        prunes the transport mailbox.  Returns the new state.
        """
        mask, received = self.transport.round_view(round, process, None)
        state = self._apply(process, round, state, mask, received, time)
        for skipped in range(round + 1, next_round):
            state = self._apply(process, skipped, state, 0, {}, time)
        advance = getattr(self.transport, "advance", None)
        if advance is not None:
            advance(process, next_round)
        return state

    def _apply(
        self,
        process: ProcessId,
        round: Round,
        state: Any,
        mask: int,
        received: Mapping[ProcessId, Any],
        time: float,
    ) -> Any:
        new_state = self.algorithm.transition(round, process, state, received)
        decision = self.algorithm.decision(new_state)
        record = RoundRecord(
            process=process,
            round=round,
            ho_mask=mask,
            state_after=new_state,
            decision=decision,
            time=time,
        )
        self.sink.record_round_result(record)
        for observer in self.observers:
            observer.on_record(record)
        if decision is not None:
            self.sink.record_decision(process, decision, round, time)
        return new_state


__all__ = [
    "RoundAlgorithm",
    "RoundTraceSink",
    "RoundObserver",
    "RoundTransport",
    "OracleTransport",
    "StepTransport",
    "RoundEngine",
]
