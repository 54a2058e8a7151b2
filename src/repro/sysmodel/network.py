"""The network of the system model: ``network_p``, ``buffer_p`` and make-ready steps.

Section 4.1 models the network with two message sets per process:

* ``network_p`` -- messages addressed to ``p`` that are still in transit;
* ``buffer_p``  -- messages ready for reception by ``p``.

A *send step* puts the message into ``network_s`` for every destination
``s``; a *make-ready step*, taken by the network, moves messages from
``network_p`` to ``buffer_p``; a *receive step* removes (at most) one message
from ``buffer_p``.

Timing: when sender and receiver both belong to the synchronous core
``pi0`` of a good period, a message sent at time ``t`` must be in the
receiver's buffer by ``t + delta`` (provided ``t + delta`` is still in the
period).  Outside good periods the behaviour is arbitrary; it is governed by
a :class:`BadPeriodNetwork` policy (loss probability and a delay range),
driven by a seeded random generator so that runs are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..core.types import ProcessId
from ..engine.rng import SeededRng
from .params import SynchronyParams
from .periods import PeriodSchedule

if TYPE_CHECKING:
    import random

#: ``plan_delivery``'s "period not supplied" marker (``None`` means a bad period).
_LOOK_UP = object()


class Envelope:
    """A message in transit or in a reception buffer.

    Envelopes are compared and hashed by identity: ``sequence`` already
    makes every envelope of a network unique, and the ``network_p`` /
    ``buffer_p`` lists look one up (make-ready, receive) on every event, so
    a field-by-field ``__eq__`` would deep-compare payloads for nothing.
    """

    __slots__ = ("sender", "receiver", "payload", "send_time", "sequence")

    def __init__(
        self,
        sender: ProcessId,
        receiver: ProcessId,
        payload: Any,
        send_time: float,
        sequence: int,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.payload = payload
        self.send_time = send_time
        self.sequence = sequence

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Envelope({self.sender}->{self.receiver} @ {self.send_time:.2f}: "
            f"{self.payload!r})"
        )


@dataclass
class BadPeriodNetwork:
    """Network behaviour outside the guarantees of ``pi0-sync``.

    * with probability *loss_probability* the message is dropped;
    * otherwise it becomes ready after a delay drawn uniformly from
      ``[min_delay, max_delay]`` (which may well exceed ``delta``:
      bad-period links are asynchronous).
    """

    loss_probability: float = 0.5
    min_delay: float = 0.5
    max_delay: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1], got {self.loss_probability}"
            )
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError(
                f"invalid delay range [{self.min_delay}, {self.max_delay}]"
            )

    def sample_delay(self, rng: random.Random) -> Optional[float]:
        """The delay until make-ready, or ``None`` when the message is lost."""
        if rng.random() < self.loss_probability:
            return None
        return rng.uniform(self.min_delay, self.max_delay)


class Network:
    """The message-transport substrate shared by all simulated processes.

    The network does not schedule events itself; the simulator asks it, at
    send time, when each copy of the message should become ready
    (:meth:`plan_delivery`) and then issues the make-ready at that time
    (:meth:`make_ready`).  This keeps the event loop in one place
    (:class:`repro.sysmodel.simulator.SystemSimulator`) while the network
    owns the two message sets and the delivery policy.
    """

    def __init__(
        self,
        n: int,
        params: SynchronyParams,
        schedule: PeriodSchedule,
        bad_behavior: Optional[BadPeriodNetwork] = None,
        good_delay_factor: float = 1.0,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not 0.0 < good_delay_factor <= 1.0:
            raise ValueError(
                f"good_delay_factor must be in (0, 1], got {good_delay_factor}"
            )
        self.n = n
        self.params = params
        self.schedule = schedule
        self.bad_behavior = bad_behavior if bad_behavior is not None else BadPeriodNetwork()
        self.good_delay_factor = good_delay_factor
        # The simulator injects the engine's "network" sub-stream here, so
        # bad-period link randomness is isolated from step/fault randomness;
        # *seed* remains as a fallback for stand-alone Network construction,
        # drawing from the same named sub-stream a simulator-owned network
        # would (so stand-alone and simulator-embedded networks with equal
        # seeds see identical bad-period link behaviour).
        self._rng = rng if rng is not None else SeededRng(seed).stream("network")
        self._sequence = itertools.count()
        #: messages in transit, per receiver (the paper's ``network_p``)
        self.network: Dict[ProcessId, List[Envelope]] = {p: [] for p in range(n)}
        #: messages ready for reception, per receiver (the paper's ``buffer_p``)
        self.buffer: Dict[ProcessId, List[Envelope]] = {p: [] for p in range(n)}
        #: counters for the benchmark reports
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_made_ready = 0

    # ------------------------------------------------------------------ #
    # send / make-ready / receive
    # ------------------------------------------------------------------ #

    def send(
        self, sender: ProcessId, receivers: Sequence[ProcessId], payload: Any, time: float
    ) -> List[Envelope]:
        """Execute the network side of a send step; returns the created envelopes."""
        envelopes = []
        for receiver in receivers:
            envelope = Envelope(sender, receiver, payload, time, next(self._sequence))
            self.network[receiver].append(envelope)
            envelopes.append(envelope)
        self.messages_sent += len(envelopes)
        return envelopes

    def plan_delivery(self, envelope: Envelope, period: Any = _LOOK_UP) -> Optional[float]:
        """Decide when *envelope* becomes ready for reception.

        Returns the make-ready time, or ``None`` when the message is lost.
        The decision follows ``pi0-sync``: if both endpoints are in the
        synchronous core at send time, the message is ready within ``delta``
        (scaled by ``good_delay_factor``; 1.0 reproduces the worst case used
        by the analytic bounds).  Otherwise the bad-period behaviour applies.

        *period* is the good period in force at send time (``None`` for a
        bad period); a caller that already resolved it -- the simulator does,
        once per step event -- passes it in, otherwise the schedule is asked.
        """
        if period is _LOOK_UP:
            period = self.schedule.period_at(envelope.send_time)
        if period is not None:
            pi0 = period.pi0
            if envelope.sender in pi0 and envelope.receiver in pi0:
                return envelope.send_time + self.params.delta * self.good_delay_factor
        delay = self.bad_behavior.sample_delay(self._rng)
        if delay is None:
            self.messages_dropped += 1
            return None
        return envelope.send_time + delay

    def make_ready(self, envelope: Envelope) -> bool:
        """Move *envelope* from ``network`` to ``buffer`` (the make-ready step).

        Returns ``False`` when the message is no longer in transit (it was
        purged by a crash or by the start of a pi0-down good period).
        """
        try:
            self.network[envelope.receiver].remove(envelope)
        except ValueError:
            return False
        self.buffer[envelope.receiver].append(envelope)
        self.messages_made_ready += 1
        return True

    def buffered(self, process: ProcessId) -> List[Envelope]:
        """The current contents of ``buffer_p`` (not copied; do not mutate)."""
        return self.buffer[process]

    def take_from_buffer(self, process: ProcessId, envelope: Envelope) -> None:
        """Remove *envelope* from ``buffer_p`` after a receive step consumed it."""
        self.buffer[process].remove(envelope)

    # ------------------------------------------------------------------ #
    # purges (crashes, pi0-down good periods)
    # ------------------------------------------------------------------ #

    def purge_process_state(self, process: ProcessId) -> None:
        """Drop everything addressed to *process* (its volatile buffers are lost in a crash)."""
        self.network[process].clear()
        self.buffer[process].clear()

    def purge_messages_from(self, senders: Sequence[ProcessId]) -> int:
        """Drop all in-transit and buffered messages *from* the given senders.

        Used when a pi0-down good period starts: by definition no message
        from a down process is in transit during the period.  Returns the
        number of purged messages.
        """
        sender_set = set(senders)
        purged = 0
        for store in (self.network, self.buffer):
            for receiver in range(self.n):
                before = len(store[receiver])
                store[receiver] = [
                    envelope
                    for envelope in store[receiver]
                    if envelope.sender not in sender_set
                ]
                purged += before - len(store[receiver])
        return purged


__all__ = ["Envelope", "BadPeriodNetwork", "Network"]
