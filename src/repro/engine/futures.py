"""Asynchronous answering abstraction (paper Section 5.1).

Coordinated answering is asynchronous from the application's point of
view: a query may not be answerable until partner queries arrive.  The
middleware hands each submitter a :class:`CoordinationTicket` — a small
thread-safe future with callback support — which the engine later
resolves with an :class:`repro.core.evaluate.Answer` or fails with a
:class:`repro.core.evaluate.FailureReason` (e.g. ``STALE``).

Every pending query holds a ticket, so a ticket is one slotted object
and owns no lock: the process-wide :data:`_LOCK` guards every ticket's
state and callback list, and is held only for a few attribute reads
and writes — never while a callback runs.  The callback list exists
once a callback is added to a pending ticket, and a
``threading.Event`` once a caller blocks on one.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable, Optional

from ..core.evaluate import Answer, FailureReason
from ..errors import CoordinationError, StaleQueryError


class TicketState(enum.Enum):
    """Lifecycle of a coordination ticket."""

    PENDING = "pending"
    ANSWERED = "answered"
    FAILED = "failed"


#: Callback signature: called with the ticket once it settles.
TicketCallback = Callable[["CoordinationTicket"], None]

#: Guards every ticket's state, callback list and event slot.
_LOCK = threading.Lock()


class CoordinationTicket:
    """A future for one submitted entangled query.

    Thread-safe: the engine may resolve it from any thread while the
    application blocks in :meth:`result`.  Callbacks fire once, in
    registration order, on the settling thread; one added after the
    ticket settles fires immediately (on the adding thread).  A
    settled ticket never changes again.
    """

    __slots__ = ("query_id", "_state", "_answer", "_reason",
                 "_callbacks", "_event")

    def __init__(self, query_id: object):
        self.query_id = query_id
        self._state = TicketState.PENDING
        self._answer: Optional[Answer] = None
        self._reason: Optional[FailureReason] = None
        self._callbacks: Optional[list[TicketCallback]] = None
        self._event: Optional[threading.Event] = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def state(self) -> TicketState:
        return self._state

    def done(self) -> bool:
        """True once answered or failed."""
        return self._state is not TicketState.PENDING

    @property
    def answer(self) -> Optional[Answer]:
        """The answer if one is available (None while pending/failed)."""
        return self._answer

    @property
    def failure_reason(self) -> Optional[FailureReason]:
        """Why the query failed, if it did."""
        return self._reason

    # ------------------------------------------------------------------
    # blocking access
    # ------------------------------------------------------------------

    def result(self, timeout: float | None = None) -> Answer:
        """Block until settled; return the answer or raise.

        Raises :class:`repro.errors.StaleQueryError` if the query went
        stale, :class:`repro.errors.CoordinationError` on other
        failures, and ``TimeoutError`` if *timeout* elapses first.
        """
        if not self.wait(timeout):
            raise TimeoutError(
                f"query {self.query_id!r} still pending after "
                f"{timeout}s")
        if self._state is TicketState.ANSWERED:
            assert self._answer is not None
            return self._answer
        if self._reason is FailureReason.STALE:
            raise StaleQueryError(
                f"query {self.query_id!r} went stale before "
                f"coordination partners arrived")
        raise CoordinationError(
            f"query {self.query_id!r} failed: "
            f"{self._reason.value if self._reason else 'unknown'}")

    def wait(self, timeout: float | None = None) -> bool:
        """Block until settled; True if it settled within *timeout*."""
        with _LOCK:
            if self._state is not TicketState.PENDING:
                return True
            event = self._event
            if event is None:
                event = self._event = threading.Event()
        # The settler sets the event after releasing the lock, so a
        # timeout that races a settlement re-reads the state.
        return (event.wait(timeout)
                or self._state is not TicketState.PENDING)

    # ------------------------------------------------------------------
    # callbacks
    # ------------------------------------------------------------------

    def add_callback(self, callback: TicketCallback) -> None:
        """Invoke *callback(ticket)* when the ticket settles.

        Fires immediately if already settled.  Callback exceptions
        propagate to the resolving thread — keep callbacks small.
        """
        with _LOCK:
            if self._state is TicketState.PENDING:
                if self._callbacks is None:
                    self._callbacks = [callback]
                else:
                    self._callbacks.append(callback)
                return
        callback(self)

    # ------------------------------------------------------------------
    # engine-side settlement
    # ------------------------------------------------------------------

    def _settle(self, state: TicketState, answer: Optional[Answer],
                reason: Optional[FailureReason]) -> None:
        with _LOCK:
            if self._state is not TicketState.PENDING:
                raise CoordinationError(
                    f"ticket for query {self.query_id!r} settled twice")
            self._answer = answer
            self._reason = reason
            self._state = state
            callbacks = self._callbacks
            event = self._event
            self._callbacks = self._event = None
        if event is not None:
            event.set()
        if callbacks is not None:
            for callback in callbacks:
                callback(self)

    def resolve(self, answer: Answer) -> None:
        """Settle with an answer (engine use)."""
        self._settle(TicketState.ANSWERED, answer, None)

    def fail(self, reason: FailureReason) -> None:
        """Settle with a failure reason (engine use)."""
        self._settle(TicketState.FAILED, None, reason)

    def __repr__(self) -> str:
        return (f"<CoordinationTicket {self.query_id!r} "
                f"{self._state.value}>")
