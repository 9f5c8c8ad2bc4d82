"""The discrete-event link engine: the exact oracle of the closed form.

``ionarch.netsim`` serves every link request with one closed form that
draws a request's Geometric(p) gaps in bulk.  This engine runs the same
request attempt by attempt on an event queue, from the same stream, so the
tests can require bit-equal completions, attempt counts, herald counts and
event logs.  The engine writes its log lines itself, reading nothing from
``ionarch.netsim``, so the comparison checks the line text as well as the
stamps and the event order.  ``engine_link_run`` has the closed form's
signature, and the tests of ``_closed_form_link_run`` compare the two on
small requests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from ionarch.errors import ValidationError
from ionarch.rng import philox_stream


class EventKind(Enum):
    ATTEMPT_START = "AttemptStart"
    HERALD = "Herald"


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: EventKind
    elu: int = -1
    port: int = -1
    request: int = -1
    success: bool | None = None

    def log_line(self) -> str:
        """``time,kind,register,port,request``, the time as ``%.9e``."""
        kind = self.kind.value
        if self.kind is EventKind.HERALD:
            kind += "(ok)" if self.success else "(fail)"
        return f"{self.time:.9e},{kind},{self.elu},{self.port},{self.request}"


class EventQueue:
    """Min-heap of events with strict causality: no event before the clock."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.clock = 0.0

    def push(self, event: SimEvent, ctx=None):
        if event.time < self.clock:
            raise ValidationError(
                f"causality violation: event at {event.time} before clock {self.clock}")
        heapq.heappush(self._heap, (event.time, self._seq, event, ctx))
        self._seq += 1

    def pop(self) -> tuple[SimEvent, object]:
        time, _, event, ctx = heapq.heappop(self._heap)
        self.clock = time
        return event, ctx

    def __len__(self):
        return len(self._heap)


@dataclass
class EntanglementRequest:
    pairs_needed: int
    request_id: int = 0
    completed: int = 0
    completion_times: list = field(default_factory=list)

    def register(self, time: float):
        if self.completed >= self.pairs_needed:
            raise ValidationError("request over-completed")
        self.completed += 1
        self.completion_times.append(time)

    @property
    def done(self) -> bool:
        return self.completed >= self.pairs_needed


@dataclass
class _Ion:
    """One TDM slot: an attempt stream on a fixed per-ion grid.

    Attempt k happens at ``start + k * tick``; keeping the grid arithmetic
    multiplicative (not accumulated) makes the event engine and the closed
    form bit-identical.
    """

    elu: int
    port: int
    start: float = 0.0
    ticks: int = 0

    def next_allowed(self, tick: float) -> float:
        return self.start + self.ticks * tick


class _LinkEngine:
    """Event-driven attempt/herald machinery.

    Drives one request at a time on its own queue.  The request draws one
    Geometric(p) gap when it starts and counts it down by one at every
    ``AttemptStart``; the attempt that reaches zero succeeds and draws the
    next gap.  Log lines go to ``emit`` one at a time, each with its
    newline.
    """

    def __init__(self, p_success: float, tick: float, herald_latency: float,
                 emit=None):
        self.p = p_success
        self.tick = tick
        self.herald_latency = herald_latency
        self.emit = emit
        self.attempts = 0

    def run_request(self, request: EntanglementRequest, ions, rng):
        """Drive ``request`` to completion over ``ions``, drawing from ``rng``."""
        w = self.herald_latency
        tick = self.tick
        queue = EventQueue()

        def schedule_attempt(ion):
            t = max(ion.next_allowed(tick), queue.clock)
            queue.push(SimEvent(t, EventKind.ATTEMPT_START, ion.elu, ion.port,
                                request.request_id), ion)

        for ion in ions:
            schedule_attempt(ion)
        countdown = int(rng.geometric(self.p))     # attempts to the next success
        while len(queue):
            event, ion = queue.pop()
            if self.emit is not None:
                self.emit(event.log_line() + "\n")
            if event.kind is EventKind.ATTEMPT_START:
                self.attempts += 1
                countdown -= 1
                ok = countdown == 0
                if ok:
                    countdown = int(rng.geometric(self.p))
                queue.push(SimEvent(event.time + w, EventKind.HERALD, ion.elu,
                                    ion.port, request.request_id, success=ok),
                           ion)
                ion.ticks += 1
            else:       # HERALD
                if not request.done:
                    if event.success:
                        request.register(event.time)
                    if not request.done:
                        schedule_attempt(ion)


def engine_link_run(p: float, n_pairs: int, ports: int, tdm: int,
                    tick: float, w: float, seed: int, stream: int = 0,
                    start: float = 0.0, emit=None) -> dict:
    """``netsim._closed_form_link_run`` run by the event engine."""
    engine = _LinkEngine(p, tick, w, emit)
    request = EntanglementRequest(n_pairs, request_id=stream)
    ions = [_Ion(0, i // tdm, start) for i in range(ports * tdm)]
    engine.run_request(request, ions, philox_stream(seed, stream))
    return {"completions": request.completion_times,
            "attempts": engine.attempts}
