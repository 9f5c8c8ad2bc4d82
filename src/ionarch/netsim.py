"""Seeded discrete-event simulation of the photonic entanglement fabric.

Attempt semantics: every active TDM slot (communication ion) fires one
heralded attempt per repetition period 1/R; a failed ion is blocked for its
re-initialization time (and, conservatively, for the heralding flight time of
the classical outcome) before its slot attempts again.  Successful ions swap
their entanglement into memory and re-enter the rotation on the same
schedule.  Every link request draws from its own counter-based stream,
``philox_stream(seed, request_id)``: ``run_link_sim``'s single request is
stream 0, and in a Toffoli pipeline the request of gate ``g`` to operand
``op`` (0, 1, 2) is stream ``3*g + op``.  Events are processed in (time,
sequence) order, so identical seeds give bit-identical event logs.  One
request runner serves both simulators.  It draws an uncontended request in
bulk by a closed form that reproduces the event engine draw for draw, and
runs the engine, the closed form's oracle, only for event logs or when the
herald latency reaches the attempt spacing.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .device import DeviceParams, LinkModel, link_success_probability
from .errors import ValidationError, ZeroSuccessProbability
from .rng import philox_stream
from .steane import LogicalCostTable


class EventKind(Enum):
    ATTEMPT_START = "AttemptStart"
    HERALD = "Herald"
    GATE_DONE = "GateDone"


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: EventKind
    elu: int = -1
    port: int = -1
    request: int = -1
    success: bool | None = None

    def log_line(self) -> str:
        kind = self.kind.value
        if self.kind is EventKind.HERALD:
            kind = f"Herald({'ok' if self.success else 'fail'})"
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
class EluState:
    """Register capacity relevant to the network: ports and TDM depth."""

    elu_id: int
    n_qubits: int = 100
    ports: int = 2
    m_t: int = 10
    memory_qubits: int = 0

    def __post_init__(self):
        comm = self.ports * self.m_t
        if comm + self.memory_qubits > self.n_qubits:
            raise ValidationError(
                f"register {self.elu_id}: {comm} communication + "
                f"{self.memory_qubits} memory qubits exceed {self.n_qubits}")
        if self.ports < 1 or self.m_t < 1:
            raise ValidationError("ports and m_t must be at least 1")


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


# ---------------------------------------------------------------------------

#: Heralded pairs a teleported Toffoli needs to each of its three operands.
PAIRS_PER_OPERAND = 7


@dataclass
class _Ion:
    """One TDM slot: an attempt stream on a fixed per-ion grid.

    Attempt k happens at ``start + k * tick``; keeping the grid arithmetic
    multiplicative (not accumulated) makes the event engine and the batched
    closed-form path bit-identical.
    """

    elu: int
    port: int
    start: float = 0.0
    ticks: int = 0

    def next_allowed(self, tick: float) -> float:
        return self.start + self.ticks * tick


def _attempt_tick(params: DeviceParams, herald_latency: float,
                  overlap_feedback: bool) -> float:
    """Per-ion attempt spacing: repetition period or herald + reinit."""
    block = 0.0 if overlap_feedback else herald_latency
    return max(1.0 / params.rep_rate, block + params.reinit_time)


class _LinkEngine:
    """Event-driven attempt/herald machinery: the exact oracle of the closed form.

    Request ``request_id`` draws from ``philox_stream(seed, request_id)``, and
    every request group runs on its own queue, so a request's draws and times
    depend neither on the other requests nor on earlier groups.  Log lines go
    to ``emit`` one at a time.
    """

    def __init__(self, p_success: float, seed: int, tick: float,
                 herald_latency: float, emit=None):
        self.p = p_success
        self.seed = seed
        self.tick = tick
        self.herald_latency = herald_latency
        self.emit = emit
        self.attempts = 0
        self.heralds_ok = 0

    def _emit(self, event: SimEvent):
        if self.emit is not None:
            self.emit(event.log_line())

    def run_request_group(self, requests, ions_by_request, start: float):
        """Drive concurrent requests to completion."""
        w = self.herald_latency
        tick = self.tick
        queue = EventQueue()

        def schedule_attempt(ion, request, rng):
            t = max(ion.next_allowed(tick), queue.clock)
            ev = SimEvent(t, EventKind.ATTEMPT_START, ion.elu, ion.port,
                          request.request_id)
            queue.push(ev, (ion, request, rng))

        for request in requests:
            rng = philox_stream(self.seed, request.request_id)
            for ion in ions_by_request[request.request_id]:
                ion.start = max(ion.start, start)
                schedule_attempt(ion, request, rng)

        while len(queue):
            event, ctx = queue.pop()
            if event.kind is EventKind.ATTEMPT_START:
                ion, request, rng = ctx
                self._emit(event)
                self.attempts += 1
                ok = bool(rng.random() < self.p)
                herald = SimEvent(event.time + w, EventKind.HERALD, ion.elu,
                                  ion.port, request.request_id, success=ok)
                queue.push(herald, ctx)
                ion.ticks += 1
            else:       # HERALD
                ion, request, rng = ctx
                self._emit(event)
                if event.success:
                    self.heralds_ok += 1
                if not request.done:
                    if event.success:
                        request.register(event.time)
                    if not request.done:
                        schedule_attempt(ion, request, rng)


def _effective_multiplexity(m_p: int | None, m_t: int | None,
                            default_ports: int, default_tdm: int) -> tuple[int, int]:
    ports = m_p if m_p is not None else default_ports
    tdm = m_t if m_t is not None else default_tdm
    if ports < 1 or tdm < 1:
        raise ValidationError("multiplexities must be at least 1")
    return ports, tdm


def _link_probability(link: LinkModel, p_override: float | None) -> float:
    p = p_override if p_override is not None else link_success_probability(link)
    if p == 0.0:
        raise ZeroSuccessProbability("link success probability is zero")
    if not 0.0 < p <= 1.0:      # also rejects NaN
        raise ValidationError(f"link success probability {p} outside (0, 1]")
    return p


def _check_herald_latency(herald_latency: float):
    if not 0.0 <= herald_latency < math.inf:
        raise ValidationError(
            f"herald latency {herald_latency} must be finite and non-negative")


def _closed_form_link_run(p: float, n_pairs: int, n_ions: int, tick: float,
                          w: float, seed: int, stream: int = 0,
                          start: float = 0.0) -> dict:
    """Batched equivalent of the event engine for one uncontended request.

    The request draws from ``philox_stream(seed, stream)``.  With a common
    start and a uniform per-ion cadence, the engine processes attempts tick by
    tick in ion order and consumes one uniform per attempt, so outcomes can be
    drawn in bulk in the same stream order; attempt k heralds at
    ``(start + k * tick) + w``, the engine's own float arithmetic.  After the
    pair completing the request heralds, the engine drains the already
    scheduled attempts of the next tick (the ions whose heralds preceded the
    completing one), which is reproduced exactly here.
    """
    rng = philox_stream(seed, stream)
    hit_ticks: list[np.ndarray] = []
    successes_seen = 0
    tick_base = 0
    # about twice the expected attempts, at most 2**16 uniforms per chunk;
    # the chunking does not change which draw decides which attempt
    chunk_ticks = max(1, math.ceil(min((1 << 16) // n_ions,
                                       2 * n_pairs / (p * n_ions))))
    while True:
        draws = rng.random(chunk_ticks * n_ions) < p
        hits = draws.nonzero()[0]
        if successes_seen + hits.size < n_pairs:
            successes_seen += hits.size
            hit_ticks.append(tick_base + hits // n_ions)
            tick_base += chunk_ticks
            continue
        final = int(hits[n_pairs - 1 - successes_seen])
        hit_ticks.append(tick_base + hits[:n_pairs - successes_seen] // n_ions)
        k_done, rank = divmod(final, n_ions)
        # attempts: every ion through tick k_done, plus the drained attempts
        # of the ions already rescheduled before the completing herald
        attempts = (tick_base + k_done + 1) * n_ions + rank
        drawn = attempts - tick_base * n_ions
        heralds_ok = successes_seen + int(draws[:drawn].sum())
        if drawn > draws.size:      # drained tick spills into the next chunk
            extra = rng.random(drawn - draws.size) < p
            heralds_ok += int(extra.sum())
        completions = (start + np.concatenate(hit_ticks) * tick) + w
        return {"completions": completions.tolist(), "attempts": attempts,
                "heralds_ok": heralds_ok}


def _run_requests(streams, registers, n_pairs: int, ports: int, tdm: int,
                  p: float, tick: float, w: float, seed: int, start: float,
                  emit) -> tuple[list, int, int]:
    """Serve a group of concurrent, uncontended link requests.

    Request ``streams[i]`` draws from ``philox_stream(seed, streams[i])``,
    logs register ``registers[i]`` and needs ``n_pairs`` heralded pairs over
    ``ports * tdm`` ions that start attempting at ``start``.  Returns each
    request's completion times, the attempt count and the heralded successes.
    The event engine runs when ``emit`` takes log lines or the herald latency
    reaches the attempt spacing; otherwise the closed form, its draw-for-draw
    equivalent, does.
    """
    if emit is None and w < tick:
        runs = [_closed_form_link_run(p, n_pairs, ports * tdm, tick, w, seed,
                                      stream=s, start=start)
                for s in streams]
        return ([run["completions"] for run in runs],
                sum(run["attempts"] for run in runs),
                sum(run["heralds_ok"] for run in runs))
    engine = _LinkEngine(p, seed, tick, w, emit)
    requests = [EntanglementRequest(n_pairs, request_id=s) for s in streams]
    ions = {s: [_Ion(elu, port) for port in range(ports) for _ in range(tdm)]
            for s, elu in zip(streams, registers)}
    engine.run_request_group(requests, ions, start)
    return ([request.completion_times for request in requests],
            engine.attempts, engine.heralds_ok)


def run_link_sim(link: LinkModel, elu_a: EluState, elu_b: EluState,
                 n_pairs: int, seed: int, m_p: int | None = None,
                 m_t: int | None = None, herald_latency: float = 10e-9,
                 overlap_feedback: bool = False,
                 collect_log: bool = False,
                 p_override: float | None = None,
                 log_sink=None) -> dict:
    """Generate ``n_pairs`` heralded pairs between two registers.

    Returns the makespan, per-pair inter-completion latencies, attempt count
    and success count.  The event log is returned as ``event_log`` with
    ``collect_log``, or passed line by line to the callable ``log_sink``;
    either runs the event engine, which otherwise serves only when the herald
    latency reaches the attempt spacing.  ``p_override`` replaces the physical
    success probability (for degenerate-link studies).  The single request
    draws from stream 0 of ``seed``.
    """
    if n_pairs < 1:
        raise ValidationError("n_pairs must be at least 1")
    if collect_log and log_sink is not None:
        raise ValidationError("collect_log and log_sink are exclusive")
    ports, tdm = _effective_multiplexity(m_p, m_t,
                                         min(elu_a.ports, elu_b.ports),
                                         min(elu_a.m_t, elu_b.m_t))
    p = _link_probability(link, p_override)
    _check_herald_latency(herald_latency)
    log: list | None = [] if collect_log else None
    emit = log.append if log is not None else log_sink

    tick = _attempt_tick(link.params, herald_latency, overlap_feedback)
    (times,), attempts, heralds_ok = _run_requests(
        [0], [elu_a.elu_id], n_pairs, ports, tdm, p, tick, herald_latency,
        seed, start=0.0, emit=emit)
    makespan = times[-1]
    latencies = [times[0]] + [t2 - t1 for t1, t2 in zip(times, times[1:])]
    busy = n_pairs * herald_latency
    result = {
        "makespan_s": makespan,
        "latencies_s": latencies,
        "mean_pair_latency_s": makespan / n_pairs,
        "attempts": attempts,
        "successes": len(times),
        "heralded_successes": heralds_ok,
        "link_wait_fraction": max(0.0, 1.0 - busy / makespan) if makespan else 0.0,
    }
    if collect_log:
        result["event_log"] = log
    return result


def summary_json(result: dict) -> str:
    payload = {
        "makespan_s": result["makespan_s"],
        "mean_pair_latency_s": result["mean_pair_latency_s"],
        "attempts": result["attempts"],
        "successes": result["successes"],
        "link_wait_fraction": result["link_wait_fraction"],
    }
    return json.dumps(payload, sort_keys=True)


def run_toffoli_pipeline(n_toffolis: int, table: LogicalCostTable,
                         link: LinkModel, seed: int,
                         m_p: int | None = None, m_t: int | None = None,
                         herald_latency: float = 10e-9,
                         collect_log: bool = False,
                         p_override: float | None = None) -> dict:
    """Simulate sequential teleported Toffoli gates on fresh registers.

    Each gate prepares its resource state on a fresh register (deterministic
    duration from the cost table's audit trail) while seven heralded pairs
    are generated to each of the three operand registers over the available
    ports; the gate completes after the slower of the two phases plus the
    teleportation circuit.  The request of gate ``g`` to operand ``op`` draws
    from stream ``3*g + op`` of ``seed``; being independent and uncontended,
    the three requests run as three closed-form link runs, unless the event
    log is collected or the herald latency reaches the attempt spacing.
    """
    if n_toffolis < 1:
        raise ValidationError("n_toffolis must be at least 1")
    layout = table.layout
    ports, tdm = _effective_multiplexity(m_p, m_t, getattr(layout, "m_p", 2),
                                         getattr(layout, "m_t", 10))
    p = _link_probability(link, p_override)
    _check_herald_latency(herald_latency)
    tick = _attempt_tick(link.params, herald_latency, overlap_feedback=False)
    log: list | None = [] if collect_log else None
    emit = log.append if log is not None else None

    prep = table.phi_plus_prep_time
    teleport = table.toffoli_teleport_time
    gate_times = []
    link_wait = 0.0
    attempts = 0
    t = 0.0
    for k in range(n_toffolis):
        streams = range(3 * k, 3 * k + 3)      # one per operand register
        completions, gate_attempts, _ = _run_requests(
            streams, streams, PAIRS_PER_OPERAND, ports, tdm, p, tick,
            herald_latency, seed, start=t, emit=emit)
        links_end = max(times[-1] for times in completions)
        attempts += gate_attempts
        prep_end = t + prep
        gate_end = max(prep_end, links_end) + teleport
        link_wait += max(0.0, links_end - prep_end)
        if log is not None:
            log.append(SimEvent(gate_end, EventKind.GATE_DONE,
                                elu=k, request=k).log_line())
        gate_times.append(gate_end - t)
        t = gate_end
    return {
        "makespan_s": t,
        "gate_times_s": gate_times,
        "mean_gate_time_s": t / n_toffolis,
        "link_wait_fraction": link_wait / t if t else 0.0,
        "attempts": attempts,
        "event_log": log if collect_log else None,
    }
