"""Seeded simulation of the photonic entanglement fabric.

Attempt semantics: every active TDM slot (communication ion) fires one
heralded attempt per repetition period 1/R; a failed ion is blocked for its
re-initialization time (and, conservatively, for the heralding flight time of
the classical outcome) before its slot attempts again.  Successful ions swap
their entanglement into memory and re-enter the rotation on the same
schedule.  Every link request draws from its own counter-based stream,
``philox_stream(seed, request_id)``: ``run_link_sim``'s single request is
stream 0, and in a Toffoli pipeline the request of gate ``g`` to operand
``op`` (0, 1, 2) is stream ``3*g + op``.  Read in a discrete-event run's
(tick, ion) order, a request's successes form a renewal process, so the
stream yields one Geometric(p) gap per heralded success, not one draw per
attempt.  One closed form serves both simulators.  It draws each request's
gaps in bulk and writes the event log from the same draws, in the (time,
sequence) order of that run, so identical seeds give bit-identical results
and logs; the tests hold the event engine that checks this,
``tests/link_engine_oracle.py``.  A log sink receives the log in chunks of
whole newline-terminated lines, once per chunk of whole ticks of attempts.
The time stamps are formatted with array arithmetic, a block of chunks at
a time, and match ``%.9e`` exactly: a stamp that the arithmetic cannot
prove exact is formatted on its own with ``%``.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .arch import MusiqcLayout
from .device import DeviceParams, LinkModel, _nonzero_success_probability
from .errors import DomainError, ValidationError
from .rng import philox_stream
from .steane import PAIRS_PER_OPERAND, LogicalCostTable


# An event-log line is "time,kind,register,port,request", its kind one of
# AttemptStart, Herald(fail) and Herald(ok), and its time stamp _STAMP.
_STAMP = "%.9e"
# 10**k for 0 <= k <= 22: each is a float exactly (5**22 < 2**53)
_POW10 = np.array([float(10**k) for k in range(23)])
# buffer columns of the ten significant digits, last digit first
_DIGIT_COLUMNS = (10, 9, 8, 7, 6, 5, 4, 3, 2, 0)


def _format_stamps(times: np.ndarray) -> list:
    """``[_STAMP % t for t in times]``, formatted with array arithmetic.

    With ``k`` = 9 minus the decimal exponent of t, s = t * 10**k lies in
    [1e9, 1e10) and its nearest integer gives the ten significant digits.
    For 0 <= k <= 22, 10**k is exact, so s is t * 10**k rounded once:
    below 2**34, it is off by at most 2**-20.  Rounding s then gives the
    digits of t itself unless s lies within 2**-18 of a tie.  Such a stamp,
    and any t that is not positive and finite or whose k leaves [0, 22],
    is formatted with ``_STAMP`` on its own.
    """
    t = np.asarray(times, dtype=np.float64)
    exact = (t > 0.0) & (t < np.inf)
    safe = np.where(exact, t, 1.0)
    k = np.clip(9 - np.floor(np.log10(safe)).astype(np.int64), 0, 22)
    s = safe * _POW10[k]
    # log10 can miss the exponent by one near a power of ten; a k clipped
    # to [0, 22] leaves s outside [1e9, 1e10)
    k = np.clip(k + (s < 1e9) - (s >= 1e10), 0, 22)
    s = safe * _POW10[k]
    exact &= (s >= 1e9) & (s < 1e10)
    whole = np.floor(s)
    frac = s - whole
    exact &= np.abs(frac - 0.5) > 2.0**-18
    digits = np.where(exact, whole, 1e9).astype(np.int64) + (frac > 0.5)
    carry = digits == 10**10      # s rounded up to 1e10: one decade up
    digits[carry] = 10**9
    exponent = 9 - k + carry
    buf = np.empty((len(t), 16), np.uint8)
    for column in _DIGIT_COLUMNS:
        rest = digits // 10
        buf[:, column] = digits - 10 * rest + ord("0")
        digits = rest
    buf[:, 1] = ord(".")
    buf[:, 11] = ord("e")
    buf[:, 12] = np.where(exponent < 0, ord("-"), ord("+"))
    exponent = np.abs(exponent)
    buf[:, 13] = exponent // 10 + ord("0")
    buf[:, 14] = exponent % 10 + ord("0")
    buf[:, 15] = ord(" ")
    stamps = buf.tobytes().decode("ascii").split()
    for i in np.flatnonzero(~exact).tolist():
        stamps[i] = _STAMP % t[i]
    return stamps


def _check_multiplexity(ports: int, m_t: int):
    """Reject ports and TDM depth that a register cannot host."""
    # comparisons that NaN fails; a count that is not an integer, such as
    # 2.5 or 2.0, then raises TypeError
    if not (ports >= 1 and m_t >= 1):
        raise ValidationError("ports and m_t must be at least 1")
    if not ports * m_t <= MusiqcLayout.register_ions:
        raise ValidationError(
            f"{ports} ports x {m_t} TDM slots exceed the "
            f"{MusiqcLayout.register_ions} ions of a register")
    operator.index(ports)
    operator.index(m_t)


#: Flight time of a herald's classical outcome back to the ion (s).
HERALD_LATENCY = 10e-9


def _attempt_tick(params: DeviceParams) -> float:
    """Per-ion attempt spacing: repetition period or herald + reinit."""
    return max(1.0 / params.rep_rate, HERALD_LATENCY + params.reinit_time)


#: Bytes of log text that ``_log_ticks`` hands its sink at a time, rounded
#: to whole ticks.
LOG_CHUNK_BYTES = 1 << 16
#: Stamps that ``_log_ticks`` formats at a time, rounded to whole chunks: a
#: chunk of many ions holds too few stamps to pay for the array calls.
_STAMP_BLOCK = 4096


def _log_ticks(emit, successes: list, attempts: int, ports: list,
               tick: float, w: float, start: float, request: int):
    """Write the event log of a request's attempts, in chunks of whole ticks.

    The request makes ``attempts`` attempts in (tick, ion) order, of which
    those at the ascending indices ``successes`` succeed, and ion ``i`` sits
    on port ``ports[i]``.  Tick k logs its AttemptStart lines at
    ``start + k * tick`` in ion order, then their Herald lines at ``+ w``; a
    short last tick holds the drained attempts of the ions ranked first and
    is logged the same way.  Every line names register 0 and ends in a
    newline, and ``emit`` receives the log once per chunk of whole ticks, as
    one string of about ``LOG_CHUNK_BYTES``.  The stamps are formatted
    exactly, by ``_format_stamps``, once per block of whole chunks of about
    ``_STAMP_BLOCK`` stamps.  The lines of an ion differ between ticks only
    in their stamps, so each tick joins its per-ion fields with its two
    stamps; only a tick with a Herald(ok) or the short last tick is joined
    again.  Memory stays O(successes + ions + one block), not O(attempts).
    """
    def fields(kind):
        return [f",{kind},0,{port},{request}\n" for port in ports]

    # a leading empty field puts a stamp before every line of the join
    attempt = [""] + fields("AttemptStart")
    fail = [""] + fields("Herald(fail)")
    ok = [""] + fields("Herald(ok)")
    n_ions = len(ports)
    n_ticks = -(-attempts // n_ions)
    last_width = attempts - (n_ticks - 1) * n_ions
    stamp_bytes = len(_STAMP % (start + n_ticks * tick + w))
    tick_bytes = (sum(map(len, attempt)) + sum(map(len, fail))
                  + 2 * n_ions * stamp_bytes)
    per_chunk = max(1, LOG_CHUNK_BYTES // tick_bytes)
    per_block = max(1, _STAMP_BLOCK // (2 * per_chunk)) * per_chunk
    hit = 0
    for k0 in range(0, n_ticks, per_chunk):
        k1 = min(n_ticks, k0 + per_chunk)
        if k0 % per_block == 0:
            b1 = min(n_ticks, k0 + per_block)
            times = np.empty(2 * (b1 - k0))
            times[0::2] = start + np.arange(k0, b1) * tick
            times[1::2] = times[0::2] + w
            block, b0 = _format_stamps(times), k0
        # the stamps of tick k - k0 sit at 2 (k - k0) and 2 (k - k0) + 1
        stamps = block[2 * (k0 - b0):2 * (k1 - b0)]
        parts = list(map(str.join, stamps, itertools.cycle((attempt, fail))))
        if k1 == n_ticks and last_width < n_ions:
            parts[-2] = stamps[-2].join(attempt[:last_width + 1])
            parts[-1] = stamps[-1].join(fail[:last_width + 1])
        while hit < len(successes) and successes[hit] < k1 * n_ions:
            k = successes[hit] // n_ions
            heralds = fail[:min(n_ions, attempts - k * n_ions) + 1]
            while hit < len(successes) and successes[hit] < (k + 1) * n_ions:
                ion = successes[hit] - k * n_ions
                heralds[ion + 1] = ok[ion + 1]
                hit += 1
            index = 2 * (k - k0) + 1
            parts[index] = stamps[index].join(heralds)
        emit("".join(parts))


#: Largest expected attempt count, n_pairs / p, of one request; the gap sum
#: must stay clear of the int64 range, where numpy's geometric saturates.
_MAX_EXPECTED_ATTEMPTS = 2**60
#: Attempt index that the last success of a request must stay below.
_MAX_ATTEMPT_INDEX = 2**62
#: Most attempts of a logged request: a log takes about 70 bytes an attempt,
#: so it stays near 1.2 GB.
MAX_LOG_ATTEMPTS = 2**24


def _closed_form_link_run(p: float, n_pairs: int, ports: int, tdm: int,
                          tick: float, w: float, seed: int, stream: int = 0,
                          start: float = 0.0, emit=None) -> dict:
    """One link request, drawn in bulk.

    The request draws from ``philox_stream(seed, stream)`` over
    ``ports * tdm`` ions; ion ``i`` sits on port ``i // tdm``.  With a common
    start and a uniform per-ion cadence, an event-driven run processes
    attempts tick by tick in ion order, and its successes are a renewal
    process with Geometric(p) gaps drawn one per success, so the gaps of all
    ``n_pairs`` successes are drawn at once: success j falls on attempt
    index a_j, the sum of the first j gaps minus 1, and heralds at
    ``(start + (a_j // n_ions) * tick) + w``, the run's own float
    arithmetic.  After the pair completing the request heralds, the run
    drains the already scheduled attempts of the next tick (the ions whose
    heralds preceded the completing one).  ``emit`` receives the run's event
    log, rebuilt from the success indices, once per chunk of whole ticks; a
    logged request draws one further gap per drained success, as the run
    does, and an unlogged one draws none, since only the log reads them.
    A request whose attempt spacing does not clear the rounding of its
    attempt times, or, when logged, one of more than ``MAX_LOG_ATTEMPTS``
    attempts, is rejected before the first line.
    """
    if n_pairs / p > _MAX_EXPECTED_ATTEMPTS:
        raise DomainError(
            f"{n_pairs} pairs at p = {p:.3g} need about {n_pairs / p:.3g} "
            "attempts, beyond the sampler's range of 2**60")
    rng = philox_stream(seed, stream)
    n_ions = ports * tdm
    gaps = rng.geometric(p, n_pairs)
    if gaps.sum(dtype=np.float64) >= _MAX_ATTEMPT_INDEX:   # before cumsum wraps
        raise DomainError(
            f"the last of {n_pairs} pairs at p = {p:.3g} falls past attempt "
            "2**62")
    hits = np.cumsum(gaps) - 1
    last = int(hits[-1])
    # the completing pair heralds on the ion of rank `rank`; the ions ranked
    # before it have already started their next attempt
    k_done, rank = divmod(last, n_ions)
    attempts = (k_done + 1) * n_ions + rank
    # each herald, at (start + k*tick) + w, must come no later than its ion's
    # next attempt at start + (k+1)*tick.  Both grid times round by at most
    # one ulp of the last tick's herald (k stays below 2**53 wherever the
    # test passes), so a spacing over 2 ulps of it keeps that order; 4 leave
    # a margin
    last_herald = start + (k_done + 1) * tick + w
    if tick - w <= 4 * math.ulp(last_herald):
        raise DomainError(
            f"herald latency {w} s leaves the attempt spacing {tick} s within "
            f"the float rounding of attempt times near {last_herald:.3g} s")
    if emit is not None and attempts > MAX_LOG_ATTEMPTS:
        raise DomainError(
            f"{n_pairs} pairs take {attempts} attempts; a log holds at most "
            f"2**24 = {MAX_LOG_ATTEMPTS}")
    if emit is not None:
        drained = []
        hit = last + int(rng.geometric(p))
        while hit < attempts:
            drained.append(hit)
            hit += int(rng.geometric(p))
        _log_ticks(emit, hits.tolist() + drained, attempts,
                   [i // tdm for i in range(n_ions)], tick, w, start, stream)
    completions = (start + (hits // n_ions) * tick) + w
    return {"completions": completions.tolist(), "attempts": attempts}


#: Most pairs one ``run_link_sim`` call generates: the run holds an int64
#: gap and two floats per pair.
MAX_PAIRS = 2**20


def run_link_sim(link: LinkModel, n_pairs: int, seed: int,
                 ports: int = MusiqcLayout.m_p, m_t: int = MusiqcLayout.m_t,
                 log_sink=None) -> dict:
    """Generate ``n_pairs`` heralded pairs between two registers.

    The link runs over ``ports`` optical ports, each ``m_t``-fold time
    multiplexed, at the link's physical success probability; every herald
    takes ``HERALD_LATENCY`` to return.  Returns what ``netsim`` prints:
    the makespan, the mean latency per pair, the attempt count, the success
    count and the share of the makespan not spent on heralds.  The
    callable ``log_sink`` receives the event log as text in chunks of whole
    newline-terminated lines, once per chunk of whole ticks of attempts
    (about ``LOG_CHUNK_BYTES`` each), so the concatenation of its arguments
    is the log file.  The single request draws from stream 0 of ``seed``.
    """
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ValidationError(f"n_pairs must lie in [1, {MAX_PAIRS}]")
    _check_multiplexity(ports, m_t)
    p = _nonzero_success_probability(link)
    tick = _attempt_tick(link.params)
    run = _closed_form_link_run(p, n_pairs, ports, m_t, tick, HERALD_LATENCY,
                                seed, emit=log_sink)
    times = run["completions"]
    makespan = times[-1]
    busy = n_pairs * HERALD_LATENCY
    return {
        "makespan_s": makespan,
        "mean_pair_latency_s": makespan / n_pairs,
        "attempts": run["attempts"],
        "successes": len(times),
        "link_wait_fraction": max(0.0, 1.0 - busy / makespan) if makespan else 0.0,
    }


def run_toffoli_pipeline(n_toffolis: int, table: LogicalCostTable,
                         link: LinkModel, seed: int) -> dict:
    """Simulate sequential teleported Toffoli gates on fresh registers.

    Each gate prepares its resource state on a fresh register (deterministic
    duration from the cost table's audit trail) while seven heralded pairs
    are generated to each of the three operand registers over the available
    ports; the gate completes after the slower of the two phases plus the
    teleportation circuit.  The request of gate ``g`` to operand ``op`` draws
    from stream ``3*g + op`` of ``seed``; being independent, the three
    requests run as three closed-form link runs, each over the ports and
    TDM depth of the table's layout, the ones its Bell-pair slots are priced
    with.  That layout must be the photonically linked MUSIQC one: the
    other layouts have no heralded links.
    """
    if n_toffolis < 1:
        raise ValidationError("n_toffolis must be at least 1")
    layout = table.layout
    if not isinstance(layout, MusiqcLayout):
        raise ValidationError(
            f"the Toffoli pipeline runs on MUSIQC tables, not {layout.kind}")
    p = _nonzero_success_probability(link)
    tick = _attempt_tick(link.params)

    prep = table.phi_plus_prep_time
    teleport = table.toffoli_teleport_time
    gate_times = []
    link_wait = 0.0
    attempts = 0
    t = 0.0
    for k in range(n_toffolis):
        runs = [_closed_form_link_run(p, PAIRS_PER_OPERAND, layout.m_p,
                                      layout.m_t, tick, HERALD_LATENCY, seed,
                                      stream=stream, start=t)
                for stream in range(3 * k, 3 * k + 3)]   # one per operand
        links_end = max(run["completions"][-1] for run in runs)
        attempts += sum(run["attempts"] for run in runs)
        prep_end = t + prep
        gate_end = max(prep_end, links_end) + teleport
        link_wait += max(0.0, links_end - prep_end)
        gate_times.append(gate_end - t)
        t = gate_end
    return {
        "makespan_s": t,
        "gate_times_s": gate_times,
        "mean_gate_time_s": t / n_toffolis,
        "link_wait_fraction": link_wait / t if t else 0.0,
        "attempts": attempts,
    }
