import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ionarch import netsim
from ionarch.device import (DeviceParams, LinkModel, LinkType,
                            link_success_probability)
from ionarch.errors import DomainError, ValidationError, ZeroSuccessProbability
from ionarch.netsim import run_link_sim, run_toffoli_pipeline
from ionarch.steane import (PAIRS_PER_OPERAND, level1_costs, table_at_level,
                            toffoli_cost)
from ionarch.arch import MusiqcLayout, NnLayout, QlaLayout
from link_engine_oracle import (EntanglementRequest, EventKind, EventQueue,
                                SimEvent, engine_link_run)
from oracles import pair_latency_oracle


def slow_rep_link(p_success=0.05, rep_rate=0.5e6):
    """A link whose repetition period hides the re-initialization time."""
    params = DeviceParams(p_excite=p_success, solid_angle_fraction=1.0,
                          detector_efficiency=1.0, repetition_rate=rep_rate)
    return LinkModel(LinkType.TYPE_I, params)


# ---------------------------------------------------------------------------
# event queue

def test_event_queue_causality():
    q = EventQueue()
    q.push(SimEvent(1.0, EventKind.HERALD))
    q.push(SimEvent(0.5, EventKind.ATTEMPT_START))
    ev, _ = q.pop()
    assert ev.time == 0.5
    with pytest.raises(ValidationError):
        q.push(SimEvent(0.1, EventKind.HERALD))


def test_event_queue_fifo_within_timestamp():
    q = EventQueue()
    q.push(SimEvent(1.0, EventKind.HERALD, elu=1))
    q.push(SimEvent(1.0, EventKind.HERALD, elu=2))
    assert q.pop()[0].elu == 1
    assert q.pop()[0].elu == 2


def test_register_capacity_guard(capsys):
    # m_p * m_t communication ions must fit in the 100 ions of a register
    from ionarch.cli import main
    assert main(["netsim", "--pairs", "2", "--m-t", "1000"]) == 2
    assert "exceed the 100 ions" in capsys.readouterr().err
    link, _ = pipeline_fixture()
    assert run_link_sim(link, 1, seed=1, ports=10, m_t=10)["successes"] == 1


def test_multiplexity_must_be_a_whole_number():
    # NaN ports once gave a NaN makespan, and 2.5 ports or TDM slots priced
    # fractional attempt counts, 31003.0 and 30983.0
    link = LinkModel(LinkType.TYPE_I, DeviceParams())
    for counts in ({"ports": math.nan}, {"m_t": math.nan}):
        with pytest.raises(ValidationError, match="at least 1"):
            run_link_sim(link, 3, 1, **counts)
    with pytest.raises(ValidationError, match="exceed the 100 ions"):
        run_link_sim(link, 3, 1, ports=math.inf)
    for counts in ({"ports": 2.5}, {"m_t": 2.5}, {"ports": 2.0}):
        with pytest.raises(TypeError, match="integer"):
            run_link_sim(link, 3, 1, **counts)


def test_request_over_completion_guard():
    req = EntanglementRequest(pairs_needed=1)
    req.register(1.0)
    with pytest.raises(ValidationError):
        req.register(2.0)


# ---------------------------------------------------------------------------
# link simulation

def heralded(log: str) -> int:
    """The heralded successes of a request's event log, drained ones
    included."""
    return log.count(",Herald(ok),")


def test_attempt_success_fraction_binomial():
    p = 0.05
    result, log = event_log(slow_rep_link(p), 2000, seed=17, ports=1, m_t=1)
    k, n = heralded(log), result["attempts"]
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(k / n - p) <= 3 * sigma


def test_deterministic_link_p_one():
    # every attempt succeeds: n sequential heralds paced at the repetition
    # period, no re-initialization stalls
    rate = 0.5e6
    result = netsim._closed_form_link_run(1.0, 50, 1, 1, 1.0 / rate,
                                          netsim.HERALD_LATENCY, seed=1)
    assert result["attempts"] == 50
    assert result["completions"][-1] == pytest.approx(
        49 / rate + netsim.HERALD_LATENCY)


def event_log(*args, **kwargs):
    """run_link_sim's result and the text of the event log it streams."""
    chunks = []
    result = run_link_sim(*args, log_sink=chunks.append, **kwargs)
    return result, "".join(chunks)


def test_identical_seeds_identical_logs():
    link = slow_rep_link()
    _, log1 = event_log(link, 300, seed=5)
    _, log2 = event_log(link, 300, seed=5)
    assert log1 == log2
    _, log3 = event_log(link, 300, seed=6)
    assert log1 != log3


def test_event_log_format_and_causality():
    result, log = event_log(slow_rep_link(), 40, seed=5)
    assert log.endswith("\n")
    lines = log.splitlines()
    times = []
    for line in lines:
        fields = line.split(",")
        assert len(fields) == 5
        assert fields[1] in ("AttemptStart", "Herald(ok)", "Herald(fail)")
        times.append(float(fields[0]))
    assert times == sorted(times)
    # one AttemptStart and one Herald line per attempt, nothing else
    assert len(lines) == 2 * result["attempts"]


def test_oracle_log_lines_pinned():
    # the oracle's lines, written against literals, hold the log text that
    # the closed form's is compared with byte for byte
    attempt = SimEvent(0.0, EventKind.ATTEMPT_START, 0, 3, 12)
    assert attempt.log_line() == "0.000000000e+00,AttemptStart,0,3,12"
    fail = SimEvent(1.5e-6, EventKind.HERALD, 0, 1, 0, success=False)
    assert fail.log_line() == "1.500000000e-06,Herald(fail),0,1,0"
    ok = SimEvent(7.41e97, EventKind.HERALD, 0, 0, 13, success=True)
    assert ok.log_line() == "7.410000000e+97,Herald(ok),0,0,13"
    late = SimEvent(2.0**400, EventKind.ATTEMPT_START, 0, 9, 4)
    assert late.log_line() == "2.582249878e+120,AttemptStart,0,9,4"


def test_conservation_pairs_and_circuits():
    result = run_link_sim(slow_rep_link(), 200, seed=9)
    assert result["successes"] <= result["attempts"]


def test_link_sim_outputs_pinned():
    # recorded when the link began drawing one geometric gap per success:
    # run_link_sim's single request stays on stream 0, and a log sink changes
    # no output bit; the log's successes include the drained ones
    pins = {3: (5857, 0.00058201, 301), 21: (6367, 0.0006340100000000001, 304)}
    for seed, (attempts, makespan, successes) in pins.items():
        result, log = event_log(slow_rep_link(0.05), 300, seed=seed)
        assert (result["attempts"], result["makespan_s"],
                heralded(log)) == (attempts, makespan, successes)
        result = run_link_sim(slow_rep_link(0.05), 300, seed=seed)
        assert (result["attempts"], result["makespan_s"]) == (attempts,
                                                              makespan)


def test_closed_form_draws_one_gap_per_success(monkeypatch):
    # 10k pairs at p = 1e-4 take about 1e8 attempts, yet an unlogged request
    # draws one gap per pair; a logged one also draws a gap per drained
    # success and the gap that ends the drain
    draws = []

    class CountingStream:
        def __init__(self, rng):
            self.rng = rng

        def geometric(self, p, size=None):
            draws.append(1 if size is None else size)
            return self.rng.geometric(p, size)

    stream = netsim.philox_stream
    monkeypatch.setattr(netsim, "philox_stream",
                        lambda *args: CountingStream(stream(*args)))
    n = 10_000
    result = run_link_sim(slow_rep_link(1e-4), n, seed=2)
    assert sum(draws) == n
    assert result["attempts"] > 1000 * sum(draws)
    draws.clear()
    n, ions = 300, MusiqcLayout.m_p * MusiqcLayout.m_t
    _, log = event_log(slow_rep_link(0.05), n, seed=21)
    drained = heralded(log) - n
    assert 0 < drained < 2 * ions
    assert sum(draws) == n + drained + 1


def test_type2_mean_latency_matches_geometric_oracle():
    # the default type II link (p = 5e-9): the mean pair latency is
    # tick / (ions * p) within 6 sigma over 1000 pairs
    n, ions = 1000, MusiqcLayout.m_p * MusiqcLayout.m_t
    link = LinkModel(LinkType.TYPE_II, DeviceParams())
    p = link_success_probability(link)
    result = run_link_sim(link, n, seed=5)
    tick = max(1.0 / link.params.rep_rate,
               netsim.HERALD_LATENCY + link.params.reinit_time)
    per_pair, sigma = pair_latency_oracle(tick, ions, p, n)
    assert result["successes"] == n
    assert abs(result["mean_pair_latency_s"] - per_pair) <= 6 * sigma


def weak_link(factor):
    """A type-I link whose excitation, collection and detection each
    succeed with ``factor``, so that p = factor**3."""
    params = DeviceParams(p_excite=factor, solid_angle_fraction=factor,
                          detector_efficiency=factor)
    return LinkModel(LinkType.TYPE_I, params)


def test_attempt_count_past_int64_range_rejected():
    # numpy's geometric saturates at 2**63 - 1 and a cumulative sum wraps:
    # 2 pairs at p = 1e-18 (about) expect 2e18 attempts, past 2**60
    with pytest.raises(DomainError, match=r"2\*\*60"):
        run_link_sim(weak_link(1e-6), 2, seed=1)
    # one pair at p = 2**-60 expects 2**60 attempts; seed 82 draws a gap of
    # at least 2**62 (probability about e**-4), which is rejected after the
    # draw, while seed 0 stays in range
    link = weak_link(2.0**-20)
    assert link_success_probability(link) == 2.0**-60
    with pytest.raises(DomainError, match=r"2\*\*62"):
        run_link_sim(link, 1, seed=82)
    result = run_link_sim(link, 1, seed=0)
    assert 0 < result["attempts"] < 2**62 and result["makespan_s"] > 0


def _logged_run(run, *args, **kwargs):
    """A link run's result and its event log, as the text and the chunks
    that its sink received."""
    chunks = []
    result = run(*args, emit=chunks.append, **kwargs)
    return result, "".join(chunks), chunks


#: p = 0.3 over 2 x 2 ions: seed 21's completing pair heralds on the last
#: ion of its tick, so three drained attempts, two of them successes, follow
#: in a short tick
_LAST_ION_CASE = (0.3, 5, 2, 2, 21)
#: p = 0.002 over 2 x 3 ions: seed 1 takes 19546 attempts, 3258 ticks whose
#: log spans many chunks, with successes in most of them and a short last
#: tick
_MULTI_CHUNK_CASE = (0.002, 40, 2, 3, 1)


@pytest.mark.parametrize("p, n_pairs, ports, tdm, seed, start, stream", [
    (1.0, 25, 2, 10, 1, 0.0, 0),
    (0.5, 40, 3, 7, 2, 0.0, 0),
    (0.05, 30, 1, 1, 3, 0.0, 0),
    _LAST_ION_CASE + (0.0, 0),
    (0.2, 12, 2, 3, 8, 0.37, 5),
    _MULTI_CHUNK_CASE + (0.0, 0),
    # 300 pairs over 1, 20 and 6 ions: logs of 7, 7 and 30 chunks in 4, 1
    # and 3 stamp blocks
    (0.05, 300, 1, 1, 3, 0.0, 0),
    (0.05, 300, 2, 10, 7, 0.0, 0),
    (0.01, 300, 2, 3, 11, 0.0, 0),
])
def test_closed_form_log_matches_engine(p, n_pairs, ports, tdm, seed, start,
                                        stream):
    # the closed form's log is the engine's, byte for byte, in chunks of
    # whole ticks: each starts with ion 0's AttemptStart and ends a line,
    # and all but the last hold more than half of LOG_CHUNK_BYTES and at
    # most that
    args = (p, n_pairs, ports, tdm, 2e-6, 10e-9, seed)
    kwargs = dict(start=start, stream=stream)
    result, text, chunks = _logged_run(netsim._closed_form_link_run, *args,
                                       **kwargs)
    engine, engine_text, _ = _logged_run(engine_link_run, *args, **kwargs)
    assert result == engine
    assert text == engine_text
    assert text.startswith(f"{start:.9e},AttemptStart,0,0,{stream}\n")
    for chunk in chunks:
        line = chunk[:chunk.index("\n")]
        assert line.partition(",")[2] == f"AttemptStart,0,0,{stream}"
        assert chunk.endswith("\n")
    for chunk in chunks[:-1]:
        assert (netsim.LOG_CHUNK_BYTES / 2 < len(chunk)
                <= netsim.LOG_CHUNK_BYTES)


@pytest.mark.parametrize("p, n_pairs, ports, tdm, tick, w, seed, decades", [
    # from 0 through e-12 to e-09: ten significant digits of every stamp
    (0.01, 40, 2, 3, 3.7e-12, 1e-12, 4, ("e-12", "e-11", "e-10", "e-09")),
    # past 1e10, where 10**k with k = 9 - e is no longer a whole number
    (0.01, 15, 1, 1, 9.7e6, 10e-9, 5, ("e+07", "e+08", "e+09", "e+10")),
    # three-digit exponents, a stamp one character longer
    (0.02, 3, 1, 1, 7.3e97, 1.1e96, 13, ("e+97", "e+98", "e+99", "e+100")),
])
def test_closed_form_log_matches_engine_across_decades(p, n_pairs, ports, tdm,
                                                       tick, w, seed, decades):
    # stamps that cross decades and leave the range of the array formatter
    # are written byte for byte as the engine writes them with `%.9e`
    args = (p, n_pairs, ports, tdm, tick, w, seed)
    result, text, _ = _logged_run(netsim._closed_form_link_run, *args)
    engine, engine_text, _ = _logged_run(engine_link_run, *args)
    assert result == engine
    assert text == engine_text
    stamps = {line[:line.index(",")] for line in text.splitlines()}
    for decade in decades:
        assert any(stamp.endswith(decade) for stamp in stamps), decade


@pytest.mark.parametrize("p, ports, tdm, tick, w, seed", [
    # every attempt succeeds
    (1.0, 2, 10, 2e-6, 10e-9, 5),
    # a seed past 2**64
    (0.3, 3, 2, 2e-6, 10e-9, 2**64 + 1),
    # heralds that return at once
    (0.05, 1, 1, 2e-6, 0.0, 3),
    # a slow herald stretches the attempt spacing past a teleport, so the
    # drained attempts of a request outlive its completion
    (0.05, 1, 3, 5e-4 + 1e-6, 5e-4, 8),
    # the pipeline's own requests over 2 x 10 ions, at a repetition rate of
    # 500 kHz and of 1 kHz, where a gate's drained attempts outlive it
    (0.01, 2, 10, 2e-6, 10e-9, 9),
    (0.05, 2, 10, 1e-3, 10e-9, 8),
])
def test_closed_form_gate_requests_match_engine(p, ports, tdm, tick, w, seed):
    # the requests of a Toffoli pipeline's first two gates, seven pairs to
    # each operand on stream 3*gate + op from the gate's start; all but the
    # last two cases at success probabilities and herald latencies no
    # physical link of the pipeline has
    for stream in range(6):
        args = (p, PAIRS_PER_OPERAND, ports, tdm, tick, w, seed)
        kwargs = dict(stream=stream, start=stream // 3 * 2.9e-3)
        assert (netsim._closed_form_link_run(*args, **kwargs)
                == engine_link_run(*args, **kwargs)), stream


def test_last_ion_case_completes_on_the_last_ion():
    p, n_pairs, ports, tdm, seed = _LAST_ION_CASE
    result, text, _ = _logged_run(netsim._closed_form_link_run, p, n_pairs,
                                  ports, tdm, 2e-6, 10e-9, seed)
    n_ions = ports * tdm
    assert result["attempts"] % n_ions == n_ions - 1
    assert heralded(text) == n_pairs + 2


def test_multi_chunk_case_spans_chunks_with_successes():
    p, n_pairs, ports, tdm, seed = _MULTI_CHUNK_CASE
    result, text, chunks = _logged_run(netsim._closed_form_link_run, p,
                                       n_pairs, ports, tdm, 2e-6, 10e-9, seed)
    assert result["attempts"] % (ports * tdm) != 0
    assert len(text) > 10 * netsim.LOG_CHUNK_BYTES
    assert sum("Herald(ok)" in chunk for chunk in chunks) > 1


def _grid(start, tick, fraction, n):
    """The stamps of n ticks from ``start``, each tick's attempt at
    ``start + k * tick`` followed by its herald ``w = fraction * tick`` on."""
    w = fraction * tick
    return [time for k in range(n) for time in (start + k * tick,
                                                start + k * tick + w)]


_STAMP_INPUTS = st.one_of(
    # floats of every magnitude: 0.0, -0.0, subnormals, past 1e100, inf, nan
    st.lists(st.floats(), max_size=40),
    # decimal midpoints between two ten-digit stamps
    st.lists(st.builds(lambda j, i: (2 * j + 1) / 2 * 10.0**i,
                       st.integers(10**9, 10**10 - 1), st.integers(-25, 5)),
             max_size=40),
    # neighbours of powers of ten, where log10 and the rounding carry err
    st.lists(st.builds(lambda i, up: float(np.nextafter(
        10.0**i, math.inf if up else 0.0)), st.integers(-30, 30),
                       st.booleans()), max_size=40),
    # ascending tick grids with their herald offsets
    st.builds(_grid, st.sampled_from([0.0, 0.37, 1e-3, 12.5]),
              st.floats(1e-12, 1e4), st.floats(0.0, 0.99),
              st.integers(1, 60)),
)


@settings(max_examples=200, deadline=None)
@given(_STAMP_INPUTS)
@example([0.0, -0.0, 5e-324, 2.2e-308, 9.999999999e-14, 1e-13, 9999999999.5,
          1e10, 1e100, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
          -1.0])
def test_format_stamps_matches_percent(xs):
    assert (netsim._format_stamps(np.array(xs, dtype=np.float64))
            == [netsim._STAMP % x for x in xs])


def test_herald_latency_reaching_the_attempt_spacing_rejected():
    # 10 ns + 1e-30 s of re-initialization rounds to 10 ns, so the herald
    # would not arrive before the ion's next attempt, as the closed form needs
    params = DeviceParams(repetition_rate=1e9, reinit_time=1e-30)
    link = LinkModel(LinkType.TYPE_I, params)
    table = level1_costs(params, MusiqcLayout())
    with pytest.raises(ValidationError, match="attempt spacing"):
        run_link_sim(link, 3, seed=1)
    with pytest.raises(ValidationError, match="attempt spacing"):
        run_toffoli_pipeline(1, table, link, seed=1)
    # a picosecond of re-initialization separates them again
    link = LinkModel(LinkType.TYPE_I,
                     DeviceParams(repetition_rate=1e9, reinit_time=1e-12))
    assert run_link_sim(link, 3, seed=1)["successes"] == 3


def _spacing_case(i):
    """Link request i of 100: p from 1 down to 1e-4 and 1 to 20 ions, three
    pairs, seed i."""
    ions = 1 + i % 20
    ports = 2 if ions % 2 == 0 else 1
    return 10.0 ** (-4 * i / 99), 3, ports, ions // ports, i


def _rejected_or_engine_equal(cases, tick, start, w=10e-9):
    """How many of ``cases`` the closed form rejects at ``tick``; each one it
    accepts must equal the engine's run, bit for bit."""
    rejected = 0
    for p, n_pairs, ports, tdm, seed in cases:
        args = (p, n_pairs, ports, tdm, tick, w, seed)
        try:
            result = netsim._closed_form_link_run(*args, start=start)
        except DomainError as exc:
            assert str(exc).startswith("herald latency")
            assert "attempt spacing" in str(exc)
            rejected += 1
            continue
        assert result == engine_link_run(*args, start=start), (tick, start,
                                                               seed)
    return rejected


def test_spacing_within_rounding_rejected():
    # a tick one ulp past the 10 ns latency: heralds at (start + k*tick) + w
    # can round past the next attempt, where the engine moves that attempt;
    # checking the latency against the tick alone let these 100 cases run,
    # and 40 of them then disagreed with the engine
    cases = [_spacing_case(i) for i in range(100)]
    tick = 10e-9 + math.ulp(10e-9)
    assert _rejected_or_engine_equal(cases, tick, 0.0) == 100


def test_near_boundary_spacings_rejected_or_engine_equal():
    # spacings from 1 to 2**20 ulps past the latency, at four starts: the
    # closed form rejects a request or matches the engine
    cases = [_spacing_case(i) for i in range(0, 100, 9)]
    runs = rejected = 0
    for j in (0, 1, 2, 3, 4, 6, 8, 12, 16, 20):
        tick = 10e-9 + 2**j * math.ulp(10e-9)
        for start in (0.0, 0.37, 1e-3, 12.5):
            rejected += _rejected_or_engine_equal(cases, tick, start)
            runs += len(cases)
    assert 0 < rejected < runs


def test_zero_probability_rejected():
    params = DeviceParams(p_excite=0.0)
    link = LinkModel(LinkType.TYPE_I, params)
    with pytest.raises(ZeroSuccessProbability):
        run_link_sim(link, 10, seed=1)


def test_summary_json_schema():
    result = run_link_sim(slow_rep_link(), 20, seed=2)
    assert set(result) == {"makespan_s", "mean_pair_latency_s", "attempts",
                           "successes", "link_wait_fraction"}


# ---------------------------------------------------------------------------
# Toffoli pipeline

def pipeline_fixture(p=0.01, rate=0.5e6):
    tau_e = 1.0 / (rate * p)
    params = DeviceParams(p_excite=p, solid_angle_fraction=1.0,
                          detector_efficiency=1.0, repetition_rate=rate,
                          t_remote_entangle=tau_e)
    link = LinkModel(LinkType.TYPE_I, params)
    table = level1_costs(params, MusiqcLayout())
    return link, table


def _recording(run):
    """``run`` and the list of the results it returns."""
    results = []

    def call(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]
    return call, results


def test_pipeline_gate_ends_a_teleport_after_the_slower_phase(monkeypatch):
    # each gate ends one teleport after the later of its resource state's
    # preparation and its three link requests' last completions; at 5 kHz
    # the preparation ends last in some gates and the links in others
    link, table = pipeline_fixture(p=0.05, rate=5e3)
    record, runs = _recording(netsim._closed_form_link_run)
    monkeypatch.setattr(netsim, "_closed_form_link_run", record)
    n = 20
    result = run_toffoli_pipeline(n, table, link, seed=9)
    assert len(runs) == 3 * n
    prep, teleport = table.phi_plus_prep_time, table.toffoli_teleport_time
    t = link_wait = 0.0
    gate_times, prep_last = [], []
    for k in range(n):
        gate = runs[3 * k:3 * k + 3]
        # no request of a gate completes before the gate starts
        assert all(run["completions"][0] > t for run in gate), k
        links_end = max(run["completions"][-1] for run in gate)
        prep_last.append(t + prep > links_end)
        link_wait += max(0.0, links_end - (t + prep))
        gate_end = max(t + prep, links_end) + teleport
        gate_times.append(gate_end - t)
        t = gate_end
    assert 0 < sum(prep_last) < n
    assert result["gate_times_s"] == gate_times
    assert result["makespan_s"] == t
    assert result["attempts"] == sum(run["attempts"] for run in runs)
    assert result["link_wait_fraction"] == link_wait / t


@pytest.mark.parametrize("layout", [QlaLayout(), NnLayout()])
def test_pipeline_rejects_tables_without_photonic_links(layout):
    # the repeater grid and the bare nearest-neighbor machine have no
    # heralded links to simulate
    params = DeviceParams()
    link = LinkModel(LinkType.TYPE_I, params)
    for table in (level1_costs(params, layout),
                  table_at_level(params, layout, 2)):
        with pytest.raises(ValidationError, match=layout.kind):
            run_toffoli_pipeline(2, table, link, 3)
    with pytest.raises(ValidationError, match="at least 1"):
        run_toffoli_pipeline(0, level1_costs(params, MusiqcLayout()), link, 3)


def test_pipeline_degenerate_link_limit():
    # a fast link: 21 pairs at p = 1/4 over 20 ions take microseconds, so
    # prep dominates and the makespan is n x the local Toffoli time
    link, table = pipeline_fixture(p=0.25)
    n = 8
    result = run_toffoli_pipeline(n, table, link, seed=4)
    local = table.phi_plus_prep_time + table.toffoli_teleport_time
    assert result["link_wait_fraction"] == 0.0
    assert result["makespan_s"] == pytest.approx(n * local, rel=0.01)


def test_pipeline_mean_gate_matches_analytic_toffoli():
    link, table = pipeline_fixture()
    result = run_toffoli_pipeline(25, table, link, seed=9)
    analytic = toffoli_cost(table)["time"]
    assert result["mean_gate_time_s"] == pytest.approx(analytic, rel=0.25)


def test_pipeline_determinism():
    link, table = pipeline_fixture()
    a = run_toffoli_pipeline(3, table, link, seed=7)
    b = run_toffoli_pipeline(3, table, link, seed=7)
    assert a == b
