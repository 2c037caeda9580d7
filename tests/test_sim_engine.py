import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from freshtrack import cli, sim_engine
from freshtrack.baselines import WeightStrategy
from freshtrack.cli import build_scenario
from freshtrack.decomposition import TransformedSystem
from freshtrack.gain_design import choose_radii, closed_loop_block, envelope_schedule
from freshtrack.graph_seq import (
    PeriodicGraphSequence,
    edge_tensor,
    generate_random_jointly_connected,
)
from freshtrack.scenarios import (
    FIG1_EDGE_LISTS,
    canned_scenarios,
    make_multiblock_plant,
    make_random_plant,
)
from freshtrack.sim_engine import (
    Scenario,
    Trace,
    _delayed_residuals,
    check_divergence,
    check_envelope,
    check_finite_time,
    check_lemma_suite,
    error_norms,
    run_scenario,
    total_errors,
)
from freshtrack.observer_protocol import ProtocolKernel
from freshtrack.system_model import DecompositionError, LtiPlant, simulate_truth
from reference import (
    ArgminKernel,
    check_delayed_form,
    couple_substates,
    fit_decay_rate,
    max_error,
    raw_products,
    reference_csv,
    select_donor,
    tau_of_keys,
    to_csv_string,
)
from reference import error_norms as whole_horizon_error_norms


def fig1_graph():
    return PeriodicGraphSequence(edge_tensor(3, FIG1_EDGE_LISTS), period_t=2)


def fig1_plant():
    return LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])


def forced_chunk(chunk):
    """Every check pass takes chunks of ``chunk`` rounds while this holds."""
    return mock.patch.object(sim_engine, "check_chunk_rounds", lambda n_nodes, n: chunk)


def delayed_residuals(trace):
    """`_delayed_residuals`' chunks as one (H, N, S) array; each chunk
    starts where the one before it ends."""
    starts, chunks = zip(*_delayed_residuals(trace))
    chunk = sim_engine.check_chunk_rounds(*trace.z_estimates.shape[1:])
    assert starts == tuple(range(1, trace.horizon + 1, chunk))
    return np.concatenate(chunks)


def random_scenario(seed=7, **kw):
    plant = make_multiblock_plant((2, 1, 1), seed=seed)
    graph = generate_random_jointly_connected(3, 2, seed=seed + 1)
    defaults = dict(plant=plant, graph=graph, rho=0.8, horizon=60, seed=seed)
    defaults.update(kw)
    return Scenario(**defaults)


def test_truth_initialized_estimates_stay_exact():
    plant = make_multiblock_plant((2, 1, 1), seed=20)
    graph = generate_random_jointly_connected(3, 2, seed=21)
    s = Scenario(plant=plant, graph=graph, rho=0.8, horizon=30,
                 initial_estimates=[plant.x0] * 3)
    trace = run_scenario(s)
    assert np.max(total_errors(trace)) < 1e-9


def test_single_node_matches_classical_observer():
    # With one node the protocol reduces to a plain output-injection observer:
    # the error follows (A - L C)^k e0 exactly.
    rng = np.random.default_rng(33)
    a = rng.standard_normal((3, 3))
    a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
    plant = LtiPlant(a, [rng.standard_normal((2, 3))], rng.standard_normal(3))
    graph = PeriodicGraphSequence(edge_tensor(1, [[]]), period_t=1)
    s = Scenario(plant=plant, graph=graph, rho=0.5, horizon=40, seed=3,
                 initial_estimates=[np.zeros(3)])
    trace = run_scenario(s)
    cl = closed_loop_block(trace.ts, trace.gains, 1)
    from freshtrack.decomposition import to_transformed_coords
    e = to_transformed_coords(-plant.x0, ts=trace.ts)
    truth = simulate_truth(plant, 40)
    for k in range(41):
        z_truth = to_transformed_coords(truth[k], trace.ts)
        err = trace.z_estimates[k, 0] - z_truth
        assert np.linalg.norm(err - e) <= 1e-9 * max(1.0, np.linalg.norm(e))
        e = cl @ e
    assert trace.taus[17, 0, 0] == 0


def test_error_norms_are_pythagorean():
    trace = run_scenario(random_scenario(seed=41))
    err_block, err_total = error_norms(trace.z_estimates, trace.truth, trace.block_dims)
    for k in range(trace.horizon + 1):
        for i in range(1, trace.n_nodes + 1):
            total = err_total[k, i - 1]
            blocks = np.sqrt(np.sum(err_block[k, i - 1] ** 2))
            assert total == pytest.approx(blocks, rel=1e-10, abs=1e-12)


def test_error_norms_split_by_block_and_skip_empty_slots():
    truth = np.array([[1.0, 2.0, 3.0]])
    estimates = np.array([[[4.0, 6.0, 3.0], [1.0, 2.0, 1.0]]])
    err_block, err_total = error_norms(estimates, truth, (2, 0, 1))
    assert err_block.tolist() == [[[5.0, 0.0], [0.0, 2.0]]]
    assert err_total.tolist() == [[5.0, 2.0]]


@settings(max_examples=40)
@given(
    dims=hst.lists(hst.integers(0, 3), min_size=1, max_size=12).filter(any),
    n_nodes=hst.integers(1, 4),
    horizon=hst.integers(1, 70),
    chunk=hst.sampled_from([1, 3, sim_engine.CHUNK_ROUNDS]),
    data=hst.data(),
)
def test_error_norms_equal_the_whole_horizon_formula(dims, n_nodes, horizon, chunk, data):
    # The norms of any run of rounds, a chunk at a time, against one pass
    # over the whole horizon, bit for bit, over magnitudes from 1e-100 to
    # 1e100 and past the square of float64's range.
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**16)))
    trace = Trace(n_nodes, horizon, 1, dims)
    shape = trace.z_estimates.shape
    trace.z_estimates[:] = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100, shape)
    trace.z_estimates[rng.random(shape) < 0.05] = 1e200
    trace.truth = rng.standard_normal(shape[::2])
    start = data.draw(hst.integers(0, horizon))
    stop = data.draw(hst.integers(start + 1, horizon + 1))
    whole = error_norms(trace.z_estimates, trace.truth, dims)
    with forced_chunk(chunk):
        chunks = list(sim_engine._error_chunks(trace, start, stop))
        totals = total_errors(trace, start, stop)
    assert [rows.start for rows, _, _ in chunks] == list(range(start, stop, chunk))
    for got, expected in ((np.concatenate([b for _, b, _ in chunks]), whole[0]),
                          (np.concatenate([t for _, _, t in chunks]), whole[1]),
                          (totals, whole[1])):
        assert np.array_equal(got.view(np.int64), expected[start:stop].view(np.int64))
    # Where no sum of squares overflows, the plain formula's bits.
    with np.errstate(over="ignore"):
        plain = whole_horizon_error_norms(trace.z_estimates, trace.truth, dims)
    rows = np.isfinite(plain[1])
    for got, expected in zip(whole, plain):
        assert np.array_equal(got[rows].view(np.int64), expected[rows].view(np.int64))


def test_fit_decay_rate_exact_geometric():
    trace = Trace(2, 50, 1, (1, 1))
    trace.truth = np.zeros((51, 2))
    trace.z_estimates[:, :, 0] = (3.0 * 0.5 ** np.arange(51))[:, None]
    assert fit_decay_rate(trace, 0) == pytest.approx(0.5, abs=1e-9)


def test_fit_decay_rate_requires_points_above_floor():
    trace = Trace(1, 50, 1, (1,))
    trace.truth = np.full((51, 1), 1e-15)
    with pytest.raises(ValueError, match="usable points"):
        fit_decay_rate(trace, 0)


def test_baseline_divergence_rate_above_one():
    s = Scenario(plant=fig1_plant(), graph=fig1_graph(), strategy=WeightStrategy("uniform"),
                 horizon=60)
    trace = run_scenario(s)
    assert fit_decay_rate(trace, 5) > 1.0
    result = check_divergence(trace, 1e6, True)
    assert result["passed"] and result["first_crossing"] <= 60


def test_baseline_scenario_refuses_rho():
    # The baseline reads no gains: a rho beside a strategy would be ignored.
    s = Scenario(plant=fig1_plant(), graph=fig1_graph(), strategy=WeightStrategy("uniform"),
                 rho=0.6, horizon=10)
    with pytest.raises(ValueError, match="a baseline scenario takes no rho"):
        run_scenario(s)


def test_freshness_run_converges_and_certifies_envelope():
    trace = run_scenario(random_scenario(seed=7))
    assert max_error(trace)[-1] < 1e-6
    assert check_envelope(trace) == {"passed": True, "violations": 0,
                                     "counterexample": None}


@pytest.mark.parametrize("shape", [(12,), (16,), (24, 8), (16, 2, 1)])
def test_spectral_runs_on_long_blocks_pass_lemmas_and_envelope(shape):
    for seed in (1, 2, 3):
        plant = make_multiblock_plant(shape, seed=seed)
        graph = generate_random_jointly_connected(len(shape), 2, seed=seed)
        trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9,
                                      horizon=60, seed=seed))
        assert trace.ts.block_dims == shape
        assert check_lemma_suite(trace, check_delayed=True)["passed"]
        assert check_envelope(trace)["passed"]


def _move_estimate(trace, points, by):
    """Move node i's estimate of substate j at time k off by ``by`` in the
    block's first column, for each (i, j, k) of ``points``."""
    for i, j, k in points:
        trace.z_estimates[k, i - 1, trace.ts.offsets[j - 1]] += by


def test_envelope_detects_injected_fault():
    # The fault raises node 2's substate error past its bound, and its total
    # error too, but not past the looser total bound.
    trace = run_scenario(random_scenario(seed=7))
    t_bar = (trace.n_nodes - 1) * trace.period_t
    j = trace.substates[-1]
    k = (2 * j - 1) * t_bar + 3
    bound = trace.constants.c_bar[j - 1] * trace.gains.target_radii[j - 1] ** k
    _move_estimate(trace, [(2, j, k)], 2.0 * bound + 1.0)
    assert check_envelope(trace) == {"passed": False, "violations": 1,
                                     "counterexample": (2, j, k)}


@pytest.mark.parametrize("field", ["c_bar", "estimate", "truth"])
def test_envelope_fails_on_nan(field):
    # NaN compares False both ways: a NaN bound or error is a violation.  A
    # NaN estimate makes its substate's and its total error NaN, a NaN truth
    # those of every node.
    trace = run_scenario(build_scenario(canned_scenarios()["random_jsc_theorem1"]))
    assert check_envelope(trace)["passed"]
    k, n_nodes = trace.horizon, trace.n_nodes
    if field == "c_bar":
        # Every live point of substate 3 and of the total envelope.
        c_bar = trace.constants.c_bar.copy()
        c_bar[2] = np.nan
        trace.constants = dataclasses.replace(trace.constants, c_bar=c_bar)
        schedule = envelope_schedule(n_nodes, trace.period_t)
        count = n_nodes * (2 * k + 2 - schedule.start[2] - schedule.total_start)
        expected = (count, (1, 3, schedule.start[2]))
    elif field == "estimate":
        _move_estimate(trace, [(2, 3, k)], np.nan)
        expected = (2, (2, 3, k))
    else:
        trace.truth[k, trace.ts.offsets[2]] = np.nan
        expected = (2 * n_nodes, (1, 3, k))
    report = check_envelope(trace)
    assert not report["passed"]
    assert (report["violations"], report["counterexample"]) == expected


def _live_points(trace, subs):
    """(node, k) points from each of ``subs``' start on and from the total's."""
    schedule = envelope_schedule(trace.n_nodes, trace.period_t)
    starts = [schedule.start[j] for j in subs] + [schedule.total_start]
    return trace.n_nodes * sum(max(0, trace.horizon + 1 - k) for k in starts)


@pytest.mark.parametrize("name", ["fig1_freshness_spectral", "random_jsc_theorem1"])
def test_envelope_fails_on_infinite_constants(name):
    # An inf c_bar gives inf bounds, which no error may pass, even one
    # raised by 1: every live point is a violation.
    trace = run_scenario(build_scenario(canned_scenarios()[name]))
    assert check_envelope(trace)["passed"]
    trace.constants = dataclasses.replace(
        trace.constants, c_bar=np.full_like(trace.constants.c_bar, np.inf))
    trace.z_estimates += 1.0
    subs = trace.sources
    start = envelope_schedule(trace.n_nodes, trace.period_t).start[subs[0]]
    assert check_envelope(trace) == {"passed": False,
                                     "violations": _live_points(trace, subs),
                                     "counterexample": (1, subs[0] + 1, start)}


def test_overflowing_constants_fail_the_envelope_with_a_code():
    # At rho = 0.1 an 8-node chain's radii, raised to the reference times,
    # underflow: 3 of the 8 c_bar are not finite.  The run reports a code,
    # not numpy's RuntimeWarnings (errors under this suite's settings), and
    # every live point of those substates fails.
    plant = make_multiblock_plant((1,) * 8, seed=1)
    graph = generate_random_jointly_connected(8, 4, seed=1)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.1, horizon=380))
    bad = np.flatnonzero(~np.isfinite(trace.constants.c_bar))
    assert bad.size == 3
    assert "envelope_constants_not_finite" in trace.warnings
    report = check_envelope(trace)
    assert not report["passed"]
    assert report["violations"] >= _live_points(trace, bad) > 0


@pytest.mark.parametrize("horizon, partial", [(35, True), (41, True), (42, False)])
def test_envelope_horizon_partial_warns(horizon, partial):
    # Four nodes, T = 2: the reference times end at 30, and substate 4's and
    # the total envelope start at 42.  Below 42 the check compares only some
    # envelopes, and the run says so.
    plant = make_multiblock_plant((1, 1, 1, 1), seed=1)
    graph = generate_random_jointly_connected(4, 2, seed=1)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9, horizon=horizon))
    assert trace.constants is not None
    assert ("envelope_horizon_partial" in trace.warnings) == partial
    assert check_envelope(trace)["passed"]


def test_envelope_requires_constants():
    trace = Trace(2, 10, 1, (1, 1), rho=0.5)
    assert check_envelope(trace) == {"passed": False, "detail": "no envelope constants available"}


def trace_with_errors(errs):
    """A one-state trace with T = 1 whose (H+1, N) total error norms are
    ``errs`` (nonnegative or NaN)."""
    errs = np.asarray(errs, dtype=float)
    trace = Trace(errs.shape[1], len(errs) - 1, 1, (1,))
    trace.truth = np.zeros((len(errs), 1))
    trace.z_estimates[:, :, 0] = errs
    return trace


def test_check_divergence_first_crossing():
    trace = trace_with_errors([[0.0, 1.0], [0.0, 5.0], [0.0, 50.0], [0.0, 20.0]])
    assert check_divergence(trace, 10.0, True) == {"first_crossing": 2, "diverged": True,
                                                   "passed": True}
    assert check_divergence(trace, 5.0, False) == {"first_crossing": 1, "diverged": True,
                                                   "passed": False}
    assert check_divergence(trace, 1000.0, True) == {"first_crossing": None, "diverged": False,
                                                     "passed": False}
    assert check_divergence(trace, 1000.0, False)["passed"]


def test_check_divergence_exact_threshold_counts():
    assert check_divergence(trace_with_errors([[1.0], [10.0]]), 10.0, True)["first_crossing"] == 1


def test_check_divergence_never_counts_a_nan_row():
    trace = trace_with_errors([[1.0, 0.0], [np.nan, np.nan], [0.0, 20.0]])
    assert check_divergence(trace, 10.0, True)["first_crossing"] == 2
    assert check_divergence(trace_with_errors([[1.0], [np.nan]]), 5.0, False)["passed"]


def test_check_divergence_counts_a_crossing_beside_a_nan_node():
    # One node's NaN norm does not hide the other node's crossing in that round.
    trace = trace_with_errors([[0.0, 0.0], [np.nan, 50.0]])
    assert check_divergence(trace, 10.0, True) == {"first_crossing": 1, "diverged": True,
                                                   "passed": True}


def test_check_finite_time_needs_the_horizon_past_its_bound():
    # n = 1, N = 2 and T = 1: the bound is n + 2N(N-1)T = 5.
    assert check_finite_time(trace_with_errors(np.zeros((5, 2)))) == {
        "passed": False, "detail": "horizon shorter than bound 5"}
    errs = np.zeros((7, 2))
    errs[0] = 2.0
    assert check_finite_time(trace_with_errors(errs)) == {
        "passed": True, "bound_step": 5, "max_error_after_bound": 0.0, "tolerance": 2e-6}


def test_check_finite_time_fails_on_a_nan_tail():
    errs = np.zeros((7, 2))
    errs[6, 1] = np.nan
    result = check_finite_time(trace_with_errors(errs))
    assert not result["passed"] and np.isnan(result["max_error_after_bound"])


def test_lemma_suite_passes_on_strong_scenario():
    trace = run_scenario(random_scenario(seed=7))
    report = check_lemma_suite(trace, check_delayed=True)
    assert report["passed"]
    assert report["mode"] == "strong"
    assert report["checks"]["delayed_form"]["max_residual"] <= 1e-8
    assert list(report["checks"]) == ["indices_finite", "delay_ceiling", "indices_match_graph",
                                      "donors_match_graph", "delayed_form"]
    assert all(entry["passed"] for entry in report["checks"].values())


def test_lemma_suite_rooted_mode_flagged():
    s = Scenario(plant=fig1_plant(), graph=fig1_graph(), rho=0.6, horizon=50)
    trace = run_scenario(s)
    assert "rooted_mode" in trace.warnings
    report = check_lemma_suite(trace)
    assert report["passed"]
    assert report["mode"] == "rooted"


def test_horizon_shorter_than_one_window_certifies_no_connectivity():
    # With no complete T-window there is no union to certify: an edgeless
    # graph may not pass as connected.
    plant = make_multiblock_plant((1, 1), seed=1)
    graph = PeriodicGraphSequence(edge_tensor(2, [[]]), period_t=5)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9, horizon=3))
    assert trace.warnings == ["connectivity_uncertified", "envelope_horizon_short"]


def test_lemma_suite_insufficient_horizon():
    trace = run_scenario(random_scenario(seed=7, horizon=2))
    report = check_lemma_suite(trace)
    assert not report["passed"]
    assert "insufficient horizon" in report["checks"]["horizon"]["detail"]


def test_lemma_suite_detects_corrupted_index():
    trace = run_scenario(random_scenario(seed=7))
    t = trace.period_t
    trigger = (trace.n_nodes - 1) * t
    trace.taus[trigger + 5, 2, 0] = -1
    report = check_lemma_suite(trace)
    assert not report["checks"]["indices_finite"]["passed"]


def test_trace_csv_round_numbers_stable():
    trace = run_scenario(random_scenario(seed=7, horizon=10))
    s1 = to_csv_string(trace)
    s2 = to_csv_string(trace)
    assert s1 == s2
    header = s1.splitlines()[1]
    assert header.startswith("k,node,tau1,")


def test_trace_csv_format_pinned():
    # Block 2 has dimension zero: it is no substate and has no columns.
    trace = Trace(3, 1, 1, (2, 0, 1))
    trace.taus[:] = [[[0, -1], [-1, -1], [-1, 0]],
                     [[0, 1], [1, 1], [1, 0]]]
    trace.donors[1] = [[-1, 3], [1, 3], [1, -1]]
    trace.z_estimates[:] = [[[0.5, -1.25, 3.0], [0.0, 2.0, 0.1], [0.0, 0.0, -0.0]],
                            [[1e-20, 0.3, -2.5], [4.0, 1.5, 7.0], [0.5, -1.25, 1e-300]]]
    assert to_csv_string(trace) == (
        "# tau = -1 encodes omega (never informed); donor = -1 encodes open-loop\n"
        "k,node,tau1,tau3,donor1,donor3,z0,z1,z2\n"
        "0,1,0,-1,-1,-1,0.5,-1.25,3.0\n"
        "0,2,-1,-1,-1,-1,0.0,2.0,0.1\n"
        "0,3,-1,0,-1,-1,0.0,0.0,-0.0\n"
        "1,1,0,1,-1,3,1e-20,0.3,-2.5\n"
        "1,2,1,1,1,3,4.0,1.5,7.0\n"
        "1,3,1,0,1,-1,0.5,-1.25,1e-300\n")


# Values whose text or bits a writer could confuse: signed zeros, NaN, the
# infinities, subnormals, and a tiny normal like the runs' settled estimates.
_EDGE_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1e-51, 0.1]


@hst.composite
def csv_traces(draw):
    """A `Trace` of arbitrary contents: a one-slot baseline layout, or slots
    of dimension 0-2 with at least one nonempty; any horizon up to 40."""
    n_nodes, horizon = draw(hst.integers(1, 4)), draw(hst.integers(0, 40))
    if draw(hst.booleans()):
        dims = (draw(hst.integers(1, 3)),)
    else:
        dims = tuple(draw(hst.lists(hst.integers(0, 2), min_size=1, max_size=4)
                          .filter(lambda d: sum(d) > 0)))
    trace = Trace(n_nodes, horizon, 1, dims)
    ints = hst.integers(-3, 2 * horizon + 5)
    trace.taus[:] = draw(arrays(np.int64, trace.taus.shape, elements=ints))
    trace.donors[:] = draw(arrays(np.int64, trace.donors.shape, elements=ints))
    floats = hst.sampled_from(_EDGE_FLOATS) | hst.floats()
    trace.z_estimates[:] = draw(arrays(np.float64, trace.z_estimates.shape, elements=floats))
    return trace


@settings(max_examples=150)
@given(trace=csv_traces(), chunk=hst.sampled_from([1, 3, sim_engine.CHUNK_ROUNDS]))
def test_trace_csv_matches_the_per_row_writer(trace, chunk):
    with mock.patch.object(sim_engine, "CHUNK_ROUNDS", chunk):
        assert to_csv_string(trace) == reference_csv(trace)


@settings(max_examples=150)
@given(trace=csv_traces())
def test_trace_csv_reads_back_any_contents(tmp_path_factory, trace):
    # Ints of at least -1 and every float come back bit for bit, any NaN as
    # a NaN; a file with an int below -1 is refused.
    path = tmp_path_factory.getbasetemp() / "any_trace.csv"
    trace.to_csv(path)
    back = Trace(trace.n_nodes, trace.horizon, 1, trace.block_dims)
    if min(trace.taus.min(), trace.donors.min()) < -1:
        with pytest.raises(ValueError, match="^corrupt trace: tau/donor below -1$"):
            back.read_csv(path)
        return
    back.read_csv(path)
    assert np.array_equal(back.taus, trace.taus) and np.array_equal(back.donors, trace.donors)
    nan = np.isnan(trace.z_estimates)
    assert np.array_equal(np.isnan(back.z_estimates), nan)
    assert np.array_equal(back.z_estimates[~nan].view(np.int64),
                          trace.z_estimates[~nan].view(np.int64))


def test_trace_csv_matches_the_per_row_writer_on_runs():
    for config in canned_scenarios().values():
        trace = run_scenario(build_scenario(config))
        assert to_csv_string(trace) == reference_csv(trace)


def test_trace_csv_memory_does_not_grow_with_the_horizon(tmp_path):
    # The writer's buffers are per chunk: ten times the rounds may not cost
    # more than a quarter more peak memory (about 1.6 MB at H = 200).
    plant = make_multiblock_plant((1,) * 16, seed=1)
    graph = generate_random_jointly_connected(16, 2, seed=1)
    peaks = []
    for horizon in (200, 2000):
        trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9, horizon=horizon))
        tracemalloc.start()
        try:
            trace.to_csv(tmp_path / "trace.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_trace_csv_read_memory_does_not_grow_with_the_horizon(tmp_path):
    # Beyond the trace's own arrays, which exist before the read, the
    # reader's buffers are one chunk of lines and its parse: eight times
    # the rounds may cost no more peak memory (about 1.5 MB here).  A
    # whole-file parse held every cell as a float (18 MB at H = 1600).
    plant = make_multiblock_plant((1,) * 16, seed=1)
    graph = generate_random_jointly_connected(16, 2, seed=1)
    peaks = []
    for horizon in (200, 1600):
        trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9, horizon=horizon))
        trace.to_csv(tmp_path / "trace.csv")
        back = Trace(trace.n_nodes, horizon, trace.period_t, trace.block_dims)
        tracemalloc.start()
        try:
            back.read_csv(tmp_path / "trace.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.z_estimates, trace.z_estimates)
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize("tamper", ["order", "short_row", "text_cell", "extra_rows"])
def test_check_refuses_a_later_chunk_as_one_chunk(tmp_path, capsys, tamper):
    # A fault past the first chunk of the trace's rows gives the exit code
    # and message, its row number included, that one chunk of the whole
    # file gives.
    assert cli.main(["run", "fig1_freshness_spectral", "--out", str(tmp_path)]) == 0
    stem = str(tmp_path / "fig1_freshness_spectral")
    trace = f"{stem}_trace.csv"
    with open(trace) as f:
        lines = f.readlines()
    row = 2 + 3 * 40 + 1        # node 2 in round 40 of 200
    cells = lines[row].split(",")
    if tamper == "order":
        lines[row], lines[row + 1] = lines[row + 1], lines[row]
    elif tamper == "short_row":
        lines[row] = ",".join(cells[:-1]) + "\n"
    elif tamper == "text_cell":
        lines[row] = ",".join(cells[:2] + ["x"] + cells[3:])
    else:
        lines += lines[-3:]
    with open(trace, "w") as f:
        f.writelines(lines)
    capsys.readouterr()
    outcomes = []
    for chunk in (None, 1, 3):
        with forced_chunk(chunk) if chunk else contextlib.nullcontext():
            code = cli.main(["check", trace, f"{stem}_report.json"])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0][0] == 2 and "malformed" in outcomes[0][1]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


def test_run_memory_does_not_grow_with_the_horizon():
    # Beyond the trace's own arrays, its truth included, and the sources'
    # outputs, which the estimate pass reads, a run's buffers are per chunk:
    # ten times the rounds may not cost more than a quarter more peak memory
    # (about 0.4 MB at H = 200).
    plant = make_multiblock_plant((1,) * 16, seed=1)
    graph = generate_random_jointly_connected(16, 2, seed=1)
    run_scenario(Scenario(plant=plant, graph=graph, rho=0.9, horizon=20))
    peaks = []
    for horizon in (200, 2000):
        tracemalloc.start()
        try:
            trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9,
                                          horizon=horizon))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = simulate_truth(plant, horizon)
        outputs = np.hstack([states @ plant.sensors[j].T for j in trace.sources])
        kept = (trace.taus, trace.donors, trace.z_estimates, trace.adjacency, trace.truth,
                outputs)
        peaks.append(peak - sum(a.nbytes for a in kept))
    assert peaks[1] <= 1.25 * peaks[0], peaks


def check_growth(check, n_nodes, horizons):
    """Bytes a (k, node, substate) point that ``check`` adds to its
    tracemalloc peak from the first of ``horizons`` to the second, on a
    passing run with N = ``n_nodes`` one-state blocks and T = 2."""
    plant = make_multiblock_plant((1,) * n_nodes, seed=1)
    graph = generate_random_jointly_connected(n_nodes, 2, seed=1)
    peaks = []
    for horizon in horizons:
        trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.9, horizon=horizon))
        tracemalloc.start()
        try:
            assert check(trace)["passed"]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / ((horizons[1] - horizons[0]) * n_nodes * n_nodes)


def lemma_suite_growth(check_delayed):
    """`check_growth` of `check_lemma_suite` from H = 200 to H = 2000 at N = 16."""
    return check_growth(lambda trace: check_lemma_suite(trace, check_delayed=check_delayed),
                        16, (200, 2000))


def test_delayed_check_memory_grows_by_less_than_a_float_per_point():
    # The delayed identity's residuals go a chunk at a time; a float residual
    # array would add 8 bytes a point (about 3.7 MB here).
    assert lemma_suite_growth(check_delayed=True) <= 2


def test_lemma_suite_memory_does_not_grow_with_the_horizon():
    # The index bounds go a chunk at a time with the rule's rounds; their
    # whole-horizon bool masks added 1 byte a point (0.45 MB here).
    assert lemma_suite_growth(check_delayed=False) < 0.1


def test_envelope_memory_does_not_grow_with_the_horizon():
    # The envelopes' bounds and live masks go a chunk at a time with the
    # error norms; whole-horizon ones added 4 bytes a point (0.93 MB here).
    assert check_growth(check_envelope, 8, (400, 4000)) < 0.1


def test_check_chunks_fill_a_points_budget_past_the_floor():
    chunk_rounds = sim_engine.check_chunk_rounds
    assert chunk_rounds(64, 64) == sim_engine.CHUNK_ROUNDS == 32
    assert chunk_rounds(16, 16) == 64
    for n_nodes in range(1, 80):
        for n in range(1, 80):
            rounds = chunk_rounds(n_nodes, n)
            assert rounds >= sim_engine.CHUNK_ROUNDS
            if rounds > sim_engine.CHUNK_ROUNDS:
                # The most rounds that CHECK_POINTS (k, node, state) points hold.
                points = n_nodes * n
                assert rounds * points <= sim_engine.CHECK_POINTS < (rounds + 1) * points
    # Fig. 1's check passes take its whole horizon in one chunk.
    trace = run_scenario(build_scenario(canned_scenarios()["fig1_freshness_spectral"]))
    assert chunk_rounds(*trace.z_estimates.shape[1:]) > trace.horizon
    assert [k0 for k0, _, _ in sim_engine._rule_rounds(trace)] == [0, 1]
    assert [k0 for k0, _ in _delayed_residuals(trace)] == [1]
    assert [rows for rows, _, _ in sim_engine._error_chunks(trace)] == [
        slice(0, trace.horizon + 1)]


def test_lemma_suite_reports_first_source_preferred_violation():
    trace = run_scenario(random_scenario(seed=7))
    # (k, j, i): source j sends to node i in round k, so i must adopt j.
    sends = [(k, j, i) for k in range(trace.horizon) for j in trace.substates
             for i in range(1, trace.n_nodes + 1)
             if i != j and trace.adjacency[k, j - 1, i - 1]]
    for k, j, i in (sends[-1], sends[3]):
        trace.donors[k + 1, i - 1, j - 1] = -1
    report = check_lemma_suite(trace)
    # The donor recorded at time k + 1, which round k produced.
    k, j, i = sends[3]
    assert report["checks"]["donors_match_graph"] == {
        "passed": False, "counterexample": (i, j, k + 1)}
    assert report["checks"]["indices_match_graph"]["passed"]


def test_lemma_suite_reports_first_source_pinned_violation():
    trace = run_scenario(random_scenario(seed=7))
    trace.taus[30, 2, 2] = 1
    trace.taus[40, 0, 0] = 3
    report = check_lemma_suite(trace)
    # The first in (k, substate, node) order.
    assert report["checks"]["indices_match_graph"] == {
        "passed": False, "counterexample": (3, 3, 30)}
    trace.taus[30, 2, 2] = 0
    report = check_lemma_suite(trace)
    assert report["checks"]["indices_match_graph"] == {
        "passed": False, "counterexample": (1, 1, 40)}
    # Round 40's one edge brings source 1 a fresher index than the 3 claimed,
    # yet a source adopts no donor.
    assert np.argwhere(trace.adjacency[40]).tolist() == [[2, 0]] and trace.taus[40, 2, 0] == 2
    assert report["checks"]["donors_match_graph"]["passed"]


def _walk_envelope_violations(points, expected):
    """Fault ``points`` of a run with errors of 1e6, then require the
    ``expected`` counterexamples in turn, mending each after it is seen.
    Each fault from k = 20 on fails the total envelope at its (node, k)
    too, and mending the counterexample's estimate mends both."""
    trace = run_scenario(random_scenario(seed=7))
    t_bar = (trace.n_nodes - 1) * trace.period_t
    assert (2 * trace.n_nodes - 1) * t_bar == 20
    clean = trace.z_estimates.copy()
    _move_estimate(trace, points, 1e6)
    live = [(i, j, k) for i, j, k in points if k >= (2 * j - 1) * t_bar]
    count = len(live) + sum(k >= 20 for _, _, k in live)
    for i, j, k in expected:
        assert check_envelope(trace) == {"passed": False, "violations": count,
                                         "counterexample": (i, j, k)}
        trace.z_estimates[k, i - 1] = clean[k, i - 1]
        count -= 1 + (k >= 20)
    assert check_envelope(trace)["passed"]


def test_envelope_violations_keep_their_order():
    # Substates in (substate, k, node) order; k = 2 falls before substate
    # 1's envelope starts.  With the run's constants every total violation
    # comes with a substate one at its (node, k), so a total counterexample
    # needs a constant that only the total reads (the test below).
    _walk_envelope_violations([(1, 3, 25), (2, 1, 30), (1, 1, 30), (1, 1, 2)],
                              [(1, 1, 30), (2, 1, 30), (1, 3, 25)])


def test_envelope_violations_keep_their_order_across_chunks():
    # The envelopes' chunks of 32 rounds start at k = 4: substate 3 fails
    # in the first, substate 1 only in the second, and comes first even so.
    with forced_chunk(32):
        _walk_envelope_violations([(1, 3, 25), (3, 1, 40), (2, 2, 50)],
                                  [(3, 1, 40), (2, 2, 50), (1, 3, 25)])


def test_envelope_reports_a_total_violation_after_the_substates():
    # Fig. 1's blocks (1, 0, 0): an empty block's c_bar enters only the
    # total envelope's bound.  NaN there fails every live total point, none
    # of the substate's, and the first is the total's first (k, node).
    trace = run_scenario(build_scenario(canned_scenarios()["fig1_freshness_spectral"]))
    assert trace.block_dims == (1, 0, 0) and check_envelope(trace)["passed"]
    c_bar = trace.constants.c_bar.copy()
    c_bar[1] = np.nan
    trace.constants = dataclasses.replace(trace.constants, c_bar=c_bar)
    start = envelope_schedule(trace.n_nodes, trace.period_t).total_start
    assert check_envelope(trace) == {
        "passed": False, "violations": trace.n_nodes * (trace.horizon + 1 - start),
        "counterexample": (1, 0, start)}
    trace.z_estimates[150, 1] *= 2.0         # off by the state, 2^150
    assert check_envelope(trace)["counterexample"] == (2, 1, 150)


def _envelope_points(trace):
    """(sub, total): the (H+1, N, S) points past a substate's envelope and
    the (H+1, N) points past the total's, by the bounds `check_envelope`
    states, for finite constants."""
    schedule = envelope_schedule(trace.n_nodes, trace.period_t)
    subs, c_bar = trace.sources, trace.constants.c_bar
    radii = np.asarray(choose_radii(trace.rho, len(trace.block_dims)))
    ks = np.arange(trace.horizon + 1)[:, None]
    err_block, err_total = whole_horizon_error_norms(trace.z_estimates, trace.truth,
                                                     trace.block_dims)
    sub_bound = c_bar[subs] * radii[subs] ** ks * (1 + 1e-9) + 1e-300
    total_bound = np.hypot.reduce(c_bar) * trace.rho ** ks * (1 + 1e-9) + 1e-300
    sub = (err_block > sub_bound[:, None, :]) & (ks >= schedule.start[subs])[:, None, :]
    total = (err_total > total_bound) & (ks >= schedule.total_start)
    return sub, total


_TAMPERED_ENVELOPE_RUNS = {
    # Fig. 1's graph and blocks (1, 0, 0) on a stable plant, whose estimates
    # keep a move of their bounds' size to the horizon.
    "empty_blocks": lambda: Scenario(plant=LtiPlant([[0.5]], [[[1.0]], [], []], [1.0]),
                                     graph=fig1_graph(), rho=0.6, horizon=60),
    "random_jsc_theorem1": lambda: build_scenario(canned_scenarios()["random_jsc_theorem1"]),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(_TAMPERED_ENVELOPE_RUNS))
def test_total_envelope_fails_only_where_a_substate_does(name, seed):
    # ||e||^2 = sum_j ||e_j||^2 and r_j < rho: with finite constants, every
    # total violation has a substate violation at its (node, k), so the
    # total envelope catches no fault of its own.  Estimates are moved near
    # their substate's or the total's bound, where both are live, and the
    # constants, an empty block's too, scaled at random.
    # Only a c_bar that is not finite gives a total-only violation.
    trace = run_scenario(_TAMPERED_ENVELOPE_RUNS[name]())
    rng = np.random.default_rng(seed)
    c_bar = trace.constants.c_bar * 10.0 ** rng.uniform(-1, 1, trace.constants.c_bar.shape)
    trace.constants = dataclasses.replace(trace.constants, c_bar=c_bar)
    radii = choose_radii(trace.rho, len(trace.block_dims))
    start = envelope_schedule(trace.n_nodes, trace.period_t).total_start
    for m in range(40):
        i = int(rng.integers(1, trace.n_nodes + 1))
        j = int(rng.choice(trace.substates))
        k = int(rng.integers(start, trace.horizon + 1))
        bound = (np.hypot.reduce(c_bar) * trace.rho ** k if m % 2
                 else c_bar[j - 1] * radii[j - 1] ** k)
        _move_estimate(trace, [(i, j, k)], rng.choice([-1.0, 1.0]) * bound * 10.0 ** rng.uniform(-1, 1))
    sub, total = _envelope_points(trace)
    assert np.count_nonzero(sub) + np.count_nonzero(total) == check_envelope(trace)["violations"]
    assert total.any()
    assert not np.any(total & ~sub.any(axis=2))
    if name == "empty_blocks":
        # An inf c_bar of an empty block fails every live total point, and
        # the substate's violations stay as they were.
        trace.constants = dataclasses.replace(trace.constants, c_bar=np.append(c_bar[:2], np.inf))
        live = trace.n_nodes * (trace.horizon + 1 - start)
        assert check_envelope(trace)["violations"] == np.count_nonzero(sub) + live


def reference_lemma_faults(trace):
    """First counterexample of each lemma check, by straight-line loops: over
    (substate, node, k) for the index lemma, and over (k, substate, node) for
    the rule, whose every expected entry comes from `select_donor`."""
    n_nodes, horizon = trace.n_nodes, trace.horizon
    trigger = (n_nodes - 1) * trace.period_t
    ceiling = 2 * trigger
    faults = dict.fromkeys(("indices_finite", "delay_ceiling", "indices_match_graph",
                            "donors_match_graph"))

    def note(name, at):
        if faults[name] is None:
            faults[name] = at

    for c, j in enumerate(trace.substates):
        for i in range(1, n_nodes + 1):
            for k in range(trigger, horizon + 1):
                tau = trace.taus[k, i - 1, c]
                if i != j and tau < 0:
                    note("indices_finite", (i, j, k))
                if i != j and tau > ceiling:
                    note("delay_ceiling", (i, j, k))
    for k in range(horizon + 1):
        for c, j in enumerate(trace.substates):
            for i in range(1, n_nodes + 1):
                if i == j or k == 0:
                    # A source keeps index 0; at time 0 no one else is informed.
                    tau, donor = (0 if i == j else -1), -1
                else:
                    own = int(trace.taus[k - 1, i - 1, c])
                    heard = {l: int(trace.taus[k - 1, l - 1, c])
                             for l in range(1, n_nodes + 1)
                             if trace.adjacency[k - 1, l - 1, i - 1]}
                    donor = select_donor(own, heard)
                    held = heard[donor] if donor > 0 else own
                    tau = held + 1 if held >= 0 else -1
                if trace.taus[k, i - 1, c] != tau:
                    note("indices_match_graph", (i, j, k))
                if trace.donors[k, i - 1, c] != donor:
                    note("donors_match_graph", (i, j, k))
    return faults


@settings(max_examples=40)
@given(fig1=hst.booleans(), seed=hst.integers(0, 2**16), tampered=hst.integers(0, 8))
def test_lemma_suite_matches_straight_line_reference(fig1, seed, tampered):
    if fig1:
        # Substates 2 and 3 have dimension zero.
        trace = run_scenario(Scenario(plant=fig1_plant(), graph=fig1_graph(), rho=0.6,
                                      horizon=30, seed=seed))
    else:
        trace = run_scenario(random_scenario(seed=seed, horizon=30))
    rng = np.random.default_rng(seed)
    n_nodes = trace.n_nodes
    ceiling = 2 * (n_nodes - 1) * trace.period_t
    for _ in range(tampered):
        k, i, c = (int(rng.integers(0, trace.horizon + 1)), int(rng.integers(0, n_nodes)),
                   int(rng.integers(0, len(trace.substates))))
        if rng.random() < 0.5:
            trace.taus[k, i, c] = rng.integers(-1, ceiling + 3)
        else:
            trace.donors[k, i, c] = rng.integers(-1, n_nodes + 1)
    report = check_lemma_suite(trace)
    found = {name: report["checks"][name].get("counterexample")
             for name in reference_lemma_faults(trace)}
    assert found == reference_lemma_faults(trace)
    assert report["passed"] == all(v is None for v in found.values())
    # The chunk length moves no counterexample.
    for chunk in (1, 4):
        with forced_chunk(chunk):
            assert check_lemma_suite(trace) == report


@settings(max_examples=25)
@given(
    blocks=hst.lists(hst.integers(1, 3), min_size=1, max_size=4),
    blind=hst.lists(hst.integers(0, 4), max_size=2),
    coupling=hst.sampled_from([0.0, 0.5]),
    seed=hst.integers(0, 2**16),
    tamper=hst.sampled_from([None, "estimate", "tau"]),
)
def test_delayed_check_matches_per_point_closed_form(blocks, blind, coupling, seed,
                                                     tamper):
    # Blind nodes (no sensor) give zero-dimension substates wherever they sit.
    base = make_multiblock_plant(tuple(blocks), seed=seed)
    sensors = list(base.sensors)
    for pos in blind:
        sensors.insert(min(pos, len(sensors)), np.zeros((0, base.n)))
    plant = couple_substates(LtiPlant(base.a_matrix, sensors, base.x0), coupling, seed)
    graph = generate_random_jointly_connected(plant.n_nodes, 2, seed=seed + 1)
    try:
        trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.8, horizon=24,
                                      seed=seed))
    except DecompositionError:
        if not coupling:
            raise
        # The staircase refuses a few coupled plants with a rank decision
        # that has no clear gap; test_decomposition pins such refusals.
        reject()
    ts = trace.ts
    rng = np.random.default_rng(seed)
    tampered = None
    if tamper == "estimate":
        # One estimate entry off by one: both evaluations read the same
        # recorded estimates, so they must still agree point by point.
        k, i, col = (rng.integers(0, trace.horizon + 1), rng.integers(0, plant.n_nodes),
                     rng.integers(0, ts.n))
        trace.z_estimates[k, i, col] += 1.0
    elif tamper == "tau":
        # One index shifted off its lineage's length (or onto -1, by chance).
        k, i = rng.integers(1, trace.horizon + 1), rng.integers(0, plant.n_nodes)
        c = rng.integers(0, len(trace.substates))
        old = trace.taus[k, i, c]
        trace.taus[k, i, c] = max(-1, old + rng.choice([-2, -1, 1, 2]))
        if trace.taus[k, i, c] != old:
            tampered = (i + 1, trace.substates[c], k)
    resid = delayed_residuals(trace)
    checks = check_lemma_suite(trace, check_delayed=True)["checks"]
    # The chunk length moves no bit and no point: chunks of one round,
    # chunks that do and do not divide the horizon, and one chunk longer
    # than it.
    for chunk in (1, 3, 5, trace.horizon + 1):
        with forced_chunk(chunk):
            assert np.array_equal(delayed_residuals(trace), resid)
            entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
            assert entry == checks["delayed_form"]
    # The rule check finds a shifted index where the index lemma may not.
    assert checks["indices_match_graph"].get("counterexample") == tampered
    refs = []
    for k in range(1, trace.horizon + 1):
        for c, j in enumerate(trace.substates):
            for i in range(1, plant.n_nodes + 1):
                try:
                    ref = check_delayed_form(trace, ts, j, k, i)
                except ValueError:
                    # An index off its recorded lineage: the rule check's point.
                    assert (i, j, k) == tampered
                    continue
                assert abs(resid[k - 1, i - 1, c] - ref) <= 1e-12, (i, j, k)
                refs.append(ref)
    worst = np.max(refs, initial=0.0)
    entry = checks["delayed_form"]
    assert entry["passed"] == (worst <= 1e-8)
    assert entry["max_residual"] == pytest.approx(worst, abs=1e-12)
    # The point is the first worst residual in (k, substate, node) order.
    k, c, i = min((k, c, i) for k, i, c in np.argwhere(resid == entry["max_residual"]))
    assert entry["at"] == (None if entry["max_residual"] == 0 else
                           (i + 1, trace.substates[c], k + 1))


def test_error_norms_stay_finite_past_the_square_of_float64s_range():
    # Errors of 1e160-1e300 square past float64's range.  Scaled by a power
    # of two, which is exact, the plain formula gives the norms to rounding.
    rng = np.random.default_rng(5)
    dims = (2, 0, 3, 1)
    estimates = rng.standard_normal((4, 3, 6)) * 10.0 ** rng.integers(160, 300, (4, 3, 6))
    truth = rng.standard_normal((4, 6))
    scale = 2.0 ** 700
    for got, want in zip(error_norms(estimates, truth, dims),
                         whole_horizon_error_norms(estimates / scale, truth / scale, dims)):
        assert np.isfinite(got).all()
        assert np.allclose(got / scale, want, rtol=1e-15, atol=0)


def test_delayed_residuals_stay_finite_past_the_square_of_float64s_range():
    # The identity is linear: estimates scaled by 2^600, whose squares pass
    # float64's range, give residuals ||z_k - R_k|| / ||z_k|| in place of
    # ||z_k - R_k|| / max(1, ||z_k||).  One estimate off by 0.5 makes them
    # nonzero.
    trace = run_scenario(random_scenario(seed=41))
    trace.z_estimates[20, 2] += 0.5
    resid = delayed_residuals(trace)
    z_norms = error_norms(trace.z_estimates, np.zeros(trace.z_estimates.shape[::2]),
                          trace.ts.block_dims)[0][1:]
    trace.z_estimates *= 2.0 ** 600
    scaled = delayed_residuals(trace)
    assert np.isfinite(scaled).all()
    assert resid.max() > 0
    assert np.allclose(scaled * z_norms, resid * np.maximum(1.0, z_norms), rtol=1e-12, atol=0)


def test_a_residual_over_an_estimate_that_is_not_finite_is_nan():
    trace = run_scenario(random_scenario(seed=41))
    i, c = next((i, c) for i, c in zip(*np.nonzero(trace.taus[30] > 0)))
    col = trace.ts.offsets[trace.sources[c]]
    trace.z_estimates[30, i, col] = np.inf
    resid = delayed_residuals(trace)
    assert np.isnan(resid[29, i, c])
    assert np.isfinite(resid[:29]).all()
    entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert not entry["passed"] and np.isnan(entry["max_residual"])
    assert entry["at"] == (i + 1, trace.substates[c], 30)


def test_a_residual_over_an_estimate_whose_norm_passes_float64s_range_is_nan():
    # Every estimate is (1.5e308, 1.5e308) on a plant with A = I: the
    # identity holds to rounding, but ||z_k|| = 2.1e308 is not finite, so
    # no residual can be read off it.
    plant = LtiPlant(np.eye(2), [np.eye(2), np.zeros((0, 2)), np.zeros((0, 2))], [1.0, 1.0])
    graph = generate_random_jointly_connected(3, 2, seed=1)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.8, horizon=12))
    trace.z_estimates[:] = 1.5e308
    resid = delayed_residuals(trace)
    informed = trace.taus[1:] > 0
    assert informed.sum() >= 20 and np.isnan(resid[informed]).all()


def identity_plant_trace():
    """A = I on one 2-state source block, every estimate 0.  A = I leaves no
    cross terms and carries every lineage's start, the source's 0, so an
    informed estimate z of node i's substate at time k has residual
    ||z|| / max(1, ||z||), exactly 1.0 for ||z|| = 2."""
    plant = LtiPlant(np.eye(2), [np.eye(2), np.zeros((0, 2)), np.zeros((0, 2))], [1.0, 1.0])
    graph = generate_random_jointly_connected(3, 2, seed=1)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.8, horizon=12))
    trace.z_estimates[:] = 0.0
    # (k, node) of the informed non-sources at two times in two chunks of 4.
    return trace, [(k, int(np.flatnonzero(trace.taus[k, :, 0] > 0)[-1])) for k in (5, 10)]


def test_a_nan_in_a_later_chunk_beats_a_larger_residual_in_an_earlier_one():
    trace, ((k, i), (k_nan, i_nan)) = identity_plant_trace()
    trace.z_estimates[k, i] = (2.0, 0.0)
    trace.z_estimates[k_nan, i_nan] = (np.inf, 0.0)
    with forced_chunk(4):
        resid = delayed_residuals(trace)
        entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert resid[k - 1, i, 0] == 1.0 and np.nanmax(resid[k_nan - 1:]) < 1.0
    assert not entry["passed"] and np.isnan(entry["max_residual"])
    assert entry["at"] == (i_nan + 1, 1, k_nan)


def test_an_equal_worst_residual_in_a_later_chunk_keeps_the_earlier_point():
    trace, ((k, i), (k_tie, i_tie)) = identity_plant_trace()
    trace.z_estimates[k, i] = (2.0, 0.0)
    trace.z_estimates[k_tie, i_tie] = (0.0, -2.0)
    with forced_chunk(4):
        resid = delayed_residuals(trace)
        entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert np.count_nonzero(resid) == 2 and resid[k_tie - 1, i_tie, 0] == 1.0
    assert entry == {"passed": False, "max_residual": 1.0, "at": (i + 1, 1, k)}


def relay_trace(horizon=10):
    """A (2, 1, 1) plant on a 2-cycle: round A is 1->2->3, round B is 3->1 only.

    A round-B round is the only one where node 1 hears source 3, and no
    other node hears anyone.
    """
    plant = make_multiblock_plant((2, 1, 1), seed=12)
    graph = PeriodicGraphSequence(edge_tensor(3, [[(1, 2), (2, 3)], [(3, 1)]]), period_t=2)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.8, horizon=horizon,
                                  initial_estimates=[np.ones(plant.n)] * 3))
    assert check_lemma_suite(trace, check_delayed=True)["passed"]
    return trace


@pytest.mark.parametrize("entry", ["estimate", "donor", "source_estimate"])
def test_delayed_check_locates_single_tampered_entry(entry):
    trace = relay_trace()
    h = trace.horizon
    if entry == "estimate":
        # Node 2's estimate of substate 1 at the last step.
        trace.z_estimates[h, 1, 0] += 0.5
        expected = (2, 1, h)
    elif entry == "donor":
        # Node 2 ran open-loop in the last round; claim it adopted source 1.
        assert trace.donors[h, 1, 0] == -1
        trace.donors[h, 1, 0] = 1
        expected = (2, 1, h)
    else:
        # Source 3's own estimate entering the last round, which only node 1
        # reads (as its donor).
        assert trace.donors[h, 0, 2] == 3
        trace.z_estimates[h - 1, 2, 3] += 0.5
        expected = (1, 3, h)
    entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert not entry["passed"]
    assert entry["at"] == expected


def test_lemma_suite_fails_lineage_from_uninformed_node():
    trace = relay_trace()
    # Round 0: node 2 adopts source 1; claim it adopted node 3, never informed.
    assert trace.donors[1, 1, 0] == 1 and trace.taus[0, 2, 0] == -1
    trace.donors[1, 1, 0] = 3
    with pytest.raises(ValueError, match="does not reach the source"):
        check_delayed_form(trace, trace.ts, 1, 1, 2)
    report = check_lemma_suite(trace, check_delayed=True)
    assert not report["passed"]
    assert report["checks"]["donors_match_graph"] == {"passed": False,
                                                      "counterexample": (2, 1, 1)}


@pytest.mark.parametrize("defect", ["open_loop_keeps_index", "adoption_adds_two"])
def test_lemma_suite_fails_index_off_its_lineage(defect):
    trace = relay_trace()
    h = trace.horizon
    if defect == "open_loop_keeps_index":
        # Node 2 ran open-loop in the last round; record its index unchanged.
        assert trace.donors[h, 1, 0] == -1 and trace.taus[h - 1, 1, 0] >= 0
        trace.taus[h, 1, 0] = trace.taus[h - 1, 1, 0]
        expected = (2, 1, h)
    else:
        # Node 1 adopted source 3 in the last round; record donor index + 2.
        assert trace.donors[h, 0, 2] == 3
        trace.taus[h, 0, 2] = trace.taus[h - 1, 2, 2] + 2
        expected = (1, 3, h)
    report = check_lemma_suite(trace, check_delayed=True)
    # Neither defect moves an index past the lemma's bounds or an estimate,
    # so only the rule check sees it.
    assert {name: entry for name, entry in report["checks"].items()
            if not entry["passed"]} == {
        "indices_match_graph": {"passed": False, "counterexample": expected}}
    i, j, k = expected
    with pytest.raises(ValueError):
        check_delayed_form(trace, trace.ts, j, k, i)


def test_delayed_check_on_empty_horizon():
    plant = make_multiblock_plant((1,), seed=0)
    graph = PeriodicGraphSequence(edge_tensor(1, [[]]), period_t=1)
    run = run_scenario(Scenario(plant=plant, graph=graph, rho=0.5, horizon=1))
    # Runs need a horizon of at least 1; a library Trace may hold k = 0 only.
    trace = Trace(1, 0, 1, run.block_dims)
    trace.taus[0], trace.z_estimates[0], trace.ts = run.taus[0], run.z_estimates[0], run.ts
    entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert entry == {"passed": True, "max_residual": 0.0, "at": None}


def _blind_middle_plant():
    """Blocks (2, 0, 1, 1): node 2 has no sensor."""
    base = make_multiblock_plant((2, 1, 1), seed=4)
    sensors = [base.sensors[0], np.zeros((0, base.n)), *base.sensors[1:]]
    return LtiPlant(base.a_matrix, sensors, base.x0)


_PINNED = {name: build_scenario(config) for name, config in canned_scenarios().items()}
_PINNED.update({f"multiblock_{seed}": Scenario(
    plant=make_multiblock_plant((1,) * 10, seed),
    graph=generate_random_jointly_connected(10, 2, seed=seed), rho=0.9, horizon=200)
    for seed in (1, 2, 3)})
_PINNED.update(
    # A generic plant: node 3 of 6 sees all 4 states, blocks (0, 0, 4, 0, 0, 0).
    generic=Scenario(plant=make_random_plant(4, 6, seed=8, spectral_radius=0.9),
                     graph=generate_random_jointly_connected(6, 2, seed=8), rho=0.9,
                     horizon=120),
    blind_middle=Scenario(plant=_blind_middle_plant(),
                          graph=generate_random_jointly_connected(4, 2, seed=4), rho=0.9,
                          horizon=120))


@pytest.mark.parametrize("name,substates,header", [
    ("fig1_freshness_spectral", [1], "k,node,tau1,donor1,z0"),
    ("generic", [3], "k,node,tau3,donor3,z0,z1,z2,z3"),
    ("blind_middle", [1, 3, 4], "k,node,tau1,tau3,tau4,donor1,donor3,donor4,z0,z1,z2,z3"),
])
def test_trace_has_one_column_per_substate(name, substates, header):
    # A zero-dimension block has no column in the indices, the donors, the
    # block errors or the trace file.
    trace = run_scenario(_PINNED[name])
    assert trace.substates == substates
    err_block = error_norms(trace.z_estimates, trace.truth, trace.block_dims)[0]
    for array in (trace.taus, trace.donors, err_block):
        assert array.shape[2] == len(substates)
    assert check_lemma_suite(trace, check_delayed=True)["passed"]
    assert to_csv_string(trace).splitlines()[1] == header


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_run_equals_the_argmin_kernel_bit_for_bit(monkeypatch, name):
    scenario = _PINNED[name]
    trace = run_scenario(scenario)
    monkeypatch.setattr(sim_engine, "ProtocolKernel", ArgminKernel)
    pinned = run_scenario(scenario)
    assert np.array_equal(trace.taus, pinned.taus)
    assert np.array_equal(trace.donors, pinned.donors)
    assert np.array_equal(trace.z_estimates.view(np.int64), pinned.z_estimates.view(np.int64))


def _usable(tau, adjacency):
    """[i, l, j]: node l+1 may be node i+1's donor for substate j+1 by the rule."""
    nbr, own = tau[None, :, :], tau[:, None, :]
    return adjacency.T[:, :, None] & (nbr >= 0) & ((own < 0) | (nbr < own))


class _ChoiceKernel(ProtocolKernel):
    """A faulty kernel that adopts the usable donor ``choose`` names instead
    of the freshest: the real choice over each substate's chosen edges only."""

    def choose_donors(self, own, adjacency, out):
        tau = tau_of_keys(own, self.n_nodes)
        pick = self.choose(tau, _usable(tau, adjacency))   # 0-based, -1 for none
        held = np.empty_like(out)
        for j in range(tau.shape[1]):
            chosen = np.zeros_like(adjacency)
            has = pick[:, j] >= 0
            chosen[pick[has, j], np.flatnonzero(has)] = True
            super().choose_donors(own, chosen, held)
            out[:, j] = held[:, j]


def _stalest(tau, usable):
    return np.where(usable.any(axis=1), np.where(usable, tau[None], -1).argmax(axis=1), -1)


class StalestRelayKernel(_ChoiceKernel):
    """The source when it is a usable in-neighbour, else the stalest usable relay."""

    def choose(self, tau, usable):
        pick = _stalest(tau, usable)
        src, cols = self._own
        pick[:, cols] = np.where(usable[:, src, cols], src, pick[:, cols])
        return pick


class StalestAnyKernel(_ChoiceKernel):
    """The stalest usable in-neighbour, the source included."""

    def choose(self, tau, usable):
        return _stalest(tau, usable)


class SourceOnlyKernel(_ChoiceKernel):
    """The source when it is a usable in-neighbour, else no one."""

    def choose(self, tau, usable):
        pick = np.full_like(tau, -1)
        src, cols = self._own
        pick[:, cols] = np.where(usable[:, src, cols], src, -1)
        return pick


# A held key is index * (N + 1) + donor id, and the next index is the held
# one + 1; the kernels below shift the held index of the keys they alter.

class OpenLoopKeepsIndexKernel(ProtocolKernel):
    """An informed node that runs open-loop keeps its index."""

    def choose_donors(self, own, adjacency, out):
        super().choose_donors(own, adjacency, out)
        out[(out == own) & (tau_of_keys(own, self.n_nodes) >= 0)] -= self.n_nodes + 1


class AdoptionAddsTwoKernel(ProtocolKernel):
    """An adopted index is the donor's + 2."""

    def choose_donors(self, own, adjacency, out):
        super().choose_donors(own, adjacency, out)
        out[out % (self.n_nodes + 1) > 0] += self.n_nodes + 1


@pytest.mark.parametrize("name", ["random_jsc_theorem1", "random_jsc_corollary1"])
def test_check_fails_stalest_relay_kernel(tmp_path, monkeypatch, capsys, name):
    # Its indices stay within the lemma's bounds and its estimates follow its
    # donors, so only the rule checks see that it skips the freshest relay.
    with monkeypatch.context() as mp:
        mp.setattr(sim_engine, "ProtocolKernel", StalestRelayKernel)
        trace = run_scenario(build_scenario(canned_scenarios()[name]))
        assert cli.main(["run", name, "--out", str(tmp_path)]) == 1
    report = check_lemma_suite(trace, check_delayed=True)
    assert {n for n, entry in report["checks"].items() if not entry["passed"]} == {
        "indices_match_graph", "donors_match_graph"}
    stem = str(tmp_path / name)
    assert cli.main(["check", f"{stem}_trace.csv", f"{stem}_report.json"]) == 1
    assert "lemmas: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("kernel", [SourceOnlyKernel, StalestAnyKernel,
                                    OpenLoopKeepsIndexKernel, AdoptionAddsTwoKernel])
def test_lemma_suite_fails_faulty_kernels(monkeypatch, kernel):
    monkeypatch.setattr(sim_engine, "ProtocolKernel", kernel)
    trace = run_scenario(build_scenario(canned_scenarios()["random_jsc_theorem1"]))
    report = check_lemma_suite(trace, check_delayed=True)
    assert not report["passed"]
    assert not (report["checks"]["indices_match_graph"]["passed"]
                and report["checks"]["donors_match_graph"]["passed"])


class _ZeroingKernel(ProtocolKernel):
    """The kernel as it was before the transform wrote the zeros: it zeroes
    each source's sensor rows past its block itself."""

    def __init__(self, ts, gains):
        cols = np.arange(ts.n)
        c_bar = tuple(np.where(cols < ts.offsets[j + 1], c, 0.0) for j, c in enumerate(ts.c_bar))
        super().__init__(dataclasses.replace(ts, c_bar=c_bar), gains)


def _scenarios_for_the_staircase_zeros():
    canned = {name: build_scenario(config) for name, config in canned_scenarios().items()}
    plant = couple_substates(make_multiblock_plant((2, 1, 2), seed=4), 0.5, seed=4)
    return dict(canned, coupled=random_scenario(plant=plant, horizon=40))


@pytest.mark.parametrize("name", sorted(canned_scenarios()) + ["coupled"])
def test_staircase_zeros_change_no_bit_of_a_run(monkeypatch, name):
    # Every consumer of the transform reads only Ā's blocks on and below the
    # diagonal and C̄_i's blocks up to i, once the kernel zeroes C̄_i past
    # block i, as it did before the transform wrote those zeros itself.
    s = _scenarios_for_the_staircase_zeros()[name]
    runs = [run_scenario(s)]
    monkeypatch.setattr(TransformedSystem, "of", staticmethod(raw_products))
    monkeypatch.setattr(sim_engine, "ProtocolKernel", _ZeroingKernel)
    runs.append(run_scenario(s))
    new, raw = runs
    for attr in ("taus", "donors", "z_estimates"):
        assert np.array_equal(getattr(new, attr), getattr(raw, attr)), attr
    if new.ts is None:      # a baseline run has no transform
        return
    # The coupled plant's products do carry residue where the zeros go.
    assert name != "coupled" or new.ts.residue > 0.0
    for field in ("gains", "target_radii"):
        assert all(map(np.array_equal, getattr(new.gains, field), getattr(raw.gains, field)))
    verdicts = [[check_lemma_suite(t, check_delayed=True)] for t in runs]
    if new.constants is None:       # a deadbeat run has no envelope
        assert raw.constants is None
    else:
        for field in dataclasses.fields(new.constants):
            assert np.array_equal(getattr(new.constants, field.name),
                                  getattr(raw.constants, field.name), equal_nan=True), field.name
        for t, checks in zip(runs, verdicts):
            checks.append(check_envelope(t))
    assert repr(verdicts[0]) == repr(verdicts[1])
