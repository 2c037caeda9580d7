import dataclasses

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hst

from freshtrack import cli, sim_engine
from freshtrack.baselines import WeightStrategy, detect_divergence
from freshtrack.cli import build_scenario
from freshtrack.gain_design import closed_loop_block, envelope_schedule
from freshtrack.graph_seq import (
    PeriodicGraphSequence,
    edge_tensor,
    generate_random_jointly_connected,
)
from freshtrack.scenarios import FIG1_EDGE_LISTS, canned_scenarios, make_multiblock_plant
from freshtrack.sim_engine import (
    Scenario,
    Trace,
    _delayed_residuals,
    check_envelope,
    check_lemma_suite,
    error_norms,
    run_scenario,
)
from freshtrack.observer_protocol import ProtocolKernel
from freshtrack.system_model import DecompositionError, LtiPlant, simulate_truth
from reference import (
    check_delayed_form,
    couple_substates,
    fit_decay_rate,
    max_error,
    select_donor,
)


def fig1_graph():
    return PeriodicGraphSequence(edge_tensor(3, FIG1_EDGE_LISTS), period_t=2)


def fig1_plant():
    return LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])


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
    assert np.max(trace.err_total) < 1e-9


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
        z_truth = to_transformed_coords(truth.states[k], trace.ts)
        err = trace.z_estimates[k, 0] - z_truth
        assert np.linalg.norm(err - e) <= 1e-9 * max(1.0, np.linalg.norm(e))
        e = cl @ e
    assert trace.taus[17, 0, 0] == 0


def test_error_norms_are_pythagorean():
    trace = run_scenario(random_scenario(seed=41))
    for k in range(trace.horizon + 1):
        for i in range(1, trace.n_nodes + 1):
            total = trace.err_total[k, i - 1]
            blocks = np.sqrt(np.sum(trace.err_block[k, i - 1] ** 2))
            assert total == pytest.approx(blocks, rel=1e-10, abs=1e-12)


def test_error_norms_split_by_block_and_skip_empty_slots():
    truth = np.array([[1.0, 2.0, 3.0]])
    estimates = np.array([[[4.0, 6.0, 3.0], [1.0, 2.0, 1.0]]])
    err_block, err_total = error_norms(estimates, truth, (2, 0, 1))
    assert err_block.tolist() == [[[5.0, 0.0, 0.0], [0.0, 0.0, 2.0]]]
    assert err_total.tolist() == [[5.0, 2.0]]


def test_fit_decay_rate_exact_geometric():
    trace = Trace(2, 50, 1, (1, 1))
    ks = np.arange(51)
    trace.err_total = np.outer(3.0 * 0.5 ** ks, np.ones(2))
    assert fit_decay_rate(trace, 0) == pytest.approx(0.5, abs=1e-9)


def test_fit_decay_rate_requires_points_above_floor():
    trace = Trace(1, 50, 1, (1,))
    trace.err_total = np.full((51, 1), 1e-15)
    with pytest.raises(ValueError, match="usable points"):
        fit_decay_rate(trace, 0)


def test_baseline_divergence_rate_above_one():
    s = Scenario(plant=fig1_plant(), graph=fig1_graph(), algorithm="baseline",
                 strategy=WeightStrategy("uniform"), horizon=60)
    trace = run_scenario(s)
    assert fit_decay_rate(trace, 5) > 1.0
    first_crossing = detect_divergence(trace.err_total, 1e6)
    assert first_crossing is not None
    assert first_crossing <= 60


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


def test_envelope_detects_injected_fault():
    trace = run_scenario(random_scenario(seed=7))
    t_bar = (trace.n_nodes - 1) * trace.period_t
    j = trace.substates[-1]
    k = (2 * j - 1) * t_bar + 3
    bound = trace.constants.c_bar[j - 1] * trace.gains.target_radii[j - 1] ** k
    trace.err_block[k, 1, j - 1] = 2.0 * bound + 1.0
    assert check_envelope(trace) == {"passed": False, "violations": 1,
                                     "counterexample": (2, j, k)}


@pytest.mark.parametrize("field", ["c_bar", "err_block", "err_total"])
def test_envelope_fails_on_nan(field):
    # NaN compares False both ways: a NaN bound or error is a violation.
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
    elif field == "err_block":
        trace.err_block[k, 1, 2] = np.nan
        expected = (1, (2, 3, k))
    else:
        trace.err_total[k, 1] = np.nan
        expected = (1, (2, 0, k))
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
    trace.err_block += 1.0
    trace.err_total += 1.0
    subs = np.array(trace.substates) - 1
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


def test_envelope_requires_constants():
    trace = Trace(2, 10, 1, (1, 1), rho=0.5)
    with pytest.raises(ValueError, match="constants"):
        check_envelope(trace)


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


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_scenario(random_scenario(seed=7, algorithm="gossip"))


def test_baseline_requires_strategy():
    with pytest.raises(ValueError, match="strategy"):
        run_scenario(random_scenario(seed=7, algorithm="baseline"))


def test_trace_csv_round_numbers_stable():
    trace = run_scenario(random_scenario(seed=7, horizon=10))
    s1 = trace.to_csv_string()
    s2 = trace.to_csv_string()
    assert s1 == s2
    header = s1.splitlines()[1]
    assert header.startswith("k,node,tau1,")


def test_trace_csv_format_pinned():
    # Slot 2 has dimension zero: its tau and donor stay -1.
    trace = Trace(3, 1, 1, (2, 0, 1))
    trace.taus[:] = [[[0, -1, -1], [-1, -1, -1], [-1, -1, 0]],
                     [[0, -1, 1], [1, -1, 1], [1, -1, 0]]]
    trace.donors[1] = [[-1, -1, 3], [1, -1, 3], [1, -1, -1]]
    trace.z_estimates[:] = [[[0.5, -1.25, 3.0], [0.0, 2.0, 0.1], [0.0, 0.0, -0.0]],
                            [[1e-20, 0.3, -2.5], [4.0, 1.5, 7.0], [0.5, -1.25, 1e-300]]]
    assert trace.to_csv_string() == (
        "# tau = -1 encodes omega (never informed); donor = -1 encodes open-loop\n"
        "k,node,tau1,tau2,tau3,donor1,donor2,donor3,z0,z1,z2\n"
        "0,1,0,-1,-1,-1,-1,-1,0.5,-1.25,3.0\n"
        "0,2,-1,-1,-1,-1,-1,-1,0.0,2.0,0.1\n"
        "0,3,-1,-1,0,-1,-1,-1,0.0,0.0,-0.0\n"
        "1,1,0,-1,1,-1,-1,3,1e-20,0.3,-2.5\n"
        "1,2,1,-1,1,1,-1,3,4.0,1.5,7.0\n"
        "1,3,1,-1,0,1,-1,-1,0.5,-1.25,1e-300\n")


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


def test_envelope_violations_keep_their_order():
    trace = run_scenario(random_scenario(seed=7))
    t_bar = (trace.n_nodes - 1) * trace.period_t
    assert (2 * trace.n_nodes - 1) * t_bar == 20
    for i, j, k in [(1, 3, 25), (2, 1, 30), (1, 1, 30), (1, 1, 2)]:
        trace.err_block[k, i - 1, j - 1] = 1e6
    for i, k in [(3, 40), (1, 40), (2, 35), (2, 19)]:
        trace.err_total[k, i - 1] = 1e6
    # Substates in (substate, k, node) order, then the total in (k, node)
    # order; k = 2 and k = 19 fall before their envelopes start.  Mending
    # each counterexample in turn walks the violations in that order.
    expected = [(1, 1, 30), (2, 1, 30), (1, 3, 25), (2, 0, 35), (1, 0, 40), (3, 0, 40)]
    for m, (i, j, k) in enumerate(expected):
        assert check_envelope(trace) == {"passed": False, "violations": len(expected) - m,
                                         "counterexample": (i, j, k)}
        if j:
            trace.err_block[k, i - 1, j - 1] = 0.0
        else:
            trace.err_total[k, i - 1] = 0.0
    assert check_envelope(trace)["passed"]


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

    for j in trace.substates:
        for i in range(1, n_nodes + 1):
            for k in range(trigger, horizon + 1):
                tau = trace.taus[k, i - 1, j - 1]
                if i != j and tau < 0:
                    note("indices_finite", (i, j, k))
                if i != j and tau > ceiling:
                    note("delay_ceiling", (i, j, k))
    for k in range(horizon + 1):
        for j in trace.substates:
            for i in range(1, n_nodes + 1):
                if i == j or k == 0:
                    # A source keeps index 0; at time 0 no one else is informed.
                    tau, donor = (0 if i == j else -1), -1
                else:
                    own = int(trace.taus[k - 1, i - 1, j - 1])
                    heard = {l: int(trace.taus[k - 1, l - 1, j - 1])
                             for l in range(1, n_nodes + 1)
                             if trace.adjacency[k - 1, l - 1, i - 1]}
                    donor = select_donor(own, heard)
                    held = heard[donor] if donor > 0 else own
                    tau = held + 1 if held >= 0 else -1
                if trace.taus[k, i - 1, j - 1] != tau:
                    note("indices_match_graph", (i, j, k))
                if trace.donors[k, i - 1, j - 1] != donor:
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
        k, i, j = (int(rng.integers(0, trace.horizon + 1)), int(rng.integers(0, n_nodes)),
                   int(rng.integers(0, n_nodes)))
        if rng.random() < 0.5:
            trace.taus[k, i, j] = rng.integers(-1, ceiling + 3)
        else:
            trace.donors[k, i, j] = rng.integers(-1, n_nodes + 1)
    report = check_lemma_suite(trace)
    found = {name: report["checks"][name].get("counterexample")
             for name in reference_lemma_faults(trace)}
    assert found == reference_lemma_faults(trace)
    assert report["passed"] == all(v is None for v in found.values())
    # The chunk length moves no counterexample.
    for chunk in (1, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "CHUNK_ROUNDS", chunk)
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
        j = trace.substates[rng.integers(0, len(trace.substates))] - 1
        old = trace.taus[k, i, j]
        trace.taus[k, i, j] = max(-1, old + rng.choice([-2, -1, 1, 2]))
        if trace.taus[k, i, j] != old:
            tampered = (i + 1, j + 1, k)
    resid = _delayed_residuals(trace, ts)
    # The chunk length moves no bit: chunks of one round, chunks that do
    # and do not divide the horizon, and one chunk longer than it.
    for chunk in (1, 3, 5, trace.horizon + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "CHUNK_ROUNDS", chunk)
            assert np.array_equal(_delayed_residuals(trace, ts), resid)
    checks = check_lemma_suite(trace, check_delayed=True)["checks"]
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


def _usable(tau, adjacency):
    """[i, l, j]: node l+1 may be node i+1's donor for substate j+1 by the rule."""
    nbr, own = tau[None, :, :], tau[:, None, :]
    return adjacency.T[:, :, None] & (nbr >= 0) & ((own < 0) | (nbr < own))


class _ChoiceKernel(ProtocolKernel):
    """A faulty kernel that adopts the usable donor ``choose`` names instead
    of the freshest: the real step over each substate's chosen edges only."""

    def step(self, tau, z, adjacency, y):
        pick = self.choose(tau, _usable(tau, adjacency))   # 0-based, -1 for none
        new_tau, new_z, donors = np.empty_like(tau), np.empty_like(z), np.empty_like(tau)
        for j in range(tau.shape[1]):
            chosen = np.zeros_like(adjacency)
            has = pick[:, j] >= 0
            chosen[pick[has, j], np.flatnonzero(has)] = True
            tau_j, z_j, donors_j = super().step(tau, z, chosen, y)
            cols = self._col_block == j
            new_tau[:, j], donors[:, j] = tau_j[:, j], donors_j[:, j]
            new_z[:, cols] = z_j[:, cols]
        return new_tau, new_z, donors


def _stalest(tau, usable):
    return np.where(usable.any(axis=1), np.where(usable, tau[None], -1).argmax(axis=1), -1)


class StalestRelayKernel(_ChoiceKernel):
    """The source when it is a usable in-neighbour, else the stalest usable relay."""

    def choose(self, tau, usable):
        pick = _stalest(tau, usable)
        src = self.sources
        pick[:, src] = np.where(usable[:, src, src], src, pick[:, src])
        return pick


class StalestAnyKernel(_ChoiceKernel):
    """The stalest usable in-neighbour, the source included."""

    def choose(self, tau, usable):
        return _stalest(tau, usable)


class SourceOnlyKernel(_ChoiceKernel):
    """The source when it is a usable in-neighbour, else no one."""

    def choose(self, tau, usable):
        pick = np.full_like(tau, -1)
        src = self.sources
        pick[:, src] = np.where(usable[:, src, src], src, -1)
        return pick


class OpenLoopKeepsIndexKernel(ProtocolKernel):
    """An informed node that runs open-loop keeps its index."""

    def step(self, tau, z, adjacency, y):
        new_tau, new_z, donors = super().step(tau, z, adjacency, y)
        return np.where((donors < 0) & (tau >= 0), tau, new_tau), new_z, donors


class AdoptionAddsTwoKernel(ProtocolKernel):
    """An adopted index is the donor's + 2."""

    def step(self, tau, z, adjacency, y):
        new_tau, new_z, donors = super().step(tau, z, adjacency, y)
        return np.where(donors > 0, new_tau + 1, new_tau), new_z, donors


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
