import dataclasses

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hst

from freshtrack import sim_engine
from freshtrack.baselines import WeightStrategy, detect_divergence
from freshtrack.cli import build_scenario
from freshtrack.gain_design import closed_loop_block
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
    fit_decay_rate,
    run_scenario,
)
from freshtrack.system_model import DecompositionError, LtiPlant, simulate_truth
from reference import check_delayed_form, couple_substates


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
    assert trace.max_error()[-1] < 1e-6
    report = check_envelope(trace)
    assert report["passed"]
    assert report["violations"] == []


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
    report = check_envelope(trace)
    assert not report["passed"]
    assert (2, j, k) in report["violations"]


@pytest.mark.parametrize("field", ["c_bar", "err_block", "err_total"])
def test_envelope_fails_on_nan(field):
    # NaN compares False both ways: a NaN bound or error is a violation.
    trace = run_scenario(build_scenario(canned_scenarios()["random_jsc_theorem1"]))
    assert check_envelope(trace)["passed"]
    k = trace.horizon
    if field == "c_bar":
        c_bar = trace.constants.c_bar.copy()
        c_bar[2] = np.nan
        trace.constants = dataclasses.replace(trace.constants, c_bar=c_bar)
        expected = [(1, 3, k), (1, 0, k)]
    elif field == "err_block":
        trace.err_block[k, 1, 2] = np.nan
        expected = [(2, 3, k)]
    else:
        trace.err_total[k, 1] = np.nan
        expected = [(2, 0, k)]
    report = check_envelope(trace)
    assert not report["passed"]
    assert set(expected) <= set(report["violations"])


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
    for name in ("indices_finite", "delay_ceiling", "index_step_bound",
                 "source_pinned", "source_preferred"):
        assert report["checks"][name]["passed"]


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
    k, j, i = sends[3]
    assert report["checks"]["source_preferred"] == {
        "passed": False, "counterexample": (i, j, k)}


def test_lemma_suite_reports_first_source_pinned_violation():
    trace = run_scenario(random_scenario(seed=7))
    trace.taus[30, 2, 2] = 1
    trace.taus[40, 0, 0] = 2
    report = check_lemma_suite(trace)
    # The first in (substate, k) order, not the last source tampered.
    assert report["checks"]["source_pinned"] == {
        "passed": False, "counterexample": (1, 1, 40)}


def test_envelope_violations_keep_their_order():
    trace = run_scenario(random_scenario(seed=7))
    t_bar = (trace.n_nodes - 1) * trace.period_t
    assert (2 * trace.n_nodes - 1) * t_bar == 20
    for i, j, k in [(1, 3, 25), (2, 1, 30), (1, 1, 30), (1, 1, 2)]:
        trace.err_block[k, i - 1, j - 1] = 1e6
    for i, k in [(3, 40), (1, 40), (2, 35), (2, 19)]:
        trace.err_total[k, i - 1] = 1e6
    # Substates in (substate, k, node) order, then the total in (k, node)
    # order; k = 2 and k = 19 fall before their envelopes start.
    assert check_envelope(trace)["violations"] == [
        (1, 1, 30), (2, 1, 30), (1, 3, 25), (2, 0, 35), (1, 0, 40), (3, 0, 40)]


def reference_lemma_faults(trace):
    """First counterexample of each lemma check, by straight-line loops over
    (substate, node, k), and over (k, substate, node) for donor selection."""
    n_nodes, horizon = trace.n_nodes, trace.horizon
    trigger = (n_nodes - 1) * trace.period_t
    ceiling = 2 * trigger
    faults = dict.fromkeys(("indices_finite", "delay_ceiling", "index_step_bound",
                            "source_pinned", "source_preferred"))

    def note(name, at):
        if faults[name] is None:
            faults[name] = at

    for j in trace.substates:
        for i in range(1, n_nodes + 1):
            for k in range(horizon + 1):
                tau = trace.taus[k, i - 1, j - 1]
                if i == j:
                    if tau != 0:
                        note("source_pinned", (i, j, k))
                    continue
                if k >= trigger and tau < 0:
                    note("indices_finite", (i, j, k))
                if k >= trigger and tau > ceiling:
                    note("delay_ceiling", (i, j, k))
                if k < horizon and tau >= 0 and trace.taus[k + 1, i - 1, j - 1] > tau + 1:
                    note("index_step_bound", (i, j, k))
    for k in range(horizon):
        for j in trace.substates:
            for i in range(1, n_nodes + 1):
                if (i != j and trace.adjacency[k, j - 1, i - 1]
                        and trace.donors[k + 1, i - 1, j - 1] != j):
                    note("source_preferred", (i, j, k))
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
    if tamper == "estimate":
        # One estimate entry off by one: both evaluations read the same
        # recorded estimates, so they must still agree point by point.
        k, i, col = (rng.integers(0, trace.horizon + 1), rng.integers(0, plant.n_nodes),
                     rng.integers(0, ts.n))
        trace.z_estimates[k, i, col] += 1.0
    elif tamper == "tau":
        # One index shifted off its lineage's length (or onto it, by chance).
        k, i = rng.integers(1, trace.horizon + 1), rng.integers(0, plant.n_nodes)
        j = trace.substates[rng.integers(0, len(trace.substates))] - 1
        trace.taus[k, i, j] = max(-1, trace.taus[k, i, j] + rng.choice([-2, -1, 1, 2]))
    resid = _delayed_residuals(trace, ts)
    # The chunk length moves no bit: chunks of one round, chunks that do
    # and do not divide the horizon, and one chunk longer than it.
    for chunk in (1, 3, 5, trace.horizon + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim_engine, "DELAYED_CHUNK", chunk)
            assert np.array_equal(_delayed_residuals(trace, ts), resid, equal_nan=True)
    refs = []
    for k in range(1, trace.horizon + 1):
        for c, j in enumerate(trace.substates):
            for i in range(1, plant.n_nodes + 1):
                try:
                    ref = check_delayed_form(trace, ts, j, k, i)
                except ValueError:
                    ref = np.nan
                if np.isnan(ref):
                    assert np.isnan(resid[k - 1, i - 1, c]), (i, j, k)
                else:
                    assert abs(resid[k - 1, i - 1, c] - ref) <= 1e-12, (i, j, k)
                refs.append(ref)
    worst = np.max(refs, initial=0.0)                # NaN if any point raised
    entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert entry["passed"] == (worst <= 1e-8)
    if np.isnan(worst):
        assert np.isnan(entry["max_residual"])
    else:
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


def test_delayed_check_fails_lineage_from_uninformed_node():
    trace = relay_trace()
    # Round 0: node 2 adopts source 1; claim it adopted node 3, never informed.
    assert trace.donors[1, 1, 0] == 1 and trace.taus[0, 2, 0] == -1
    trace.donors[1, 1, 0] = 3
    with pytest.raises(ValueError, match="does not reach the source"):
        check_delayed_form(trace, trace.ts, 1, 1, 2)
    entry = check_lemma_suite(trace, check_delayed=True)["checks"]["delayed_form"]
    assert not entry["passed"]
    assert np.isnan(entry["max_residual"])
    assert entry["at"] == (2, 1, 1)


@pytest.mark.parametrize("defect", ["open_loop_keeps_index", "adoption_adds_two"])
def test_delayed_check_fails_index_off_its_lineage(defect):
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
    # Neither defect moves an index by more than one step, so only the
    # delayed identity sees it.
    assert all(entry["passed"] for name, entry in report["checks"].items()
               if name != "delayed_form")
    entry = report["checks"]["delayed_form"]
    assert not entry["passed"]
    assert np.isnan(entry["max_residual"])
    assert entry["at"] == expected
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
