import numpy as np
import pytest

from freshtrack.baselines import WeightStrategy, detect_divergence
from freshtrack.gain_design import closed_loop_block
from freshtrack.graph_seq import (
    Digraph,
    PeriodicGraphSequence,
    generate_random_jointly_connected,
)
from freshtrack.scenarios import FIG1_EDGE_LISTS, make_multiblock_plant
from freshtrack.sim_engine import (
    Scenario,
    Trace,
    check_envelope,
    check_lemma_suite,
    fit_decay_rate,
    run_scenario,
)
from freshtrack.system_model import LtiPlant, simulate_truth


def fig1_graph():
    return PeriodicGraphSequence(
        [Digraph(3, [tuple(e) for e in edges]) for edges in FIG1_EDGE_LISTS],
        period_t=2)


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
    graph = PeriodicGraphSequence([Digraph(1, [])], period_t=1)
    s = Scenario(plant=plant, graph=graph, rho=0.5, horizon=40, seed=3,
                 initial_estimates=[np.zeros(3)])
    trace = run_scenario(s)
    cl = closed_loop_block(trace.ts, trace.gains, 1)
    from freshtrack.decomposition import to_transformed_coords
    e = to_transformed_coords(-plant.x0, ts=trace.ts)
    truth = simulate_truth(plant, 40)
    for k in range(41):
        z_truth = to_transformed_coords(truth.states[k], trace.ts)
        err = trace.estimate(k, 1, 1) - z_truth
        assert np.linalg.norm(err - e) <= 1e-9 * max(1.0, np.linalg.norm(e))
        e = cl @ e
    assert trace.tau(17, 1, 1) == 0


def test_error_norms_are_pythagorean():
    trace = run_scenario(random_scenario(seed=41))
    for k in range(trace.horizon + 1):
        for i in range(1, trace.n_nodes + 1):
            total = trace.err_total[k, i - 1]
            blocks = np.sqrt(np.sum(trace.err_block[k, i - 1] ** 2))
            assert total == pytest.approx(blocks, rel=1e-10, abs=1e-12)


def test_fit_decay_rate_exact_geometric():
    trace = Trace("freshness", 2, 50, 1, (1, 1))
    ks = np.arange(51)
    trace.err_total = np.outer(3.0 * 0.5 ** ks, np.ones(2))
    assert fit_decay_rate(trace, 0) == pytest.approx(0.5, abs=1e-9)


def test_fit_decay_rate_requires_points_above_floor():
    trace = Trace("freshness", 1, 50, 1, (1,))
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


def test_envelope_detects_injected_fault():
    trace = run_scenario(random_scenario(seed=7))
    t_bar = trace.constants.t_bar
    j = trace.substates[-1]
    k = (2 * j - 1) * t_bar + 3
    bound = trace.constants.c_bar[j - 1] * trace.constants.radii[j - 1] ** k
    trace.err_block[k, 1, j - 1] = 2.0 * bound + 1.0
    report = check_envelope(trace)
    assert not report["passed"]
    assert (2, j, k) in report["violations"]


def test_envelope_requires_constants():
    trace = Trace("freshness", 2, 10, 1, (1, 1), rho=0.5)
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
    assert any("rooted-mode" in w for w in trace.warnings)
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
    assert header.startswith("k,node,substate,tau,donor,err_norm")


def test_trace_csv_format_pinned():
    trace = Trace("freshness", 2, 1, 1, (2, 1))
    trace.taus[:] = [[[0, -1], [-1, 0]], [[0, 1], [1, 0]]]
    trace.donors[1] = [[-1, 2], [1, -1]]
    trace.z_estimates[:] = [[[0.5, -1.25, 3.0], [0.0, 2.0, 0.1]],
                            [[1e-20, 0.3, -2.5], [4.0, 1.5, 7.0]]]
    trace.err_block[:] = [[[0.25, 1.5], [2.0, 0.0]], [[1e-17, 0.75], [3.0, 0.125]]]
    assert trace.to_csv_string() == (
        "# tau = -1 encodes omega (never informed); donor = -1 encodes open-loop\n"
        "k,node,substate,tau,donor,err_norm,z0,z1\n"
        "0,1,1,0,-1,0.25,0.5,-1.25\n"
        "0,1,2,-1,-1,1.5,3.0,nan\n"
        "0,2,1,-1,-1,2.0,0.0,2.0\n"
        "0,2,2,0,-1,0.0,0.1,nan\n"
        "1,1,1,0,-1,1e-17,1e-20,0.3\n"
        "1,1,2,1,2,0.75,-2.5,nan\n"
        "1,2,1,1,1,3.0,4.0,1.5\n"
        "1,2,2,0,-1,0.125,7.0,nan\n")


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
