"""End-to-end acceptance suite.

Each test exercises one headline capability at its stated tolerance and prints
a single pass/fail line so the suite doubles as a human-readable scorecard.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from freshtrack.baselines import WeightStrategy
from freshtrack.cli import _execute
from freshtrack.decomposition import staircase_transform, to_transformed_coords
from freshtrack.gain_design import _place_stack, place_deadbeat
from freshtrack.graph_seq import (
    PeriodicGraphSequence,
    certify_joint_strong_connectivity,
    edge_tensor,
    generate_random_jointly_connected,
    window_unions,
)
from freshtrack.scenarios import (
    FIG1_EDGE_LISTS,
    canned_scenarios,
    make_multiblock_plant,
    make_random_plant,
)
from freshtrack.sim_engine import (
    Scenario,
    check_envelope,
    check_lemma_suite,
    run_scenario,
    total_errors,
)
from freshtrack.system_model import LtiPlant, simulate_truth
from krylov import krylov_rank
from reference import (
    block_pair_observable,
    couple_substates,
    fit_decay_rate,
    make_diagonal_plant,
    max_error,
    raw_products,
)


def report(name, passed):
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, name


def fig1_plant():
    return LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])


def fig1_graph():
    return PeriodicGraphSequence(edge_tensor(3, FIG1_EDGE_LISTS), period_t=2)


def random_jsc_setup():
    """n=5 plant over 4 nodes with a T=3 jointly strongly connected sequence."""
    plant = make_multiblock_plant((2, 1, 1, 1), seed=2024)
    graph = generate_random_jointly_connected(4, 3, seed=11)
    return plant, graph


def test_baseline_divergence_reproduction():
    ok = True
    start = time.perf_counter()
    for strategy in (WeightStrategy("uniform"), WeightStrategy("tree_rooted", root=1)):
        s = Scenario(plant=fig1_plant(), graph=fig1_graph(), strategy=strategy, horizon=100)
        trace = run_scenario(s)
        maxed = max_error(trace)
        ok &= bool(np.max(maxed) >= 1e6)
        windows = [np.max(maxed[k:k + 10]) for k in range(10, 91, 10)]
        ok &= all(w2 > w1 for w1, w2 in zip(windows, windows[1:]))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report("baseline divergence (both strategies, < 1 s)", ok)


def test_deadbeat_finite_time_bounds():
    start = time.perf_counter()
    ok = True

    # Scalar three-node scenario: exact convergence within 25 steps.
    s = Scenario(plant=fig1_plant(), graph=fig1_graph(), deadbeat=True, horizon=60)
    trace = run_scenario(s)
    ok &= bool(np.max(total_errors(trace, start=25)) <= 1e-9)

    # Random n=5, N=4, T=3 strongly connected scenario: bound 5 + 2*4*3*3 = 77.
    plant, graph = random_jsc_setup()
    assert certify_joint_strong_connectivity(window_unions(graph.adjacency(90), 3))
    s = Scenario(plant=plant, graph=graph, deadbeat=True, horizon=90, seed=7)
    trace = run_scenario(s)
    initial = float(np.max(total_errors(trace, stop=1)))
    ok &= bool(np.max(total_errors(trace, start=77)) <= 1e-6 * initial)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report("deadbeat finite-time convergence (< 5 s)", ok)


@pytest.mark.parametrize("rho,rate_cap", [(0.9, 0.92), (0.6, 0.62)])
def test_spectral_rate_control_and_envelopes(rho, rate_cap):
    start = time.perf_counter()
    plant, graph = random_jsc_setup()
    assert certify_joint_strong_connectivity(window_unions(graph.adjacency(300), 3))
    s = Scenario(plant=plant, graph=graph, rho=rho, horizon=300, seed=7)
    trace = run_scenario(s)
    assert not {"rooted_mode", "connectivity_uncertified"} & set(trace.warnings)

    # Fit from the point where every node is informed about every substate.
    rho_hat = fit_decay_rate(trace, 2 * (4 - 1) * 3)
    env = check_envelope(trace)
    elapsed = time.perf_counter() - start
    ok = rho_hat <= rate_cap and env["passed"] and elapsed < 30.0
    report(f"rate control rho={rho} (rho_hat={rho_hat:.3f} <= {rate_cap}, "
           "zero envelope violations, < 30 s)", ok)


def test_freshness_index_invariants_batch():
    start = time.perf_counter()
    ok = True
    combos = [(n, t) for n in (3, 4, 5) for t in (1, 2, 3)]
    for trial in range(100):
        n_nodes, t = combos[trial % len(combos)]
        plant = make_diagonal_plant(n_nodes, seed=3000 + trial)
        graph = generate_random_jointly_connected(n_nodes, t, seed=4000 + trial)
        horizon = 4 * (n_nodes - 1) * t + 8
        assert certify_joint_strong_connectivity(
            window_unions(graph.adjacency(horizon), t))
        s = Scenario(plant=plant, graph=graph, rho=0.8, horizon=horizon,
                     seed=trial)
        trace = run_scenario(s)
        rep = check_lemma_suite(trace)
        ok &= rep["passed"] and rep["mode"] == "strong"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report("index lemmas on 100 random strongly connected scenarios (< 2 min)", ok)


def test_delayed_error_identity_batch():
    ok = True
    # Ten of the plants couple the substates, so the identity's cross terms
    # along the donor lineages are not zero.
    cases = [(trial, 0.0) for trial in range(20)] + [(trial, 0.5) for trial in range(10)]
    for trial, coupling in cases:
        plant = make_multiblock_plant((2, 1, 1), seed=5000 + trial)
        if coupling:
            plant = couple_substates(plant, coupling, 5000 + trial)
        graph = generate_random_jointly_connected(3, 2, seed=6000 + trial)
        s = Scenario(plant=plant, graph=graph, rho=0.8, horizon=40, seed=trial)
        trace = run_scenario(s)
        rep = check_lemma_suite(trace, check_delayed=True)
        ok &= rep["checks"]["delayed_form"]["passed"]

        # Leading substate in closed form: the error of any informed node is
        # A_11^tau applied to the source error tau rounds earlier.
        ts = trace.ts
        a_11 = ts.a_block(1, 1)
        truth = simulate_truth(plant, trace.horizon)
        z_truth = [to_transformed_coords(x, ts) for x in truth]
        cols = ts.block_slice(1)
        for k in range(1, trace.horizon + 1):
            for i in range(2, trace.n_nodes + 1):
                tau = trace.taus[k, i - 1, 0]
                if tau < 0 or k - tau < 0:
                    continue
                e_i = trace.z_estimates[k, i - 1, cols] - z_truth[k][cols]
                e_src = trace.z_estimates[k - tau, 0, cols] - z_truth[k - tau][cols]
                rhs = np.linalg.matrix_power(a_11, tau) @ e_src
                ok &= bool(np.linalg.norm(e_i - rhs)
                           <= 1e-8 * max(1.0, np.linalg.norm(e_i)))
    report("delayed-error identity on 30 random scenarios, 10 coupled (residual <= 1e-8)",
           ok)


def test_staircase_decomposition_batch():
    rng = np.random.default_rng(600)
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 9))
        n_nodes = int(rng.integers(1, 6))
        plant = make_random_plant(n, n_nodes, seed=7000 + trial)
        ts = staircase_transform(plant)
        a = plant.a_matrix
        scale = max(np.linalg.norm(a), 1e-300)
        ok &= bool(np.linalg.norm(ts.t_matrix @ ts.a_bar - a @ ts.t_matrix)
                   <= 1e-9 * scale)
        ok &= sum(ts.block_dims) == n
        # The transform writes 0.0 above the blocks: the bare products, and
        # the residue of what it dropped, show whether T is a staircase.
        raw = raw_products(plant, ts.t_matrix, ts.block_dims)
        ok &= ts.residue <= 1e-9
        for j in range(1, n_nodes + 1):
            for q in range(j + 1, n_nodes + 1):
                ok &= bool(np.linalg.norm(raw.a_block(j, q)) <= 1e-9 * scale)
                ok &= bool(np.linalg.norm(raw.c_block(j, q)) <= 1e-9 * scale)
            if ts.block_dims[j - 1] > 0:
                ok &= block_pair_observable(ts, j)
    report("staircase decomposition invariants on 100 random plants", ok)


def test_gain_placement_batch():
    rng = np.random.default_rng(700)
    ok = True
    for trial in range(100):
        n = int(rng.integers(1, 6))
        r = int(rng.integers(1, 4))
        while True:
            a = rng.standard_normal((n, n))
            c = rng.standard_normal((r, n))
            if krylov_rank(a, c) == n:
                break
        rho = float(rng.uniform(0.3, 0.95))

        l_s = _place_stack(a[None], c[None], np.array([rho]), [trial])[0]
        cl = a - l_s @ c
        eigvals = np.linalg.eigvals(cl)
        targets = 0.75 * rho * np.exp(2j * np.pi * np.arange(n) / n)
        ok &= bool(np.max(np.min(np.abs(eigvals[:, None] - targets), axis=0)) <= 1e-6)

        # Empirical power envelope with the Lyapunov constant sqrt(cond(P)).
        alpha = np.sqrt(np.linalg.cond(solve_discrete_lyapunov((cl / rho).T, np.eye(n))))
        power = np.eye(n)
        for k in range(201):
            ok &= bool(np.linalg.norm(power, 2) <= alpha * rho ** k * (1 + 1e-9))
            power = cl @ power

        l_d = place_deadbeat(a, c)
        p = np.linalg.matrix_power(a - l_d @ c, n)
        ok &= bool(np.linalg.norm(p, 2)
                   <= 1e-8 * max(1.0, np.linalg.norm(a, 2)) ** n)
    report("gain placement on 100 random observable pairs", ok)


def test_deterministic_trace_output(tmp_path):
    ok = True
    for name, config in canned_scenarios().items():
        d1 = tmp_path / "a" / name
        d2 = tmp_path / "b" / name
        _execute(name, config, str(d1))
        _execute(name, config, str(d2))
        b1 = (d1 / f"{name}_trace.csv").read_bytes()
        b2 = (d2 / f"{name}_trace.csv").read_bytes()
        ok &= b1 == b2
    report("byte-identical traces for repeated seeded runs", ok)
