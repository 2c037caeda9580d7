import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as hst

from freshtrack.decomposition import (
    DecompositionError,
    staircase_transform,
    to_transformed_coords,
)
from freshtrack.gain_design import design_gains
from freshtrack.graph_seq import (
    PeriodicGraphSequence,
    edge_tensor,
    generate_random_jointly_connected,
)
from freshtrack.observer_protocol import ProtocolKernel
from freshtrack.scenarios import make_multiblock_plant
from freshtrack.sim_engine import Scenario, error_norms, run_scenario
from freshtrack.system_model import LtiPlant, simulate_truth
from reference import (
    ArgminKernel,
    check_delayed_form,
    couple_substates,
    nonsource_step,
    run_passes,
    run_steps,
    select_donor,
    source_step,
)


def scalar_setup(rho=0.5):
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    # With three node slots the first block's envelope radius is 0.625 * rho,
    # so invert that to make it the requested rho; the closed loop sits at
    # 0.75 of it.
    gains = design_gains(ts, rho=rho / 0.625)
    return plant, ts, gains


def start_state(ts, z0=None):
    """A run's start (tau, z): each source's own index 0, every other -1, and
    ``z0``'s per-node n-vectors in transformed coordinates (default zeros)."""
    sources = np.flatnonzero(np.asarray(ts.block_dims) > 0)
    tau = np.full((ts.n_nodes, sources.size), -1)
    tau[sources, np.arange(sources.size)] = 0
    return tau, np.zeros((ts.n_nodes, ts.n)) if z0 is None else np.array(z0, dtype=float)


def test_init_states_scalar_example():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    graph = PeriodicGraphSequence(edge_tensor(3, [[(1, 2), (2, 3)]]), period_t=1)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.5, horizon=1))
    assert trace.taus[0].tolist() == [[0], [-1], [-1]]


def test_init_states_single_node():
    plant = LtiPlant([[0.5]], [[[1.0]]], [1.0])
    graph = PeriodicGraphSequence(edge_tensor(1, [[]]), period_t=1)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.5, horizon=1))
    assert trace.taus[0].tolist() == [[0]]


def test_init_states_zero_estimates():
    plant = make_multiblock_plant((1, 1, 1, 1), seed=3)
    graph = generate_random_jointly_connected(4, 2, seed=3)
    trace = run_scenario(Scenario(plant=plant, graph=graph, rho=0.5, horizon=1))
    ts, tau, z = trace.ts, trace.taus[0], trace.z_estimates[0]
    for i in range(4):
        for j in range(1, 5):
            assert np.allclose(z[i, ts.block_slice(j)], 0.0)
            assert (tau[i, j - 1] == 0) == (i + 1 == j)


def test_source_step_zero_error_fixed_point():
    plant, ts, gains = scalar_setup()
    # Estimate equal to truth: next estimate must be next truth (error stays 0).
    _, z = start_state(ts, [np.array([5.0]) * ts.t_matrix[0, 0]] * 3)
    sign = ts.t_matrix[0, 0]
    y = np.array([5.0])  # C_1 x with x = 5
    new = source_step(1, z[0], y, ts, gains)
    assert np.allclose(new * sign, 10.0)


def test_source_step_error_contraction():
    plant, ts, gains = scalar_setup(rho=0.5)
    l = gains.gain(1)[0, 0]
    a, c = ts.a_block(1, 1)[0, 0], ts.c_block(1, 1)[0, 0]
    # Scalar error recursion: e+ = (a - l c) e.
    assert abs(a - l * c) == pytest.approx(0.375, abs=1e-12)


def test_select_donor_untriggered_takes_min_finite():
    assert select_donor(-1, {2: -1, 3: 3, 4: 5}) == 3


def test_select_donor_strict_inequality():
    assert select_donor(2, {2: 2, 3: 3}) == -1


def test_select_donor_prefers_source():
    assert select_donor(5, {1: 0, 4: 1}) == 1


def test_select_donor_tie_breaks_smallest_id():
    assert select_donor(-1, {5: 2, 3: 2}) == 3


def test_nonsource_step_adopt():
    plant, ts, gains = scalar_setup()
    tau, z = start_state(ts, [np.array([7.0]), np.zeros(1), np.zeros(1)])
    donor_est = z[0, ts.block_slice(1)]
    new_tau, est = nonsource_step(1, z[1], tau[1, 0], z[0], tau[0, 0], ts)
    assert new_tau == 1
    assert np.allclose(est, 2.0 * donor_est)


def test_nonsource_step_open_loop_untriggered():
    plant, ts, gains = scalar_setup()
    tau, z = start_state(ts, [np.zeros(1), np.array([3.0]), np.zeros(1)])
    new_tau, est = nonsource_step(1, z[1], tau[1, 0], None, -1, ts)
    assert new_tau == -1
    assert np.allclose(est, 2.0 * z[1, ts.block_slice(1)])


def test_nonsource_step_open_loop_increments_index():
    plant, ts, gains = scalar_setup()
    tau, z = start_state(ts)
    tau[1, 0] = 4
    z[1, ts.block_slice(1)] = 1.5
    new_tau, est = nonsource_step(1, z[1], tau[1, 0], None, -1, ts)
    assert new_tau == 5
    assert np.allclose(est, 3.0)


def kernel_round(kernel, tau, z, adj, meas):
    """One round of the kernel's passes; ``meas`` lists each node's
    measurement, node 1 first.  Returns the new (tau, z) and the donors."""
    outputs = np.concatenate([meas[j] for j in kernel.sources])
    taus, donors, zs = run_passes(kernel, tau, z, adj[None], outputs[None], 1)
    return taus[1], zs[1], donors[1]


def test_round_scalar_example_first_step():
    # Round 0 on the 1->2->3 chain: node 2 adopts node 1, node 3 has only an
    # uninformed neighbor and stays never-informed.
    plant, ts, gains = scalar_setup()
    tau, z = start_state(ts)
    adj = edge_tensor(3, [[(1, 2), (2, 3)]])[0]
    states = simulate_truth(plant, 1)
    ys = [states @ c.T for c in plant.sensors]
    meas = [m[0] for m in ys]
    tau, z, donors = kernel_round(ProtocolKernel(ts, gains), tau, z, adj, meas)
    assert tau[0, 0] == 0
    assert tau[1, 0] == 1
    assert donors[1, 0] == 1
    assert tau[2, 0] == -1
    assert donors[2, 0] == -1


def test_round_closed_under_perfection():
    plant = make_multiblock_plant((2, 1, 1), seed=5)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.8, seed=1)
    horizon = 6
    states = simulate_truth(plant, horizon)
    ys = [states @ c.T for c in plant.sensors]
    z_truth = [to_transformed_coords(x, ts) for x in states]
    # Exact estimates, all indices finite.
    subs = [j for j in range(3) if ts.block_dims[j] > 0]
    tau, z = start_state(ts, [z_truth[0]] * 3)
    tau[:, subs] = 1
    tau[subs, subs] = 0
    adj = edge_tensor(3, [[(1, 2), (2, 3), (3, 1)]])[0]
    kernel = ProtocolKernel(ts, gains)
    for k in range(horizon):
        meas = [m[k] for m in ys]
        tau, z, _ = kernel_round(kernel, tau, z, adj, meas)
        for i in range(3):
            for j in subs:
                cols = ts.block_slice(j + 1)
                err = z[i, cols] - z_truth[k + 1][cols]
                assert np.linalg.norm(err) < 1e-9


def substates(ts):
    """The 1-indexed nonempty blocks: substate j's column is its place here."""
    return [j for j in range(1, ts.n_nodes + 1) if ts.block_dims[j - 1] > 0]


def reference_round(tau, z, adj, meas, ts, gains):
    """Straight-line reading of the update rules over the (tau, z) arrays,
    kept independent of the production implementation.

    ``meas`` lists each node's measurement, node 1 first.  Returns the new
    (tau, z) and the donors, -1 for open-loop rounds.  Column c of tau and
    the donors is the c-th nonempty block.
    """
    n_nodes = tau.shape[0]
    new_tau, new_z = tau.copy(), z.copy()
    donors = np.full_like(tau, -1)
    for i in range(n_nodes):
        for c, j in enumerate(substates(ts)):
            cols = ts.block_slice(j)
            a_jj = ts.a_block(j, j)
            cross = np.zeros(a_jj.shape[0])
            for q in range(1, j):
                if ts.block_dims[q - 1] > 0:
                    cross = cross + ts.a_block(j, q) @ z[i, ts.block_slice(q)]
            if i + 1 == j:
                l = gains.gain(j)
                val = (a_jj - l @ ts.c_block(j, j)) @ z[i, cols]
                for q in range(1, j):
                    if ts.block_dims[q - 1] > 0:
                        val = val + (ts.a_block(j, q) - l @ ts.c_block(j, q)) @ z[
                            i, ts.block_slice(q)]
                new_tau[i, c] = 0
                new_z[i, cols] = val + l @ np.atleast_1d(meas[i])
                continue
            own = tau[i, c]
            m_set = [l for l in range(n_nodes) if adj[l, i] and tau[l, c] >= 0]
            if own < 0:
                candidates = m_set
            else:
                candidates = [l for l in m_set if tau[l, c] < own]
            if candidates:
                best = min(tau[l, c] for l in candidates)
                u = min(l for l in candidates if tau[l, c] == best)
                new_tau[i, c] = best + 1
                new_z[i, cols] = a_jj @ z[u, cols] + cross
                donors[i, c] = u + 1
            else:
                new_z[i, cols] = a_jj @ z[i, cols] + cross
                new_tau[i, c] = -1 if own < 0 else own + 1
    return new_tau, new_z, donors


def per_node_round(tau, z, adj, meas, ts, gains):
    """The update rules composed from select_donor/source_step/nonsource_step,
    one (node, substate) pair at a time, over start-of-round (tau, z)."""
    n_nodes = tau.shape[0]
    new_tau, new_z = tau.copy(), z.copy()
    donors = np.full_like(tau, -1)
    for i in range(n_nodes):
        neighbors = [int(l) for l in np.flatnonzero(adj[:, i])]
        for c, j in enumerate(substates(ts)):
            cols = ts.block_slice(j)
            if i + 1 == j:
                new_tau[i, c] = 0
                new_z[i, cols] = source_step(j, z[i], meas[i], ts, gains)
                continue
            u = select_donor(tau[i, c], {l + 1: tau[l, c] for l in neighbors})
            donor_tau = -1 if u < 0 else tau[u - 1, c]
            new_tau[i, c], new_z[i, cols] = nonsource_step(
                j, z[i], tau[i, c], None if u < 0 else z[u - 1], donor_tau, ts)
            donors[i, c] = u
    return new_tau, new_z, donors


def estimate_tolerance(gains, scale):
    """Allowed estimate difference between two evaluation orders of a round.

    The kernel forms a source update as A z - L (C z - y), the per-node rules
    as (A - L C) z + L y; their rounding differs by about eps * |L| * |z|.
    """
    gain = max([1.0] + [float(np.max(np.abs(g))) for g in gains.gains if g.size])
    return 1e-12 * gain * max(1.0, scale)


def assert_states_match(state, ref_state, gains):
    """Equal indices and donors; estimates equal up to rounding.

    Each state is a (tau, z, donors) triple of arrays.
    """
    (tau, z, donors), (ref_tau, ref_z, ref_donors) = state, ref_state
    tol = estimate_tolerance(gains, float(np.max(np.abs(ref_z), initial=0.0)))
    assert np.array_equal(tau, ref_tau)
    assert np.array_equal(donors, ref_donors)
    assert np.max(np.abs(z - ref_z), initial=0.0) <= tol


def test_round_matches_reference_implementation():
    rng = np.random.default_rng(77)
    plant = make_multiblock_plant((2, 1, 1, 1), seed=8)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=4)
    states = simulate_truth(plant, 12)
    ys = [states @ c.T for c in plant.sensors]
    kernel = ProtocolKernel(ts, gains)
    tau, z = start_state(ts, [rng.standard_normal(plant.n) for _ in range(4)])
    ref_tau, ref_z = tau, z
    for k in range(12):
        edges = {(int(i), int(j)) for i, j in rng.integers(1, 5, size=(5, 2)) if i != j}
        adj = edge_tensor(4, [edges])[0]
        meas = [m[k] for m in ys]
        tau, z, donors = kernel_round(kernel, tau, z, adj, meas)
        ref_tau, ref_z, ref_donors = reference_round(ref_tau, ref_z, adj, meas, ts, gains)
        assert_states_match((tau, z, donors), (ref_tau, ref_z, ref_donors), gains)


@settings(max_examples=60)
@given(
    blocks=hst.lists(hst.integers(1, 3), min_size=1, max_size=10),
    blind=hst.lists(hst.integers(0, 10), max_size=2),
    density=hst.sampled_from([0.0, 0.2, 0.5, 1.0]),
    omega_share=hst.sampled_from([0.0, 0.5, 1.0]),
    tau_base=hst.sampled_from([0, 2**39]),
    seed=hst.integers(0, 2**16),
)
def test_round_matches_reference_on_random_states(blocks, blind, density,
                                                  omega_share, tau_base, seed):
    # Blind nodes (no sensor) get zero-dimension blocks wherever they sit.
    # Indices near 2**39 come close to the donor keys' range; a small spread
    # keeps ties.
    base = make_multiblock_plant(tuple(blocks), seed=seed)
    sensors = list(base.sensors)
    for pos in blind:
        sensors.insert(min(pos, len(sensors)), np.zeros((0, base.n)))
    plant = LtiPlant(base.a_matrix, sensors, base.x0)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=seed)
    n_nodes = plant.n_nodes
    rng = np.random.default_rng(seed)
    tau, z = start_state(ts, [rng.standard_normal(plant.n) for _ in range(n_nodes)])
    for i in range(n_nodes):
        for c, j in enumerate(substates(ts)):
            if i + 1 != j and rng.random() >= omega_share:
                tau[i, c] = tau_base + int(rng.integers(0, 7))
    states = simulate_truth(plant, 3)
    ys = [states @ c.T for c in plant.sensors]
    kernel, argmin = ProtocolKernel(ts, gains), ArgminKernel(ts, gains)
    ref_tau, ref_z = tau, z
    for k in range(3):
        mask = rng.random((n_nodes, n_nodes)) < density
        adj = mask & ~np.eye(n_nodes, dtype=bool)
        meas = [m[k] for m in ys]
        # The per-node rules of tests/reference.py, from the same start state.
        rules = per_node_round(tau, z, adj, meas, ts, gains)
        pinned = kernel_round(argmin, tau, z, adj, meas)
        tau, z, donors = kernel_round(kernel, tau, z, adj, meas)
        assert np.array_equal(tau, pinned[0]) and np.array_equal(donors, pinned[2])
        assert np.array_equal(z.view(np.int64), pinned[1].view(np.int64))
        ref_tau, ref_z, ref_donors = reference_round(ref_tau, ref_z, adj, meas, ts, gains)
        assert_states_match((tau, z, donors), (ref_tau, ref_z, ref_donors), gains)
        assert_states_match((tau, z, donors), rules, gains)


@settings(max_examples=60)
@given(
    blocks=hst.lists(hst.integers(1, 3), min_size=1, max_size=10),
    blind=hst.lists(hst.integers(0, 10), max_size=2),
    coupling=hst.sampled_from([0.0, 0.5]),
    density=hst.sampled_from([0.0, 0.2, 0.5, 1.0]),
    omega_share=hst.sampled_from([0.0, 0.5, 1.0]),
    tau_base=hst.sampled_from([0, 2**39]),
    horizon=hst.integers(0, 40),
    chunk=hst.sampled_from([1, 3, 32]),
    seed=hst.integers(0, 2**16),
)
def test_passes_equal_the_round_by_round_step(blocks, blind, coupling, density,
                                              omega_share, tau_base, horizon, chunk, seed):
    # Whole runs of the index and estimate passes against StepKernel.step
    # looped round by round, from random states (sources included) over
    # random graphs and outputs: the same bits for every chunk length.
    base = make_multiblock_plant(tuple(blocks), seed=seed)
    sensors = list(base.sensors)
    for pos in blind:
        sensors.insert(min(pos, len(sensors)), np.zeros((0, base.n)))
    plant = LtiPlant(base.a_matrix, sensors, base.x0)
    try:
        ts = staircase_transform(couple_substates(plant, coupling, seed))
    except DecompositionError:
        if not coupling:
            raise
        # A few coupled plants are refused; test_decomposition pins that.
        reject()
    gains = design_gains(ts, rho=0.7, seed=seed)
    n_nodes = plant.n_nodes
    rng = np.random.default_rng(seed)
    tau, z = start_state(ts, rng.standard_normal((n_nodes, plant.n)))
    informed = rng.random(tau.shape) >= omega_share
    tau[informed] = tau_base + rng.integers(0, 7, size=np.count_nonzero(informed))
    mask = rng.random((horizon, n_nodes, n_nodes)) < density
    adjacency = mask & ~np.eye(n_nodes, dtype=bool)
    kernel = ProtocolKernel(ts, gains)
    n_outputs = sum(len(plant.sensors[j]) for j in kernel.sources)
    outputs = rng.standard_normal((horizon, n_outputs))
    expected = run_steps(tau, z, adjacency, outputs, ts, gains)
    got = run_passes(kernel, tau, z, adjacency, outputs, chunk)
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2].view(np.int64), expected[2].view(np.int64))


def assert_run_matches_per_node_rules(plant, graph, horizon, kw):
    """``run_scenario``'s indices, donors, estimates and error norms equal the
    per-node rules of tests/reference.py, round by round, from the same start."""
    trace = run_scenario(Scenario(plant=plant, graph=graph, horizon=horizon, seed=4, **kw))
    ts, gains, n_nodes = trace.ts, trace.gains, plant.n_nodes
    states = simulate_truth(plant, trace.horizon)
    ys = [states @ c.T for c in plant.sensors]
    init = kw.get("initial_estimates")
    tau, z = start_state(ts, None if init is None else
                         [to_transformed_coords(x, ts) for x in init])
    tol = estimate_tolerance(gains, float(np.max(np.abs(trace.z_estimates))))
    err_block = error_norms(trace.z_estimates, trace.truth, trace.block_dims)[0]
    assert trace.taus.shape == trace.donors.shape == (horizon + 1, n_nodes,
                                                      len(trace.substates))
    for k in range(trace.horizon + 1):
        if k:
            meas = [m[k - 1] for m in ys]
            tau, z, donors = per_node_round(tau, z, trace.adjacency[k - 1], meas, ts,
                                            gains)
        z_truth = to_transformed_coords(states[k], ts)
        for i in range(n_nodes):
            for c, j in enumerate(trace.substates):
                cols = ts.block_slice(j)
                assert trace.taus[k, i, c] == tau[i, c]
                if k:
                    assert trace.donors[k, i, c] == donors[i, c]
                assert np.max(np.abs(trace.z_estimates[k, i, cols] - z[i, cols])) <= tol
                err = np.linalg.norm(z[i, cols] - z_truth[cols])
                assert abs(err_block[k, i, c] - err) <= 2 * tol


@pytest.mark.parametrize("fig1,kw", [
    (False, dict(rho=0.8)),
    (False, dict(rho=None)),
    (False, dict(rho=0.6, initial_estimates="random")),
    (True, dict(rho=0.6)),
])
def test_run_matches_per_node_rules(fig1, kw):
    if fig1:
        # Substates 2 and 3 have dimension zero.
        plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
        graph = PeriodicGraphSequence(
            edge_tensor(3, [[(1, 2), (2, 3)], [(1, 3), (3, 2)]]), period_t=2)
    else:
        plant = make_multiblock_plant((2, 1, 1), seed=31)
        graph = generate_random_jointly_connected(3, 2, seed=32)
    if kw.get("initial_estimates") == "random":
        rng = np.random.default_rng(33)
        kw = dict(kw, initial_estimates=[rng.standard_normal(plant.n) for _ in range(3)])
    assert_run_matches_per_node_rules(plant, graph, 30, kw)


@pytest.mark.parametrize("kw", [dict(rho=0.8), dict(rho=None)])
def test_run_feeds_only_the_sources_outputs(kw):
    # Node 2 measures x1, which node 1's block already holds, so its block is
    # empty: its sensor row is no source's, and node 3 is a later source.  A
    # run that fed node 2's output in node 3's place still passes the lemmas
    # and, in spectral mode, the envelope.
    plant = LtiPlant([[0.5, 0.3, 0.0], [0.0, 0.9, 0.0], [0.2, 0.0, 0.8]],
                     [[[1.0, 0.0, 0.0]], [[2.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]],
                     [1.0, -1.0, 0.5])
    graph = PeriodicGraphSequence(
        edge_tensor(3, [[(1, 2), (2, 3)], [(3, 1), (1, 3), (3, 2)]]), period_t=2)
    assert staircase_transform(plant).block_dims == (2, 0, 1)
    assert_run_matches_per_node_rules(plant, graph, 60, kw)


def _delayed_form_scenario(seed, block_sizes=(2, 1, 1)):
    plant = make_multiblock_plant(block_sizes, seed=seed)
    from freshtrack.graph_seq import generate_random_jointly_connected
    graph = generate_random_jointly_connected(plant.n_nodes, 2, seed=seed + 1)
    s = Scenario(plant=plant, graph=graph, rho=0.8, horizon=40, seed=seed)
    return run_scenario(s), plant


def test_delayed_form_first_substate_closed_form():
    # For the leading substate the identity has no cross terms: the error of
    # any informed node equals A_11^tau times the source's error tau rounds ago.
    trace, plant = _delayed_form_scenario(seed=101)
    ts = trace.ts
    a_11 = ts.a_block(1, 1)
    truth = simulate_truth(plant, trace.horizon)
    z_truth = [to_transformed_coords(x, ts) for x in truth]
    checked = 0
    cols = ts.block_slice(1)
    for k in range(1, trace.horizon + 1):
        for i in range(2, trace.n_nodes + 1):
            tau = trace.taus[k, i - 1, 0]
            if tau < 0 or k - tau < 0:
                continue
            e_i = trace.z_estimates[k, i - 1, cols] - z_truth[k][cols]
            e_src = trace.z_estimates[k - tau, 0, cols] - z_truth[k - tau][cols]
            rhs = np.linalg.matrix_power(a_11, tau) @ e_src
            assert np.linalg.norm(e_i - rhs) <= 1e-8 * max(1.0, np.linalg.norm(e_i))
            checked += 1
    assert checked > 0


def test_delayed_form_residuals_via_lineage():
    trace, _ = _delayed_form_scenario(seed=55)
    ts = trace.ts
    checked = 0
    for k in range(1, trace.horizon + 1):
        for j in trace.substates:
            for i in range(1, trace.n_nodes + 1):
                tau = trace.taus[k, i - 1, j - 1]
                if i == j or tau < 0 or k - tau < 0:
                    continue
                res = check_delayed_form(trace, ts, j, k, i)
                assert res <= 1e-8, (i, j, k, res)
                checked += 1
    assert checked > 50


def test_delayed_form_source_is_trivial():
    trace, _ = _delayed_form_scenario(seed=56)
    assert check_delayed_form(trace, trace.ts, 1, 5, 1) == 0.0
