import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from freshtrack.decomposition import staircase_transform, to_transformed_coords
from freshtrack.gain_design import design_gains
from freshtrack.graph_seq import (
    Digraph,
    PeriodicGraphSequence,
    generate_random_jointly_connected,
)
from freshtrack.observer_protocol import (
    OMEGA,
    OPEN_LOOP,
    check_delayed_form,
    init_states,
    nonsource_step,
    protocol_round,
    select_donor,
    source_step,
)
from freshtrack.scenarios import make_multiblock_plant
from freshtrack.sim_engine import Scenario, run_scenario
from freshtrack.system_model import LtiPlant, simulate_truth


def scalar_setup(rho=0.5):
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    # With three node slots the first block's radius is 0.625 * rho, so invert
    # that to hit the requested closed-loop radius exactly.
    gains = design_gains(ts, rho=rho / 0.625)
    return plant, ts, gains


def test_init_states_scalar_example():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    states = init_states(ts)
    assert states[0].taus[1] == 0
    assert states[1].taus[1] is OMEGA
    assert states[2].taus[1] is OMEGA


def test_init_states_single_node():
    plant = LtiPlant([[0.5]], [[[1.0]]], [1.0])
    ts = staircase_transform(plant)
    (state,) = init_states(ts)
    assert state.taus[1] == 0


def test_init_states_zero_estimates():
    plant = make_multiblock_plant((1, 1, 1, 1), seed=3)
    ts = staircase_transform(plant)
    states = init_states(ts)
    for st in states:
        for j, z in st.estimates.items():
            assert np.allclose(z, 0.0)
            assert (st.taus[j] == 0) == (st.node_id == j)


def test_source_step_zero_error_fixed_point():
    plant, ts, gains = scalar_setup()
    # Estimate equal to truth: next estimate must be next truth (error stays 0).
    states = init_states(ts, [np.array([5.0]) * ts.t_matrix[0, 0]] * 3)
    sign = ts.t_matrix[0, 0]
    y = np.array([5.0])  # C_1 x with x = 5
    new = source_step(1, states[0], y, ts, gains)
    assert np.allclose(new * sign, 10.0)


def test_source_step_error_contraction():
    plant, ts, gains = scalar_setup(rho=0.5)
    l = gains.gain(1)[0, 0]
    a, c = ts.a_block(1, 1)[0, 0], ts.c_block(1, 1)[0, 0]
    # Scalar error recursion: e+ = (a - l c) e.
    assert abs(a - l * c) == pytest.approx(0.5, abs=1e-12)


def test_select_donor_untriggered_takes_min_finite():
    assert select_donor(OMEGA, {2: OMEGA, 3: 3, 4: 5}) == 3


def test_select_donor_strict_inequality():
    assert select_donor(2, {2: 2, 3: 3}) is None


def test_select_donor_prefers_source():
    assert select_donor(5, {1: 0, 4: 1}) == 1


def test_select_donor_tie_breaks_smallest_id():
    assert select_donor(OMEGA, {5: 2, 3: 2}) == 3


def test_nonsource_step_adopt():
    plant, ts, gains = scalar_setup()
    states = init_states(ts, [np.array([7.0]), np.zeros(1), np.zeros(1)])
    donor_est = states[0].estimates[1]
    tau, est = nonsource_step(1, states[1], (1, 0), donor_est, ts)
    assert tau == 1
    assert np.allclose(est, 2.0 * donor_est)


def test_nonsource_step_open_loop_untriggered():
    plant, ts, gains = scalar_setup()
    states = init_states(ts, [np.zeros(1), np.array([3.0]), np.zeros(1)])
    tau, est = nonsource_step(1, states[1], None, None, ts)
    assert tau is OMEGA
    assert np.allclose(est, 2.0 * states[1].estimates[1])


def test_nonsource_step_open_loop_increments_index():
    plant, ts, gains = scalar_setup()
    states = init_states(ts)
    states[1].taus[1] = 4
    states[1].estimates[1] = np.array([1.5])
    tau, est = nonsource_step(1, states[1], None, None, ts)
    assert tau == 5
    assert np.allclose(est, 3.0)


def test_round_scalar_example_first_step():
    # Round 0 on the 1->2->3 chain: node 2 adopts node 1, node 3 has only an
    # uninformed neighbor and stays never-informed.
    plant, ts, gains = scalar_setup()
    states = init_states(ts)
    graph = Digraph(3, [(1, 2), (2, 3)])
    traj = simulate_truth(plant, 1)
    meas = {i: traj.measurement(i, 0) for i in (1, 2, 3)}
    new = protocol_round(states, graph, meas, ts, gains)
    assert new[0].taus[1] == 0
    assert new[1].taus[1] == 1
    assert new[1].last_donor[1] == 1
    assert new[2].taus[1] is OMEGA
    assert new[2].last_donor[1] is None


def test_round_closed_under_perfection():
    plant = make_multiblock_plant((2, 1, 1), seed=5)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.8, seed=1)
    horizon = 6
    traj = simulate_truth(plant, horizon)
    z_truth = [to_transformed_coords(x, ts) for x in traj.states]
    # Exact estimates, all indices finite.
    states = init_states(ts)
    for st in states:
        for j in st.taus:
            st.taus[j] = 0 if st.node_id == j else 1
        for j in st.estimates:
            st.estimates[j] = z_truth[0][ts.block_slice(j)].copy()
    graph = Digraph(3, [(1, 2), (2, 3), (3, 1)])
    for k in range(horizon):
        meas = {i: traj.measurement(i, k) for i in (1, 2, 3)}
        states = protocol_round(states, graph, meas, ts, gains)
        for st in states:
            for j in st.estimates:
                err = st.estimates[j] - z_truth[k + 1][ts.block_slice(j)]
                assert np.linalg.norm(err) < 1e-9


def reference_round(states, graph, meas, ts, gains):
    """Straight-line reading of the update rules, kept independent of the
    production implementation."""
    old = {s.node_id: s for s in states}
    n_nodes = len(states)
    out = []
    for i in range(1, n_nodes + 1):
        st = old[i]
        new_taus, new_ests, new_donors = {}, {}, {}
        for j in st.estimates:
            a_jj = ts.a_block(j, j)
            cross = np.zeros(a_jj.shape[0])
            for q in range(1, j):
                if ts.block_dims[q - 1] > 0:
                    cross = cross + ts.a_block(j, q) @ st.estimates[q]
            if i == j:
                l = gains.gain(j)
                val = (a_jj - l @ ts.c_block(j, j)) @ st.estimates[j]
                for q in range(1, j):
                    if ts.block_dims[q - 1] > 0:
                        val = val + (ts.a_block(j, q) - l @ ts.c_block(j, q)) @ st.estimates[q]
                val = val + l @ np.atleast_1d(meas[i])
                new_taus[j], new_ests[j], new_donors[j] = 0, val, OPEN_LOOP
                continue
            neigh = [l for l in range(1, n_nodes + 1)
                     if graph.adj[l - 1, i - 1]]
            m_set = [l for l in neigh if old[l].taus[j] is not OMEGA]
            if st.taus[j] is OMEGA:
                candidates = m_set
            else:
                candidates = [l for l in m_set if old[l].taus[j] < st.taus[j]]
            if candidates:
                best = min(old[l].taus[j] for l in candidates)
                u = min(l for l in candidates if old[l].taus[j] == best)
                new_taus[j] = old[u].taus[j] + 1
                new_ests[j] = a_jj @ old[u].estimates[j] + cross
                new_donors[j] = u
            else:
                new_ests[j] = a_jj @ st.estimates[j] + cross
                new_taus[j] = OMEGA if st.taus[j] is OMEGA else st.taus[j] + 1
                new_donors[j] = OPEN_LOOP
        ns = st.snapshot()
        ns.taus, ns.estimates, ns.last_donor = new_taus, new_ests, new_donors
        out.append(ns)
    return out


def per_node_round(states, adj, meas, ts, gains):
    """The update rules composed from select_donor/source_step/nonsource_step,
    one (node, substate) pair at a time."""
    snapshots = {s.node_id: s for s in states}
    new_states = []
    for state in states:
        i = state.node_id
        neighbors = [int(l) + 1 for l in np.flatnonzero(adj[:, i - 1])]
        new = state.snapshot()
        new.last_donor = {}
        for j in sorted(state.estimates):
            if i == j:
                new.taus[j] = 0
                new.estimates[j] = source_step(j, state, meas[i], ts, gains)
                new.last_donor[j] = OPEN_LOOP
                continue
            u = select_donor(state.taus[j], {l: snapshots[l].taus[j] for l in neighbors})
            donor = None if u is None else (u, snapshots[u].taus[j])
            new.taus[j], new.estimates[j] = nonsource_step(
                j, state, donor, None if u is None else snapshots[u].estimates[j], ts)
            new.last_donor[j] = OPEN_LOOP if u is None else u
        new_states.append(new)
    return new_states


def estimate_tolerance(gains, scale):
    """Allowed estimate difference between two evaluation orders of a round.

    The kernel forms a source update as A z - L (C z - y), the per-node rules
    as (A - L C) z + L y; their rounding differs by about eps * |L| * |z|.
    """
    gain = max([1.0] + [float(np.max(np.abs(g))) for g in gains.gains if g.size])
    return 1e-12 * gain * max(1.0, scale)


def assert_states_match(states, ref_states, gains):
    """Equal indices and donors; estimates equal up to rounding."""
    tol = estimate_tolerance(gains, max(
        [0.0] + [float(np.max(np.abs(z))) for r in ref_states for z in r.estimates.values()]))
    for s, r in zip(states, ref_states):
        assert s.node_id == r.node_id
        assert s.taus == r.taus
        assert s.last_donor == r.last_donor
        assert s.estimates.keys() == r.estimates.keys()
        for j in s.estimates:
            assert np.max(np.abs(s.estimates[j] - r.estimates[j]), initial=0.0) <= tol


def test_round_matches_reference_implementation():
    rng = np.random.default_rng(77)
    plant = make_multiblock_plant((2, 1, 1, 1), seed=8)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=4)
    traj = simulate_truth(plant, 12)
    states = init_states(ts, [rng.standard_normal(plant.n) for _ in range(4)])
    ref_states = [s.snapshot() for s in states]
    for k in range(12):
        edges = {(int(i), int(j)) for i, j in rng.integers(1, 5, size=(5, 2)) if i != j}
        graph = Digraph(4, edges)
        meas = {i: traj.measurement(i, k) for i in range(1, 5)}
        states = protocol_round(states, graph, meas, ts, gains)
        ref_states = reference_round(ref_states, graph, meas, ts, gains)
        assert_states_match(states, ref_states, gains)


@settings(max_examples=60, deadline=None)
@given(
    blocks=hst.lists(hst.integers(1, 3), min_size=1, max_size=5),
    blind=hst.lists(hst.integers(0, 5), max_size=2),
    density=hst.sampled_from([0.0, 0.2, 0.5, 1.0]),
    omega_share=hst.sampled_from([0.0, 0.5, 1.0]),
    seed=hst.integers(0, 2**16),
)
def test_round_matches_reference_on_random_states(blocks, blind, density,
                                                  omega_share, seed):
    # Blind nodes (no sensor) get zero-dimension blocks wherever they sit.
    base = make_multiblock_plant(tuple(blocks), seed=seed)
    sensors = list(base.sensors)
    for pos in blind:
        sensors.insert(min(pos, len(sensors)), np.zeros((0, base.n)))
    plant = LtiPlant(base.a_matrix, sensors, base.x0)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=seed)
    n_nodes = plant.n_nodes
    rng = np.random.default_rng(seed)
    states = init_states(ts, [rng.standard_normal(plant.n) for _ in range(n_nodes)])
    for st in states:
        for j in st.taus:
            if st.node_id != j and rng.random() >= omega_share:
                st.taus[j] = int(rng.integers(0, 7))
    traj = simulate_truth(plant, 3)
    ref_states = [s.snapshot() for s in states]
    for k in range(3):
        mask = rng.random((n_nodes, n_nodes)) < density
        graph = Digraph(n_nodes, [(a + 1, b + 1) for a, b in zip(*np.nonzero(mask))])
        meas = {i: traj.measurement(i, k) for i in range(1, n_nodes + 1)}
        states = protocol_round(states, graph, meas, ts, gains)
        ref_states = reference_round(ref_states, graph, meas, ts, gains)
        assert_states_match(states, ref_states, gains)


@pytest.mark.parametrize("fig1,kw", [
    (False, dict(rho=0.8)),
    (False, dict(deadbeat=True)),
    (False, dict(rho=0.6, initial_estimates="random")),
    (True, dict(rho=0.6)),
])
def test_run_matches_per_node_rules(fig1, kw):
    if fig1:
        # Substates 2 and 3 have dimension zero.
        plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
        graph = PeriodicGraphSequence(
            [Digraph(3, [(1, 2), (2, 3)]), Digraph(3, [(1, 3), (3, 2)])], period_t=2)
    else:
        plant = make_multiblock_plant((2, 1, 1), seed=31)
        graph = generate_random_jointly_connected(3, 2, seed=32)
    if kw.get("initial_estimates") == "random":
        rng = np.random.default_rng(33)
        kw = dict(kw, initial_estimates=[rng.standard_normal(plant.n) for _ in range(3)])
    trace = run_scenario(Scenario(plant=plant, graph=graph, horizon=30, seed=4, **kw))
    ts, gains = trace.ts, trace.gains
    traj = simulate_truth(plant, trace.horizon)
    init = kw.get("initial_estimates")
    states = init_states(ts, None if init is None else
                         [to_transformed_coords(x, ts) for x in init])
    tol = estimate_tolerance(gains, float(np.max(np.abs(trace.z_estimates))))
    empty = [j - 1 for j in range(1, 4) if j not in trace.substates]
    assert np.all(trace.taus[:, :, empty] == -1)
    assert np.all(trace.donors[:, :, empty] == -1)
    for k in range(trace.horizon + 1):
        if k:
            meas = {i: traj.measurement(i, k - 1) for i in (1, 2, 3)}
            states = per_node_round(states, trace.adjacency[k - 1], meas, ts, gains)
        z_truth = to_transformed_coords(traj.states[k], ts)
        for st in states:
            i = st.node_id
            for j in trace.substates:
                assert trace.tau(k, i, j) == st.taus[j]
                if k:
                    assert trace.donor(k - 1, i, j) == st.last_donor[j]
                assert np.max(np.abs(trace.estimate(k, i, j) - st.estimates[j])) <= tol
                err = np.linalg.norm(st.estimates[j] - z_truth[ts.block_slice(j)])
                assert abs(trace.err_block[k, i - 1, j - 1] - err) <= 2 * tol


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
    z_truth = [to_transformed_coords(x, ts) for x in truth.states]
    checked = 0
    for k in range(1, trace.horizon + 1):
        for i in range(2, trace.n_nodes + 1):
            tau = trace.tau(k, i, 1)
            if tau is OMEGA or k - tau < 0:
                continue
            e_i = trace.estimate(k, i, 1) - z_truth[k][ts.block_slice(1)]
            e_src = (trace.estimate(k - tau, 1, 1)
                     - z_truth[k - tau][ts.block_slice(1)])
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
                tau = trace.tau(k, i, j)
                if i == j or tau is OMEGA or k - tau < 0:
                    continue
                res = check_delayed_form(trace, ts, j, k, i)
                assert res <= 1e-8, (i, j, k, res)
                checked += 1
    assert checked > 50


def test_delayed_form_source_is_trivial():
    trace, _ = _delayed_form_scenario(seed=56)
    assert check_delayed_form(trace, trace.ts, 1, 5, 1) == 0.0
