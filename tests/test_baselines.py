import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshtrack.baselines import (
    WeightStrategy,
    baseline_round,
    mixing_weights,
)
from freshtrack.graph_seq import PeriodicGraphSequence, edge_tensor
from freshtrack.scenarios import FIG1_EDGE_LISTS
from freshtrack.sim_engine import Scenario, check_divergence, run_scenario
from freshtrack.system_model import LtiPlant
from reference import max_error


def round_weights(g, node, strategy):
    """Node ``node``'s row of the mixing weights of the one-round tensor ``g``,
    as {node id: weight}."""
    row = mixing_weights(g, strategy)[0, node - 1]
    return {int(l) + 1: float(row[l]) for l in np.flatnonzero(row)}


def reference_parents(edges, n_nodes, root):
    """BFS tree over sorted frontiers: each node's parent is the first
    (smallest-id) node of the previous level that sends to it."""
    parents = {root: None}
    frontier = [root]
    while frontier:
        next_frontier = []
        for node in sorted(frontier):
            for child in sorted(j for i, j in edges if i == node):
                if child not in parents:
                    parents[child] = node
                    next_frontier.append(child)
        frontier = next_frontier
    return parents


def reference_round(estimates, edges, n_nodes, strategy, a, oracle_nodes, truth_k):
    """Per-node consensus round over {node id: estimate} dicts."""
    current = {i: (truth_k if i in oracle_nodes else estimates[i])
               for i in range(1, n_nodes + 1)}
    parents = (reference_parents(edges, n_nodes, strategy.root)
               if strategy.kind == "tree_rooted" else {})
    new = {}
    for i in current:
        if i in oracle_nodes:
            new[i] = a @ truth_k
            continue
        if strategy.kind == "uniform":
            pool = sorted(l for l, m in edges if m == i) + [i]
            weights = {l: 1.0 / len(pool) for l in pool}
        elif i == strategy.root or parents.get(i) is None:
            weights = {i: 1.0}
        else:
            weights = {parents[i]: 1.0}
        new[i] = a @ sum(w * current[l] for l, w in weights.items())
    return new


graphs = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n)))


def test_strategy_validation():
    with pytest.raises(ValueError):
        WeightStrategy("averaging")
    with pytest.raises(ValueError):
        WeightStrategy("tree_rooted")
    WeightStrategy("tree_rooted", root=1)


def test_uniform_weights_are_stochastic():
    g = edge_tensor(4, [[(1, 2), (3, 2), (4, 2)]])
    w = round_weights(g, 2, WeightStrategy("uniform"))
    assert set(w) == {1, 2, 3, 4}
    assert sum(w.values()) == pytest.approx(1.0)
    assert all(v == pytest.approx(0.25) for v in w.values())


def test_uniform_weights_isolated_node_self_only():
    g = edge_tensor(3, [[(1, 2)]])
    w = round_weights(g, 3, WeightStrategy("uniform"))
    assert w == {3: pytest.approx(1.0)}


def test_tree_weights_copy_parent():
    g = edge_tensor(3, [[(1, 2), (2, 3)]])
    strat = WeightStrategy("tree_rooted", root=1)
    assert round_weights(g, 2, strat) == {1: 1.0}
    assert round_weights(g, 3, strat) == {2: 1.0}
    assert round_weights(g, 1, strat) == {1: 1.0}


def test_tree_weights_unreachable_node_keeps_self():
    g = edge_tensor(3, [[(1, 2)]])
    strat = WeightStrategy("tree_rooted", root=1)
    assert round_weights(g, 3, strat) == {3: 1.0}


def test_tree_parent_tie_breaks_smallest_id():
    # Both 1 and 2 can parent 3; BFS explores smaller ids first.
    g = edge_tensor(3, [[(1, 2), (1, 3), (2, 3)]])
    strat = WeightStrategy("tree_rooted", root=1)
    assert round_weights(g, 3, strat) == {1: 1.0}


def test_uniform_round_hand_value():
    # Scalar a = 2, edge 1 -> 2: node 2 averages its neighbor and itself,
    # then applies the dynamics: 2 * (x1 + x2) / 2 = x1 + x2.
    g = edge_tensor(3, [[(1, 2)]])
    est = np.array([[5.0], [3.0], [1.0]])
    truth = np.array([5.0])
    weights = mixing_weights(g, WeightStrategy("uniform"))[0]
    new = baseline_round(est, weights, [[2.0]], np.array([True, False, False]), truth)
    assert new[1] == pytest.approx([8.0])
    assert new[2] == pytest.approx([2.0])
    assert new[0] == pytest.approx([10.0])


def test_round_exactness_preserved():
    # When every estimate already equals the truth, mixing cannot disturb it.
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 3))
    truth = rng.standard_normal(3)
    est = np.tile(truth, (3, 1))
    g = edge_tensor(3, [[(1, 2), (2, 3), (3, 1)]])
    weights = mixing_weights(g, WeightStrategy("uniform"))[0]
    new = baseline_round(est, weights, a, np.array([True, False, False]), truth)
    for i in range(3):
        assert np.allclose(new[i], a @ truth)


def test_oracle_clamped_before_mixing():
    # Node 2 copies node 1 through the tree; node 1's stale stored estimate
    # must be replaced with the truth before node 2 reads it.
    g = edge_tensor(2, [[(1, 2)]])
    est = np.array([[999.0], [0.0]])
    weights = mixing_weights(g, WeightStrategy("tree_rooted", root=1))[0]
    new = baseline_round(est, weights, [[1.0]], np.array([True, False]), np.array([7.0]))
    assert new[1] == pytest.approx([7.0])


@pytest.mark.parametrize("strategy", [
    WeightStrategy("uniform"),
    WeightStrategy("tree_rooted", root=1),
])
def test_alternating_graph_baseline_grows_monotonically(strategy):
    # The unstable scalar plant with alternating graphs: consensus mixing
    # cannot keep up and the worst-node error blows up steadily.
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    graph = PeriodicGraphSequence(edge_tensor(3, FIG1_EDGE_LISTS), period_t=2)
    s = Scenario(plant=plant, graph=graph, strategy=strategy, horizon=100,
                 initial_estimates=[[0.0], [0.0], [0.0]])
    trace = run_scenario(s)
    maxed = max_error(trace)
    window_maxes = [np.max(maxed[k:k + 10]) for k in range(10, 91, 10)]
    assert all(w2 > w1 for w1, w2 in zip(window_maxes, window_maxes[1:]))
    assert check_divergence(trace, 1e6, True)["diverged"]


@settings(max_examples=200)
@given(graph=graphs, data=st.data())
def test_tree_parents_match_bfs_reference(graph, data):
    # Several rounds at once: the BFS levels are computed over the whole tensor.
    n, edges = graph
    rounds = [edges] + data.draw(st.lists(
        st.sets(st.tuples(st.integers(1, n), st.integers(1, n))), max_size=3))
    root = data.draw(st.integers(1, n))
    strategy = WeightStrategy("tree_rooted", root=root)
    weights = mixing_weights(edge_tensor(n, rounds), strategy)
    for w, edges in zip(weights, rounds):
        parents = reference_parents({(i, j) for i, j in edges if i != j}, n, root)
        for node in range(1, n + 1):
            expected = parents.get(node) or node
            assert np.array_equal(w[node - 1], np.eye(n)[expected - 1])


@settings(max_examples=100)
@given(graph=graphs, data=st.data(), kind=st.sampled_from(["uniform", "tree_rooted"]))
def test_array_round_matches_per_node_rule(graph, data, kind):
    n, edges = graph
    g = edge_tensor(n, [edges])
    edges = {(i, j) for i, j in edges if i != j}
    dim = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((dim, dim))
    est = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    truth = rng.standard_normal(dim)
    oracle = rng.random(n) < 0.3
    strategy = WeightStrategy(kind, root=data.draw(st.integers(1, n)))
    weights = mixing_weights(g, strategy)[0]
    assert np.allclose(weights.sum(axis=1), 1.0)
    new = baseline_round(est, weights, a, oracle, truth)
    ref = reference_round({i + 1: est[i] for i in range(n)}, edges, n, strategy, a,
                          {i + 1 for i in np.flatnonzero(oracle)}, truth)
    # Relative to the operands: mixing in another order may cancel differently.
    scale = np.abs(a) @ np.max(np.abs(np.vstack([est, truth])), axis=0)
    for i in range(n):
        assert np.all(np.abs(new[i] - ref[i + 1]) <= 1e-12 * scale)
