import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from freshtrack.baselines import WeightStrategy, mixing_weights
from freshtrack.graph_seq import (
    RANDOM_EXTRA_EDGES,
    PeriodicGraphSequence,
    certify_joint_strong_connectivity,
    certify_jointly_rooted,
    edge_tensor,
    generate_random_jointly_connected,
    hops,
    window_unions,
)

FIG1 = PeriodicGraphSequence(edge_tensor(3, [[(1, 2), (2, 3)], [(1, 3), (3, 2)]]),
                             period_t=2)


def edges(adj):
    """1-indexed edge set of an N x N adjacency."""
    return {(int(i) + 1, int(j) + 1) for i, j in np.argwhere(adj)}


def union(seq, k1, k2):
    """Union of the graphs of rounds k1..k2 inclusive, as one window."""
    return window_unions(seq.adjacency(k2 + 1)[k1:], k2 - k1 + 1)[0]


def strongly_connected(adj):
    return certify_joint_strong_connectivity(adj[None])


def reach(adj, src):
    """Nodes reachable from 1-indexed ``src``: the per-window DFS oracle."""
    out = {v: [] for v in range(1, len(adj) + 1)}
    for a, b in edges(adj):
        out[a].append(b)
    seen, stack = {src}, [src]
    while stack:
        for b in out[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def test_union_graph_fig1_window():
    assert edges(union(FIG1, 0, 1)) == {(1, 2), (2, 3), (1, 3), (3, 2)}


def test_union_of_static_graph_is_itself():
    g = edge_tensor(4, [[(1, 2), (2, 3), (3, 4), (4, 1)]])
    seq = PeriodicGraphSequence(g, period_t=1)
    assert np.array_equal(union(seq, 0, 5), g[0])


def test_union_matches_fold_of_sets():
    rng = np.random.default_rng(2)
    graphs = edge_tensor(4, [
        {(int(i), int(j)) for i, j in rng.integers(1, 5, size=(6, 2)) if i != j}
        for _ in range(3)])
    seq = PeriodicGraphSequence(graphs, period_t=3)
    expected = set()
    for k in range(2, 8):
        expected |= edges(graphs[k % 3])
    assert edges(union(seq, 2, 7)) == expected


def test_union_window_monotone():
    for k2 in range(2, 8):
        smaller = edges(union(FIG1, 0, k2 - 1))
        larger = edges(union(FIG1, 0, k2))
        assert smaller <= larger


def test_window_unions_drop_incomplete_window():
    adj = FIG1.adjacency(5)
    unions = window_unions(adj, 2)
    assert unions.shape == (2, 3, 3)
    assert np.array_equal(unions[1], adj[2] | adj[3])


def test_two_cycle_strongly_connected():
    assert strongly_connected(edge_tensor(2, [[(1, 2), (2, 1)]])[0])


def test_chain_not_strongly_connected():
    assert not strongly_connected(edge_tensor(3, [[(1, 2), (2, 3)]])[0])


def test_scc_matches_pairwise_reachability():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        # Random tournament: one direction per unordered pair.
        es = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                es.add((i, j) if rng.random() < 0.5 else (j, i))
        adj = edge_tensor(n, [es])[0]
        oracle = all(len(reach(adj, v)) == n for v in range(1, n + 1))
        assert strongly_connected(adj) == oracle


@settings(max_examples=200)
@given(adj=st.tuples(st.integers(1, 5), st.integers(0, 9)).flatmap(
           lambda s: arrays(bool, (s[1], s[0], s[0]))),
       t=st.integers(1, 4), data=st.data())
def test_certification_matches_per_window_dfs(adj, t, data):
    # Random tensors, empty graphs and N=1 included; T need not divide H.
    n = adj.shape[1]
    adj = adj & ~np.eye(n, dtype=bool)
    unions = window_unions(adj, t)
    windows = [adj[w * t:(w + 1) * t].any(axis=0) for w in range(len(adj) // t)]
    assert np.array_equal(unions, np.array(windows).reshape(-1, n, n))
    strong = all(len(reach(u, v)) == n for u in windows for v in range(1, n + 1))
    assert certify_joint_strong_connectivity(unions) == strong
    root = data.draw(st.integers(1, n))
    assert certify_jointly_rooted(unions, root) == all(len(reach(u, root)) == n
                                                       for u in windows)


@settings(max_examples=300)
@given(n=st.integers(1, 12), n_graphs=st.integers(0, 20), density=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_hops_searches_equal_scipy_csgraph(n, n_graphs, density, seed, data):
    # Random stacks from empty (density 0) to complete (density 1).
    graphs = np.random.default_rng(seed).random((n_graphs, n, n)) < density
    graphs &= ~np.eye(n, dtype=bool)
    root = data.draw(st.integers(1, n))
    assert (certify_joint_strong_connectivity(graphs)
            == reference.strongly_connected_windows(graphs))
    assert certify_jointly_rooted(graphs, root) == reference.rooted_windows(graphs, root)
    assert np.array_equal(mixing_weights(graphs, WeightStrategy("tree_rooted", root)),
                          reference.tree_parent_weights(graphs, root))
    for reverse in (False, True):
        levels = hops(graphs, root, reverse=reverse)
        assert levels.shape == (n_graphs, n)
        for g, level in zip(graphs, levels):
            assert set(np.flatnonzero(level >= 0) + 1) == reach(g.T if reverse else g, root)


def test_hops_counts_levels_on_a_chain():
    chain = edge_tensor(4, [[(1, 2), (2, 3), (3, 4)]])
    assert hops(chain, 2).tolist() == [[-1, 0, 1, 2]]
    assert hops(chain, 2, reverse=True).tolist() == [[1, 0, -1, -1]]


def test_certify_ring_revealed_one_edge_per_step():
    n = 4
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    seq = PeriodicGraphSequence(edge_tensor(n, [[e] for e in ring]), period_t=n)
    assert certify_joint_strong_connectivity(window_unions(seq.adjacency(4 * n), n))


def test_fig1_not_jointly_strongly_connected():
    # Window union is rooted at node 1, but 2 and 3 never reach back.
    unions = window_unions(FIG1.adjacency(10), 2)
    assert not certify_joint_strong_connectivity(unions)
    assert certify_jointly_rooted(unions, root=1)


def test_static_strongly_connected_t1():
    seq = PeriodicGraphSequence(edge_tensor(3, [[(1, 2), (2, 3), (3, 1)]]), period_t=1)
    assert certify_joint_strong_connectivity(window_unions(seq.adjacency(7), 1))


def test_chain_rootedness():
    seq = PeriodicGraphSequence(edge_tensor(3, [[(1, 2), (2, 3)]]), period_t=1)
    unions = window_unions(seq.adjacency(5), 1)
    assert certify_jointly_rooted(unions, root=1)
    assert not certify_jointly_rooted(unions, root=3)


def test_random_sequence_t1_every_graph_strongly_connected():
    seq = generate_random_jointly_connected(3, 1, seed=4)
    for adj in seq.adjacency(20):
        assert strongly_connected(adj)


def test_random_sequence_certifies():
    seq = generate_random_jointly_connected(5, 3, seed=7)
    assert certify_joint_strong_connectivity(window_unions(seq.adjacency(300), 3))


def test_random_sequence_deterministic():
    s1 = generate_random_jointly_connected(4, 2, seed=9)
    s2 = generate_random_jointly_connected(4, 2, seed=9)
    assert np.array_equal(s1.adjacency(40), s2.adjacency(40))


def test_random_access_matches_sequential_access():
    # A round's graph does not depend on how many rounds are asked for.
    seq = generate_random_jointly_connected(4, 3, seed=12)
    late = seq.adjacency(26)[25]
    assert np.array_equal(seq.adjacency(30)[25], late)
    assert np.array_equal(seq.adjacency(25 + 3 * 7)[25], late)


def test_random_sequence_windows_pinned():
    # Edges drawn from the uniform rows of seed 12, N=4, T=3.
    adj = generate_random_jointly_connected(4, 3, seed=12).adjacency(30)
    assert [sorted(edges(a)) for a in adj[:6]] == [
        [(2, 4), (3, 1)], [(4, 3)], [(1, 2), (3, 2)],
        [(1, 2), (2, 3)], [], [(1, 3), (3, 4), (4, 1)]]
    assert [sorted(edges(a)) for a in adj[27:]] == [
        [(1, 4), (4, 1)], [(3, 2)], [(2, 1), (4, 3)]]


def scalar_draw_adjacency(n, t, seed, horizon):
    """The random sequence built one edge at a time from the same uniform
    rows: the reference for the generator's scatters.  Row w holds window
    w's cycle keys (N), its cycle edges' slots (N), its extra edges' slots
    (E), senders (E) and receivers (E); a self-loop is never stored."""
    e = RANDOM_EXTRA_EDGES
    n_windows = -(-horizon // t)
    rows = np.random.default_rng(seed).random((n_windows, 2 * n + 3 * e))
    adj = np.zeros((n_windows * t, n, n), dtype=bool)
    for w, row in enumerate(rows.tolist()):
        cycle = sorted(range(n), key=lambda i: row[i])
        ends = [(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        ends += [(int(row[2 * n + e + m] * n), int(row[2 * n + 2 * e + m] * n))
                 for m in range(e)]
        for (a, b), u in zip(ends, row[n:2 * n + e]):
            if a != b:
                adj[w * t + int(u * t), a, b] = True
    return adj[:horizon]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 16, 33])
@pytest.mark.parametrize("t", [1, 2, 3, 5])
def test_random_sequence_matches_scalar_draws(n, t):
    for seed in range(20):
        adj = generate_random_jointly_connected(n, t, seed=seed).adjacency(60)
        assert np.array_equal(adj, scalar_draw_adjacency(n, t, seed, 60)), seed


@settings(max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6), t=st.integers(1, 4))
def test_strong_connectivity_implies_rooted_everywhere(seed, n, t):
    seq = generate_random_jointly_connected(n, t, seed=seed)
    unions = window_unions(seq.adjacency(4 * t), t)
    assert certify_joint_strong_connectivity(unions)
    for root in range(1, n + 1):
        assert certify_jointly_rooted(unions, root)


def test_no_self_loops_stored():
    cycle = edge_tensor(3, [[(1, 1), (1, 2)], [(2, 2)]])
    assert edges(cycle[0]) == {(1, 2)} and edges(cycle[1]) == set()
    # The sequence keeps its own read-only copy of the cycle.
    seq = PeriodicGraphSequence(cycle, period_t=1)
    assert not seq.cycle.flags.writeable
    cycle[0, 2, 0] = True
    assert edges(seq.adjacency(1)[0]) == {(1, 2)}


def test_periodic_sequence_refuses_an_empty_cycle():
    with pytest.raises(ValueError, match="at least one graph"):
        PeriodicGraphSequence(edge_tensor(3, []), period_t=1)


def test_edge_outside_node_range_rejected():
    for bad in [(0, 2), (1, 4)]:
        with pytest.raises(ValueError, match="outside node range"):
            edge_tensor(3, [[(1, 2), bad]])


@pytest.mark.parametrize("bad", [(1, 2, 3), (None, 2), (), "ab", (1.9, 2.2), ("1", "2"),
                                 (2.0, 3.0), (True, 2)])
def test_edge_that_is_not_a_pair_of_ids_rejected(bad):
    with pytest.raises(ValueError, match="pairs of node ids"):
        edge_tensor(3, [[(1, 2), bad]])


def test_in_neighbors_sorted():
    # A column of the adjacency lists a node's in-neighbors in id order.
    adj = edge_tensor(4, [[(3, 1), (2, 1), (4, 2)]])[0]
    assert list(np.flatnonzero(adj[:, 0]) + 1) == [2, 3]
    assert list(np.flatnonzero(adj[:, 3]) + 1) == []
