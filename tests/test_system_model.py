import numpy as np
import pytest

from freshtrack.system_model import (
    ConfigurationError,
    DecompositionError,
    LtiPlant,
    is_jointly_observable,
    observability_staircase,
    simulate_truth,
)
from krylov import krylov_rank


def scalar_three_node_plant():
    # Unstable scalar plant measured only by node 1; nodes 2 and 3 are blind.
    return LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])


def test_simulate_truth_scalar_doubling():
    traj = simulate_truth(scalar_three_node_plant(), 3)
    assert np.allclose(traj.ravel(), [1, 2, 4, 8])


def test_simulate_truth_identity_is_constant():
    plant = LtiPlant(np.eye(2), [np.eye(2)], [3.0, -1.0])
    traj = simulate_truth(plant, 5)
    assert np.allclose(traj, np.tile([3.0, -1.0], (6, 1)))


def test_simulate_truth_matches_repeated_multiplication():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    x0 = rng.standard_normal(4)
    plant = LtiPlant(a, [rng.standard_normal((2, 4))], x0)
    traj = simulate_truth(plant, 12)

    x = x0.copy()
    for k in range(13):
        assert np.allclose(traj[k], x, rtol=1e-12, atol=1e-12)
        x = a @ x


def test_simulate_truth_is_deterministic():
    plant = LtiPlant(np.random.default_rng(0).standard_normal((3, 3)),
                     [np.eye(3)], [1.0, 2.0, 3.0])
    t1 = simulate_truth(plant, 10)
    t2 = simulate_truth(plant, 10)
    assert np.array_equal(t1, t2)


def test_simulate_truth_refuses_an_overflowing_state():
    # 2^1024 is past float64's largest value.
    with pytest.raises(ConfigurationError, match=r"overflows float64 at k = 1024 "):
        simulate_truth(scalar_three_node_plant(), 1100)
    assert simulate_truth(scalar_three_node_plant(), 1023)[-1, 0] == 2.0 ** 1023


def test_dimension_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        LtiPlant([[1.0, 0.0], [0.0, 1.0]], [np.eye(2)], [1.0])
    with pytest.raises(ConfigurationError):
        LtiPlant([[1.0]], [[[1.0, 2.0]]], [1.0])


def test_joint_observability_scalar_example():
    assert is_jointly_observable(scalar_three_node_plant())


def test_identity_single_coordinate_not_observable():
    plant = LtiPlant(np.eye(2), [[[1.0, 0.0]]], [0.0, 0.0])
    assert not is_jointly_observable(plant)


def test_observable_by_similarity_construction():
    # Observer canonical form is observable; similarity preserves that.
    rng = np.random.default_rng(11)
    n = 4
    a_canon = np.diag(np.ones(n - 1), -1)
    a_canon[:, -1] = rng.standard_normal(n)
    c_canon = np.zeros((1, n))
    c_canon[0, -1] = 1.0
    t = rng.standard_normal((n, n))
    assert np.linalg.cond(t) < 1e3
    plant = LtiPlant(np.linalg.solve(t, a_canon @ t), [c_canon @ t],
                     rng.standard_normal(n))
    assert is_jointly_observable(plant)


def test_observability_invariant_under_similarity():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((2, n))
        plant = LtiPlant(a, [c], np.zeros(n))
        while True:
            t = rng.standard_normal((n, n))
            if np.linalg.cond(t) < 1e3:
                break
        transformed = LtiPlant(np.linalg.solve(t, a @ t), [c @ t], np.zeros(n))
        assert is_jointly_observable(plant) == is_jointly_observable(transformed)


def unobservable_pair(rng, n_seen, n_hidden, r):
    """(A, C) with an n_hidden-dim unobservable part, hidden by a rotation."""
    n = n_seen + n_hidden
    a = np.zeros((n, n))
    a[:n_seen, :n_seen] = rng.standard_normal((n_seen, n_seen))
    a[n_seen:, :] = rng.standard_normal((n_hidden, n))
    c = np.zeros((r, n))
    c[:, :n_seen] = rng.standard_normal((r, n_seen))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ a @ q.T, c @ q.T


def test_staircase_bases_split_the_space():
    rng = np.random.default_rng(8)
    a, c = unobservable_pair(rng, 3, 2, 1)
    observed, unobserved = observability_staircase(a, c)
    assert (observed.shape[1], unobserved.shape[1]) == (3, 2)
    t = np.hstack([observed, unobserved])
    assert np.linalg.norm(t.T @ t - np.eye(5)) <= 1e-12 * 5
    # The unobserved span is A-invariant and inside ker C.
    assert np.linalg.norm(observed.T @ a @ unobserved) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(c @ unobserved) <= 1e-12 * np.linalg.norm(c)


def test_staircase_verdict_matches_krylov_on_small_pairs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, 3))
        a, c = rng.standard_normal((n, n)), rng.standard_normal((r, n))
        observed, _ = observability_staircase(a, c)
        assert observed.shape[1] == krylov_rank(a, c) == n
    for _ in range(100):
        n_seen = int(rng.integers(0, 6))
        n_hidden = int(rng.integers(1, 9 - max(n_seen, 1)))
        r = int(rng.integers(1, 3))
        a, c = unobservable_pair(rng, n_seen, n_hidden, r)
        observed, _ = observability_staircase(a, c)
        assert observed.shape[1] == n_seen
        assert krylov_rank(a, c) < a.shape[0]
    # Repeated eigenvalues: one output sees one direction of a scaled identity.
    for n in range(2, 9):
        a, c = 0.7 * np.eye(n), rng.standard_normal((1, n))
        observed, _ = observability_staircase(a, c)
        assert observed.shape[1] == krylov_rank(a, c) == 1


@pytest.mark.parametrize("coupling,seen", [(1e-14, 1), (1e-13, None), (1e-11, 2)])
def test_staircase_rank_decision_needs_a_clear_gap(coupling, seen):
    # The second step's value is the coupling over ||A||, against a rounding
    # estimate of 4 eps: residue up to 100x that, a direction above 1000x,
    # and no decision in between.
    a = np.array([[0.5, coupling], [0.0, 0.5]])
    c = np.array([[1.0, 0.0]])
    if seen is None:
        with pytest.raises(DecompositionError, match="no clear gap"):
            observability_staircase(a, c)
    else:
        assert observability_staircase(a, c)[0].shape[1] == seen


@pytest.mark.parametrize("n,radius", [(20, 0.3), (24, 0.3), (48, 0.9)])
def test_single_output_pairs_are_observable_beyond_toy_size(n, radius):
    # The stacked powers C A^k lose these directions at this size.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a *= radius / np.max(np.abs(np.linalg.eigvals(a)))
        plant = LtiPlant(a, [rng.standard_normal((1, n))], np.zeros(n))
        assert is_jointly_observable(plant)
