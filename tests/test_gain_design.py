import numpy as np
import pytest

from freshtrack.decomposition import staircase_transform
from freshtrack.gain_design import (
    GainDesignError,
    choose_radii,
    closed_loop_block,
    compute_bound_constants,
    design_gains,
    place_deadbeat,
    place_spectral,
)
from freshtrack.scenarios import make_multiblock_plant
from freshtrack.system_model import (
    LtiPlant,
    default_rank_tol,
    numerical_rank,
    observability_matrix,
)


def random_observable_pair(rng, n, r):
    while True:
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((r, n))
        if numerical_rank(observability_matrix(a, c), default_rank_tol(n)) == n:
            return a, c


def test_choose_radii_single_block():
    assert choose_radii(0.9, 1) == pytest.approx([0.675])


def test_choose_radii_three_blocks():
    radii = choose_radii(0.8, 3)
    assert radii == pytest.approx([0.5, 0.6, 0.7])
    assert all(r1 < r2 for r1, r2 in zip(radii, radii[1:]))
    assert max(radii) < 0.8


def test_choose_radii_bounds():
    for rho in (0.1, 0.5, 0.99):
        for n in (1, 2, 6):
            radii = choose_radii(rho, n)
            assert max(radii) < rho
            assert min(radii) > 0


def test_place_spectral_scalar():
    l = place_spectral([[2.0]], [[1.0]], 0.5)
    assert np.allclose(l, [[1.5]])


def test_place_spectral_scalar_small_radius_approaches_deadbeat():
    l = place_spectral([[2.0]], [[1.0]], 1e-9)
    assert np.allclose(l, [[2.0]], atol=1e-8)


def test_place_spectral_random_single_output():
    rng = np.random.default_rng(17)
    a, c = random_observable_pair(rng, 3, 1)
    l = place_spectral(a, c, 0.8, seed=2)
    eigvals = np.linalg.eigvals(a - l @ c)
    assert np.max(np.abs(eigvals.imag)) < 1e-8
    real = np.sort(eigvals.real)
    assert np.min(np.diff(real)) > 1e-6 * 0.8
    assert abs(np.max(np.abs(eigvals)) - 0.8) < 1e-6


def test_place_spectral_deterministic():
    rng = np.random.default_rng(23)
    a, c = random_observable_pair(rng, 4, 2)
    l1 = place_spectral(a, c, 0.7, seed=5)
    l2 = place_spectral(a, c, 0.7, seed=5)
    assert np.array_equal(l1, l2)


def test_place_spectral_rejects_unobservable():
    with pytest.raises(GainDesignError):
        place_spectral(np.eye(2), [[1.0, 0.0]], 0.5)


def test_place_deadbeat_scalar():
    l = place_deadbeat([[2.0]], [[1.0]])
    assert np.allclose(l, [[2.0]])
    assert np.allclose(np.array([[2.0]]) - l @ [[1.0]], 0.0)


def test_place_deadbeat_observer_canonical_2x2():
    a = np.array([[0.0, 2.0], [1.0, 3.0]])
    c = np.array([[0.0, 1.0]])
    l = place_deadbeat(a, c)
    cl = a - l @ c
    assert np.linalg.norm(np.linalg.matrix_power(cl, 2)) < 1e-12


def test_place_deadbeat_random_multi_output():
    rng = np.random.default_rng(31)
    a, c = random_observable_pair(rng, 4, 2)
    l = place_deadbeat(a, c, seed=3)
    cl = a - l @ c
    p = np.linalg.matrix_power(cl, 4)
    assert np.linalg.norm(p) <= 1e-8 * max(1.0, np.linalg.norm(a, 2)) ** 4


def test_place_deadbeat_rejects_gain_that_is_not_nilpotent():
    # Six clustered eigenvalues seen through one output: the Ackermann gain
    # is so large that (A - L C)^6 is rounding noise of size 1e9, not zero.
    a = np.diag(0.5 + 0.1 * np.arange(6) / 6)
    with pytest.raises(GainDesignError, match="not nilpotent"):
        place_deadbeat(a, np.ones((1, 6)))


def test_bound_constants_scalar_block():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.9, seed=0)
    radii = gains.target_radii
    constants = compute_bound_constants(ts, gains, radii, [1.0, 0.0, 0.0], t_bar=4)
    assert constants.alpha[0] == pytest.approx(1.0)
    assert constants.c[0] == pytest.approx(1.0)


def test_bound_constants_single_block_cbar_formula():
    plant = LtiPlant([[2.0]], [[[1.0]]], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.8, seed=0)
    t_bar = 3
    constants = compute_bound_constants(ts, gains, gains.target_radii, [2.5], t_bar)
    expected = (constants.c[0] * constants.beta[0]
                * (constants.gamma[0] / constants.radii[0]) ** (2 * t_bar))
    assert constants.c_bar[0] == pytest.approx(expected)


def test_closed_loop_power_envelope_two_blocks():
    plant = make_multiblock_plant((2, 2), seed=40, spectral_radius=1.1)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.8, seed=1)
    constants = compute_bound_constants(
        ts, gains, gains.target_radii, [1.0, 1.0], t_bar=2)
    for j in (1, 2):
        cl = closed_loop_block(ts, gains, j)
        rho_j = constants.radii[j - 1]
        power = np.eye(cl.shape[0])
        for k in range(201):
            assert np.linalg.norm(power, 2) <= constants.alpha[j - 1] * rho_j ** k * (1 + 1e-9)
            power = cl @ power


def test_growth_envelope_beta_gamma():
    plant = make_multiblock_plant((3, 1), seed=41, spectral_radius=1.3)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=2)
    t_bar = 2
    constants = compute_bound_constants(
        ts, gains, gains.target_radii, [1.0, 1.0], t_bar)
    k_cap = 4 * ts.n + 4 * t_bar
    for j in (1, 2):
        a_jj = ts.a_block(j, j)
        power = np.eye(a_jj.shape[0])
        for k in range(k_cap + 1):
            bound = constants.beta[j - 1] * constants.gamma[j - 1] ** k
            assert np.linalg.norm(power, 2) <= bound * (1 + 1e-9)
            power = a_jj @ power


def test_design_gains_skips_empty_blocks():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts, deadbeat=True)
    assert gains.gain(1).shape == (1, 1)
    assert gains.gain(2).shape == (0, 0)
    assert gains.gain(3).shape == (0, 0)
