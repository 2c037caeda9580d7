import numpy as np
import pytest
from scipy.linalg import solve_discrete_lyapunov

from freshtrack.decomposition import TransformedSystem, staircase_transform
from freshtrack.gain_design import (
    GainDesignError,
    GainSet,
    choose_radii,
    closed_loop_block,
    compute_bound_constants,
    design_gains,
    place_deadbeat,
    place_spectral,
)
from freshtrack.scenarios import make_multiblock_plant, make_random_plant
from freshtrack.system_model import LtiPlant
from krylov import ackermann_deadbeat, krylov_rank
from reference import couple_substates


def random_observable_pair(rng, n, r):
    while True:
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((r, n))
        if krylov_rank(a, c) == n:
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
    # The closed loop sits at 0.75 * rho_j = 0.375.
    l = place_spectral([[2.0]], [[1.0]], 0.5)
    assert np.allclose(l, [[1.625]])


def test_place_spectral_scalar_small_radius_approaches_deadbeat():
    l = place_spectral([[2.0]], [[1.0]], 1e-9)
    assert np.allclose(l, [[2.0]], atol=1e-8)


def test_place_spectral_random_single_output():
    rng = np.random.default_rng(17)
    a, c = random_observable_pair(rng, 3, 1)
    l = place_spectral(a, c, 0.8, seed=2)
    eigvals = np.linalg.eigvals(a - l @ c)
    for target in 0.6 * np.exp(2j * np.pi * np.arange(3) / 3):
        assert np.min(np.abs(eigvals - target)) < 1e-6


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("r", [1, 2])
def test_place_spectral_long_blocks_meet_the_lyapunov_envelope(n, r):
    # Radius-0.9 blocks seen through one or two outputs.  Three single-output
    # draws (n = 32 seed 4, n = 64 seeds 2 and 3) give cond(P) ~ 1e12, where
    # a Schur-based Lyapunov solve returns an indefinite P.
    for seed in range(5):
        rng = np.random.default_rng([n, r, seed])
        a = rng.standard_normal((n, n))
        a *= 0.9 / np.max(np.abs(np.linalg.eigvals(a)))
        c = rng.standard_normal((r, n))
        l = place_spectral(a, c, 0.8, seed=seed)
        cl = a - l @ c
        assert np.max(np.abs(np.linalg.eigvals(cl))) < 0.8
        ts = TransformedSystem(np.eye(n), a, (c,), (n,))
        gains = GainSet(gains=(l,), target_radii=(0.8,))
        alpha = compute_bound_constants(ts, gains, [1.0], t_bar=1).alpha[0]
        power = np.eye(n)
        for k in range(201):
            assert np.linalg.norm(power, 2) <= alpha * 0.8 ** k * (1 + 1e-9)
            power = cl @ power


@pytest.mark.parametrize("plant,rho", [
    (make_random_plant(4, 4, 5), 0.7),
    (make_multiblock_plant((2, 1, 1), seed=31), 0.8),
])
def test_spectral_gains_stay_moderate_on_small_plants(plant, rho):
    gains = design_gains(staircase_transform(plant), rho=rho, seed=5)
    assert max(np.max(np.abs(g)) for g in gains.gains if g.size) <= 100


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
    l = place_deadbeat(a, c)
    cl = a - l @ c
    p = np.linalg.matrix_power(cl, 4)
    assert np.linalg.norm(p) <= 1e-8 * max(1.0, np.linalg.norm(a, 2)) ** 4


def test_place_deadbeat_rejects_unobservable():
    with pytest.raises(GainDesignError, match="not observable"):
        place_deadbeat(np.eye(2), [[1.0, 0.0]])


def nilpotency_residual(a, c, l, power):
    return np.linalg.norm(np.linalg.matrix_power(a - l @ c, power))


@pytest.mark.parametrize("n,r", [(48, 1), (48, 2), (64, 1), (64, 2)])
def test_place_deadbeat_passes_the_guard_on_large_random_blocks(n, r):
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        c = rng.standard_normal((r, n))
        assert nilpotency_residual(a, c, place_deadbeat(a, c), n) <= 1e-6


def test_place_deadbeat_passes_the_guard_on_a_two_output_block_of_64():
    for seed in range(5):
        plant = make_multiblock_plant((64,), seed, 0.9, row_dims=[2])
        a, c = plant.a_matrix, plant.sensors[0]
        assert nilpotency_residual(a, c, place_deadbeat(a, c), 64) <= 1e-6


@pytest.mark.parametrize("n,r", [(8, 2), (9, 3), (12, 4), (16, 2)])
def test_place_deadbeat_index_is_the_number_of_staircase_steps(n, r):
    # A generic r-output pair has ceil(n / r) steps of r directions each.
    steps = -(-n // r)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        c = rng.standard_normal((r, n))
        residual = nilpotency_residual(a, c, place_deadbeat(a, c), steps)
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(a, 2)) ** steps


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_single_output_deadbeat_gain_is_ackermanns(n):
    # A single output has one deadbeat gain; compare with the exact one.
    for seed in range(2):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) / np.sqrt(n)
        c = rng.standard_normal((1, n))
        ref = ackermann_deadbeat(a, c)
        assert np.linalg.norm(place_deadbeat(a, c) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_place_deadbeat_rejects_gain_that_is_not_nilpotent():
    # Six clustered eigenvalues seen through one output: the deadbeat gain
    # is so large that (A - L C)^6 is rounding noise of size 3e9, not zero.
    a = np.diag(0.5 + 0.1 * np.arange(6) / 6)
    with pytest.raises(GainDesignError, match="not nilpotent"):
        place_deadbeat(a, np.ones((1, 6)))


def test_bound_constants_scalar_block():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.9, seed=0)
    constants = compute_bound_constants(ts, gains, [1.0, 0.0, 0.0], t_bar=4)
    assert constants.alpha[0] == pytest.approx(1.0)
    assert constants.c[0] == pytest.approx(1.0)


def test_bound_constants_single_block_cbar_formula():
    plant = LtiPlant([[2.0]], [[[1.0]]], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.8, seed=0)
    t_bar = 3
    constants = compute_bound_constants(ts, gains, [2.5], t_bar)
    expected = (constants.c[0] * constants.beta[0]
                * (constants.gamma[0] / gains.target_radii[0]) ** (2 * t_bar))
    assert constants.c_bar[0] == pytest.approx(expected)


def test_closed_loop_power_envelope_two_blocks():
    plant = make_multiblock_plant((2, 2), seed=40, spectral_radius=1.1)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.8, seed=1)
    constants = compute_bound_constants(ts, gains, [1.0, 1.0], t_bar=2)
    for j in (1, 2):
        cl = closed_loop_block(ts, gains, j)
        rho_j = gains.target_radii[j - 1]
        p = solve_discrete_lyapunov((cl / rho_j).T, np.eye(cl.shape[0]))
        assert constants.alpha[j - 1] == pytest.approx(np.sqrt(np.linalg.cond(p)), rel=1e-6)
        power = np.eye(cl.shape[0])
        for k in range(201):
            assert np.linalg.norm(power, 2) <= constants.alpha[j - 1] * rho_j ** k * (1 + 1e-9)
            power = cl @ power


def test_bound_constants_refuse_a_block_that_does_not_contract():
    # A hand-made gain that leaves the closed loop exactly at its radius.
    plant = LtiPlant([[0.5]], [[[1.0]]], [1.0])
    ts = staircase_transform(plant)
    gains = GainSet(gains=(np.zeros((1, 1)),), target_radii=(0.5,))
    with pytest.raises(GainDesignError, match="does not contract"):
        compute_bound_constants(ts, gains, [1.0], t_bar=0)


def test_growth_envelope_beta_gamma():
    plant = make_multiblock_plant((3, 1), seed=41, spectral_radius=1.3)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=2)
    t_bar = 2
    constants = compute_bound_constants(ts, gains, [1.0, 1.0], t_bar)
    k_cap = 4 * ts.n + 4 * t_bar
    for j in (1, 2):
        a_jj = ts.a_block(j, j)
        power = np.eye(a_jj.shape[0])
        for k in range(k_cap + 1):
            bound = constants.beta[j - 1] * constants.gamma[j - 1] ** k
            assert np.linalg.norm(power, 2) <= bound * (1 + 1e-9)
            power = a_jj @ power


@pytest.mark.parametrize("blocks,radius,t_bar", [
    ((1,) * 10, 0.3, 18),
    ((2, 1, 1, 1, 1, 1, 1), 0.9, 18),
    ((3, 2, 1), 1.3, 4),
])
def test_beta_equals_the_one_power_at_a_time_loop(blocks, radius, t_bar):
    # The batched 2-norms take the same SVDs of the same powers.
    plant = make_multiblock_plant(blocks, seed=1, spectral_radius=radius)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.9, seed=1)
    constants = compute_bound_constants(ts, gains, [1.0] * len(blocks), t_bar)
    for j in range(1, len(blocks) + 1):
        a_jj, gamma = ts.a_block(j, j), constants.gamma[j - 1]
        power = np.eye(a_jj.shape[0])
        beta = 0.0
        for k in range(4 * ts.n + 4 * t_bar + 1):
            beta = max(beta, np.linalg.norm(power, 2) / gamma ** k)
            power = a_jj @ power
        assert constants.beta[j - 1] == beta


def test_design_gains_skips_empty_blocks():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts, deadbeat=True)
    assert gains.gain(1).shape == (1, 1)
    assert gains.gain(2).shape == (0, 0)
    assert gains.gain(3).shape == (0, 0)


def test_bound_constants_skip_an_empty_block_before_a_nonempty_one():
    # Blind node 2 between two coupled blocks: blocks (2, 0, 1).
    base = make_multiblock_plant((2, 1), seed=3)
    sensors = [base.sensors[0], np.zeros((0, base.n)), base.sensors[1]]
    plant = couple_substates(LtiPlant(base.a_matrix, sensors, base.x0), 0.5, seed=3)
    ts = staircase_transform(plant)
    assert ts.block_dims == (2, 0, 1)
    gains = design_gains(ts, rho=0.9, seed=3)
    t_bar, e0, r = 4, [0.7, 0.0, 1.3], gains.target_radii
    bc = compute_bound_constants(ts, gains, e0, t_bar)
    alpha, beta, gamma, g, h = bc.alpha, bc.beta, bc.gamma, bc.g, bc.h

    assert (alpha[1], beta[1], gamma[1], bc.c[1], bc.c_bar[1]) == (1, 1, 1, 0, 0)
    assert not (g[1].any() or g[:, 1].any() or h[1].any() or h[:, 1].any())
    assert g[2, 0] == np.linalg.norm(ts.a_block(3, 1) - gains.gain(3) @ ts.c_block(3, 1), 2)
    assert h[2, 0] == np.linalg.norm(ts.a_block(3, 1), 2) > 0

    # Block 1 at reference time 0; block 3 at (2*3-3) t_bar, fed by block 1 only.
    c1 = alpha[0] * e0[0]
    c_bar1 = beta[0] * c1 * (gamma[0] / r[0]) ** (2 * t_bar)
    assert (bc.c[0], bc.c_bar[0]) == pytest.approx((c1, c_bar1), rel=1e-14)
    ref = 3 * t_bar
    c3 = alpha[2] / r[2] ** ref * (e0[2] + g[2, 0] * c_bar1 / (r[2] - r[0]) * r[0] ** ref)
    tail = h[2, 0] * c_bar1 / (gamma[2] - r[0]) * (gamma[2] / r[0]) ** (2 * t_bar)
    c_bar3 = beta[2] * (c3 * (gamma[2] / r[2]) ** (2 * t_bar) + tail)
    assert (bc.c[2], bc.c_bar[2]) == pytest.approx((c3, c_bar3), rel=1e-14)
