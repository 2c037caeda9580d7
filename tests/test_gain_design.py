from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_discrete_lyapunov, solve_sylvester

import reference
from freshtrack import gain_design, system_model
from freshtrack.decomposition import TransformedSystem, block_offsets, staircase_transform
from freshtrack.gain_design import (
    BoundConstants,
    GainDesignError,
    GainSet,
    choose_radii,
    closed_loop_block,
    compute_bound_constants,
    design_gains,
    _check_observable,
    _place_stack,
    _rotation_target,
    _solve_sylvester,
    place_deadbeat,
)
from freshtrack.scenarios import make_multiblock_plant, make_random_plant
from freshtrack.system_model import DecompositionError, LtiPlant
from krylov import ackermann_deadbeat, krylov_rank
from reference import couple_substates


def place_one(a, c, rho, seed=0):
    """The spectral gain of one pair aimed at ``rho``, uncertified as
    `design_gains` places a block: a stack of one for `_place_stack`."""
    a, c = np.atleast_2d(a).astype(float), np.atleast_2d(c).astype(float)
    return _place_stack(a[None], c[None], np.array([rho]), [seed])[0]


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
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError, match=f"rho must lie in \\(0, 1\\), got {rho}"):
            choose_radii(rho, 2)
    for rho in (0.1, 0.5, 0.99):
        for n in (1, 2, 6):
            radii = choose_radii(rho, n)
            assert max(radii) < rho
            assert min(radii) > 0


def test_place_spectral_scalar():
    # The closed loop sits at 0.75 * rho_j = 0.375.
    l = place_one([[2.0]], [[1.0]], 0.5)
    assert np.allclose(l, [[1.625]])


def test_place_spectral_scalar_small_radius_approaches_deadbeat():
    l = place_one([[2.0]], [[1.0]], 1e-9)
    assert np.allclose(l, [[2.0]], atol=1e-8)


def test_place_spectral_random_single_output():
    rng = np.random.default_rng(17)
    a, c = random_observable_pair(rng, 3, 1)
    l = place_one(a, c, 0.8, seed=2)
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
        l = place_one(a, c, 0.8, seed=seed)
        cl = a - l @ c
        assert np.max(np.abs(np.linalg.eigvals(cl))) < 0.8
        ts = TransformedSystem(np.eye(n), a, (c,), (n,))
        gains = GainSet(gains=(l,), target_radii=(0.8,))
        alpha = compute_bound_constants(ts, gains, [1.0], t_bar=1).alpha[0]
        power = np.eye(n)
        for k in range(201):
            assert np.linalg.norm(power, 2) <= alpha * 0.8 ** k * (1 + 1e-9)
            power = cl @ power


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64])
@pytest.mark.parametrize("r", [1, 2])
def test_sylvester_solve_matches_scipy(n, r):
    # The long-block sweep's pairs and first G draws, and n = 1, 2, 3.  The
    # largest difference, 1.6e-11 (n = 64, r = 2, seed 0), comes from a
    # target 1e-4 away from an eigenvalue of A; the residuals stay at rounding.
    # The five pairs go through one stacked solve.
    a, f = np.empty((2, 5, n, n))
    for seed in range(5):
        rng = np.random.default_rng([n, r, seed])
        a[seed] = rng.standard_normal((n, n))
        a[seed] *= 0.9 / np.max(np.abs(np.linalg.eigvals(a[seed])))
        f[seed] = (rng.standard_normal((r, n)).T
                   @ np.random.default_rng(seed).standard_normal((r, n)))
    d = _rotation_target(np.full(5, 0.6), n)
    x = _solve_sylvester(a.transpose(0, 2, 1), d, f)
    for seed in range(5):
        a_t, x_s, d_s, f_s = a[seed].T, x[seed], d[seed], f[seed]
        want = solve_sylvester(a_t, -d_s, f_s)
        assert np.linalg.norm(x_s - want) <= 1e-10 * np.linalg.norm(want)
        scale = (np.linalg.norm(x_s) * (np.linalg.norm(a_t) + np.linalg.norm(d_s))
                 + np.linalg.norm(f_s))
        assert np.linalg.norm(a_t @ x_s - x_s @ d_s - f_s) <= 1e-15 * scale


def test_sylvester_solve_moves_an_exactly_singular_shift_as_scipy_does():
    # The target 0.75 * 0.4 is A's own eigenvalue: A - lam I is exactly 0.
    a, d, f = np.array([[0.3]]), _rotation_target(0.75 * 0.39999999999999997, 1), [[-0.58]]
    assert np.array_equal(_solve_sylvester(a[None], d[None], np.array(f)[None])[0],
                          solve_sylvester(a, -d, f))
    l = place_one(a, [[-0.45]], 0.39999999999999997)
    assert abs(0.3 + l[0, 0] * 0.45) < 0.4
    # Next to a regular block, the stack is refused whole: the caller goes
    # block by block, so that the regular block is not shifted.
    with pytest.raises(np.linalg.LinAlgError):
        _solve_sylvester(np.array([[[0.3]], [[0.5]]]), np.stack([d, d]), np.array([f, f]))


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
    l1 = place_one(a, c, 0.7, seed=5)
    l2 = place_one(a, c, 0.7, seed=5)
    assert np.array_equal(l1, l2)


def test_place_spectral_rejects_unobservable():
    with pytest.raises(GainDesignError, match=r"^block pair is not observable.* \(block 1\)$"):
        design_gains(stacked_system([BLIND]), rho=0.5)


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
    # Deadbeat gains have no radius to contract at.
    with pytest.raises(ValueError, match="defined for spectral-mode gains"):
        compute_bound_constants(ts, design_gains(ts), [1.0], t_bar=0)


def test_bound_constants_refuse_a_non_contracting_block_among_contracting_ones():
    # Two one-dimensional blocks in one stack: the first contracts at its
    # radius, the second sits exactly on it.
    plant = LtiPlant(np.diag([0.5, 0.4]), [[[1.0, 0.0]], [[0.0, 1.0]]], [1.0, 1.0])
    ts = staircase_transform(plant)
    gains = GainSet(gains=(np.zeros((1, 1)), np.zeros((1, 1))), target_radii=(0.6, 0.4))
    with pytest.raises(GainDesignError, match="does not contract"):
        compute_bound_constants(ts, gains, [1.0, 1.0], t_bar=1)


def _blind_plant():
    base = make_multiblock_plant((2, 1, 3), seed=2)
    blind = np.zeros((0, base.n))
    sensors = [base.sensors[0], blind, base.sensors[1], blind, base.sensors[2]]
    return LtiPlant(base.a_matrix, sensors, base.x0)


_CONSTANT_PLANTS = {
    "3-2-1-2": lambda: make_multiblock_plant((3, 2, 1, 2), seed=1),
    "3-2-1-2-unstable": lambda: make_multiblock_plant((3, 2, 1, 2), seed=2, spectral_radius=1.3),
    "2-1x6": lambda: make_multiblock_plant((2, 1, 1, 1, 1, 1, 1), seed=1),
    "1x10": lambda: make_multiblock_plant((1,) * 10, seed=1),
    "2x8": lambda: make_multiblock_plant((2,) * 8, seed=1),
    "blind": _blind_plant,
    "coupled": lambda: couple_substates(make_multiblock_plant((2, 1, 1, 2), seed=3), 0.5, seed=3),
}


def assert_constants_bit_equal(got, want):
    for field in fields(BoundConstants):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.shape == b.shape, field.name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), field.name


@pytest.mark.parametrize("name", sorted(_CONSTANT_PLANTS))
@pytest.mark.parametrize("t_bar", [0, 4, 27])
def test_bound_constants_equal_the_per_block_loop_bit_for_bit(name, t_bar):
    ts = staircase_transform(_CONSTANT_PLANTS[name]())
    gains = design_gains(ts, rho=0.9, seed=1)
    e0 = np.linspace(0.5, 2.0, ts.n_nodes)
    assert_constants_bit_equal(compute_bound_constants(ts, gains, e0, t_bar),
                               reference.compute_bound_constants(ts, gains, e0, t_bar))


def test_bound_constants_equal_the_per_block_loop_on_hand_built_blocks():
    # Block 1 is a Jordan-like 2 x 2.  Blocks 1 and 2, one stack, contract
    # at different rates: their Lyapunov sums, for alpha and for beta, stop
    # at different K.
    a_bar = np.zeros((5, 5))
    a_bar[:2, :2] = [[0.678, 3.0], [0.0, 0.678]]
    a_bar[2:4, 2:4] = [[0.5, 0.0], [0.0, 0.3]]
    a_bar[4] = [0.1, 0.4, 0.2, -0.3, 0.8]
    a_bar[2:4, :2] = [[0.3, -0.2], [0.0, 0.5]]
    c_bar = (np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]), np.array([[0.5, 0.0, 1.0, 1.0, 0.0]]),
             np.array([[0.0, 0.3, 0.0, 0.0, 1.0]]))
    ts = TransformedSystem(t_matrix=np.eye(5), a_bar=a_bar, c_bar=c_bar, block_dims=(2, 2, 1))
    gains = GainSet(gains=(place_one(a_bar[:2, :2], c_bar[0][:, :2], 0.5),
                           np.zeros((2, 1)), np.array([[0.38]])),
                    target_radii=(0.5, 0.9, 0.6))
    e0 = [1.0, 0.5, 2.0]
    assert_constants_bit_equal(compute_bound_constants(ts, gains, e0, t_bar=3),
                               reference.compute_bound_constants(ts, gains, e0, 3))


def test_beta_lets_no_overflowed_ratio_win():
    # Block 1's powers overflow from k = 2 on, and so does gamma_1^k.  A
    # scalar block's |a|^k / gamma^k peaks at k = 0, so its beta is 1 without
    # taking a power.
    ts = TransformedSystem(t_matrix=np.eye(2), a_bar=np.diag([1e200, 0.5]),
                           c_bar=(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])),
                           block_dims=(1, 1))
    gains = GainSet(gains=(np.array([[1e200]]), np.array([[0.3]])), target_radii=(0.5, 0.6))
    constants = compute_bound_constants(ts, gains, [1.0, 1.0], t_bar=1)
    assert constants.beta[0] == 1.0
    assert_constants_bit_equal(constants,
                               reference.compute_bound_constants(ts, gains, [1.0, 1.0], 1))


@pytest.mark.parametrize("a", [1e-300, -3e-160, 2e-147, 5e146, -1e160, 1e300])
def test_scalar_block_beta_near_over_and_underflow(a):
    # Every ratio |a|^k / gamma^k past k = 0 is below 1 (gamma = 1.01
    # max(1, |a|)), so a 1 x 1 block's beta is 1 even where its powers
    # under- or overflow.
    ts = TransformedSystem(t_matrix=np.eye(1), a_bar=np.array([[a]]),
                           c_bar=(np.array([[1.0]]),), block_dims=(1,))
    gains = GainSet(gains=(np.array([[a]]),), target_radii=(0.5,))
    constants = compute_bound_constants(ts, gains, [1.0], t_bar=3)
    assert constants.beta[0] == 1.0
    assert_constants_bit_equal(constants,
                               reference.compute_bound_constants(ts, gains, [1.0], 3))


def assert_beta_bounds_powers(ts, constants, k_max=2000):
    """||A_jj^k|| <= beta_j gamma_j^k for k = 0..k_max and every nonempty
    block, read as ||(A_jj / gamma_j)^k|| <= beta_j so that no power
    overflows."""
    for j in range(1, ts.n_nodes + 1):
        if not ts.block_dims[j - 1]:
            continue
        scaled = ts.a_block(j, j) / constants.gamma[j - 1]
        powers = np.empty((k_max + 1,) + scaled.shape)
        powers[0] = np.eye(len(scaled))
        for k in range(k_max):
            powers[k + 1] = scaled @ powers[k]
        norms = np.linalg.norm(powers, 2, axis=(1, 2))
        worst = int(np.argmax(norms))
        assert norms[worst] <= constants.beta[j - 1] * (1 + 1e-9), (j, worst)


def test_growth_envelope_beta_gamma():
    plant = make_multiblock_plant((3, 1), seed=41, spectral_radius=1.3)
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=0.7, seed=2)
    constants = compute_bound_constants(ts, gains, [1.0, 1.0], t_bar=2)
    assert_beta_bounds_powers(ts, constants)


def _jordan_system():
    """A 2 x 2 Jordan-like block at 0.99 with a 3 above the diagonal, then
    a scalar block: ||A_11^k|| / gamma^k peaks near k = 50."""
    a_bar = np.zeros((3, 3))
    a_bar[:2, :2] = [[0.99, 3.0], [0.0, 0.99]]
    a_bar[2, 2] = 0.5
    c_bar = (np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
    return TransformedSystem(t_matrix=np.eye(3), a_bar=a_bar, c_bar=c_bar, block_dims=(2, 1))


@pytest.mark.parametrize("blocks,radius", [
    ((1,) * 10, 0.3),
    ((2, 1, 1, 1, 1, 1, 1), 0.9),
    ((3, 2, 1), 1.3),
    ("jordan", None),
], ids=["1x10-0.3", "2-1x6-0.9", "3-2-1-1.3", "jordan"])
def test_beta_bounds_every_power(blocks, radius):
    # beta is a certificate, not the largest ratio up to a cap on k: on the
    # Jordan block a sup over k <= 4n + 4 t_bar = 16 gives 35.2, while
    # ||A^50|| / gamma^50 is 55.7.
    if blocks == "jordan":
        ts, t_bar = _jordan_system(), 1
    else:
        ts = staircase_transform(make_multiblock_plant(blocks, seed=1, spectral_radius=radius))
        t_bar = 18
    gains = design_gains(ts, rho=0.9, seed=1)
    constants = compute_bound_constants(ts, gains, [1.0] * ts.n_nodes, t_bar)
    assert_beta_bounds_powers(ts, constants)


def test_design_gains_skips_empty_blocks():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    gains = design_gains(ts)
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


def stacked_system(pairs, rows=None, seed=0):
    """A TransformedSystem with diagonal pairs ``pairs`` (an (A_jj, C_jj) per
    block; None for an empty block, seen by ``rows[j]`` outputs) and random
    blocks below the diagonal."""
    dims = tuple(0 if p is None else len(p[0]) for p in pairs)
    off = block_offsets(dims)
    n = off[-1]
    rng = np.random.default_rng(seed)
    a = np.tril(rng.standard_normal((n, n)))
    c_bar = []
    for j, pair in enumerate(pairs):
        block = slice(off[j], off[j + 1])
        r = rows[j] if pair is None else len(pair[1])
        c = rng.standard_normal((r, n))
        c[:, off[j + 1]:] = 0.0
        if pair is not None:
            a[block, block], c[:, block] = pair
        a[block, off[j + 1]:] = 0.0
        c_bar.append(c)
    return TransformedSystem(np.eye(n), a, tuple(c_bar), dims)


def assert_designs_match_the_reference(ts, **kwargs):
    """design_gains gives the per-block loop's gains bit for bit, or its refusal."""
    try:
        want = reference.design_gains(ts, **kwargs)
    except GainDesignError as exc:
        with pytest.raises(GainDesignError) as got:
            design_gains(ts, **kwargs)
        assert str(got.value) == str(exc)
        return
    got = design_gains(ts, **kwargs)
    assert got.target_radii == want.target_radii
    for g, w in zip(got.gains, want.gains, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@st.composite
def stacked_systems(draw):
    """Up to 6 blocks of 0-4 states, each seen by 1-2 outputs, random entries."""
    dims = draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    rows = draw(st.lists(st.integers(1, 2), min_size=len(dims), max_size=len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pairs = [None if d == 0 else (rng.standard_normal((d, d)), rng.standard_normal((r, d)))
             for d, r in zip(dims, rows)]
    return stacked_system(pairs, rows, seed=draw(st.integers(0, 2**16)))


@settings(max_examples=150)
@given(ts=stacked_systems(), seed=st.integers(0, 2**16),
       rho=st.sampled_from([1e-6, 1e-3, 0.3, 0.9]), deadbeat=st.booleans())
def test_design_gains_matches_the_per_block_loop(ts, seed, rho, deadbeat):
    assert_designs_match_the_reference(ts, rho=None if deadbeat else rho, seed=seed)


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 1, 3, 1, 2), (1, 2, 3, 4)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_design_gains_matches_the_per_block_loop_on_coupled_plants(dims, seed):
    ts = staircase_transform(couple_substates(make_multiblock_plant(dims, seed=seed), 0.5, seed))
    for rho in (0.3, 0.9):
        assert_designs_match_the_reference(ts, rho=rho, seed=seed)
    assert_designs_match_the_reference(ts)


def first_attempt_radius(a, c, rho_j, seed):
    """Closed-loop spectral radius of the per-block loop's first attempt."""
    g = np.random.default_rng(seed).standard_normal((len(c), len(a)))
    x = reference.solve_sylvester(a.T, reference.rotation_target(0.75 * rho_j, len(a)), c.T @ g)
    l = np.linalg.solve(x.T, g.T)
    return np.max(np.abs(np.linalg.eigvals(a - l @ c)))


def random_pair(seed, n, r):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((r, n))


def test_a_block_that_fails_its_first_attempt_retries_alone_in_its_stack():
    # Two 3 x 2 blocks: block 1's first G misses its radius of 1e-4, block
    # 2's first G meets its radius.  Block 1 draws again on its own.
    (a1, c1), (a2, c2) = random_pair(924, 3, 2), random_pair(0, 3, 2)
    ts = stacked_system([(a1, c1), (a2, c2)])
    rho, seed = 1.5e-4, 923
    r1, r2 = choose_radii(rho, 2)
    assert first_attempt_radius(a1, c1, r1, seed + 1) >= r1
    assert first_attempt_radius(a2, c2, r2, seed + 2) < r2
    assert_designs_match_the_reference(ts, rho=rho, seed=seed)
    gains = design_gains(ts, rho=rho, seed=seed)
    for j, r_j in enumerate((r1, r2), 1):
        assert np.max(np.abs(np.linalg.eigvals(closed_loop_block(ts, gains, j)))) < r_j


def test_an_exactly_singular_shift_in_a_stack_is_moved_for_its_block_alone():
    # Block 1's target 0.75 rho_1 is its own A: numpy refuses the stack of
    # three scalar blocks, and each goes again as a stack of one.
    rho = 0.6
    r1 = choose_radii(rho, 3)[0]
    pairs = [(np.array([[0.75 * r1]]), np.array([[-0.45]])),
             (np.array([[2.0]]), np.array([[1.0]])), (np.array([[-0.3]]), np.array([[0.7]]))]
    assert reference.rotation_target(0.75 * r1, 1)[0, 0] == pairs[0][0][0, 0]
    assert_designs_match_the_reference(stacked_system(pairs), rho=rho, seed=4)


FINE = (np.array([[2.0]]), np.array([[1.0]]))
BLIND = (np.eye(2), np.array([[1.0, 0.0]]))


def test_design_gains_names_the_first_failing_block():
    # Block 2 cannot be placed (one output, radius 1e-6: every attempt
    # misses) and block 3 is not observable; block 2's refusal comes first.
    unplaceable = random_pair(0, 3, 1)
    rho = 1e-6 / 0.75           # block 2's radius: 0.75 rho
    ts = stacked_system([FINE, unplaceable, BLIND])
    with pytest.raises(GainDesignError) as exc:
        design_gains(ts, rho=rho, seed=0)
    assert str(exc.value) == "spectral placement failed after 8 retries (block 2)"
    assert_designs_match_the_reference(ts, rho=rho, seed=0)
    ts = stacked_system([FINE, BLIND, unplaceable])
    with pytest.raises(GainDesignError) as exc:
        design_gains(ts, rho=rho, seed=0)
    assert str(exc.value) == "block pair is not observable; cannot place poles (block 2)"
    with pytest.raises(GainDesignError) as exc:
        design_gains(ts)
    assert str(exc.value) == "block pair is not observable; cannot place poles (block 2)"


def test_deadbeat_refusal_names_its_block():
    clustered = (np.diag(0.5 + 0.1 * np.arange(6) / 6), np.ones((1, 6)))
    ts = stacked_system([random_pair(1, 2, 1), None, clustered], rows=[1, 2, 1])
    with pytest.raises(GainDesignError, match=r"^deadbeat gain is not nilpotent: .* \(block 3\)$"):
        design_gains(ts)
    assert_designs_match_the_reference(ts)


def raising_for(a_bad, staircase):
    """``staircase``, except that it cannot decide on the pair whose A is ``a_bad``."""
    def patched(a, c, *args):
        if a.shape == a_bad.shape and np.array_equal(a, a_bad):
            raise DecompositionError("staircase rank decision has no clear gap")
        return staircase(a, c, *args)
    return patched


def test_a_refusal_names_its_block_where_the_staircase_cannot_decide(monkeypatch):
    # Spectral design certifies only the block that fails placement; deadbeat
    # design runs the staircase of each block.  Both name block 2 and keep
    # the staircase's class, so the CLI exits with 2 as for any refusal.
    ts = stacked_system([FINE, BLIND, random_pair(3, 2, 1)])
    monkeypatch.setattr(gain_design, "observability_staircase",
                        raising_for(BLIND[0], gain_design.observability_staircase))
    with pytest.raises(DecompositionError, match=r"^staircase .* no clear gap \(block 2\)$"):
        design_gains(ts, rho=0.9)
    ts = stacked_system([FINE, random_pair(4, 2, 1), FINE])
    monkeypatch.setattr(gain_design, "staircase_deflation",
                        raising_for(ts.a_block(2, 2), gain_design.staircase_deflation))
    with pytest.raises(DecompositionError, match=r"^staircase .* no clear gap \(block 2\)$"):
        design_gains(ts)


def count_staircases(monkeypatch):
    """Counts the calls to `staircase_deflation`, direct or through
    `observability_staircase`, from now on."""
    calls = []
    for module in (system_model, gain_design):
        def counted(*args, _deflate=module.staircase_deflation):
            calls.append(args)
            return _deflate(*args)
        monkeypatch.setattr(module, "staircase_deflation", counted)
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spectral_design_of_a_transformed_plant_runs_no_staircase(monkeypatch, seed):
    ts = staircase_transform(make_multiblock_plant((2,) * 8, seed=seed))
    calls = count_staircases(monkeypatch)
    design_gains(ts, rho=0.9)
    assert calls == []


def test_only_a_block_that_fails_placement_is_certified(monkeypatch):
    ts = stacked_system([FINE, BLIND, random_pair(3, 2, 1)])
    calls = count_staircases(monkeypatch)
    with pytest.raises(GainDesignError, match=r"^block pair is not observable.* \(block 2\)$"):
        design_gains(ts, rho=0.9)
    assert len(calls) == 1


@pytest.mark.parametrize("hidden", [np.diag([0.05, 0.2]), np.array([[0.3, 0.0], [0.5, 0.1]])])
def test_a_hidden_mode_inside_the_radius_is_refused(hidden):
    # The mode 0.05 or 0.1 that C = [1, 0] cannot see is inside r_1 = 0.45,
    # but the Sylvester solution X is exactly singular: every attempt fails
    # and the certificate names the cause.
    pair = (hidden, np.array([[1.0, 0.0]]))
    ts = stacked_system([pair, FINE])
    with pytest.raises(GainDesignError) as exc:
        design_gains(ts, rho=0.9)
    assert str(exc.value) == "block pair is not observable; cannot place poles (block 1)"
    assert_designs_match_the_reference(ts, rho=0.9)
    with pytest.raises(GainDesignError, match="^block pair is not observable"):
        _check_observable(*pair)


def test_a_rotated_hidden_mode_gets_a_gain_that_the_constants_refuse():
    # Rotated by 0.3 rad, the same unobservable pair leaves X singular only up
    # to rounding: the first attempt gives |L| ~ 1e16 and a computed closed
    # loop inside r_1.  Design no longer certifies a placed block, so the
    # gain stands; the certificate still refuses the pair, and the envelope
    # constants refuse the gain, whose powers do not contract.
    q = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    pair = (q.T @ np.diag([0.05, 0.2]) @ q, np.array([[1.0, 0.0]]) @ q)
    ts = stacked_system([pair, FINE])
    gains = design_gains(ts, rho=0.9)
    assert np.max(np.abs(gains.gain(1))) > 1e15
    assert_designs_match_the_reference(ts, rho=0.9)
    with pytest.raises(GainDesignError, match="^block pair is not observable"):
        _check_observable(*pair)
    with pytest.raises(GainDesignError, match="does not contract"):
        compute_bound_constants(ts, gains, [1.0, 1.0], 3)
