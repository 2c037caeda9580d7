import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from freshtrack.cli import build_scenario
from freshtrack.decomposition import (
    DecompositionError,
    TransformedSystem,
    staircase_transform,
    to_transformed_coords,
)
from freshtrack.system_model import LtiPlant, is_jointly_observable
from freshtrack.scenarios import canned_scenarios, make_multiblock_plant, make_random_plant
from reference import (
    block_pair_observable,
    couple_substates,
    from_transformed_coords,
    raw_products,
)


def assert_staircase_invariants(plant, ts):
    a = plant.a_matrix
    scale = max(np.linalg.norm(a), 1e-300)
    assert np.linalg.norm(ts.t_matrix @ ts.a_bar - a @ ts.t_matrix) <= 1e-9 * scale
    assert sum(ts.block_dims) == plant.n
    # The transform writes 0.0 above the blocks: the bare products, and the
    # residue of what it dropped, show whether T is a staircase.
    raw = raw_products(plant, ts.t_matrix, ts.block_dims)
    assert ts.residue <= 1e-9
    n_nodes = plant.n_nodes
    for j in range(1, n_nodes + 1):
        for q in range(j + 1, n_nodes + 1):
            assert np.linalg.norm(raw.a_block(j, q)) <= 1e-9 * scale
            assert np.linalg.norm(raw.c_block(j, q)) <= 1e-9 * scale
        if ts.block_dims[j - 1] > 0:
            assert block_pair_observable(ts, j)


def test_scalar_three_node_example():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    assert ts.block_dims == (1, 0, 0)
    assert np.allclose(np.abs(ts.t_matrix), [[1.0]])
    assert np.allclose(ts.a_block(1, 1), [[2.0]])
    assert np.allclose(np.abs(ts.c_block(1, 1)), [[1.0]])


def test_single_node_gets_one_full_block():
    rng = np.random.default_rng(4)
    n = 4
    a_canon = np.diag(np.ones(n - 1), -1)
    a_canon[:, -1] = rng.standard_normal(n)
    c_canon = np.zeros((1, n))
    c_canon[0, -1] = 1.0
    plant = LtiPlant(a_canon, [c_canon], rng.standard_normal(n))
    ts = staircase_transform(plant)
    assert ts.block_dims == (n,)
    # Single block is the whole system up to similarity: same eigenvalues.
    assert np.allclose(
        np.sort(np.linalg.eigvals(ts.a_block(1, 1))),
        np.sort(np.linalg.eigvals(a_canon)))


def test_random_three_sensor_plant_invariants():
    rng = np.random.default_rng(7)
    while True:
        a = rng.standard_normal((5, 5))
        sensors = [rng.standard_normal((2, 5)), rng.standard_normal((2, 5)),
                   rng.standard_normal((1, 5))]
        plant = LtiPlant(a, sensors, rng.standard_normal(5))
        if is_jointly_observable(plant):
            break
    ts = staircase_transform(plant)
    assert_staircase_invariants(plant, ts)


def test_rejects_unobservable_plant_with_achieved_rank():
    plant = LtiPlant(np.eye(3), [[[1.0, 0.0, 0.0]]], np.zeros(3))
    with pytest.raises(DecompositionError, match="rank 1 of 3"):
        staircase_transform(plant)


def test_transform_roundtrip():
    plant = make_random_plant(6, 3, seed=9)
    ts = staircase_transform(plant)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(6)
    z = to_transformed_coords(x, ts)
    back = from_transformed_coords(z, ts)
    assert np.linalg.norm(back - x) <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_identity_transform_is_identity_map():
    plant = LtiPlant(np.diag([0.5, 0.25]), [np.eye(2)], [1.0, 2.0])
    ts = staircase_transform(plant)
    x = np.array([3.0, -4.0])
    z = to_transformed_coords(x, ts)
    assert np.allclose(np.abs(z), np.abs(x))


def test_scalar_example_coordinates():
    plant = LtiPlant([[2.0]], [[[1.0]], [], []], [1.0])
    ts = staircase_transform(plant)
    z = to_transformed_coords([8.0], ts)
    assert np.allclose(np.abs(z), [8.0])


def test_blind_node_gets_empty_block():
    # Node 2 repeats node 1's sensing, so it adds no new observable direction.
    rng = np.random.default_rng(13)
    n = 3
    a = rng.standard_normal((n, n))
    c = rng.standard_normal((n, n))
    plant = LtiPlant(a, [c, c[:1]], rng.standard_normal(n))
    ts = staircase_transform(plant)
    assert ts.block_dims == (n, 0)


def test_property_random_plants():
    # Invariants over a spread of random jointly observable plants.
    rng = np.random.default_rng(100)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        n_nodes = int(rng.integers(1, 6))
        plant = make_random_plant(n, n_nodes, seed=1000 + trial)
        ts = staircase_transform(plant)
        assert_staircase_invariants(plant, ts)


@hst.composite
def multiblock_layouts(draw):
    """Hidden-staircase layouts: up to 32 nodes, blocks of 1-4, n <= 64."""
    n_nodes = draw(hst.integers(1, 32))
    sizes = draw(hst.lists(hst.integers(1, 4), min_size=n_nodes, max_size=n_nodes))
    while sum(sizes) > 64:
        sizes.pop()
    rows = draw(hst.lists(hst.integers(1, 2), min_size=len(sizes), max_size=len(sizes)))
    return tuple(sizes), rows


@settings(max_examples=40)
@given(layout=multiblock_layouts(), seed=hst.integers(0, 2**16))
@example(layout=((4,) * 16, [1] * 16), seed=0)
@example(layout=((2,) * 32, [2, 1] * 16), seed=0)
def test_staircase_recovers_hidden_blocks(layout, seed):
    sizes, rows = layout
    plant = make_multiblock_plant(sizes, seed=seed, row_dims=rows)
    ts = staircase_transform(plant)
    assert ts.block_dims == sizes
    n = plant.n
    t = ts.t_matrix
    assert np.linalg.norm(t.T @ t - np.eye(n)) <= 1e-12 * n
    tol = 1e-9 * np.linalg.norm(plant.a_matrix)
    raw = raw_products(plant, t, ts.block_dims)
    assert ts.residue <= 1e-9
    off = ts.offsets
    for j in range(len(sizes)):
        assert np.linalg.norm(raw.a_bar[off[j]:off[j + 1], off[j + 1]:]) <= tol
        assert np.linalg.norm(raw.c_bar[j][:, off[j + 1]:]) <= tol


@pytest.mark.parametrize("sizes,seed", [((8, 8), 3), ((16, 16), 0), ((12, 4), 0)])
def test_staircase_threshold_clears_rounding_residue(sizes, seed):
    # Where node 1's rows leave block 2, the deflation leaves rounding residue
    # well above 64 n eps on these plants; it must not count as a direction.
    assert staircase_transform(make_multiblock_plant(sizes, seed=seed)).block_dims == sizes


@pytest.mark.parametrize("k", [24, 32, 40])
@pytest.mark.parametrize("radius", [0.3, 0.9])
def test_long_single_output_blocks_stay_apart(k, radius):
    # Where node 1's chain of k steps ends, the deflation's residue grows
    # with the chain (up to 2e-4 of ||A|| at k = 32); a fixed threshold
    # folded block 2 into block 1 on some seeds.
    for seed in range(5):
        plant = make_multiblock_plant((k, k), seed=seed, spectral_radius=radius)
        assert staircase_transform(plant).block_dims == (k, k)


@pytest.mark.parametrize("sizes", [(2, 1, 1), (3, 2, 1, 2), (4, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_coupled_multiblock_plant_keeps_its_blocks(sizes, seed):
    plant = couple_substates(make_multiblock_plant(sizes, seed=seed), 0.5, seed)
    ts = staircase_transform(plant)
    assert ts.block_dims == sizes
    # The coupling shows up below the diagonal blocks of the staircase.
    off = ts.offsets
    for j in range(1, len(sizes)):
        assert np.linalg.norm(ts.a_bar[off[j]:off[j + 1], :off[j]]) > 1e-3


def _staircase_plants():
    """The canned scenarios' plants and a coupled one, by name."""
    plants = {name: build_scenario(config).plant for name, config in canned_scenarios().items()}
    plants["coupled"] = couple_substates(make_multiblock_plant((3, 2, 1, 3), seed=5), 0.5, 5)
    return plants


@pytest.mark.parametrize("name", sorted(canned_scenarios()) + ["coupled"])
def test_transform_writes_exact_staircase_zeros(name):
    # Ā is T^T A T and C̄_i is C_i T bit for bit, except for exact 0.0 above
    # Ā's diagonal blocks and in C̄_i past block i.  residue is the norm of
    # what the zeros replaced, relative to ||[A; C_1; ...; C_N]||.
    plant = _staircase_plants()[name]
    ts = staircase_transform(plant)
    t = ts.t_matrix
    block = np.repeat(np.arange(len(ts.block_dims)), ts.block_dims)
    above = block[:, None] < block[None, :]
    products = [t.T @ plant.a_matrix @ t] + [c @ t for c in plant.sensors]
    zeroed = [above] + [np.broadcast_to(block > i, c.shape) for i, c in enumerate(ts.c_bar)]
    dropped = []
    for got, product, mask in zip((ts.a_bar,) + ts.c_bar, products, zeroed):
        assert np.array_equal(got[~mask], product[~mask])
        assert np.all(got[mask] == 0.0) and not np.any(np.signbit(got[mask]))
        dropped.append(product[mask])
    whole = np.concatenate([plant.a_matrix.ravel()] + [c.ravel() for c in plant.sensors])
    expected = np.linalg.norm(np.concatenate(dropped)) / np.linalg.norm(whole)
    assert ts.residue == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert ts.residue <= 1e-13


def test_residue_exposes_a_t_that_mixes_two_blocks():
    # A rotation within a block keeps T a staircase basis, and the residue at
    # rounding level; one across two blocks leaves Ā's upper blocks and C̄_1
    # past block 1 far from zero.
    plant = _staircase_plants()["coupled"]
    ts = staircase_transform(plant)
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    for cols, low in (([0, 1], True), ([0, 3], False)):
        t = ts.t_matrix.copy()
        t[:, cols] = t[:, cols] @ turn
        residue = TransformedSystem.of(plant, t, ts.block_dims).residue
        assert residue <= 1e-13 if low else residue >= 1e-2


def test_residue_takes_no_square_that_overflows():
    # ||A||^2 overflows here; the residue is ||a_12|| / ||A|| all the same.
    # A zero plant has no scale to compare with: its residue is 1.
    sensors = [[[1.0, 0.0]], [[0.0, 1.0]]]
    big = LtiPlant([[1e200, 1e200], [0.0, 0.5]], sensors, [1.0, 1.0])
    assert TransformedSystem.of(big, np.eye(2), (1, 1)).residue == pytest.approx(0.5 ** 0.5)
    zero = LtiPlant(np.zeros((2, 2)), [np.zeros((1, 2))] * 2, [1.0, 1.0])
    assert TransformedSystem.of(zero, np.eye(2), (1, 1)).residue == 1.0
    # A report's T is any finite matrix: products near the top of the float
    # range give an inf residue, not an overflow.
    small = LtiPlant([[0.5, 1.0], [0.0, 0.5]], sensors, [1.0, 1.0])
    assert TransformedSystem.of(small, 1e150 * np.eye(2), (1, 1)).residue == np.inf


@pytest.mark.xfail(raises=DecompositionError, strict=True,
                   reason="rank decision without a clear gap on a coupled plant")
@pytest.mark.parametrize("seed", [198, 212])
def test_coupled_plant_staircase_refusals(seed):
    # Valid jointly observable plants with the hidden block dims, which the
    # staircase refuses for want of a clear gap in a rank decision.
    plant = couple_substates(make_multiblock_plant((3, 3, 3, 3), seed=seed), 0.5, seed)
    assert staircase_transform(plant).block_dims == (3, 3, 3, 3)


def test_single_output_block_of_24_is_recovered():
    assert staircase_transform(make_multiblock_plant((24,), seed=1)).block_dims == (24,)


def test_staircase_takes_an_svd_only_where_a_step_finds_a_direction(monkeypatch):
    # design_wide's plant: each node's two steps find a direction, and a
    # third, where one comes, is residue by its Frobenius norm.  Bounds
    # decide every rank, so neither ||A||_2 nor a Krylov condition number
    # is taken.
    plant = make_multiblock_plant((2,) * 32, seed=1)
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append((name, args[1:], kwargs))
            return fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, call)

    counted("svd", np.linalg.svd)
    counted("norm", np.linalg.norm)
    assert staircase_transform(plant).block_dims == (2,) * 32
    svds = [kwargs for name, _, kwargs in calls if name == "svd"]
    assert len(svds) == 64 and all(kwargs.get("compute_uv", True) for kwargs in svds)
    assert all(args in ((), (None,)) for name, args, _ in calls if name == "norm")


def test_staircase_of_64_scalar_blocks():
    ts = staircase_transform(make_multiblock_plant((1,) * 64, seed=1))
    assert ts.block_dims == (1,) * 64


@pytest.mark.parametrize("scale", [1e-6, 1e6])
@pytest.mark.parametrize("node", [0, 1, 2])
def test_block_dims_ignore_sensor_scale(scale, node):
    plant = make_multiblock_plant((12, 1, 3), seed=0, row_dims=[1, 2, 1])
    sensors = list(plant.sensors)
    sensors[node] = sensors[node] * scale
    scaled = LtiPlant(plant.a_matrix, sensors, plant.x0)
    assert staircase_transform(scaled).block_dims == (12, 1, 3)


def test_duplicated_sensor_adds_no_block():
    # Node 2 repeats node 1's row; only rounding of node 1's span reaches it.
    plant = make_multiblock_plant((2, 2), seed=3)
    c1, c2 = plant.sensors
    dup = LtiPlant(plant.a_matrix, [c1, c1, c2], plant.x0)
    assert staircase_transform(dup).block_dims == (2, 0, 2)
    # A repeated row next to a weak new one: only the new row's block counts.
    mixed = LtiPlant(plant.a_matrix, [c1, np.vstack([c1, 1e-4 * c2]), c2], plant.x0)
    assert staircase_transform(mixed).block_dims == (2, 2, 0)
    with pytest.raises(DecompositionError, match="rank 2 of 4"):
        staircase_transform(LtiPlant(plant.a_matrix, [c1, c1], plant.x0))


def test_multiblock_plant_gives_up_with_runtime_error():
    # Node 2 has no rows, so no seed yields a jointly observable plant.
    with pytest.raises(RuntimeError, match="seed=0"):
        make_multiblock_plant((1, 1), seed=0, row_dims=[1, 0])
