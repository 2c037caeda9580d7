"""Canned scenario configs and random plant generators.

Configs are plain dicts in the CLI's JSON schema, so every canned scenario can
also be dumped to a file and edited.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from .system_model import LtiPlant, is_jointly_observable

# Scalar three-node example: an unstable scalar plant measured only by node 1,
# with the communication graph alternating between 1->2->3 and 1->3->2 chains.
FIG1_EDGE_LISTS = [
    [[1, 2], [2, 3]],
    [[1, 3], [3, 2]],
]

FIG1_PLANT = {
    "A": [[2.0]],
    "C": [[[1.0]], [], []],
    "x0": [1.0],
}

FIG1_GRAPH = {"mode": "periodic", "T": 2, "params": {"edge_lists": FIG1_EDGE_LISTS}}


def make_random_plant(n, n_nodes, seed, spectral_radius=0.3, max_rows=2):
    """Jointly observable random plant with A scaled to a target spectral radius.

    A stable plant keeps long-horizon truth bounded, so absolute error floors
    stay far below the exponential envelopes being verified.
    """
    rng = np.random.default_rng(seed)
    for _ in range(64):
        a = rng.standard_normal((n, n))
        radius = np.max(np.abs(np.linalg.eigvals(a)))
        if radius == 0.0:
            continue
        a = a * (spectral_radius / radius)
        row_dims = rng.integers(0, max_rows + 1, size=n_nodes)
        if row_dims.sum() == 0:
            row_dims[0] = 1
        sensors = [rng.standard_normal((int(r), n)) for r in row_dims]
        plant = LtiPlant(a, sensors, rng.standard_normal(n))
        if is_jointly_observable(plant):
            return plant
    raise RuntimeError(f"failed to draw a jointly observable plant (seed={seed})")


def make_multiblock_plant(block_sizes, seed, spectral_radius=0.3, row_dims=None):
    """Plant whose staircase decomposition has one nonempty block per node.

    Built block-diagonal with node i sensing only block i, then conjugated by
    a random orthogonal matrix so the structure is hidden in the original
    coordinates.  Guarantees n_j = block_sizes[j-1] for every node.  Draws
    with seed, seed + 1, ... until a plant is jointly observable.
    """
    n = int(sum(block_sizes))
    if row_dims is None:
        row_dims = [1] * len(block_sizes)
    for attempt in range(seed, seed + 64):
        rng = np.random.default_rng(attempt)
        blocks = []
        for nb in block_sizes:
            b = rng.standard_normal((nb, nb))
            radius = np.max(np.abs(np.linalg.eigvals(b)))
            blocks.append(b * (spectral_radius / max(radius, 1e-3)))
        a = np.zeros((n, n))
        sensors = []
        off = 0
        for nb, r, b in zip(block_sizes, row_dims, blocks):
            a[off:off + nb, off:off + nb] = b
            c = np.zeros((r, n))
            c[:, off:off + nb] = rng.standard_normal((r, nb))
            sensors.append(c)
            off += nb
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        plant = LtiPlant(q @ a @ q.T, [c @ q.T for c in sensors],
                         rng.standard_normal(n))
        if is_jointly_observable(plant):
            return plant
    raise RuntimeError(f"failed to draw a jointly observable plant (seed={seed})")


def _plant_config(plant: LtiPlant):
    return {
        "A": plant.a_matrix.tolist(),
        "C": [c.tolist() for c in plant.sensors],
        "x0": plant.x0.tolist(),
    }


@functools.cache
def _random_jsc_plant():
    # LtiPlant is frozen with read-only arrays, so one build serves every call.
    return make_multiblock_plant((2, 1, 1, 1), seed=2024, spectral_radius=0.3)


def canned_scenarios():
    """Name -> config dict for every built-in scenario, stable-sorted by name.

    Every call returns fresh dicts and lists: a caller may edit them.
    """
    random_plant = _plant_config(_random_jsc_plant())
    random_graph = {"mode": "random", "T": 3, "params": {"n": 4, "seed": 11}}
    init = [[0.0] * 5 for _ in range(4)]
    scenarios = {
        "fig1_uniform_baseline": {
            "plant": FIG1_PLANT,
            "graph": FIG1_GRAPH,
            "algorithm": {"type": "baseline", "strategy": "uniform"},
            "horizon": 100,
            "seed": 0,
            "checks": {"divergence_threshold": 1e6},
        },
        "fig1_tree_baseline": {
            "plant": FIG1_PLANT,
            "graph": FIG1_GRAPH,
            "algorithm": {"type": "baseline", "strategy": "tree_rooted", "root": 1},
            "horizon": 100,
            "seed": 0,
            "checks": {"divergence_threshold": 1e6},
        },
        "fig1_freshness_spectral": {
            "plant": FIG1_PLANT,
            "graph": FIG1_GRAPH,
            "algorithm": {"type": "freshness", "rho": 0.6},
            "horizon": 200,
            "seed": 0,
            "checks": {"lemmas": True, "envelope": True},
        },
        "fig1_freshness_deadbeat": {
            "plant": FIG1_PLANT,
            "graph": FIG1_GRAPH,
            "algorithm": {"type": "freshness", "deadbeat": True},
            "horizon": 60,
            "seed": 0,
            "checks": {"lemmas": True},
        },
        "random_jsc_theorem1": {
            "plant": random_plant,
            "graph": random_graph,
            "algorithm": {"type": "freshness", "rho": 0.9},
            "horizon": 300,
            "seed": 7,
            "init_estimates": init,
            "checks": {"lemmas": True, "envelope": True},
        },
        "random_jsc_corollary1": {
            "plant": random_plant,
            "graph": random_graph,
            "algorithm": {"type": "freshness", "deadbeat": True},
            "horizon": 120,
            "seed": 7,
            "init_estimates": init,
            "checks": {"lemmas": True},
        },
    }
    return copy.deepcopy(dict(sorted(scenarios.items())))
