"""Seeded inputs of the benchmark workloads.

A workload turns a seed into a list of operations. Every config is written
as JSON into a work directory, so freshtrack sees only files and command-line
arguments. An operation is one scenario taken through run and then check; it
records the verdict its inputs must give, so that a mismatch counts as a
failed operation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Why each workload exists; BENCHMARK.json repeats these lines.
WHY = {
    "protocol_long": "one long freshness run: protocol rounds and trace recording dominate",
    "delayed_check": "library run plus delayed-identity suite: the check layer dominates",
    "canned_batch": "many small CLI runs and checks: per-scenario fixed costs and the baselines",
    "design_wide": "32-node hidden staircase (n=64), one round: transform and gain design dominate",
}

# Shapes at full size and at the self-test's smoke size.
SIZES = {
    "protocol_long": {"full": {"blocks": [1] * 10, "horizon": 350},
                      "smoke": {"blocks": [1] * 4, "horizon": 40}},
    "delayed_check": {"full": {"blocks": [2, 1, 1, 1, 1, 1, 1], "horizon": 200,
                               "instances": 4},
                      "smoke": {"blocks": [2, 1, 1], "horizon": 60, "instances": 2}},
    "canned_batch": {"full": {"baseline_nodes": 16}, "smoke": {"baseline_nodes": 4}},
    "design_wide": {"full": {"blocks": [2] * 32}, "smoke": {"blocks": [2] * 4}},
}


@dataclass
class Op:
    """One scenario: what to run, and the verdict it must give.

    ``spec`` is a config path or a canned scenario name for the CLI path;
    library operations carry the path of their config in ``spec`` too.
    ``expect_run``/``expect_check`` are the exit codes `freshtrack run` and
    `freshtrack check` must return (for the library path: 0 when every
    check passes, 1 otherwise). ``block_dims`` is the hidden staircase a
    design report must recover.
    """

    name: str
    spec: str
    library: bool = False
    expect_run: int = 0
    expect_check: int = 0
    block_dims: tuple | None = None


def _plant(plant):
    return {"A": plant.a_matrix.tolist(), "C": [c.tolist() for c in plant.sensors],
            "x0": plant.x0.tolist()}


def _config(plant, T, graph_seed, algorithm, horizon, seed, checks=None):
    config = {"plant": _plant(plant),
              "graph": {"mode": "random", "T": T, "params": {"seed": graph_seed}},
              "algorithm": algorithm, "horizon": horizon, "seed": seed}
    if checks:
        config["checks"] = checks
    return config


def _write(work_dir, name, config):
    path = os.path.join(work_dir, f"{name}.json")
    with open(path, "w") as f:
        json.dump(config, f)
    return path


def protocol_long(scenarios, seed, size, work_dir):
    plant = scenarios.make_multiblock_plant(size["blocks"], seed=seed)
    config = _config(plant, 2, seed, {"type": "freshness", "rho": 0.9}, size["horizon"],
                     seed, {"lemmas": True, "envelope": True})
    return [Op("protocol_long", _write(work_dir, "protocol_long", config))]


def delayed_check(scenarios, seed, size, work_dir):
    # The cost of the delayed-identity check follows the donor lineages that
    # the seed's graph produces; several instances per seed even it out.
    ops = []
    for m in range(size["instances"]):
        sub = seed * size["instances"] + m
        plant = scenarios.make_multiblock_plant(size["blocks"], seed=sub)
        config = _config(plant, 3, sub, {"type": "freshness", "rho": 0.9}, size["horizon"],
                         sub)
        name = f"delayed_check_{m}"
        ops.append(Op(name, _write(work_dir, name, config), library=True))
    return ops


def canned_batch(scenarios, seed, size, work_dir):
    ops = [Op(name, name) for name in scenarios.canned_scenarios()]
    # The Fig. 1 switching pattern widened to N nodes: a chain from node 1
    # through a random order of the others, alternating with its reverse.
    # On an unstable plant both naive baselines must diverge there.
    n_base = size["baseline_nodes"]
    order = [1] + [int(i) for i in np.random.default_rng(seed).permutation(n_base - 1) + 2]
    back = [1] + order[:0:-1]
    graph = {"mode": "periodic", "T": 2, "params": {"edge_lists": [
        [[a, b] for a, b in zip(path, path[1:])] for path in (order, back)]}}
    unstable = scenarios.make_random_plant(3, n_base, seed, spectral_radius=1.5, max_rows=1)
    for strategy in ("uniform", "tree_rooted"):
        algorithm = {"type": "baseline", "strategy": strategy}
        if strategy == "tree_rooted":
            algorithm["root"] = 1
        config = dict(_config(unstable, 2, seed, algorithm, 100, seed,
                              {"divergence_threshold": 1e6}), graph=graph)
        ops.append(Op(f"gen_{strategy}", _write(work_dir, f"gen_{strategy}", config)))
    spectral = scenarios.make_random_plant(4, 4, seed)
    config = _config(spectral, 2, seed, {"type": "freshness", "rho": 0.7}, 150, seed,
                     {"lemmas": True, "envelope": True})
    ops.append(Op("gen_spectral", _write(work_dir, "gen_spectral", config)))
    deadbeat = scenarios.make_multiblock_plant((2, 1, 1), seed=seed)
    config = _config(deadbeat, 2, seed, {"type": "freshness", "deadbeat": True}, 60, seed,
                     {"lemmas": True})
    ops.append(Op("gen_deadbeat", _write(work_dir, "gen_deadbeat", config)))
    # Horizon 4 < (N-1)T = 6: the lemma suite must fail, and check must agree.
    short = scenarios.make_multiblock_plant((1, 1, 1, 1), seed=seed)
    config = _config(short, 2, seed, {"type": "freshness", "rho": 0.6}, 4, seed,
                     {"lemmas": True})
    ops.append(Op("gen_short_horizon", _write(work_dir, "gen_short_horizon", config),
                  expect_run=1, expect_check=1))
    return ops


def design_wide(scenarios, seed, size, work_dir):
    plant = scenarios.make_multiblock_plant(size["blocks"], seed=seed)
    config = _config(plant, 1, seed, {"type": "freshness", "rho": 0.9}, 1, seed)
    return [Op("design_wide", _write(work_dir, "design_wide", config),
               block_dims=tuple(size["blocks"]))]


WORKLOADS = {"protocol_long": protocol_long, "delayed_check": delayed_check,
             "canned_batch": canned_batch, "design_wide": design_wide}


def generate(workload, seed, size, work_dir):
    """Write the workload's configs for ``seed`` into ``work_dir``; return its ops."""
    from freshtrack import scenarios
    return WORKLOADS[workload](scenarios, seed % 2**32, SIZES[workload][size], work_dir)
