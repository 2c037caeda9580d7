"""Command-line front end: scenario configs, canned runs, offline re-checks.

Exit codes: 0 all requested checks passed, 1 a check failed or re-check
disagreed, 2 invalid config or malformed input files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import tempfile
import warnings

import numpy as np
import jsonschema

from .baselines import WeightStrategy, detect_divergence
from .decomposition import DecompositionError
from .gain_design import BoundConstants, GainDesignError
from .graph_seq import (
    PeriodicGraphSequence,
    connectivity_warnings,
    edge_tensor,
    generate_random_jointly_connected,
)
from .scenarios import canned_scenarios
from .sim_engine import (
    Scenario,
    Trace,
    check_envelope,
    check_lemma_suite,
    error_norms,
    run_scenario,
)
from .system_model import ConfigurationError, LtiPlant, simulate_truth

# "numeric": a list of lists of numbers (2) or of numbers (1), checked in one
# loop by `_numeric` below instead of one schema descent per entry.
_MATRIX = {"type": "array", "numeric": 2}
_VECTOR = {"type": "array", "numeric": 1}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["plant", "graph", "algorithm", "horizon"],
    "properties": {
        "plant": {
            "type": "object",
            "additionalProperties": False,
            "required": ["A", "C", "x0"],
            "properties": {"A": _MATRIX, "C": {"type": "array", "items": _MATRIX},
                           "x0": _VECTOR},
        },
        "graph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mode", "T"],
            "properties": {
                "mode": {"enum": ["periodic", "random"]},
                "T": {"type": "integer", "minimum": 1},
                "params": {
                    "type": "object",
                    "properties": {
                        "seed": {"type": "integer", "minimum": 0},
                        "n": {"type": "integer", "minimum": 1},
                        "edge_lists": {"type": "array", "items": {
                            "type": "array", "items": {
                                "type": "array", "items": {"type": "integer"},
                                "minItems": 2, "maxItems": 2}}},
                    },
                },
            },
        },
        "algorithm": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["freshness", "baseline"]},
                "strategy": {"enum": ["uniform", "tree_rooted"]},
                "root": {"type": "integer", "minimum": 1},
                "rho": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "deadbeat": {"type": "boolean"},
            },
        },
        "horizon": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
        "init_estimates": _MATRIX,
        "checks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lemmas": {"type": "boolean"},
                "envelope": {"type": "boolean"},
                "divergence_threshold": {"type": "number"},
            },
        },
        "output_dir": {"type": "string"},
    },
}


# What `check` reads of a report besides ``scenario``, which goes through
# `build_scenario` as a config does and gives the graph.  The loader checks
# the arrays' shapes, NaN and inf.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["scenario", "block_dims"],
    "properties": {
        "block_dims": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "transform": {"type": "object", "properties": {"t_matrix": _MATRIX}},
        "constants": {"type": "object", "properties": {
            f.name: _MATRIX if f.name in ("g", "h") else _VECTOR
            for f in dataclasses.fields(BoundConstants)}},
    },
}


def _numeric(validator, depth, instance, schema):
    """The ``numeric`` keyword: ``depth`` levels of lists around numbers.

    One loop over the rows, which takes a row of plain ints and floats whole;
    yields a single error, at the first row that is not a list or entry that
    is not a number.
    """
    if not isinstance(instance, list):
        return                                  # left to "type"
    rows = instance if depth == 2 else [instance]
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            yield jsonschema.ValidationError(f"{row!r} is not of type 'array'", path=[i])
            return
        if set(map(type, row)) <= {int, float}:
            continue
        for j, x in enumerate(row):
            if not isinstance(x, (int, float)) or isinstance(x, bool):
                yield jsonschema.ValidationError(f"{x!r} is not of type 'number'",
                                                 path=[i, j] if depth == 2 else [j])
                return


# JSON Schema counts 40.0 as an integer, but numpy rejects it as a size.
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    validators={"numeric": _numeric},
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))

# Compiled once: jsonschema.validate would check the schema itself on every call.
_VALIDATOR = _Validator(CONFIG_SCHEMA)
_REPORT_VALIDATOR = _Validator(REPORT_SCHEMA)


class ConfigError(ValueError):
    pass


def build_scenario(config) -> Scenario:
    """Validate a config dict and materialize the Scenario it describes."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigError(f"invalid scenario config: {error.message}")

    try:
        plant = LtiPlant(config["plant"]["A"], config["plant"]["C"],
                         config["plant"]["x0"])
    except ConfigurationError as exc:
        raise ConfigError(str(exc)) from exc

    init = config.get("init_estimates")
    if init is not None and (len(init) != plant.n_nodes
                             or any(len(x) != plant.n for x in init)):
        raise ConfigError(f"init_estimates must be {plant.n_nodes} vectors "
                          f"of length {plant.n}")
    if init is not None and not np.all(np.isfinite(init)):
        raise ConfigError("init_estimates must be finite (no NaN or inf)")

    seed = int(config.get("seed", 0))
    gspec = config["graph"]
    t = gspec["T"]
    params = gspec.get("params", {})
    if gspec["mode"] == "periodic":
        edge_lists = params.get("edge_lists")
        if not edge_lists:
            raise ConfigError("periodic graph requires params.edge_lists")
        try:
            graph = PeriodicGraphSequence(edge_tensor(plant.n_nodes, edge_lists), t)
        except ValueError as exc:
            raise ConfigError(f"invalid edge list: {exc}") from exc
    else:
        n = params.get("n", plant.n_nodes)
        if n != plant.n_nodes:
            raise ConfigError(f"graph has {n} nodes but plant has {plant.n_nodes}")
        graph = generate_random_jointly_connected(n, t, int(params.get("seed", seed)))

    algo = config["algorithm"]
    if algo["type"] == "freshness" and "rho" not in algo and not algo.get("deadbeat"):
        raise ConfigError('a freshness run needs "rho" or "deadbeat": true')
    strategy = None
    if algo["type"] == "baseline":
        kind = algo.get("strategy", "uniform")
        root = algo.get("root")
        if kind == "tree_rooted" and (root is None or root > plant.n_nodes):
            raise ConfigError(f"tree_rooted needs a root in 1..{plant.n_nodes}, got {root}")
        strategy = WeightStrategy(kind, root if kind == "tree_rooted" else None)
    checks = config.get("checks", {})
    if algo["type"] == "baseline" and (checks.get("lemmas") or checks.get("envelope")):
        raise ConfigError('the "lemmas" and "envelope" checks need a freshness run')
    if algo.get("deadbeat") and checks.get("envelope"):
        raise ConfigError('the "envelope" check needs a spectral run, not "deadbeat": true')
    return Scenario(
        plant=plant,
        graph=graph,
        algorithm=algo["type"],
        strategy=strategy,
        rho=algo.get("rho"),
        deadbeat=algo.get("deadbeat", False),
        horizon=config["horizon"],
        seed=seed,
        initial_estimates=init,
    )


def run_checks(trace: Trace, config):
    """Execute the checks requested in a config against a fresh trace."""
    wanted = config.get("checks", {})
    results = {}
    if wanted.get("lemmas"):
        results["lemmas"] = check_lemma_suite(trace)
    if wanted.get("envelope"):
        results["envelope"] = (check_envelope(trace) if trace.constants is not None else
                               {"passed": False, "detail": "no envelope constants available"})
    if "divergence_threshold" in wanted:
        k = detect_divergence(trace.err_total, wanted["divergence_threshold"])
        div = {"first_crossing": k, "diverged": k is not None}
        if config["algorithm"]["type"] == "baseline":
            # Divergence is the predicted outcome for the naive baselines.
            div["passed"] = div["diverged"]
        else:
            div["passed"] = not div["diverged"]
        results["divergence"] = div
    if config["algorithm"].get("deadbeat") and config["algorithm"]["type"] == "freshness":
        results["finite_time"] = _finite_time_check(trace)
    return results, all(r["passed"] for r in results.values())


def _finite_time_check(trace: Trace):
    n = int(sum(trace.block_dims))
    n_nodes = trace.n_nodes
    bound_k = n + 2 * n_nodes * (n_nodes - 1) * trace.period_t
    init_max = float(np.max(trace.err_total[0]))
    tol = 1e-6 * max(1.0, init_max)
    if bound_k > trace.horizon:
        return {"passed": False, "detail": f"horizon shorter than bound {bound_k}"}
    tail = float(np.max(trace.err_total[bound_k:]))
    return {"passed": tail <= tol, "bound_step": bound_k,
            "max_error_after_bound": tail, "tolerance": tol}


def _jsonable(obj):
    """Plain JSON values of results, arrays and dataclasses (field by field)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _report_text(report):
    """One top-level field per line, each value through the C JSON encoder."""
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                               for k, v in report.items()) + "\n}\n"


def build_report(trace: Trace, config, results, passed):
    report = {
        "scenario": config,
        "passed": passed,
        "n_nodes": trace.n_nodes,
        "horizon": trace.horizon,
        "block_dims": list(trace.block_dims),
        "warnings": list(trace.warnings),
        "checks": _jsonable(results),
    }
    for key, value in (("transform", trace.ts), ("gains", trace.gains),
                       ("constants", trace.constants)):
        if value is not None:
            report[key] = _jsonable(value)
    return report


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:          # e.g. --out names an existing file
        raise ConfigError(f"cannot write to output directory {d}: {exc}") from exc
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_config(spec):
    canned = canned_scenarios()
    if spec in canned:
        return spec, canned[spec]
    if not os.path.exists(spec):
        raise ConfigError(f"no such config file or canned scenario: {spec}")
    try:
        with open(spec, encoding="utf-8") as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:    # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read config {spec}: {exc}") from exc
    name = os.path.splitext(os.path.basename(spec))[0]
    return name, config


def _execute(name, config, out_dir):
    scenario = build_scenario(config)
    trace = run_scenario(scenario)
    results, passed = run_checks(trace, config)
    report = build_report(trace, config, results, passed)
    _atomic_write(os.path.join(out_dir, f"{name}_trace.csv"), trace.to_csv_string())
    _atomic_write(os.path.join(out_dir, f"{name}_report.json"), _report_text(report))
    return name, passed


def cmd_run(specs, out_dir=None, seed=None, jobs=1):
    configs = []
    for spec in specs:
        name, config = _resolve_config(spec)
        if seed is not None:
            config = dict(config, seed=seed)
        target = (out_dir or os.environ.get("FRESHTRACK_OUT")
                  or config.get("output_dir") or ".")
        configs.append((name, config, target))

    results = []
    if jobs > 1 and len(configs) > 1:
        # The pool starts all its workers at the first submit.
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(configs))) as pool:
            futures = [pool.submit(_execute, *c) for c in configs]
            results = [f.result() for f in futures]
    else:
        results = [_execute(*c) for c in configs]

    all_passed = True
    for name, passed in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
        all_passed &= passed
    return 0 if all_passed else 1


def cmd_list_scenarios():
    for name in canned_scenarios():
        print(name)
    return 0


def _load_constants(c, n):
    """The report's envelope constants: n numbers each, n x n for g and h."""
    return BoundConstants(**{
        f.name: _float_array(c[f.name], (n, n) if f.name in ("g", "h") else (n,),
                             f"constants.{f.name}")
        for f in dataclasses.fields(BoundConstants)})


def _float_array(value, shape, name, finite=False):
    """``value`` as a float array of ``shape`` without NaN (null reads as
    NaN), and without inf when ``finite``."""
    try:
        a = np.asarray(value, dtype=float)
        bad = ~np.isfinite(a) if finite else np.isnan(a)
        ok = a.shape == shape and not bad.any()
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a {'finite ' * finite}{shape} array of numbers")
    return a


def _load_trace_csv(path, report, scenario: Scenario):
    """The run's `Trace` from its trace file, ``scenario`` (the report's
    ``scenario`` through `build_scenario`, which also gives the graph and
    its connectivity code) and the report's other fields."""
    block_dims, freshness = report["block_dims"], scenario.algorithm == "freshness"
    trace = Trace(scenario.plant.n_nodes, scenario.horizon, scenario.graph.period_t,
                  block_dims, rho=scenario.rho)
    h1, n_nodes, s = trace.horizon + 1, trace.n_nodes, len(block_dims)
    if freshness and s != n_nodes:
        raise ValueError(f"a freshness report needs {n_nodes} block_dims, found {s}")
    trace.adjacency = scenario.graph.adjacency(trace.horizon)
    if freshness:
        trace.warnings = connectivity_warnings(trace.adjacency, trace.period_t, trace.substates)
    if "constants" in report:
        if scenario.rho is None:      # the envelope's radii come from rho
            raise ValueError("report has constants but its scenario has no rho")
        trace.constants = _load_constants(report["constants"], s)

    with open(path) as f:
        header = f.readline() + f.readline()
        if header != trace.csv_header():
            raise ValueError(f"trace must open with the lines {trace.csv_header()!r} "
                             "for the report's block_dims")
        # One comment character keeps loadtxt on numpy's C parser.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # "input contained no data"
            rows = np.loadtxt(f, delimiter=",", comments="#", ndmin=2)
    shape = (h1 * n_nodes, 2 + 2 * s + trace.z_estimates.shape[2])
    if rows.shape != shape:
        raise ValueError(f"trace rows x columns are {rows.shape}, the report's {shape}")
    if not np.array_equal(rows[:, :2], np.indices((h1, n_nodes)).reshape(2, -1).T + [0, 1]):
        raise ValueError("trace rows must be (k, node) for k = 0..H, node = 1..N, in order")
    with np.errstate(invalid="ignore"):
        ints = rows[:, 2:2 + 2 * s].astype(int)
    if not np.array_equal(ints, rows[:, 2:2 + 2 * s]):
        raise ValueError("trace tau/donor columns must be integers")
    if np.any(ints < -1):
        raise ValueError("corrupt trace: tau/donor below -1")
    trace.taus[:], trace.donors[:] = ints.reshape(h1, n_nodes, 2, s).transpose(2, 0, 1, 3)
    trace.z_estimates[:] = rows[:, 2 + 2 * s:].reshape(h1, n_nodes, -1)

    # The errors come from the plant's trajectory, through T for a freshness run.
    plant, n = scenario.plant, trace.z_estimates.shape[2]
    if plant.n != n:
        raise ValueError(f"scenario.plant has {plant.n} states, the trace {n}")
    truth = simulate_truth(plant, trace.horizon).states
    if freshness:
        truth = truth @ _float_array(report["transform"]["t_matrix"], (n, n),
                                     "transform.t_matrix", finite=True)
    trace.err_block, trace.err_total = error_norms(trace.z_estimates, truth, block_dims)
    return trace


def cmd_check(trace_path, report_path):
    try:
        with open(report_path) as f:
            report = json.load(f)
        error = jsonschema.exceptions.best_match(_REPORT_VALIDATOR.iter_errors(report))
        if error is not None:
            raise ValueError(f"invalid report at {error.json_path}: {error.message}")
        config = report["scenario"]
        trace = _load_trace_csv(trace_path, report, build_scenario(config))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: malformed trace or report: {exc}", file=sys.stderr)
        return 2

    results, passed = run_checks(trace, config)
    recorded = report.get("checks", {})
    agree = _jsonable(results) == recorded
    for name, res in results.items():
        print(f"{name}: {'PASS' if res.get('passed') else 'FAIL'}")
    if not agree:
        print("re-check disagrees with the recorded report", file=sys.stderr)
        return 1
    return 0 if passed else 1


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="freshtrack",
        description="Freshness-index distributed observer simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenario configs or canned scenarios")
    p_run.add_argument("configs", nargs="+",
                       help="config file paths or canned scenario names")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override seed")
    p_run.add_argument("--jobs", type=int, default=1, help="worker pool size")

    p_check = sub.add_parser("check", help="re-run checks offline from a trace")
    p_check.add_argument("trace")
    p_check.add_argument("report")

    sub.add_parser("list", help="list canned scenarios")
    return parser


_PARSER = _make_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.configs, out_dir=args.out, seed=args.seed,
                           jobs=args.jobs)
        if args.command == "check":
            return cmd_check(args.trace, args.report)
        return cmd_list_scenarios()
    except (ConfigError, DecompositionError, GainDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
