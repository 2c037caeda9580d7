"""Command-line front end: scenario configs, canned runs, offline re-checks.

It parses arguments, validates configs and reports, maps a config's
``checks`` to `sim_engine`'s checks (`run_checks`) and writes the files;
`sim_engine` owns the trace file, its writer and reader, and every verdict.
Exit codes: 0 all requested checks passed, 1 a check failed or re-check
disagreed, 2 invalid config (a plant whose state overflows float64 within the
horizon included), two configs that would write the same files, or malformed
input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .baselines import WeightStrategy
from .decomposition import DecompositionError, TransformedSystem
from .gain_design import BoundConstants, GainDesignError
from .graph_seq import PeriodicGraphSequence, edge_tensor, generate_random_jointly_connected
from .scenarios import canned_scenario, canned_scenarios
from .sim_engine import (
    Scenario,
    Trace,
    check_divergence,
    check_envelope,
    check_finite_time,
    check_lemma_suite,
    run_scenario,
    scenario_trace,
)
from .system_model import ConfigurationError, LtiPlant

_VECTOR = {"type": "array", "items": {"type": "number"}}
_MATRIX = {"type": "array", "items": _VECTOR}

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
                    "additionalProperties": False,
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


# jsonschema's types, except that a bool is no number and 40.0 is no integer:
# numpy refuses it as a size.
_TYPES = dict(object=dict, array=list, string=str, boolean=bool, integer=int, number=(int, float))
# The keywords that test a value on its own: what fails it, and the message
# after its repr.  In both schemas a keyword of objects, arrays or numbers
# comes with the type it applies to, so it meets only values of that type.
_TESTS = {
    "type": (lambda v, t: not isinstance(v, _TYPES[t]) or isinstance(v, bool) != (t == "boolean"),
             "is not of type {!r}"),
    "enum": (lambda v, e: v not in e, "is not one of {!r}"),
    "minimum": (lambda v, m: v < m, "is less than the minimum of {!r}"),
    "exclusiveMinimum": (lambda v, m: v <= m, "is less than or equal to the minimum of {!r}"),
    "exclusiveMaximum": (lambda v, m: v >= m, "is greater than or equal to the maximum of {!r}"),
    "minItems": (lambda v, n: len(v) < n, "is too short"),
    "maxItems": (lambda v, n: len(v) > n, "is too long")}


def schema_error(schema, value, path="$"):
    """The first place where ``value`` breaks ``schema``: a (JSON path,
    message) pair, worded as jsonschema words it, or None.

    Knows the keywords that CONFIG_SCHEMA and REPORT_SCHEMA use.  The walk
    goes depth first, through properties in the schema's order and entries
    in order, so of two bad siblings it names the first.  An array of plain
    numbers, of rows of them or of matrices (a vector, a matrix, ``plant.C``,
    ``block_dims``) passes in one type test over all its leaves
    (`_passes_whole`); only an array that fails it is walked entry by entry,
    so the error found is the walk's all the same.
    """
    for key, (fails, words) in _TESTS.items():
        if key in schema and fails(value, schema[key]):
            return path, f"{value!r} {words.format(schema[key])}"
    props, items = schema.get("properties", {}), schema.get("items")
    if schema.get("additionalProperties") is False and value.keys() - props:
        extras = sorted(value.keys() - props, key=str)
        return path, "Additional properties are not allowed ({} {} unexpected)".format(
            ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
    if missing := [key for key in schema.get("required", ()) if key not in value]:
        return path, f"{missing[0]!r} is a required property"
    if items and _passes_whole(items, value):
        return None
    # (path, schema, value) of each entry or property, walked lazily.
    children = (((f"{path}[{i}]", items, x) for i, x in enumerate(value)) if items else
                ((f"{path}.{key}", sub, value[key]) for key, sub in props.items() if key in value))
    return next(filter(None, (schema_error(sub, x, where) for where, sub, x in children)), None)


# The leaf types that pass {"type": "number"} and {"type": "integer"} at once.
_PLAIN = {"number": {int, float}, "integer": {int}}


def _passes_whole(items, values):
    """True when each of ``values`` passes ``items`` by one type test over
    all the leaves: ``items`` nests bare arrays (``type`` and ``items``
    alone) down to numbers or integers (``type`` and at most ``minimum``),
    each level holds plain lists, and each leaf is a plain int, or a float
    where numbers are asked, at or above the minimum.  False says only that
    the walk must look entry by entry."""
    while items.keys() == {"type", "items"} and items["type"] == "array":
        if set(map(type, values)) - {list}:
            return False
        values = list(itertools.chain.from_iterable(values))
        items = items["items"]
    low = items.get("minimum")
    return (items.keys() <= {"type", "minimum"} and items.get("type") in _PLAIN
            and set(map(type, values)) <= _PLAIN[items["type"]]
            and (low is None or min(values, default=low) >= low))


class ConfigError(ValueError):
    pass


# The algorithm keys that a spectral or deadbeat run and each baseline strategy read.
_ALGORITHM_KEYS = {"freshness": {"type", "rho", "deadbeat"}, "deadbeat": {"type", "deadbeat"},
                   "uniform": {"type", "strategy"}, "tree_rooted": {"type", "strategy", "root"}}
# The graph params that each graph mode reads.
_GRAPH_KEYS = {"periodic": {"edge_lists"}, "random": {"n", "seed"}}


def build_scenario(config) -> Scenario:
    """Validate a config dict and materialize the Scenario it describes."""
    if error := schema_error(CONFIG_SCHEMA, config):
        raise ConfigError(f"invalid scenario config: {error[1]}")

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
    if ignored := sorted(params.keys() - _GRAPH_KEYS[gspec["mode"]]):
        raise ConfigError(f'"{ignored[0]}" does not apply to a {gspec["mode"]} graph')
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
    baseline = algo["type"] == "baseline"
    kind = (algo.get("strategy", "uniform") if baseline else
            "deadbeat" if algo.get("deadbeat") else "freshness")
    if ignored := sorted(algo.keys() - _ALGORITHM_KEYS[kind]):
        raise ConfigError(f'"{ignored[0]}" does not apply to a {kind}{" baseline" * baseline} run')
    if kind == "freshness" and "rho" not in algo:
        raise ConfigError('a freshness run needs "rho" or "deadbeat": true')
    root = algo.get("root")
    if kind == "tree_rooted" and (root is None or root > plant.n_nodes):
        raise ConfigError(f"tree_rooted needs a root in 1..{plant.n_nodes}, got {root}")
    checks = config.get("checks", {})
    if baseline and (checks.get("lemmas") or checks.get("envelope")):
        raise ConfigError('the "lemmas" and "envelope" checks need a freshness run')
    if kind == "deadbeat" and checks.get("envelope"):
        raise ConfigError('the "envelope" check needs a spectral run, not "deadbeat": true')
    return Scenario(
        plant=plant,
        graph=graph,
        strategy=WeightStrategy(kind, root) if baseline else None,
        rho=algo.get("rho"),
        horizon=config["horizon"],
        seed=seed,
        initial_estimates=init,
    )


def run_checks(trace: Trace, scenario: Scenario, wanted):
    """Execute the checks ``wanted``, a config's ``checks``, against a trace of ``scenario``."""
    baseline = scenario.strategy is not None
    # Each check's result key, whether the config asks for it, and the check.
    table = (("lemmas", wanted.get("lemmas"), lambda: check_lemma_suite(trace, check_delayed=True)),
             ("envelope", wanted.get("envelope"), lambda: check_envelope(trace)),
             ("divergence", "divergence_threshold" in wanted,
              lambda: check_divergence(trace, wanted["divergence_threshold"], baseline)),
             ("finite_time", not baseline and scenario.rho is None,
              lambda: check_finite_time(trace)))
    results = {name: check() for name, asked, check in table if asked}
    return results, all(r["passed"] for r in results.values())


def _plain(obj):
    """``json.dumps``' ``default``: a dataclass field by field, a numpy
    array or scalar as its plain values."""
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return obj.tolist()


def _report_text(report):
    """One top-level field per line, each value through the C JSON encoder."""
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, default=_plain)}"
                               for k, v in report.items()) + "\n}\n"


def build_report(trace: Trace, config, results, passed):
    report = {
        "scenario": config,
        "passed": passed,
        "n_nodes": trace.n_nodes,
        "horizon": trace.horizon,
        "block_dims": list(trace.block_dims),
        "warnings": list(trace.warnings),
        "checks": results,
    }
    for key, value in (("transform", trace.ts), ("gains", trace.gains),
                       ("constants", trace.constants)):
        if value is not None:
            report[key] = value
    return report


def _atomic_write(path, write):
    """Fill a temp file in ``path``'s directory with ``write(f)``, then
    rename it to ``path``: a reader never sees a half-written file."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:          # e.g. --out names an existing file
        raise ConfigError(f"cannot write to output directory {d}: {exc}") from exc
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_config(spec):
    config = canned_scenario(spec)     # a canned name wins over a file of that name
    if config is not None:
        return spec, config
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


def _trace_path(out_dir, name):
    return os.path.join(out_dir, f"{name}_trace.csv")


def _execute(name, config, out_dir):
    scenario = build_scenario(config)
    trace = run_scenario(scenario)
    results, passed = run_checks(trace, scenario, config.get("checks", {}))
    report = build_report(trace, config, results, passed)
    _write_run(out_dir, name, trace, report)
    return name, passed


def _write_run(out_dir, name, trace, report):
    """The run's two files; the trace streams into its temp file chunk by chunk."""
    _atomic_write(_trace_path(out_dir, name), trace.to_csv)
    text = _report_text(report)
    _atomic_write(os.path.join(out_dir, f"{name}_report.json"), lambda f: f.write(text))


def cmd_run(specs, out_dir=None, seed=None):
    configs, writers = [], {}
    for spec in specs:
        name, config = _resolve_config(spec)
        if seed is not None:
            config = dict(config, seed=seed)
        target = (out_dir or os.environ.get("FRESHTRACK_OUT")
                  or config.get("output_dir") or ".")
        # Two runs into one file: the later would overwrite the earlier.
        path = _trace_path(target, name)
        if (key := os.path.abspath(path)) in writers:
            raise ConfigError(f"{writers[key]} and {spec} would both write {path}")
        writers[key] = spec
        configs.append((name, config, target))

    results = [_execute(*c) for c in configs]
    for name, passed in results:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return 0 if all(passed for _, passed in results) else 1


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
    """``value`` as a float array of ``shape``, without NaN or inf when
    ``finite``.  The schema walk has already refused null."""
    try:
        a = np.asarray(value, dtype=float)
        ok = a.shape == shape and (not finite or np.isfinite(a).all())
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a {'finite ' * finite}{shape} array of numbers")
    return a


def _load_trace_csv(path, report, scenario: Scenario):
    """The run's `Trace` from its trace file, ``scenario`` (the report's
    ``scenario`` through `build_scenario`) and the report's other fields,
    set up by `scenario_trace` as in the run, with the report's T.  A
    freshness report has one block per node, a baseline report the one [n]."""
    block_dims, freshness = report["block_dims"], scenario.strategy is None
    plant, n = scenario.plant, int(sum(block_dims))
    blocks = plant.n_nodes if freshness else 1
    if len(block_dims) != blocks:
        raise ValueError(f"a {'freshness' if freshness else 'baseline'} report needs "
                         f"{blocks} block_dims, found {len(block_dims)}")
    if plant.n != n:
        raise ValueError(f"scenario.plant has {plant.n} states, the report's block_dims {n}")
    ts = None
    if freshness:   # the delayed identity takes the plant through T as the run did
        t = _float_array(report["transform"]["t_matrix"], (n, n), "transform.t_matrix",
                         finite=True)
        ts = TransformedSystem.of(plant, t, block_dims)
    trace = scenario_trace(scenario, ts)[0]
    if "constants" in report:
        if scenario.rho is None:      # the envelope's radii come from rho
            raise ValueError("report has constants but its scenario has no rho")
        trace.constants = _load_constants(report["constants"], trace.n_nodes)
    trace.read_csv(path)
    return trace


def cmd_check(trace_path, report_path):
    try:
        with open(report_path) as f:
            report = json.load(f)
        if error := schema_error(REPORT_SCHEMA, report):
            raise ValueError("invalid report at {}: {}".format(*error))
        config = report["scenario"]
        scenario = build_scenario(config)
        trace = _load_trace_csv(trace_path, report, scenario)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: malformed trace or report: {exc}", file=sys.stderr)
        return 2

    results, passed = run_checks(trace, scenario, config.get("checks", {}))
    # Compared as text: NaN equals NaN there, unlike in a dict comparison.
    agree = json.dumps(results, default=_plain) == json.dumps(report.get("checks", {}))
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
            return cmd_run(args.configs, out_dir=args.out, seed=args.seed)
        if args.command == "check":
            return cmd_check(args.trace, args.report)
        return cmd_list_scenarios()
    except (ConfigError, ConfigurationError, DecompositionError, GainDesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
