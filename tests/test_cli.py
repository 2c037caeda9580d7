import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freshtrack import cli
from freshtrack.cli import (
    CONFIG_SCHEMA,
    REPORT_SCHEMA,
    ConfigError,
    _load_trace_csv,
    _report_text,
    build_report,
    build_scenario,
    cmd_check,
    main,
    run_checks,
    schema_error,
)
from freshtrack.graph_seq import edge_tensor
from freshtrack.scenarios import (
    FIG1_GRAPH,
    FIG1_PLANT,
    _plant_config,
    canned_scenario,
    canned_scenarios,
    make_multiblock_plant,
)
from freshtrack.sim_engine import DELAYED_TOL, run_scenario
from reference import to_csv_string


def small_config(**overrides):
    config = {
        "plant": FIG1_PLANT,
        "graph": FIG1_GRAPH,
        "algorithm": {"type": "freshness", "deadbeat": True},
        "horizon": 40,
        "seed": 0,
        "checks": {"lemmas": True},
    }
    config.update(overrides)
    return config


def test_build_scenario_rejects_missing_plant_field():
    config = small_config()
    config["plant"] = {"A": [[2.0]], "C": [[[1.0]], [], []]}
    with pytest.raises(ConfigError, match="x0"):
        build_scenario(config)


def test_build_scenario_rejects_unknown_key():
    with pytest.raises(ConfigError):
        build_scenario(small_config(extra_field=1))


def test_build_scenario_rejects_node_count_mismatch():
    config = small_config(
        graph={"mode": "random", "T": 2, "params": {"n": 5}})
    with pytest.raises(ConfigError, match="nodes"):
        build_scenario(config)


def test_build_scenario_rejects_bad_dimensions():
    config = small_config()
    config["plant"] = {"A": [[2.0]], "C": [[[1.0, 2.0]]], "x0": [1.0]}
    with pytest.raises(ConfigError):
        build_scenario(config)


_NEEDS_FRESHNESS = 'the "lemmas" and "envelope" checks need a freshness run'


@pytest.mark.parametrize("algorithm,checks,message", [
    ({"type": "baseline", "strategy": "uniform"}, {"lemmas": True, "envelope": True},
     _NEEDS_FRESHNESS),
    ({"type": "baseline", "strategy": "uniform"}, {"lemmas": True}, _NEEDS_FRESHNESS),
    ({"type": "baseline", "strategy": "tree_rooted", "root": 1}, {"envelope": True},
     _NEEDS_FRESHNESS),
    ({"type": "freshness", "deadbeat": True}, {"lemmas": True, "envelope": True},
     'the "envelope" check needs a spectral run, not "deadbeat": true'),
], ids=["both_on_baseline", "lemmas_on_baseline", "envelope_on_tree", "envelope_on_deadbeat"])
def test_run_refuses_checks_that_do_not_apply(tmp_path, capsys, algorithm, checks, message):
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps(small_config(algorithm=algorithm, checks=checks)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name,key,value,algorithm", [
    ("fig1_uniform_baseline", "deadbeat", True, "uniform baseline"),
    ("fig1_uniform_baseline", "rho", 0.5, "uniform baseline"),
    ("fig1_uniform_baseline", "root", 1, "uniform baseline"),
    ("fig1_tree_baseline", "deadbeat", False, "tree_rooted baseline"),
    ("fig1_freshness_spectral", "strategy", "uniform", "freshness"),
    ("fig1_freshness_deadbeat", "root", 1, "freshness"),
])
def test_run_refuses_algorithm_keys_that_the_algorithm_ignores(tmp_path, capsys, name, key,
                                                              value, algorithm):
    # A key that the chosen algorithm does not read would be ignored: the
    # run would not be the one the config describes.
    config = json.loads(json.dumps(canned_scenarios()[name]))
    config["algorithm"][key] = value
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f'error: "{key}" does not apply to a {algorithm} run\n'
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("algorithm", [
    {"type": "freshness"},
    {"type": "freshness", "deadbeat": False},
])
def test_run_exits_2_when_freshness_has_neither_rho_nor_deadbeat(tmp_path, capsys, algorithm):
    cfg = tmp_path / "no_gain_mode.json"
    cfg.write_text(json.dumps(small_config(algorithm=algorithm)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "rho" in capsys.readouterr().err


def test_config_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)


def _subschemas(schema):
    yield schema
    for sub in (*schema.get("properties", {}).values(), *filter(None, [schema.get("items")])):
        yield from _subschemas(sub)


def test_schemas_use_only_keywords_the_walk_knows():
    # schema_error tests a keyword of objects, arrays or numbers only after
    # the type it applies to, so each must come with that type.
    applies = {"object": {"properties", "required", "additionalProperties"},
               "array": {"items", "minItems", "maxItems"},
               "number": {"minimum", "exclusiveMinimum", "exclusiveMaximum"}}
    for schema in (CONFIG_SCHEMA, REPORT_SCHEMA):
        for sub in _subschemas(schema):
            assert set(sub) <= set(cli._TESTS) | applies["object"] | {"items"}, sub
            for kind, keywords in applies.items():
                if keywords & set(sub):
                    assert sub["type"] in ({kind, "integer"} if kind == "number" else {kind})


@pytest.mark.parametrize("algorithm", [
    {"type": "freshness", "deadbeat": True},
    {"type": "baseline", "strategy": "uniform"},
])
@pytest.mark.parametrize("init", [[[0.0], [0.0]], [[0.0], [0.0], [0.0, 1.0]]])
def test_run_rejects_init_estimates_of_wrong_shape(tmp_path, capsys, algorithm, init):
    # The Fig. 1 plant has 3 nodes and n = 1.
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(small_config(algorithm=algorithm, init_estimates=init)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "init_estimates" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", [
    {"type": "baseline", "strategy": "tree_rooted", "root": 4},
    {"type": "baseline", "strategy": "tree_rooted"},
])
def test_run_rejects_tree_root_outside_nodes(tmp_path, capsys, algorithm):
    cfg = tmp_path / "root.json"
    cfg.write_text(json.dumps(small_config(algorithm=algorithm)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "tree_rooted needs a root in 1..3" in capsys.readouterr().err


def test_run_rejects_edge_outside_nodes(tmp_path, capsys):
    cfg = tmp_path / "edge.json"
    cfg.write_text(json.dumps(small_config(graph={
        "mode": "periodic", "T": 2, "params": {"edge_lists": [[[1, 2], [2, 4]]]}})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "outside node range" in capsys.readouterr().err


def test_run_rejects_periodic_graph_without_edge_lists(tmp_path, capsys):
    cfg = tmp_path / "periodic.json"
    cfg.write_text(json.dumps(small_config(graph={"mode": "periodic", "T": 2})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: periodic graph requires params.edge_lists\n"


def test_list_contains_canned_scenarios(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == sorted(printed)
    assert len(printed) >= 6
    assert set(printed) == set(canned_scenarios())


def test_run_missing_scenario_exits_2(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no such config" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                  "out_is_a_file"])
def test_run_exits_2_on_unusable_paths(tmp_path, capsys, case):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    if case == "config_is_a_directory":
        cfg.mkdir()
    elif case == "config_not_utf8":
        cfg.write_bytes(json.dumps(small_config()).encode("utf-16"))
    else:
        cfg.write_text(json.dumps(small_config()))
        out.write_text("")
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert str(out if case == "out_is_a_file" else cfg) in capsys.readouterr().err


def test_run_exits_2_on_a_config_that_is_not_json(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("{")
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: config is not valid JSON: ")


def test_atomic_write_leaves_no_temp_file_when_the_writer_raises(tmp_path):
    def half_write(f):
        f.write("k,node\n")
        raise RuntimeError("writer failed")
    with pytest.raises(RuntimeError, match="writer failed"):
        cli._atomic_write(str(tmp_path / "x_trace.csv"), half_write)
    assert list(tmp_path.iterdir()) == []


def test_envelope_that_compares_no_point_fails(tmp_path, capsys):
    # Fig. 1's substate 1 envelope starts at t_bar = 4 and the total at 20,
    # so a horizon of 3 compares nothing.
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(small_config(algorithm={"type": "freshness", "rho": 0.6},
                                           horizon=3, checks={"envelope": True})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    report = tmp_path / "short_report.json"
    assert json.loads(report.read_text())["checks"]["envelope"] == {
        "passed": False, "detail": "insufficient horizon 3 < first envelope start 4"}
    assert main(["check", str(tmp_path / "short_trace.csv"), str(report)]) == 1


def test_run_config_file_and_check_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario: PASS" in out

    trace = tmp_path / "scenario_trace.csv"
    report = tmp_path / "scenario_report.json"
    assert trace.exists() and report.exists()
    assert cmd_check(str(trace), str(report)) == 0


def test_run_respects_env_output_dir(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "envtest.json"
    cfg.write_text(json.dumps(small_config()))
    target = tmp_path / "outputs"
    monkeypatch.setenv("FRESHTRACK_OUT", str(target))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert (target / "envtest_trace.csv").exists()


def test_check_detects_corrupted_index(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    trace = tmp_path / "c_trace.csv"
    lines = trace.read_text().splitlines()
    tau = lines[1].split(",").index("tau1")
    # Corrupt one data row's tau below the allowed -1 marker.
    for idx, line in enumerate(lines):
        if line and not line.startswith(("#", "k,")):
            parts = line.split(",")
            parts[tau] = "-7"
            lines[idx] = ",".join(parts)
            break
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), str(tmp_path / "c_report.json")]) == 2
    assert "malformed" in capsys.readouterr().err


def test_check_detects_tampered_errors(tmp_path, capsys):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(small_config(
        checks={"lemmas": True, "divergence_threshold": 10.0})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    trace = tmp_path / "t_trace.csv"
    lines = trace.read_text().splitlines()
    z0 = lines[1].split(",").index("z0")
    # Blow up a late estimate: its error norm, derived on load, crosses the
    # divergence threshold, so the offline re-check disagrees with the report.
    for idx, line in enumerate(lines):
        if line.startswith("30,"):
            parts = line.split(",")
            parts[z0] = "1e12"
            lines[idx] = ",".join(parts)
            break
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), str(tmp_path / "t_report.json")]) == 1
    assert "disagrees" in capsys.readouterr().err


def test_check_malformed_report_exits_2(tmp_path, capsys):
    trace = tmp_path / "x_trace.csv"
    trace.write_text("k,node,tau1,donor1,z0\n")
    report = tmp_path / "x_report.json"
    report.write_text("{not json")
    assert main(["check", str(trace), str(report)]) == 2


def _set(key, value):
    def tamper(data):
        data[key] = value
        return data
    return tamper


def _set_constant(name, value):
    def tamper(data):
        data["constants"][name] = value
        return data
    return tamper


def _set_scenario(*path_and_value):
    *path, key, value = path_and_value
    def tamper(data):
        target = data["scenario"]
        for step in path:
            target = target[step]
        target[key] = value
        return data
    return tamper


_BAD_EDGE = "invalid scenario config: "


def _set_first_round(edges):
    # The graph is the scenario's: its edge lists are what check reads.
    return _set_scenario("graph", "params", "edge_lists", [edges, [[1, 3], [3, 2]]])


def _drop_scenario(data):
    del data["scenario"]
    return data


@pytest.mark.parametrize("tamper,message", [
    (_set_scenario("horizon", 200.5), "invalid scenario config: 200.5 is not of type 'integer'"),
    (_set_scenario("horizon", 200.0), "invalid scenario config: 200.0 is not of type 'integer'"),
    (_set_scenario("algorithm", "rho", "x"),
     "invalid scenario config: 'x' is not of type 'number'"),
    (lambda data: [data], "at $: [{"),
    (_drop_scenario, "'scenario' is a required property"),
    (_set_scenario("graph", "T", 0), "invalid scenario config: 0 is less than the minimum of 1"),
    (_set("block_dims", [1, 0, 0, 0]), "a freshness report needs 3 block_dims, found 4"),
    (_set_constant("c_bar", "x"), "$.constants.c_bar: 'x' is not of type 'array'"),
    (_set_constant("c_bar", [1.0]), "constants.c_bar must be a (3,) array of numbers"),
    (_set_constant("alpha", [[1.0], 2.0, 3.0]),
     "$.constants.alpha[0]: [1.0] is not of type 'number'"),
    (_set_constant("g", [1.0, 2.0, 3.0]), "$.constants.g[0]: 1.0 is not of type 'array'"),
    (_set_constant("h", {"a": 1}), "$.constants.h: {'a': 1} is not of type 'array'"),
    # Of two bad siblings the schema walk names the first.
    (_set_first_round([[1.9, 2.2], [2, 3]]), f"{_BAD_EDGE}1.9 is not of type 'integer'"),
    (_set_first_round([["1", "2"], [2, 3]]), f"{_BAD_EDGE}'1' is not of type 'integer'"),
    (_set_first_round([[True, 2], [2, 3]]), f"{_BAD_EDGE}True is not of type 'integer'"),
    (_set_first_round([[1, 2], [2, False]]), f"{_BAD_EDGE}False is not of type 'integer'"),
], ids=["horizon_fraction", "horizon_float", "rho_text", "list", "no_scenario",
        "period_zero", "block_dims_per_node", "c_bar_text", "c_bar_short", "alpha_ragged",
        "g_vector", "h_object", "edges_fraction", "edges_text", "edges_true", "edges_false"])
def test_check_rejects_malformed_report_fields(tmp_path, capsys, tamper, message):
    name = "fig1_freshness_spectral"
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    report = tmp_path / f"{name}_report.json"
    report.write_text(json.dumps(tamper(json.loads(report.read_text()))))
    capsys.readouterr()
    assert main(["check", str(tmp_path / f"{name}_trace.csv"), str(report)]) == 2
    assert message in capsys.readouterr().err


def test_run_rejects_integer_written_as_float(tmp_path, capsys):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps(small_config(horizon=40.0)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "40.0 is not of type 'integer'" in capsys.readouterr().err


def test_run_failing_check_exits_1(tmp_path, capsys):
    # A freshness run with a divergence threshold it cannot avoid crossing:
    # threshold 0 means any nonzero error counts as divergence.
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps(small_config(
        checks={"divergence_threshold": 0.0})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_seed_override_changes_report(tmp_path, capsys):
    name = "random_jsc_theorem1"
    config = canned_scenarios()[name]
    cfg = tmp_path / "s.json"
    config = dict(config, horizon=30, checks={})
    cfg.write_text(json.dumps(config))
    main(["run", str(cfg), "--out", str(tmp_path), "--seed", "5"])
    capsys.readouterr()
    report = json.loads((tmp_path / "s_report.json").read_text())
    assert report["scenario"]["seed"] == 5


def test_identical_runs_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps(small_config()))
    main(["run", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", str(cfg), "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "r_trace.csv").read_bytes()
    b = (tmp_path / "b" / "r_trace.csv").read_bytes()
    assert a == b


def _run_small(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(small_config()))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return tmp_path / "m_trace.csv", tmp_path / "m_report.json"


@pytest.mark.parametrize("node", [0, 4])
def test_check_rejects_report_edge_outside_nodes(tmp_path, capsys, node):
    trace, report = _run_small(tmp_path, capsys)
    data = json.loads(report.read_text())
    data["scenario"]["graph"]["params"]["edge_lists"][1].append([node, 2])
    report.write_text(json.dumps(data))
    assert main(["check", str(trace), str(report)]) == 2
    assert "outside node range" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["no_rows", "short_row", "long_row", "fraction",
                                    "fractional_tau"])
def test_check_rejects_malformed_trace_rows(tmp_path, capsys, tamper):
    trace, report = _run_small(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    if tamper == "no_rows":
        lines = lines[:2]
    elif tamper == "short_row":
        lines[7] = lines[7][:lines[7].rindex(",")]
    elif tamper == "long_row":
        lines[7] += ",1.0"
    elif tamper == "fraction":
        lines[7] = "2.5" + lines[7][lines[7].index(","):]
    else:               # the first tau cell: rows and columns stay well-formed
        k, node, _, rest = lines[2].split(",", 3)
        lines[2] = ",".join((k, node, "0.5", rest))
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), str(report)]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err
    if tamper == "fractional_tau":
        assert err == "error: malformed trace or report: trace tau/donor columns must be integers\n"


def test_check_takes_the_graph_from_scenario_not_a_report_copy(tmp_path, capsys):
    # Node 2 adopts node 3 in round 0 although the source, node 1, sends to
    # it.  Older reports carried each round's edges as "graph_edges"; one
    # without the edge 1 -> 2 must not hide the fault, since check rebuilds
    # the graph from the scenario.
    trace, report = _run_small(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    donor = lines[1].split(",").index("donor1")
    row = next(i for i, line in enumerate(lines) if line.startswith("1,2,"))
    parts = lines[row].split(",")
    assert parts[donor] == "1"
    parts[donor] = "3"
    lines[row] = ",".join(parts)
    trace.write_text("\n".join(lines) + "\n")
    data = json.loads(report.read_text())
    adj = build_scenario(data["scenario"]).graph.adjacency(data["horizon"])
    data["graph_edges"] = [(np.argwhere(a) + 1).tolist() for a in adj]
    data["graph_edges"][0].remove([1, 2])
    report.write_text(json.dumps(data))
    assert main(["check", str(trace), str(report)]) == 1
    captured = capsys.readouterr()
    assert "lemmas: FAIL" in captured.out and "disagrees" in captured.err


@pytest.mark.parametrize("field,value,message", [
    ("A", [[float("nan")]], "system matrix has NaN or inf"),
    ("C", [[[float("inf")]], [], []], "sensor 1 has NaN or inf"),
    ("x0", [float("nan")], "x0 has NaN or inf"),
    ("init_estimates", [[float("inf")], [1.0], [0.0]], "init_estimates must be finite"),
])
def test_run_rejects_non_finite_inputs(tmp_path, capsys, field, value, message):
    config = small_config(algorithm={"type": "freshness", "rho": 0.6})
    if field == "init_estimates":
        config[field] = value
    else:
        config["plant"] = dict(config["plant"], **{field: value})
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))       # written as NaN / Infinity
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_run_rejects_plant_not_jointly_observable(tmp_path, capsys):
    # Both nodes measure only the first state; the second is never seen.
    cfg = tmp_path / "blind.json"
    cfg.write_text(json.dumps(small_config(
        plant={"A": [[0.5, 0.0], [0.0, 0.5]], "C": [[[1.0, 0.0]], [[1.0, 0.0]]],
               "x0": [1.0, 1.0]},
        graph={"mode": "random", "T": 2})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: plant is not jointly observable")
    assert len(err.strip().splitlines()) == 1


def test_run_refuses_two_configs_that_write_the_same_files(tmp_path, capsys):
    # a/x.json and b/x.json are different runs that would both write x_trace.csv
    # and x_report.json into one directory: the later would overwrite the earlier.
    for sub, name in (("a", "fig1_freshness_spectral"), ("b", "fig1_uniform_baseline")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.json").write_text(json.dumps(canned_scenarios()[name]))
    specs = [str(tmp_path / "a" / "x.json"), str(tmp_path / "b" / "x.json")]
    out = tmp_path / "out"
    assert main(["run", *specs, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: {specs[0]} and {specs[1]} would both write {out / 'x_trace.csv'}\n")
    assert not out.exists()
    # One spec twice is the same refusal; apart, the two run.
    assert main(["run", specs[0], specs[0], "--out", str(out)]) == 2
    assert main(["run", specs[0], "--out", str(out / "a")]) == 0
    assert main(["run", specs[1], "--out", str(out / "b")]) == 0


def test_check_rejects_baseline_report_with_padded_block_dims(tmp_path, capsys):
    # Baseline reports used to pad block_dims with a zero per extra node.  The
    # trace header names no empty block, so the loader states the rule: a
    # baseline report's block_dims is the one block [n].
    assert main(["run", "fig1_uniform_baseline", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = tmp_path / "fig1_uniform_baseline_report.json"
    data = json.loads(report.read_text())
    assert data["block_dims"] == [1]
    data["block_dims"] = [1, 0, 0]
    report.write_text(json.dumps(data))
    trace = tmp_path / "fig1_uniform_baseline_trace.csv"
    assert main(["check", str(trace), str(report)]) == 2
    assert "a baseline report needs 1 block_dims, found 3" in capsys.readouterr().err


@pytest.mark.parametrize("params,message", [
    ({"seed": -1}, "minimum"),
    ({"seed": 1.5}, "integer"),
    ({"n": 0}, "minimum"),
    ({"edge_lists": [[[1, 2, 3]]]}, "long"),
    # A mistyped "seed" would leave the config's seed to pick the graph.
    ({"n": 3, "sed": 99}, "Additional properties are not allowed ('sed' was unexpected)"),
])
def test_run_rejects_bad_graph_params(tmp_path, capsys, params, message):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps(small_config(graph={"mode": "random", "T": 2, "params": params})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario config") and message in err


@pytest.mark.parametrize("name", ["fig1_uniform_baseline", "fig1_freshness_spectral"])
def test_run_exits_2_when_the_plant_state_overflows(tmp_path, capsys, name):
    # x(k) = 2^k passes float64's largest value at k = 1024.
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(dict(canned_scenarios()[name], horizon=1100)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: the plant's state overflows float64 at k = 1024 of horizon 1100\n")
    assert not (tmp_path / "long_report.json").exists()


@pytest.mark.parametrize("name", ["fig1_freshness_spectral", "fig1_uniform_baseline"])
def test_run_norms_stay_finite_past_the_square_of_float64s_range(tmp_path, capsys, name):
    # x(k) = 2^k squares past float64's largest value from k = 512 on; the
    # error norms and the delayed identity's ||z_k|| stay finite, unwarned.
    cfg = tmp_path / "h600.json"
    cfg.write_text(json.dumps(dict(canned_scenarios()[name], horizon=600)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "h600_report.json").read_text())
    assert report["passed"]
    assert main(["check", str(tmp_path / "h600_trace.csv"),
                 str(tmp_path / "h600_report.json")]) == 0


def test_check_loads_report_with_transform_warnings(tmp_path, capsys):
    # Older reports carried a "warnings" list inside "transform".
    assert main(["run", "fig1_freshness_spectral", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = tmp_path / "fig1_freshness_spectral_report.json"
    data = json.loads(report.read_text())
    assert "warnings" not in data["transform"]
    data["transform"]["warnings"] = []
    report.write_text(json.dumps(data))
    trace = tmp_path / "fig1_freshness_spectral_trace.csv"
    assert main(["check", str(trace), str(report)]) == 0


def test_deadbeat_run_on_long_single_output_blocks_converges(tmp_path, capsys):
    # Two 32-dim single-output blocks: a fixed staircase threshold folded
    # them into one 64-dim block, and the deadbeat run diverged.
    plant = make_multiblock_plant((32, 32), seed=0, spectral_radius=0.9)
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(small_config(
        plant=_plant_config(plant), horizon=150,
        graph={"mode": "random", "T": 1, "params": {"n": 2, "seed": 0}})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "long_report.json").read_text())
    assert report["block_dims"] == [32, 32]
    assert report["checks"]["finite_time"]["passed"]


def test_run_exits_2_when_deadbeat_gain_misses_nilpotency(tmp_path, capsys):
    # Node 1 sees ten eigenvalues within 0.01 of each other through one
    # output; its deadbeat gain leaves rounding noise of size 1e21.
    a = np.diag(np.append(0.5 + 0.001 * np.arange(10), 0.3))
    c1 = np.append(np.ones(10), 0.0).reshape(1, 11)
    c2 = np.eye(11)[10:]
    cfg = tmp_path / "clustered.json"
    cfg.write_text(json.dumps(small_config(
        plant={"A": a.tolist(), "C": [c1.tolist(), c2.tolist()], "x0": [1.0] * 11},
        graph={"mode": "random", "T": 1, "params": {"n": 2, "seed": 0}})))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: deadbeat gain is not nilpotent")


@pytest.mark.parametrize("field", ["A", "C"])
def test_run_rejects_ragged_or_text_plant_arrays(tmp_path, capsys, field):
    # A 4-state, 4-node plant: A with a short first row, or a text entry in C_1.
    plant = make_multiblock_plant((1, 1, 1, 1), seed=0)
    config = small_config(plant=_plant_config(plant),
                          graph={"mode": "random", "T": 2, "params": {"seed": 0}})
    if field == "A":
        config["plant"]["A"][0] = config["plant"]["A"][0][:-1]
    else:
        config["plant"]["C"][0] = [[1, "x", 0, 0]]
    cfg = tmp_path / "ragged.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: system matrix is not a numeric array" if field == "A"
        else "error: invalid scenario config: 'x' is not of type 'number'")


@pytest.mark.parametrize("value", [True, "1.5", None], ids=["true", "text", "null"])
@pytest.mark.parametrize("field", ["A", "C", "x0", "init_estimates"])
def test_run_rejects_non_number_in_numeric_arrays(tmp_path, capsys, field, value):
    config = small_config(plant=dict(FIG1_PLANT), init_estimates=[[0.0], [0.0], [0.0]])
    if field == "A":
        config["plant"]["A"] = [[value]]
    elif field == "C":
        config["plant"]["C"] = [[[1.0]], [], [[value]]]
    elif field == "x0":
        config["plant"]["x0"] = [value]
    else:
        config["init_estimates"][1] = [value]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario config")
    assert f"{value!r} is not of type 'number'" in err


def _bench_config(blocks, horizon, period_t):
    plant = make_multiblock_plant(blocks, seed=1)
    return {"plant": _plant_config(plant),
            "graph": {"mode": "random", "T": period_t, "params": {"seed": 1}},
            "algorithm": {"type": "freshness", "rho": 0.9}, "horizon": horizon,
            "seed": 1, "checks": {"lemmas": True, "envelope": True}}


@pytest.fixture(scope="module")
def runs():
    """(trace, report) of every canned scenario and of a long and a wide run."""
    configs = dict(canned_scenarios(),
                   protocol_long=_bench_config([1] * 10, 350, 2),
                   design_wide=_bench_config([2] * 32, 1, 1))
    out = {}
    for name, config in configs.items():
        trace = run_scenario(build_scenario(config))
        results, passed = run_checks(trace, config)
        out[name] = trace, build_report(trace, config, results, passed)
    return out


def _load_back(path, report):
    """The trace at ``path`` read as `check` reads it, with ``report`` taken
    through its JSON text."""
    report = json.loads(_report_text(report))
    return _load_trace_csv(path, report, build_scenario(report["scenario"]))


@pytest.mark.parametrize("name", sorted(canned_scenarios()) + ["protocol_long", "design_wide"])
def test_trace_csv_reads_back_bit_equal(tmp_path, runs, name):
    trace, report = runs[name]
    path = str(tmp_path / "trace.csv")
    trace.to_csv(path)
    loaded = _load_back(path, report)
    for attr in ("taus", "donors", "z_estimates", "truth", "adjacency"):
        assert np.array_equal(getattr(loaded, attr), getattr(trace, attr)), attr


def test_trace_csv_writes_to_a_path_object(tmp_path, runs):
    trace, report = runs["fig1_freshness_spectral"]
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text() == to_csv_string(trace)
    loaded = _load_back(path, report)
    assert np.array_equal(loaded.z_estimates, trace.z_estimates)


def test_run_writes_its_files_as_the_trace_and_report_text(tmp_path, runs):
    trace, report = runs["random_jsc_theorem1"]
    cli._write_run(str(tmp_path), "run", trace, report)
    assert (tmp_path / "run_trace.csv").read_text() == to_csv_string(trace)
    assert (tmp_path / "run_report.json").read_text() == _report_text(report)
    assert sorted(os.listdir(tmp_path)) == ["run_report.json", "run_trace.csv"]


def test_run_file_write_memory_does_not_grow_with_the_horizon(tmp_path):
    # The trace streams into the temp file chunk by chunk: ten times the
    # rounds may not cost more than a quarter more peak memory.  Writing the
    # CSV text built first peaks at 20.9 MB at H = 2000, against 2.9 MB at
    # H = 200.
    plant = make_multiblock_plant((1,) * 16, seed=1)
    peaks = []
    for horizon in (200, 2000):
        config = {"plant": _plant_config(plant),
                  "graph": {"mode": "random", "T": 2, "params": {"seed": 1}},
                  "algorithm": {"type": "freshness", "rho": 0.9},
                  "horizon": horizon, "seed": 0}
        trace = run_scenario(build_scenario(config))
        report = build_report(trace, config, *run_checks(trace, config))
        tracemalloc.start()
        try:
            cli._write_run(str(tmp_path), "run", trace, report)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_report_text_parses_like_indented_dump(runs):
    for name, (_, report) in runs.items():
        text = _report_text(report)
        assert json.loads(text) == json.loads(
            json.dumps(report, indent=2, default=cli._plain)), name
        assert len(text.splitlines()) == len(report) + 2, name


# The reference walk: stock Draft 2020-12, with an integer that is neither a
# bool nor a float such as 40.0.
_REFERENCE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)))


@pytest.fixture(scope="module")
def documents(runs):
    """(schema, document) of each canned config and of its report's JSON."""
    docs = []
    for name, config in canned_scenarios().items():
        docs += [(CONFIG_SCHEMA, config), (REPORT_SCHEMA, json.loads(_report_text(runs[name][1])))]
    return docs


def _nodes(doc, path=()):
    """(path, value) of ``doc`` and of everything inside it."""
    yield path, doc
    inner = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in inner:
        yield from _nodes(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(doc, kind, data):
    """Apply one mutation of ``kind`` to ``doc`` in place; False if none applies."""
    nodes = list(_nodes(doc))
    leaves = [p for p, v in nodes if p and not isinstance(v, (dict, list))]
    targets = {
        "swap": leaves,
        "past_bound": [p for p, v in nodes if p and type(v) in (int, float)],
        "drop": [p for p, v in nodes if isinstance(v, dict) and v],
        "add": [p for p, v in nodes if isinstance(v, dict)],
        "ragged": [p for p, v in nodes
                   if isinstance(v, list) and v and all(isinstance(r, list) and r for r in v)],
    }[kind]
    if not targets:
        return False
    # One place in the schema first, so that matrix entries do not crowd out
    # the scalars; then one of its entries.
    shapes = {}
    for p in targets:
        shapes.setdefault(tuple("*" if isinstance(k, int) else k for k in p), []).append(p)
    path = data.draw(st.sampled_from(shapes[data.draw(st.sampled_from(sorted(shapes)))]))
    if kind == "swap":
        _parent(doc, path)[path[-1]] = data.draw(st.sampled_from([40.0, True, "1.5", None, [], {}]))
    elif kind == "past_bound":
        _parent(doc, path)[path[-1]] = data.draw(st.sampled_from([-1, 0, 1, 1.5]))
    else:
        node = _parent(doc, path + (None,))
        if kind == "drop":
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif kind == "add":
            node["unknown_key"] = 1
        else:
            node[data.draw(st.integers(0, len(node) - 1))].pop()
    return True


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_walk_agrees_with_jsonschema(documents, data):
    # Mutated canned configs and reports: both walks accept or both refuse,
    # and after one mutation both name the same place with the same message.
    schema, doc = data.draw(st.sampled_from(documents))
    doc = json.loads(json.dumps(doc))
    kinds = data.draw(st.lists(st.sampled_from(
        ["swap", "past_bound", "drop", "add", "ragged"]), min_size=1, max_size=3))
    applied = sum(_mutate(doc, kind, data) for kind in kinds)
    ours = schema_error(schema, doc)
    best = jsonschema.exceptions.best_match(_REFERENCE(schema).iter_errors(doc))
    assert (ours is None) == (best is None), (ours, best)
    if applied == 1 and best is not None:
        assert ours == (best.json_path, best.message)


@pytest.mark.parametrize("path,value", [
    (("graph", "T"), 0), (("graph", "T"), 1), (("horizon",), 0),
    (("seed",), -1), (("seed",), 0),
    (("algorithm", "rho"), 0), (("algorithm", "rho"), 1e-300),
    (("algorithm", "rho"), 1), (("algorithm", "rho"), 0.999),
    (("graph", "params", "edge_lists"), [[[1, 2]], [[1]]]),
    (("graph", "params", "edge_lists"), [[[1, 2, 3]]]),
    (("graph", "params", "edge_lists"), [[]]),
    (("algorithm", "strategy"), "tree"),
])
def test_schema_walk_agrees_with_jsonschema_at_the_bounds(path, value):
    config = json.loads(json.dumps(small_config(algorithm={"type": "freshness", "rho": 0.5})))
    _parent(config, path)[path[-1]] = value
    best = jsonschema.exceptions.best_match(_REFERENCE(CONFIG_SCHEMA).iter_errors(config))
    assert schema_error(CONFIG_SCHEMA, config) == (best and (best.json_path, best.message))


def test_edge_scatter_matches_per_round_graphs():
    for name, config in canned_scenarios().items():
        rounds = config["graph"]["params"].get("edge_lists")
        if rounds is None:
            continue
        n_nodes = len(config["plant"]["C"])
        assert np.array_equal(edge_tensor(n_nodes, rounds),
                              np.stack([edge_tensor(n_nodes, [e])[0] for e in rounds])), name


@pytest.mark.parametrize("tamper", ["stripped", "replaced"])
def test_check_rejects_trace_without_its_header(tmp_path, capsys, tamper):
    trace, report = _run_small(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    if tamper == "stripped":
        lines = lines[2:]
    else:
        lines[1] = "k,node,substate,tau,donor,err"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), str(report)]) == 2
    assert "trace must open with the lines" in capsys.readouterr().err


def test_canned_scenarios_return_fresh_configs():
    first = canned_scenarios()
    for config in first.values():
        config["plant"]["A"][0][0] = 99.0
        config["graph"]["T"] = 99
    for config in canned_scenarios().values():
        assert config["plant"]["A"][0][0] != 99.0
        assert config["graph"]["T"] != 99


def test_canned_scenario_is_a_fresh_copy_of_one_scenario():
    for name, config in canned_scenarios().items():
        one = canned_scenario(name)
        assert one == config
        one["plant"]["A"][0][0] = 99.0
        assert canned_scenario(name) == config
    assert canned_scenario("no_such_scenario") is None


def test_run_takes_a_canned_name_over_a_file_and_builds_no_other(
        tmp_path, monkeypatch, capsys):
    # A file named like a canned scenario is not read; a config file path
    # builds no canned scenario at all.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig1_freshness_deadbeat").write_text("not json")
    (tmp_path / "small.json").write_text(json.dumps(small_config()))
    monkeypatch.setattr(cli, "canned_scenarios", None)
    assert main(["run", "fig1_freshness_deadbeat", "small.json", "--out", "out"]) == 0
    assert sorted(os.listdir("out")) == [
        "fig1_freshness_deadbeat_report.json", "fig1_freshness_deadbeat_trace.csv",
        "small_report.json", "small_trace.csv"]
    assert main(["run", "no_such_file.json"]) == 2
    assert "no such config file or canned scenario: no_such_file.json" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["missing", "duplicated", "swapped"])
def test_check_rejects_incomplete_or_unordered_trace(tmp_path, capsys, tamper):
    name = "random_jsc_theorem1"
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    trace = tmp_path / f"{name}_trace.csv"
    lines = trace.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0,2,"))
    if tamper == "missing":
        del lines[row]
    elif tamper == "duplicated":
        lines.append(lines[row])
    else:
        lines[row], lines[row + 1] = lines[row + 1], lines[row]
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), str(tmp_path / f"{name}_report.json")]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("block_dims", 5), ("a_bar", "x")])
def test_check_ignores_report_transform(tmp_path, capsys, field, value):
    # The check path reads only the transform's t_matrix, so a broken other
    # field is neither loaded nor a crash.
    name = "fig1_freshness_spectral"
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    report = tmp_path / f"{name}_report.json"
    data = json.loads(report.read_text())
    data["transform"][field] = value
    report.write_text(json.dumps(data))
    assert main(["check", str(tmp_path / f"{name}_trace.csv"), str(report)]) == 0


def _tampered_report(tmp_path, name, tamper):
    """Run ``name``, apply ``tamper`` to its report and return the check's
    exit code."""
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    report = tmp_path / f"{name}_report.json"
    data = json.loads(report.read_text())
    tamper(data)
    report.write_text(json.dumps(data))
    return main(["check", str(tmp_path / f"{name}_trace.csv"), str(report)])


@pytest.mark.parametrize("name", ["fig1_freshness_spectral", "fig1_uniform_baseline"])
def test_check_derives_errors_from_the_report_plant(tmp_path, capsys, name):
    # The errors come from the plant the report names, not from the trace:
    # another initial state gives other errors, and the re-check disagrees.
    def move_x0(data):
        data["scenario"]["plant"]["x0"] = [3.0]
    assert _tampered_report(tmp_path, name, move_x0) == 1
    assert "disagrees" in capsys.readouterr().err


def test_check_derives_the_connectivity_mode_from_the_graph(tmp_path, capsys):
    # The Fig. 1 windows are rooted at node 1 but not strongly connected.
    # The lemma report's mode comes from the graph, not the report's warnings.
    def drop_warnings(data):
        assert data["warnings"] == ["rooted_mode"]
        assert data["checks"]["lemmas"]["mode"] == "rooted"
        data["warnings"] = []
    assert _tampered_report(tmp_path, "fig1_freshness_spectral", drop_warnings) == 0


_BAD_SHAPE = "transform.t_matrix must be a finite (1, 1) array"


@pytest.mark.parametrize("value,message", [
    (None, "$.transform.t_matrix: None is not of type 'array'"),
    ([[1.0, 0.0]], _BAD_SHAPE),
    ([[1.0], [0.0]], _BAD_SHAPE),
    # The schema walk accepts a short row; numpy refuses the ragged array.
    ([[1.0, 0.0], [0.0]], _BAD_SHAPE),
    ([["x"]], "$.transform.t_matrix[0][0]: 'x' is not of type 'number'"),
    ([[float("nan")]], _BAD_SHAPE),
    ([[float("inf")]], _BAD_SHAPE),
], ids=["null", "wide", "tall", "ragged", "text", "nan", "inf"])
def test_check_rejects_bad_t_matrix(tmp_path, capsys, value, message):
    def set_t(data):
        data["transform"]["t_matrix"] = value
    assert _tampered_report(tmp_path, "fig1_freshness_spectral", set_t) == 2
    assert message in capsys.readouterr().err


def _drop_plant(data):
    del data["scenario"]["plant"]


def _ragged_plant(data):
    data["scenario"]["plant"]["A"] = [[0.5, 0.1, 0.0], [0.2, 0.4]]


def _wrong_size_plant(data):
    # Two states on the run's nodes, without its initial estimates, which
    # build_scenario would reject first.
    scenario = data["scenario"]
    scenario.pop("init_estimates", None)
    nodes = len(scenario["plant"]["C"])
    scenario["plant"].update(A=[[0.5, 0.0], [0.0, 0.5]], x0=[1.0, 1.0],
                             C=[[[1.0, 0.0]]] + [[]] * (nodes - 1))


@pytest.mark.parametrize("name", ["random_jsc_theorem1", "fig1_tree_baseline"])
@pytest.mark.parametrize("tamper,message", [
    (_drop_plant, "'plant' is a required property"),
    (_ragged_plant, "system matrix is not a numeric array"),
    (_wrong_size_plant, "scenario.plant has 2 states"),
], ids=["missing", "ragged", "wrong_size"])
def test_check_rejects_missing_or_ragged_plant(tmp_path, capsys, name, tamper, message):
    assert _tampered_report(tmp_path, name, tamper) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and message in err


def _deadbeat_lemmas_only(data):
    data["scenario"].update(algorithm={"type": "freshness", "deadbeat": True},
                            checks={"lemmas": True})


@pytest.mark.parametrize("name,tamper,code,message", [
    ("fig1_freshness_spectral", _set_scenario("algorithm", "rho", 0.1), 1, "disagrees"),
    ("fig1_freshness_spectral", _set_scenario("horizon", 50), 2,
     "trace rows x columns are (603, 5), the report's (153, 5)"),
    ("random_jsc_theorem1", _set_scenario("graph", "T", 1), 1, "disagrees"),
    ("random_jsc_theorem1", _set_scenario("graph", "params", "seed", 12), 1, "disagrees"),
    ("fig1_freshness_spectral", _set_scenario(
        "graph", "params", "edge_lists", [[[1, 2], [2, 3], [1, 3]], [[1, 3], [3, 2]]]), 1,
     "disagrees"),
    ("fig1_freshness_spectral", _deadbeat_lemmas_only, 2,
     "report has constants but its scenario has no rho"),
    ("fig1_freshness_spectral", _set_scenario(
        "algorithm", {"type": "freshness", "deadbeat": True}), 2,
     'the "envelope" check needs a spectral run'),
    ("fig1_freshness_spectral", _set_scenario("extra", 1), 2,
     "invalid scenario config: Additional properties are not allowed"),
    ("fig1_freshness_spectral", _set_constant("c_bar", ["1e300", 0, 0]), 2,
     "$.constants.c_bar[0]: '1e300' is not of type 'number'"),
    # NaN constants are read as NaN: their envelope fails, unlike the recorded one.
    ("fig1_freshness_spectral", _set_constant("c_bar", [float("nan")] * 3), 1, "disagrees"),
], ids=["rho_lowered", "horizon_shortened", "window_of_one", "graph_seed_changed",
        "edge_lists_changed", "rho_removed", "envelope_on_deadbeat", "unknown_key",
        "c_bar_text", "c_bar_nan"])
def test_check_takes_the_run_from_scenario(tmp_path, capsys, name, tamper, code, message):
    # rho, T, the graph and the horizon are read from the report's scenario,
    # through the validator that run uses, so editing them there changes
    # what is checked.
    assert _tampered_report(tmp_path, name, tamper) == code
    assert message in capsys.readouterr().err


def test_cli_runs_and_checks_without_importing_scipy(tmp_path):
    # scipy and jsonschema are test dependencies only: importing scipy costs
    # a process about 0.2 s and 26 MB, and jsonschema 78 ms and 5 MB.  A
    # run needs no concurrent.futures either.  A spectral run places
    # gains and certifies its graph; a tree-rooted baseline takes the BFS
    # levels of every round.
    out = str(tmp_path)
    code = f"""
import sys
from freshtrack import cli
assert cli.main(["run", "fig1_freshness_spectral", "fig1_tree_baseline", "--out", {out!r}]) == 0
for name in ("fig1_freshness_spectral", "fig1_tree_baseline"):
    path = {out!r} + "/" + name
    assert cli.main(["check", path + "_trace.csv", path + "_report.json"]) == 0
print(sorted(m for m in sys.modules if m.startswith(
    ("scipy", "jsonschema", "referencing", "rpds", "concurrent.futures"))))
"""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_lemma_runs_check_the_delayed_identity(runs):
    for name, config in canned_scenarios().items():
        if config.get("checks", {}).get("lemmas"):
            entry = runs[name][1]["checks"]["lemmas"]["checks"]["delayed_form"]
            assert entry["passed"] and entry["max_residual"] <= DELAYED_TOL, name


@pytest.mark.parametrize("name", ["fig1_freshness_deadbeat", "fig1_freshness_spectral"])
def test_check_fails_an_estimate_off_the_delayed_identity(tmp_path, capsys, name):
    # Node 2's estimate of substate 1 at k = 10, after (N-1)T = 4, moved by a
    # relative 1e-6.  Indices and donors stay the rule's; the Fig. 1 state
    # grows as 2^k, so the move is far above the identity's tolerance.
    assert main(["run", name, "--out", str(tmp_path)]) == 0
    trace, report = tmp_path / f"{name}_trace.csv", tmp_path / f"{name}_report.json"
    lines = trace.read_text().splitlines()
    header = lines[1].split(",")
    row = next(i for i, line in enumerate(lines) if line.startswith("10,2,"))
    parts = lines[row].split(",")
    assert int(parts[header.index("tau1")]) >= 1
    z = header.index("z0")
    parts[z] = repr(float(parts[z]) * (1 + 1e-6))
    lines[row] = ",".join(parts)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(trace), str(report)]) == 1
    assert "lemmas: FAIL" in capsys.readouterr().out
    data = json.loads(report.read_text())
    loaded = _load_trace_csv(trace, data, build_scenario(data["scenario"]))
    lemmas = run_checks(loaded, data["scenario"])[0]["lemmas"]["checks"]
    assert lemmas.pop("delayed_form")["at"] == (2, 1, 10)
    assert all(entry["passed"] for entry in lemmas.values())


def test_check_agrees_with_a_report_that_holds_a_nan(tmp_path, capsys):
    # Every estimate is near 1.5e308: ||z_k|| passes float64's range, so the
    # run records the delayed identity's max_residual as NaN.  The re-check
    # gives the same NaN, which agrees with the report.
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({
        "plant": {"A": [[1.0, 0.0], [0.0, 1.0]], "C": [[[1.0, 0.0], [0.0, 1.0]], [], []],
                  "x0": [1.5e308, 1.5e308]},
        "graph": {"mode": "random", "T": 2, "params": {"seed": 1}},
        "algorithm": {"type": "freshness", "rho": 0.8}, "horizon": 12,
        "checks": {"lemmas": True}}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    report = tmp_path / "nan_report.json"
    entry = json.loads(report.read_text())["checks"]["lemmas"]["checks"]["delayed_form"]
    assert not entry["passed"] and np.isnan(entry["max_residual"])
    capsys.readouterr()
    assert main(["check", str(tmp_path / "nan_trace.csv"), str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "lemmas: FAIL\n" and captured.err == ""


def test_check_agrees_with_a_run_whose_envelope_constants_are_not_finite(tmp_path, capsys):
    # At rho = 0.05 the late substates' c_bar are not finite.  The report
    # writes them as NaN and Infinity, and check reads them back.
    plant = make_multiblock_plant((1,) * 8, seed=1)
    cfg = tmp_path / "nonfinite.json"
    cfg.write_text(json.dumps({
        "plant": _plant_config(plant), "graph": {"mode": "random", "T": 3, "params": {"seed": 1}},
        "algorithm": {"type": "freshness", "rho": 0.05}, "horizon": 320, "seed": 1,
        "checks": {"lemmas": True, "envelope": True}}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    report = tmp_path / "nonfinite_report.json"
    data = json.loads(report.read_text())
    assert "envelope_constants_not_finite" in data["warnings"]
    assert not np.all(np.isfinite(data["constants"]["c_bar"]))
    assert data["checks"]["lemmas"]["passed"] and not data["checks"]["envelope"]["passed"]
    capsys.readouterr()
    assert main(["check", str(tmp_path / "nonfinite_trace.csv"), str(report)]) == 1
    captured = capsys.readouterr()
    assert "envelope: FAIL" in captured.out and captured.err == ""
