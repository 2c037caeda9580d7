import json
import os

import numpy as np
import pytest

from freshtrack.cli import (
    ConfigError,
    _load_trace_csv,
    build_report,
    build_scenario,
    cmd_check,
    main,
)
from freshtrack.scenarios import FIG1_GRAPH, FIG1_PLANT, canned_scenarios
from freshtrack.sim_engine import run_scenario


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


def test_list_contains_canned_scenarios(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == sorted(printed)
    assert len(printed) >= 6
    assert set(printed) == set(canned_scenarios())


def test_run_missing_scenario_exits_2(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "no such config" in capsys.readouterr().err


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
    # Corrupt one data row's tau below the allowed -1 marker.
    for idx, line in enumerate(lines):
        if line and not line.startswith(("#", "k,")):
            parts = line.split(",")
            parts[3] = "-7"
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
    # Blow up a late error norm: the divergence check flips, so the offline
    # re-check disagrees with the recorded report.
    for idx, line in enumerate(lines):
        if line.startswith("30,"):
            parts = line.split(",")
            parts[5] = "1e12"
            lines[idx] = ",".join(parts)
            break
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace), str(tmp_path / "t_report.json")]) == 1
    assert "disagrees" in capsys.readouterr().err


def test_check_malformed_report_exits_2(tmp_path, capsys):
    trace = tmp_path / "x_trace.csv"
    trace.write_text("k,node,substate,tau,donor,err_norm\n")
    report = tmp_path / "x_report.json"
    report.write_text("{not json")
    assert main(["check", str(trace), str(report)]) == 2


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
    assert report["seed"] == 5


def test_identical_runs_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps(small_config()))
    main(["run", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", str(cfg), "--out", str(tmp_path / "b")])
    capsys.readouterr()
    a = (tmp_path / "a" / "r_trace.csv").read_bytes()
    b = (tmp_path / "b" / "r_trace.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("name", sorted(canned_scenarios()))
def test_trace_csv_reads_back_bit_equal(tmp_path, name):
    config = canned_scenarios()[name]
    trace = run_scenario(build_scenario(config))
    path = str(tmp_path / "trace.csv")
    trace.to_csv(path)
    report = json.loads(json.dumps(build_report(trace, config, {}, True)))
    loaded = _load_trace_csv(path, report)
    for attr in ("taus", "donors", "z_estimates", "err_block", "err_total"):
        assert np.array_equal(getattr(loaded, attr), getattr(trace, attr)), attr
