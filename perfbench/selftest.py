"""Self-test of the benchmark harness at smoke sizes.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that every end-to-end metric of BENCHMARK.json is printed with its
unit, that the traced run prints every per-layer metric and that its self
times plus the remainder add up to its wall time, that a wrong expected
verdict counts as a failed operation, and that the command fails without a
result where there are no freshtrack sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, (workload, out)
    assert f"attempted={out['attempted']} failed=0 failed_frac=0" in proc.stdout, proc.stdout
    return out["metrics"]


def check_metrics(spec):
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = result(workload["name"], trace)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            assert got == wanted, (workload["name"], key, set(got) ^ set(wanted))
            assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
        selfs = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
        total = selfs + metrics["trace.unattributed_s"]["value"]
        wall = metrics["trace.wall_s"]["value"]
        assert abs(total - wall) <= 1e-6 * max(1.0, wall), (workload["name"], total, wall)


def check_wrong_verdict():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import child
    import workloads
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_work")) as d:
        ops = workloads.generate("canned_batch", 3, "smoke", d)
        ops[0].expect_run = 1
        state = {"attempted": 0, "failures": [], "digests": {}}
        child.run_pass(ops, d, child.load_env(ops), state)
    assert state["attempted"] == len(ops) and len(state["failures"]) == 1, state["failures"]
    assert state["failures"][0].startswith(ops[0].name), state["failures"]


def check_no_sources():
    base = os.path.join(ROOT, ".perfbench_work")
    bare = tempfile.mkdtemp(dir=base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "canned_batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc


def main():
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sys.path.insert(0, HERE)
    import workloads
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    check_no_sources()
    check_wrong_verdict()
    check_metrics(spec)
    print("selftest ok")


if __name__ == "__main__":
    main()
