"""freshtrack benchmark: seeded workloads through the public entry points.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload protocol_long --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh child interpreter (one process at a time, BLAS
pinned to one thread) against the checkout's ``src/freshtrack``. The child is
first started several times to set up only; ``setup_s`` is the median of
those set-ups and the measuring child's own. Times are in reference seconds,
rescaled by the host speed that calib.py samples during the run. The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``. Traced spans and the SHA-256 of
every trace file are written under ``.perfbench_work/results``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads  # needs only the stdlib until generate() runs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

UNITS = {"setup_s": "s", "wall_s": "s", "run_s": "s", "check_s": "s",
         "updates_per_s": "1/s", "peak_rss_mb": "MB", "output_mb": "MB"}
SETUP_RUNS = 2          # set-up-only children, besides the measuring one
DEADLINE_S = 170        # the whole command must end within 180 s


def _layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    return "bytes" if name.endswith(".bytes") else "s"


def _child(args, mode, work_dir, src, result, deadline):
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src, "--work-dir", work_dir, "--result", result]
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} child for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the harness self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "freshtrack", "__init__.py")):
        raise SystemExit(f"no freshtrack sources under {src}")
    base = os.path.join(ROOT, ".perfbench_work")
    results = os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    smoke = "-smoke" if args.size == "smoke" else ""
    result = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}")

    setups = []
    work_dir = tempfile.mkdtemp(dir=base)
    try:
        if not args.trace:
            for _ in range(SETUP_RUNS):
                setups.append(_child(args, "setup", work_dir, src, result, deadline)["setup_s"])
        out = _child(args, "measure", work_dir, src, result, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    with open(result + ".digests.json", "w") as f:
        json.dump(out["digests"], f, indent=1, sort_keys=True)
    failed = len(out["failures"])
    for line in out["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, digest in sorted(out["digests"].items()):
        print(f"trace_sha256 {name} {digest}")
    print(f"workload={args.workload} seed={args.seed} passes={out['passes']} "
          f"speed={out['speed']:.4g} "
          f"attempted={out['attempted']} failed={failed} "
          f"failed_frac={failed / out['attempted']:.6g}")

    if args.trace:
        values = out["per_layer"]
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    else:
        values = dict(out["end_to_end"], setup_s=statistics.median(setups + [out["setup_s"]]))
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
