"""One workload in a fresh interpreter: set up, then time passes over its ops.

Started by run.py, one process at a time. ``--mode setup`` only imports
freshtrack and generates the inputs, then reports how long that took.
``--mode measure`` goes on to a closed loop of passes: each pass takes every
operation through run and then check, one after another, until the time
budget is spent. With ``--trace 1`` half the budget runs untraced and half
traced, so that the tracing overhead can be reported. With ``--trace 0`` times are
reported in reference seconds: `calib.Probe` samples the host's speed from
the first line on and rescales each timed span. Prints one JSON object as
its last line.
"""

import time

T0 = time.perf_counter()

import sys

import calib

# Sample the host's speed from the start, so that set-up is covered too. The
# traced run reports plain seconds, so that no timer disturbs its spans.
PROBE = calib.Probe(enabled="--trace" in sys.argv
                    and sys.argv[sys.argv.index("--trace") + 1] == "0")
PROBE.start()

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics


def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _paths(op, out_dir):
    stem = os.path.join(out_dir, os.path.splitext(os.path.basename(op.spec))[0])
    return f"{stem}_trace.csv", f"{stem}_report.json"


def execute(op, out_dir, env):
    """Run then check one operation; return its exit codes and timed spans.

    The CLI path goes through ``cli.main``. The library path times
    run_scenario plus writing the trace as ``run``, and the lemma suite with
    the delayed-error identity plus the envelope check as ``check``. A span
    is a (start, end) pair of ``time.perf_counter`` readings.
    """
    cli, sim_engine = env["cli"], env["sim_engine"]
    trace_path, report_path = _paths(op, out_dir)
    result = {"run_rc": None, "check_rc": None, "run": None, "check": None,
              "error": None, "trace": None, "output": ""}
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.library:
                scenario = _library_scenario(env["configs"][op.name], env)
                t0 = time.perf_counter()
                trace = sim_engine.run_scenario(scenario)
                trace.to_csv(trace_path)
                t1 = time.perf_counter()
                lemmas = sim_engine.check_lemma_suite(trace, check_delayed=True)
                envelope = sim_engine.check_envelope(trace)
                t2 = time.perf_counter()
                result["run_rc"] = 0
                result["check_rc"] = 0 if lemmas["passed"] and envelope["passed"] else 1
                result["trace"] = trace
            else:
                t0 = time.perf_counter()
                result["run_rc"] = cli.main(["run", op.spec, "--out", out_dir])
                t1 = time.perf_counter()
                result["check_rc"] = cli.main(["check", trace_path, report_path])
                t2 = time.perf_counter()
        result["run"], result["check"] = (t0, t1), (t1, t2)
    except Exception as exc:  # an operation that raises is a failed operation
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["output"] = sink.getvalue().strip()
    return result


def _design_gate(report, op, np):
    """Recovered block dims equal the hidden staircase; closed-loop radii meet targets."""
    if tuple(report["block_dims"]) != op.block_dims:
        return f"block_dims {report['block_dims']} != hidden {list(op.block_dims)}"
    a_bar = np.array(report["transform"]["a_bar"])
    offsets = np.concatenate(([0], np.cumsum(report["block_dims"])))
    for j, target in enumerate(report["gains"]["target_radii"]):
        sl = slice(offsets[j], offsets[j + 1])
        c_jj = np.array(report["transform"]["c_bar"][j]).reshape(-1, len(a_bar))[:, sl]
        closed = a_bar[sl, sl] - np.array(report["gains"]["gains"][j]) @ c_jj
        radius = float(np.max(np.abs(np.linalg.eigvals(closed))))
        if radius > target * (1 + 1e-6):
            return f"block {j + 1} closed-loop radius {radius} > target {target}"
    return None


def verify(op, result, out_dir, digests, np):
    """Gate one finished operation; return (failure or None, bytes, updates)."""
    if result["error"] is not None:
        return result["error"], 0, 0
    trace_path, report_path = _paths(op, out_dir)
    if (result["run_rc"], result["check_rc"]) != (op.expect_run, op.expect_check):
        return (f"exit codes run={result['run_rc']} check={result['check_rc']}, expected "
                f"run={op.expect_run} check={op.expect_check}: {result['output'][-300:]}"), 0, 0
    digest = _sha256(trace_path)
    if digests.setdefault(op.name, digest) != digest:
        return "trace differs from the first run", 0, 0
    size = os.path.getsize(trace_path)
    if op.library:
        trace = result["trace"]
        updates = trace.n_nodes * len(trace.substates) * trace.horizon
        return None, size, updates
    size += os.path.getsize(report_path)
    with open(report_path) as f:
        report = json.load(f)
    substates = sum(1 for d in report["block_dims"] if d > 0)
    updates = report["n_nodes"] * substates * report["horizon"]
    if op.block_dims is not None:
        return _design_gate(report, op, np), size, updates
    return None, size, updates


def run_pass(ops, out_dir, env, state, tracer=None):
    """One pass over ``ops``, then the gate on each; returns the pass's spans."""
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = state["attempted"] + len(outcomes)
        outcomes.append(execute(op, out_dir, env))
    totals = {"wall": (start, time.perf_counter()), "run": [], "check": [], "bytes": 0,
              "updates": 0}
    for op, result in zip(ops, outcomes):
        failure, size, updates = verify(op, result, out_dir, state["digests"], env["np"])
        state["attempted"] += 1
        if failure is not None:
            state["failures"].append(f"{op.name}: {failure}")
        for key in ("run", "check"):
            if result[key] is not None:
                totals[key].append(result[key])
        totals["bytes"] += size
        totals["updates"] += updates
    return totals


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(ops, out_dir, env, state, budget, tracer=None, min_passes=1):
    """Closed loop: passes back to back until ``budget`` seconds have passed."""
    start = time.perf_counter()
    passes = [run_pass(ops, out_dir, env, state, tracer)]
    while len(passes) < min_passes or time.perf_counter() - start < budget:
        passes.append(run_pass(ops, out_dir, env, state, tracer))
    return passes


def seconds(p, probe):
    """A pass's wall, run and check times in the probe's reference seconds."""
    return {"wall": probe.seconds(*p["wall"]),
            "run": sum(probe.seconds(*span) for span in p["run"]),
            "check": sum(probe.seconds(*span) for span in p["check"]),
            "updates": p["updates"]}


def end_to_end(passes, peak_rss_mb, probe):
    """Per-pass medians of the timed phase (setup_s is added by run.py)."""
    output_mb = passes[-1]["bytes"] / 1e6
    passes = [seconds(p, probe) for p in passes]
    med = lambda key: statistics.median(p[key] for p in passes)
    return {
        "wall_s": med("wall"),
        "run_s": med("run"),
        "check_s": med("check"),
        "updates_per_s": statistics.median(p["updates"] / max(p["run"], 1e-9)
                                           for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "output_mb": output_mb,
    }


def per_layer(tracer, setup, traced, untraced, tracer_mod):
    """Layer metrics for one set-up plus one traced pass (mean over passes)."""
    traced = [seconds(p, PROBE) for p in traced]
    untraced = [seconds(p, PROBE) for p in untraced]
    n = len(traced)
    setup_stats, setup_roots = tracer_mod.summarize(tracer.spans[:setup["spans"]])
    pass_stats, pass_roots = tracer_mod.summarize(tracer.spans[setup["spans"]:],
                                                  setup["spans"])
    metrics = {}
    for name in tracer_mod.TRACED:
        a = setup_stats.get(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        b = pass_stats.get(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        for key in ("s", "calls", "self_s"):
            metrics[f"{name}.{key}"] = a[key] + b[key] / n
    for name in tracer_mod.WRITERS:
        in_setup = setup["bytes"][name]
        metrics[f"{name}.bytes"] = in_setup + (tracer.bytes[name] - in_setup) / n
    wall = setup["wall"] + sum(p["wall"] for p in traced) / n
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - setup_roots - pass_roots / n
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in untraced))
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import freshtrack
    if not os.path.abspath(freshtrack.__file__).startswith(os.path.abspath(args.src) + os.sep):
        sys.exit(f"freshtrack imported from {freshtrack.__file__}, not from {args.src}")
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
        t_setup = time.perf_counter()
    import workloads
    in_dir = os.path.join(args.work_dir, "in")
    out_dir = os.path.join(args.work_dir, "out")
    os.makedirs(in_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    ops = workloads.generate(args.workload, args.seed, args.size, in_dir)
    env = load_env(ops)
    setup_s = PROBE.seconds(T0, time.perf_counter())
    PROBE.arm_native(env["np"])
    if args.mode == "setup":
        PROBE.stop()
        print(json.dumps({"setup_s": setup_s}))
        return
    state = {"attempted": 0, "failures": [], "digests": {}}
    if tracer is not None:
        setup = {"wall": time.perf_counter() - t_setup, "spans": len(tracer.spans),
                 "bytes": dict(tracer.bytes)}
        tracer.uninstall()
    # Warm-up: the first operation once, gated but not timed, pays the
    # first-call costs (numpy's lazy set-up, a cold file cache). Peak RSS is
    # read after it. Over more operations it depends on how malloc reuses
    # the freed arrays: design_wide's second plant peaks at 134 MB or 164 MB
    # from run to run.
    run_pass(ops[:1], out_dir, env, state)
    state["peak_rss_mb"] = _max_rss_mb()
    if tracer is None:
        # Two passes at least, so that a long pass on a slow host still
        # leaves a median of two (delayed_check's pass takes 11-19 s).
        passes = run_passes(ops, out_dir, env, state, args.seconds, min_passes=2)
    else:
        untraced = run_passes(ops, out_dir, env, state, args.seconds / 2)
        tracer.install()
        passes = run_passes(ops, out_dir, env, state, args.seconds / 2, tracer)
        tracer.uninstall()
    PROBE.stop()
    out = {"setup_s": setup_s, "passes": len(passes), "attempted": state["attempted"],
           "speed": PROBE.speed(), "failures": state["failures"],
           "digests": state["digests"],
           "end_to_end": end_to_end(passes, state["peak_rss_mb"], PROBE)}
    if tracer is not None:
        out["per_layer"] = per_layer(tracer, setup, passes, untraced, tracer_mod)
        tracer.dump(args.result + ".spans.jsonl")
    print(json.dumps(out))


def load_env(ops):
    """Modules the operations call, and the library path's configs."""
    import numpy as np
    import freshtrack
    from freshtrack import cli, sim_engine
    configs = {}
    for op in ops:
        if op.library:
            with open(op.spec) as f:
                configs[op.name] = json.load(f)
    return {"np": np, "freshtrack": freshtrack, "cli": cli, "sim_engine": sim_engine,
            "configs": configs}


def _library_scenario(config, env):
    """A fresh Scenario from the config file, built with the public constructors.

    Built anew for every operation (outside the timed region) so that no pass
    reuses graph windows generated by an earlier one.
    """
    ft = env["freshtrack"]
    plant = ft.LtiPlant(config["plant"]["A"], config["plant"]["C"], config["plant"]["x0"])
    graph = ft.generate_random_jointly_connected(
        plant.n_nodes, config["graph"]["T"], config["graph"]["params"]["seed"])
    return ft.Scenario(plant=plant, graph=graph, rho=config["algorithm"]["rho"],
                       horizon=config["horizon"], seed=config["seed"])


if __name__ == "__main__":
    main()
