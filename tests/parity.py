"""Byte-for-byte parity of two source trees on the CLI's outputs.

    python tests/parity.py OLD_TREE NEW_TREE [--seeds 1 2 3 7]

Each tree is a checkout with a ``src/freshtrack`` package.  The configs are
the canned scenarios and every config that ``perfbench/workloads.py``
writes for the given seeds (its library configs too, taken through the
CLI), generated once with OLD_TREE's package.  Each config goes through
``freshtrack run`` and then ``freshtrack check``, one subprocess each, with
that tree's ``src`` first on ``PYTHONPATH``.  A config matches when the two
trees give the same exit codes, the same stdout and stderr (each side's
output directory masked) and byte-equal output files.  Prints every config
that differs with the parts that differ, a report by the JSON fields that
differ (``transform.a_bar``), and exits 1 if any config does.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def workload_specs(tree, seeds, work_dir):
    """(label, spec) of the canned scenarios and of each seed's workload
    configs, written under ``work_dir`` by ``tree``'s package."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    from freshtrack.scenarios import canned_scenarios

    specs = [(name, name) for name in canned_scenarios()]
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            in_dir = os.path.join(work_dir, "in", f"seed{seed}", workload)
            os.makedirs(in_dir, exist_ok=True)
            for op in workloads.generate(workload, seed, "full", in_dir):
                if op.spec != op.name:      # canned names are listed once above
                    specs.append((f"{workload}/{op.name}@{seed}", op.spec))
    return specs


def _freshtrack(tree, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run([sys.executable, "-m", "freshtrack.cli", *args], env=env,
                          capture_output=True, text=True)


def outcome(tree, spec, out_dir):
    """Exit codes, stdout, stderr and output files (name to bytes) of ``run``
    then ``check``; stderr reads ``<out>`` for ``out_dir``."""
    os.makedirs(out_dir)
    stem = os.path.join(out_dir, os.path.splitext(os.path.basename(spec))[0])
    done = [_freshtrack(tree, ["run", spec, "--out", out_dir]),
            _freshtrack(tree, ["check", f"{stem}_trace.csv", f"{stem}_report.json"])]
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as f:
            files[name] = f.read()
    return {"exit codes": tuple(d.returncode for d in done),
            "stdout": tuple(d.stdout for d in done),
            "stderr": tuple(d.stderr.replace(out_dir, "<out>") for d in done),
            "files": files}


_ABSENT = object()


def report_fields(old, new, path=""):
    """The dotted paths of the JSON values that differ between two parsed
    reports, descending through objects only: an array differs as a whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [field for key in sorted(old.keys() | new.keys())
                for field in report_fields(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                           f"{path}{key}.")]
    return [] if old == new else [path[:-1]]


def _report(data):
    """A report's JSON, NaN and infinities read as their names so that they
    compare equal; None for a report that is not JSON."""
    try:
        return json.loads(data, parse_constant=str)
    except ValueError:
        return None


def differences(old, new):
    """The parts of two outcomes that differ: "exit codes", "stdout",
    "stderr", and each output file by name, a report that both sides wrote
    as JSON as "<name>: <field>" for each field that differs."""
    parts = [part for part in ("exit codes", "stdout", "stderr") if old[part] != new[part]]
    for name in sorted(old["files"].keys() | new["files"].keys()):
        data = old["files"].get(name), new["files"].get(name)
        if data[0] == data[1]:
            continue
        fields = []
        if name.endswith("_report.json") and None not in data:
            reports = [_report(d) for d in data]
            if None not in reports:
                fields = report_fields(*reports)
        parts += [f"{name}: {field}" for field in fields if field] or [name]
    return parts


def compare(old, new, specs, work_dir):
    """The labels of ``specs`` whose outcome differs between the trees, each
    with the parts that differ (`differences`)."""
    differing = []
    for m, (label, spec) in enumerate(specs):
        got = [outcome(tree, spec, os.path.join(work_dir, side, str(m)))
               for side, tree in (("old", old), ("new", new))]
        parts = differences(*got)
        if parts:
            differing.append((label, parts))
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 7])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as work_dir:
        specs = workload_specs(os.path.abspath(args.old_tree), args.seeds, work_dir)
        differing = compare(os.path.abspath(args.old_tree), os.path.abspath(args.new_tree),
                            specs, work_dir)
    for label, parts in differing:
        print(f"DIFFERS {label}: {', '.join(parts)}")
    print(f"{len(specs) - len(differing)} of {len(specs)} configs identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
