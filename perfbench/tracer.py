"""In-memory span recorder around freshtrack's public functions.

`Tracer.install` swaps each traced function for a wrapper wherever a
freshtrack module holds a reference to it (``from .x import f`` copies the
name into the importing module), and swaps methods on their class. Each call
records a span: name, start, end, parent span and operation id. Nothing is
patched until `install`, so an untraced run executes the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("system_model", "decomposition", "gain_design", "graph_seq",
           "observer_protocol", "baselines", "sim_engine", "cli", "scenarios")

TRACED = (
    "system_model.simulate_truth",
    "system_model.is_jointly_observable",
    "decomposition.staircase_transform",
    "decomposition.to_transformed_coords",
    "gain_design.design_gains",
    "gain_design.place_spectral",
    "gain_design.place_deadbeat",
    "gain_design.compute_bound_constants",
    "graph_seq.certify_joint_strong_connectivity",
    "graph_seq.certify_jointly_rooted",
    "graph_seq.Digraph.in_neighbors",
    "observer_protocol.protocol_round",
    "observer_protocol.check_delayed_form",
    "baselines.baseline_round",
    "sim_engine.run_scenario",
    "sim_engine.check_lemma_suite",
    "sim_engine.check_envelope",
    "sim_engine.Trace.to_csv",
    "cli.main",
    "cli.cmd_run",
    "cli.cmd_check",
    "cli.build_scenario",
    "cli.run_checks",
    "cli.build_report",
    "cli._atomic_write",
    "scenarios.canned_scenarios",
)

# Writers whose output size is recorded; the first argument after ``self``
# (if any) is a path or a text buffer.
WRITERS = ("sim_engine.Trace.to_csv", "cli._atomic_write")


def _written(target, before):
    if isinstance(target, (str, bytes, os.PathLike)):
        return os.path.getsize(target)
    return target.tell() - before


class Tracer:
    def __init__(self):
        self.spans = []       # (name, start, end, parent index or -1, op id)
        self.bytes = dict.fromkeys(WRITERS, 0)
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, is_method):
        spans, stack = self.spans, self._stack
        writer = name in WRITERS
        arg = 1 if is_method else 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            target = args[arg] if writer and len(args) > arg else None
            before = target.tell() if hasattr(target, "tell") else 0
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.op)
                if target is not None:
                    self.bytes[name] += _written(target, before)
        return wrapper

    def install(self):
        """Wrap every traced function that exists; absent ones stay at 0 calls."""
        mods = {m: sys.modules.get(f"freshtrack.{m}") for m in MODULES}
        for m in MODULES:
            if mods[m] is None:
                try:
                    mods[m] = importlib.import_module(f"freshtrack.{m}")
                except ImportError:
                    pass
        holders = [sys.modules["freshtrack"]] + [m for m in mods.values() if m is not None]
        for name in TRACED:
            mod_name, *path = name.split(".")
            owner = mods.get(mod_name)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if inspect.isclass(owner):
                fn = owner.__dict__.get(path[-1])
                if inspect.isfunction(fn):
                    self._swap(owner, path[-1], self._wrap(name, fn, True))
                continue
            fn = getattr(owner, path[-1], None)
            if not inspect.isfunction(fn):
                continue
            wrapper = self._wrap(name, fn, False)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._swap(holder, attr, wrapper)

    def _swap(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def dump(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def summarize(spans, first=0):
    """Per-name inclusive time, calls and self time, plus the root-span total.

    ``spans`` is a slice of `Tracer.spans` that starts at index ``first``
    and holds every descendant of its spans (parent indices are absolute).

    Self time is a span's duration minus the time its child spans cover
    (children of one span never overlap: the program is single-threaded).
    A span nested inside a span of the same name adds to calls and self
    time but not again to the inclusive time.
    """
    spans = [(name, start, end, parent - first if parent >= 0 else -1)
             for name, start, end, parent, _ in spans]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    roots = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[index]
        if parent < 0:
            roots += end - start
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return stats, roots
