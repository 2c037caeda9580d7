"""End-to-end scenario execution, trace capture, and convergence checks.

Runs either the freshness-index observer or a consensus baseline over a graph
sequence, records a full per-round trace, and verifies the structural index
properties, the delayed-error identity, and the exponential error envelopes
against constants computed from the trace itself, at the times of
`envelope_schedule`.  A failed check names its first (node, substate, k).

A freshness run steps ``ProtocolKernel`` on the (tau, z) arrays and copies
each round's arrays into the trace; ``error_norms`` derives the error norms
from them and the plant's trajectory, in a run and in a trace read back.
Every check is array work over the trace's stacked arrays, with -1 for a
never-informed index and for an open-loop donor throughout.  One pass
applies the update rule to every recorded round over its graph; the next
round must equal what it gives.  The delayed-error identity is one forward
pass of its closed form by Horner's rule along the recorded donors.  Both go
in chunks of ``CHUNK_ROUNDS`` rounds, so that their buffers do not grow with
the horizon besides the (H, N, S) residuals.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from .baselines import WeightStrategy, baseline_round, mixing_weights
from .decomposition import block_offsets, staircase_transform, to_transformed_coords
from .gain_design import choose_radii, compute_bound_constants, design_gains, envelope_schedule
from .graph_seq import GraphSequence, connectivity_warnings
from .observer_protocol import ProtocolKernel, initial_arrays
from .system_model import LtiPlant, simulate_truth

DELAYED_TOL = 1e-8    # largest relative residual the delayed-error identity passes
# Rounds per whole-array pass of the rule and delayed-identity checks.  At
# N = n = 64 a chunk's (chunk, N, n) float64 buffer is 1 MiB, and its int64
# gather indices are as large.  There (H = 400, two runs each) the delayed
# pass took 0.12 s with 64-round chunks and 0.095-0.10 s with 8-32.
CHUNK_ROUNDS = 32
_NONE = np.iinfo(np.int64).max   # the rule pass's "no index": above every real one


@dataclass
class Scenario:
    """Everything needed to reproduce one run."""

    plant: LtiPlant
    graph: GraphSequence
    algorithm: str = "freshness"            # "freshness" or "baseline"
    strategy: WeightStrategy | None = None  # baseline only
    rho: float | None = None
    deadbeat: bool = False
    horizon: int = 100
    seed: int = 0
    initial_estimates: list | None = None   # per-node n-vectors, original coords


class Trace:
    """Per-round record of estimates, indices, donors, and error norms.

    Indices: time-step k in 0..horizon, node ids and substates 1-indexed.
    The arrays stack the protocol kernel's per-round state along a leading
    time axis: ``taus[k]`` is the N x S index array (-1 for never informed),
    ``z_estimates[k]`` the N x n estimates, and ``donors[k]`` the donor ids
    adopted in the round that produced the state at time k (-1 for
    open-loop rounds).  S = len(block_dims) substate slots; the columns of
    zero-dimension substates stay -1.  ``adjacency[k]`` is the N x N bool
    graph of round k; ``err_block`` and ``err_total`` come from
    `error_norms`.  Callers index the arrays directly, slicing the
    estimate columns with ``block_offsets(block_dims)``.
    """

    def __init__(self, n_nodes, horizon, period_t, block_dims, rho=None):
        self.n_nodes = n_nodes
        self.horizon = horizon
        self.period_t = period_t
        self.block_dims = tuple(block_dims)
        self.rho = rho
        self.substates = [j for j in range(1, len(block_dims) + 1) if block_dims[j - 1] > 0]
        n_state, n_slots = int(sum(block_dims)), len(block_dims)
        self.taus = -np.ones((horizon + 1, n_nodes, n_slots), dtype=int)
        self.donors = -np.ones((horizon + 1, n_nodes, n_slots), dtype=int)
        self.z_estimates = np.zeros((horizon + 1, n_nodes, n_state))
        self.err_block = self.err_total = None
        self.adjacency = np.zeros((horizon, n_nodes, n_nodes), dtype=bool)
        self.ts = None
        self.gains = None
        self.constants = None
        # Codes (README lists them): rooted_mode, connectivity_uncertified, envelope_*.
        self.warnings = []

    def csv_header(self):
        """The two lines that open `to_csv`'s file: a comment and the column names."""
        slots = range(1, len(self.block_dims) + 1)
        cols = [f"{name}{j}" for name in ("tau", "donor") for j in slots]
        cols += [f"z{m}" for m in range(self.z_estimates.shape[2])]
        return ("# tau = -1 encodes omega (never informed); donor = -1 encodes open-loop\n"
                f"k,node,{','.join(cols)}\n")

    def to_csv(self, path_or_buf):
        """Numeric CSV of the protocol's arrays; one row per (k, node), k outer.

        A row is k, node, then that node's ``taus[k]`` and ``donors[k]`` rows
        (one column per slot, zero-dimension slots included) and its
        ``z_estimates[k]`` row.  The error norms are not written: they follow
        from the estimates and the plant.  Ints are written with ``str`` and
        floats with ``repr``, so reading the file back gives the arrays bit
        for bit.  ``path_or_buf`` is a path (str, bytes or ``os.PathLike``)
        or an open text file.
        """
        is_path = isinstance(path_or_buf, (str, bytes, os.PathLike))
        with open(path_or_buf, "w") if is_path else contextlib.nullcontext(path_or_buf) as f:
            f.write(self.csv_header())
            for k in range(self.horizon + 1):
                rows = zip(self.taus[k].tolist(), self.donors[k].tolist(),
                           self.z_estimates[k].tolist())
                f.write("".join(
                    f"{k},{i},{','.join(map(str, tau + donor))},"
                    f"{','.join(map(repr, z))}\n"
                    for i, (tau, donor, z) in enumerate(rows, 1)))

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def error_norms(estimates, truth, block_dims):
    """``(err_block, err_total)`` of estimates (H+1, N, n) against the truth
    (H+1, n): the (H+1, N, S) norms per slot of ``block_dims``, 0 in
    zero-dimension slots, and the (H+1, N) norms over all columns."""
    sq = estimates - truth[:, None, :]
    np.square(sq, out=sq)       # in place: one (H+1, N, n) temporary, not two
    off = block_offsets(block_dims)
    cols = [c for c, d in enumerate(block_dims) if d > 0]
    err_block = np.zeros(sq.shape[:2] + (len(block_dims),))
    err_block[:, :, cols] = np.sqrt(np.add.reduceat(sq, [off[c] for c in cols], axis=2))
    return err_block, np.sqrt(np.sum(err_block ** 2, axis=2))


def run_scenario(s: Scenario) -> Trace:
    """Execute a scenario deterministically and return its trace."""
    if s.algorithm == "baseline":
        return _run_baseline(s)
    if s.algorithm != "freshness":
        raise ValueError(f"unknown algorithm {s.algorithm!r}")
    return _run_freshness(s)


def _run_freshness(s: Scenario) -> Trace:
    plant = s.plant
    n_nodes = plant.n_nodes
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=s.rho, deadbeat=s.deadbeat, seed=s.seed)
    truth = simulate_truth(plant, s.horizon)
    z_truth = to_transformed_coords(truth.states, ts)

    trace = Trace(n_nodes, s.horizon, s.graph.period_t, ts.block_dims, rho=s.rho)
    trace.ts = ts
    trace.gains = gains

    trace.adjacency = s.graph.adjacency(s.horizon)
    trace.warnings += connectivity_warnings(trace.adjacency, s.graph.period_t, trace.substates)

    z0 = None
    if s.initial_estimates is not None:
        z0 = to_transformed_coords(s.initial_estimates, ts)
    tau, z = initial_arrays(ts, z0)
    kernel = ProtocolKernel(ts, gains)
    outputs = kernel.source_outputs(truth.measurements)
    trace.taus[0], trace.z_estimates[0] = tau, z
    for k in range(s.horizon):
        tau, z, donors = kernel.step(tau, z, trace.adjacency[k], outputs[k])
        trace.taus[k + 1], trace.donors[k + 1], trace.z_estimates[k + 1] = tau, donors, z

    trace.err_block, trace.err_total = error_norms(trace.z_estimates, z_truth, ts.block_dims)

    if not s.deadbeat and s.rho is not None:
        schedule = envelope_schedule(n_nodes, s.graph.period_t)
        subs = np.array(trace.substates) - 1
        if schedule.reference[subs[-1]] <= s.horizon:
            # Each source's own error at its substate's reference time.
            ref_norms = np.zeros(n_nodes)
            ref_norms[subs] = trace.err_block[schedule.reference[subs], subs, subs]
            trace.constants = compute_bound_constants(ts, gains, ref_norms, schedule.t_bar)
            if not np.all(np.isfinite(trace.constants.c_bar)):
                trace.warnings.append("envelope_constants_not_finite")
        else:
            trace.warnings.append("envelope_horizon_short")
    return trace


def _run_baseline(s: Scenario) -> Trace:
    plant = s.plant
    n_nodes = plant.n_nodes
    if s.strategy is None:
        raise ValueError("baseline scenarios require a weight strategy")
    truth = simulate_truth(plant, s.horizon)

    # Baseline traces use the original coordinates and a single substate slot.
    trace = Trace(n_nodes, s.horizon, s.graph.period_t, (plant.n,))
    trace.adjacency = s.graph.adjacency(s.horizon)
    weights = mixing_weights(trace.adjacency, s.strategy)
    oracle = np.arange(n_nodes) == 0      # node 1 is the oracle: it knows x(k)
    est = trace.z_estimates
    if s.initial_estimates is not None:
        est[0] = s.initial_estimates
    for k in range(s.horizon):
        est[k + 1] = baseline_round(est[k], weights[k], plant.a_matrix, oracle,
                                    truth.states[k])
    est[:, oracle] = truth.states[:, None, :]
    trace.err_block, trace.err_total = error_norms(est, truth.states, (plant.n,))
    return trace


def _first(bad, subs, order=(2, 1, 0), k0=0):
    """(node, substate, k) of the first True of bad[k, node, c], searched in
    the axis ``order`` ((substate, node, k) by default), or None.  Column c
    is substate subs[c] + 1, and row k is time k + k0."""
    searched = bad.transpose(order)
    if not searched.any():
        return None
    hit = np.unravel_index(int(np.argmax(searched)), searched.shape)
    k, i, c = np.array(hit)[np.argsort(order)]
    return (int(i) + 1, int(subs[c]) + 1, int(k) + k0)


def _substate_axis(trace: Trace):
    """Index of the nonempty substate slots: a view-making slice when every
    slot is nonempty, else the index array (which copies)."""
    if len(trace.substates) == len(trace.block_dims):
        return slice(None)
    return np.array(trace.substates) - 1


def check_envelope(trace: Trace):
    """Verify the per-substate and total exponential error envelopes.

    The envelopes take ``trace.constants``, the start times of
    `envelope_schedule` and the radii rho_j that `design_gains` draws from
    ``trace.rho``.  Returns ``{"passed", "violations", "counterexample"}``:
    the number of violating (node, substate, k) points and the first of
    them, or None.  Substate envelopes are searched in (substate, k, node)
    order, then the total envelope, marked substate 0, in (k, node) order.
    A point whose error is NaN or whose bound is not finite is a violation.
    A horizon that ends before the first start fails with a ``detail``.
    """
    constants, rho = trace.constants, trace.rho
    if constants is None:
        raise ValueError("trace carries no envelope constants")
    schedule = envelope_schedule(trace.n_nodes, trace.period_t)
    subs = np.array(trace.substates) - 1
    first = int(schedule.start[subs].min())
    if trace.horizon < first:
        return {"passed": False,
                "detail": f"insufficient horizon {trace.horizon} < first envelope start {first}"}
    radii = np.asarray(choose_radii(rho, len(trace.block_dims)))
    slack = 1.0 + 1e-9
    ks = np.arange(trace.horizon + 1)
    # bound[k, c] for substate subs[c], which counts from its start on.  The
    # hypot overflows only where the norm does, unlike a sum of squares.  A
    # bound that is not finite reads as -1, which every error exceeds.
    with np.errstate(over="ignore", invalid="ignore"):
        bound = constants.c_bar[subs] * radii[subs] ** ks[:, None] * slack + 1e-300
        total = np.hypot.reduce(constants.c_bar) * rho ** ks * slack + 1e-300
    bound, total = (np.nan_to_num(b, nan=-1.0, posinf=-1.0) for b in (bound, total))
    live = ks[:, None] >= schedule.start[subs]
    over = (~(trace.err_block[:, :, _substate_axis(trace)] <= bound[:, None, :])
            & live[:, None, :])
    live = ks >= schedule.total_start
    # One column, which _first reads as substate 0 through subs = [-1].
    over_total = (~(trace.err_total <= total[:, None]) & live[:, None])[:, :, None]
    count = int(np.count_nonzero(over) + np.count_nonzero(over_total))
    at = _first(over, subs, (2, 0, 1)) or _first(over_total, np.array([-1]), (0, 1, 2))
    return {"passed": count == 0, "violations": count, "counterexample": at}


def _delayed_residuals(trace: Trace, ts):
    """Delayed-error identity residuals at every (k, node, substate), k = 1..H.

    The identity says that an informed node's estimate of substate j at time
    k is A_jj^tau z_{k-tau}[j, j] plus A_jj^(k-t-1) A_jq z_t[v_t, q] summed
    over rounds t in k-tau..k-1 and q < j, where v_t is the node on the
    recorded donor lineage in round t.  By Horner's rule that is one forward
    recursion over the rounds: R_k = z_{k-1} A_lower^T + R_{k-1}[reader]
    A_diag^T, where a substate's reader is the donor adopted in round k-1
    (``donors[k]``) or else the node itself, and each source's own block is
    reset to z_k (tau = 0 there).  The cross terms use the node's own
    recorded estimates, as in the identity.  It calls no protocol kernel;
    that tau is the lineage's age follows from `check_lemma_suite`'s rule.

    The rounds go in chunks of ``CHUNK_ROUNDS``.  Per round only the
    recursion runs; the products, readers and norms are whole-chunk array
    work, so the buffers are O(CHUNK_ROUNDS * N * n) whatever the horizon.

    Returns an (H, N, S) array over the trace's nonempty substates: the
    relative residual ||z_k - R_k|| / max(1, ||z_k||) per block, 0 for
    sources and never-informed entries.
    """
    z = trace.z_estimates
    subs = np.array(trace.substates) - 1
    sel = _substate_axis(trace)
    col_block = np.repeat(np.arange(len(ts.block_dims)), ts.block_dims)
    cols = np.arange(ts.n)
    starts = np.asarray(ts.offsets)[subs]
    a_lower_t = np.where(col_block[:, None] > col_block[None, :], ts.a_bar, 0.0).T
    a_diag_t = np.where(col_block[:, None] == col_block[None, :], ts.a_bar, 0.0).T
    # Flat positions of the sources' own blocks in an N x n estimate array.
    own_cols = col_block * ts.n + cols
    recon = z[0]
    resid = np.zeros((trace.horizon, trace.n_nodes, subs.size))
    for k0 in range(1, trace.horizon + 1, CHUNK_ROUNDS):
        k1 = min(k0 + CHUNK_ROUNDS, trace.horizon + 1)
        donors = trace.donors[k0:k1]
        reader = np.where(donors >= 0, donors - 1, np.arange(trace.n_nodes)[:, None])
        z_gather = reader[:, :, col_block] * ts.n + cols
        z_own = z[k0:k1].reshape(k1 - k0, -1)[:, own_cols]
        recons = z[k0 - 1:k1 - 1] @ a_lower_t
        for c in range(k1 - k0):
            recons[c] += recon.take(z_gather[c]) @ a_diag_t
            recon = recons[c]
            recon.put(own_cols, z_own[c])
        # The residual pass below overwrites recons: carry a copy.
        recon = recon.copy()

        zs = z[k0:k1]
        diff = np.subtract(recons, zs, out=recons)
        np.square(diff, out=diff)
        res = resid[k0 - 1:k1 - 1]
        np.sqrt(np.add.reduceat(diff, starts, axis=2), out=res)
        res /= np.maximum(1.0, np.sqrt(np.add.reduceat(np.square(zs), starts, axis=2)))
        res[:, subs, np.arange(subs.size)] = 0.0
        res[trace.taus[k0:k1][:, :, sel] < 0] = 0.0
    return resid


def _rule_rounds(trace: Trace):
    """Yield (k0, taus, donors): the rule's (rounds, N, S) indices and donors
    of the nonempty slots at times k0, k0 + 1, ...  Time 0 is the initial
    state; time k + 1 is what round k makes of the recorded ``taus[k]`` over
    ``adjacency[k]`` by the rule ``ProtocolKernel.step`` states (a source
    holds index 0 and donor -1).  Edge by edge, in chunks of
    ``CHUNK_ROUNDS``: one minimum per receiver finds the freshest usable
    index, and one the smallest id that sends it.
    """
    subs = np.array(trace.substates) - 1
    sel = _substate_axis(trace)
    own = (slice(None), subs, np.arange(subs.size))   # each source's own slot
    start = np.full((1, trace.n_nodes, subs.size), -1)
    start[own] = 0
    yield 0, start, np.full_like(start, -1)
    for k0 in range(0, trace.horizon, CHUNK_ROUNDS):
        k1 = min(k0 + CHUNK_ROUNDS, trace.horizon)
        prev = trace.taus[k0:k1][:, :, sel]
        held = np.where(prev >= 0, prev, _NONE)   # never informed: no index
        t, sender, receiver = np.nonzero(trace.adjacency[k0:k1])
        sent = held[t, sender]
        sent[sent >= held[t, receiver]] = _NONE   # usable only if strictly fresher
        best, donor = np.full((2,) + prev.shape, _NONE)
        np.minimum.at(best, (t, receiver), sent)
        np.minimum.at(donor, (t, receiver),
                      np.where(sent == best[t, receiver], sender[:, None], _NONE))
        held = np.minimum(best, held)             # the adopted index, else its own
        taus = np.where(held != _NONE, held, -2) + 1
        donors = np.where(best != _NONE, donor, -2) + 1
        taus[own], donors[own] = 0, -1
        yield k0 + 1, taus, donors


def check_lemma_suite(trace: Trace, check_delayed=False):
    """Run the structural freshness-index checks against a recorded trace.

    Covers the paper's lemma, all indices finite by (N-1)T and none above
    2(N-1)T, and the rule: every round's indices and donors equal what
    `_rule_rounds` gives, so by induction the indices are the graph's own
    ages, each the age of its recorded donor lineage.  Optionally also the
    delayed-error identity at every informed (node, substate, k), through
    ``trace.ts``, with relative residuals up to ``DELAYED_TOL``.  A failing
    check carries its first (node, substate, k): in (substate, node, k)
    order for the lemma, else (k, substate, node), where the delayed
    identity's ``at`` is its first worst residual.
    """
    trigger_k = envelope_schedule(trace.n_nodes, trace.period_t).t_bar
    report = {"passed": True, "checks": {}, "mode": "strong"}
    if "rooted_mode" in trace.warnings:
        report["mode"] = "rooted"
    if trace.horizon < trigger_k:
        report["passed"] = False
        report["checks"]["horizon"] = {
            "passed": False,
            "detail": f"insufficient horizon {trace.horizon} < (N-1)T = {trigger_k}",
        }
        return report

    subs = np.array(trace.substates) - 1
    sel = _substate_axis(trace)
    late = trace.taus[trigger_k:, :, sel]           # [k, node, substate]
    nonsource = np.ones(late.shape[1:], dtype=bool)
    nonsource[subs, np.arange(subs.size)] = False

    faults = {
        "indices_finite": _first((late < 0) & nonsource, subs, k0=trigger_k),
        "delay_ceiling": _first((late > 2 * trigger_k) & nonsource, subs, k0=trigger_k),
        "indices_match_graph": None,
        "donors_match_graph": None,
    }
    # Rounds come in time order: the first chunk that differs holds the first.
    for k0, taus, donors in _rule_rounds(trace):
        rows = slice(k0, k0 + len(taus))
        for name, recorded, expected in (("indices_match_graph", trace.taus, taus),
                                         ("donors_match_graph", trace.donors, donors)):
            faults[name] = faults[name] or _first(
                recorded[rows][:, :, sel] != expected, subs, order=(0, 2, 1), k0=k0)
    for name, at in faults.items():
        report["checks"][name] = ({"passed": True} if at is None else
                                  {"passed": False, "counterexample": at})
    report["passed"] = all(at is None for at in faults.values())

    if check_delayed:
        resid = _delayed_residuals(trace, trace.ts)
        worst = float(np.max(resid, initial=0.0))    # NaN if any residual is NaN
        worst_at = None if worst == 0.0 else _first(
            np.isnan(resid) | (resid == worst), subs, order=(0, 2, 1), k0=1)
        entry = {"passed": worst <= DELAYED_TOL, "max_residual": worst,
                 "at": worst_at}
        report["checks"]["delayed_form"] = entry
        if not entry["passed"]:
            report["passed"] = False

    return report
