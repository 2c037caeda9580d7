"""End-to-end scenario execution, trace capture, and convergence checks.

Runs either the freshness-index observer or a consensus baseline over a graph
sequence, records a full per-round trace, and verifies the structural index
properties, the delayed-error identity, and the exponential error envelopes
against constants computed from the trace itself.

A freshness run steps ``ProtocolKernel`` on the (tau, z) arrays and copies
each round's arrays into the trace; ``error_norms`` derives the error norms
from them and the plant's trajectory, in a run and in a trace read back.
Every check is array work over the trace's stacked arrays, with -1 for a
never-informed index and for an open-loop donor throughout.  The
delayed-error identity is checked by one forward pass over the rounds that
evaluates its closed form by Horner's rule along the recorded donors.  The
pass goes in chunks of ``DELAYED_CHUNK`` rounds: only the recursion steps
run per round, the rest is array work over the chunk, so its buffers stay
O(DELAYED_CHUNK * N * n) besides the (H, N, S) residuals.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass

import numpy as np

from .baselines import WeightStrategy, baseline_round, mixing_weights
from .decomposition import block_offsets, staircase_transform, to_transformed_coords
from .gain_design import choose_radii, compute_bound_constants, design_gains
from .graph_seq import (
    GraphSequence,
    certify_joint_strong_connectivity,
    certify_jointly_rooted,
    window_unions,
)
from .observer_protocol import ProtocolKernel, initial_arrays
from .system_model import LtiPlant, simulate_truth

LOG_FLOOR = 1e-13     # error norms below this are numerical noise for log fits
DELAYED_TOL = 1e-8    # largest relative residual the delayed-error identity passes
# Rounds per whole-array pass of the delayed-identity check.  At N = n = 64
# a chunk's (chunk, N, n) float64 buffer is 1 MiB, and its int64 gather
# indices are as large.  There (H = 400, two runs each) the pass took 0.12 s
# with 64-round chunks and 0.095-0.10 s with 8-32; at the benchmark's sizes
# the length made no difference.
DELAYED_CHUNK = 32


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
        # Codes: rooted_mode, connectivity_uncertified, envelope_horizon_short.
        self.warnings = []

    def max_error(self):
        """Max-over-nodes total error norm per time-step."""
        return np.max(self.err_total, axis=1)

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


def _t_bar(n_nodes, period_t):
    return (n_nodes - 1) * period_t


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
    if s.horizon >= s.graph.period_t:
        unions = window_unions(trace.adjacency, s.graph.period_t)
        if not certify_joint_strong_connectivity(unions):
            if all(certify_jointly_rooted(unions, j) for j in trace.substates):
                trace.warnings.append("rooted_mode")
            else:
                trace.warnings.append("connectivity_uncertified")

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
        t_bar = _t_bar(n_nodes, s.graph.period_t)
        ref_norms = np.zeros(n_nodes)
        ok = True
        for j in trace.substates:
            ref_time = 0 if j == 1 else (2 * j - 3) * t_bar
            if ref_time > s.horizon:
                ok = False
                break
            ref_norms[j - 1] = trace.err_block[ref_time, j - 1, j - 1]
        if ok:
            trace.constants = compute_bound_constants(ts, gains, ref_norms, t_bar)
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


def fit_decay_rate(trace: Trace, k_start: int) -> float:
    """Least-squares exponential rate of the max-node error from k_start on.

    Stops at the numerical floor; requires at least 10 usable points.
    """
    maxed = trace.max_error()[k_start:]
    floor_hits = np.nonzero(maxed <= LOG_FLOOR)[0]
    if floor_hits.size:
        maxed = maxed[:floor_hits[0]]
    if maxed.size < 10:
        raise ValueError(f"only {maxed.size} usable points above the numerical floor")
    ks = np.arange(k_start, k_start + maxed.size)
    slope = np.polyfit(ks, np.log(maxed), 1)[0]
    return float(np.exp(slope))


def _substate_axis(trace: Trace):
    """Index of the nonempty substate slots: a view-making slice when every
    slot is nonempty, else the index array (which copies)."""
    if len(trace.substates) == len(trace.block_dims):
        return slice(None)
    return np.array(trace.substates) - 1


def check_envelope(trace: Trace):
    """Verify the per-substate and total exponential error envelopes.

    The envelopes take ``trace.constants``, t_bar = (N-1)T and the radii
    rho_j that `design_gains` draws from ``trace.rho``.  Returns a dict with
    a (possibly empty) list of violating (node, substate, k) triples:
    substate envelopes in (substate, k, node) order, then the total
    envelope, marked substate 0, in (k, node) order.  A point whose error
    or bound is NaN is a violation.
    """
    constants, rho = trace.constants, trace.rho
    if constants is None:
        raise ValueError("trace carries no envelope constants")
    t_bar = _t_bar(trace.n_nodes, trace.period_t)
    radii = np.asarray(choose_radii(rho, len(trace.block_dims)))
    slack = 1.0 + 1e-9
    ks = np.arange(trace.horizon + 1)
    subs = np.array(trace.substates) - 1
    # bound[k, c] for substate subs[c], which counts from k = (2j-1) T_bar on.
    bound = (constants.c_bar[subs] * radii[subs] ** ks[:, None] * slack
             + 1e-300)
    live = ks[:, None] >= (2 * subs + 1) * t_bar
    over = (~(trace.err_block[:, :, _substate_axis(trace)] <= bound[:, None, :])
            & live[:, None, :])
    violations = [(int(i) + 1, int(subs[c]) + 1, int(k))
                  for c, k, i in np.argwhere(over.transpose(2, 0, 1))]
    total_amp = float(np.sqrt(np.sum(constants.c_bar ** 2)))
    bound = total_amp * rho ** ks * slack + 1e-300
    live = ks >= (2 * trace.n_nodes - 1) * t_bar
    over = ~(trace.err_total <= bound[:, None]) & live[:, None]
    violations += [(int(i) + 1, 0, int(k)) for k, i in np.argwhere(over)]
    return {"violations": violations, "passed": not violations}


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
    recorded estimates, as in the identity.  The lineage's length (its age)
    follows from the round it left the source, carried along the same
    readers: k at each source, -1 while the lineage does not reach the
    source.  Neither recursion reads the recorded indices or calls the
    protocol kernel, so a defect in the kernel's estimates, donors or
    indices still shows here.

    The rounds go in chunks of ``DELAYED_CHUNK``.  Per round only the two
    recursions run; the cross-substate products, the readers, the norms and
    the masks are whole-chunk array work.  Beyond the result the pass holds
    O(DELAYED_CHUNK * N * n) of buffers, whatever the horizon.

    Returns an (H, N, S) array over the trace's nonempty substates: the
    relative residual ||z_k - R_k|| / max(1, ||z_k||) per block, 0 for
    sources and never-informed entries, and NaN where an informed entry's
    index is not the length of its recorded lineage (including a lineage
    that does not reach the source).
    """
    z = trace.z_estimates
    n_nodes, n_slots = trace.taus.shape[1:]
    subs = np.array(trace.substates) - 1
    sel = _substate_axis(trace)
    col_block = np.repeat(np.arange(len(ts.block_dims)), ts.block_dims)
    cols = np.arange(ts.n)
    starts = np.asarray(ts.offsets)[subs]
    a_lower_t = np.where(col_block[:, None] > col_block[None, :], ts.a_bar, 0.0).T
    a_diag_t = np.where(col_block[:, None] == col_block[None, :], ts.a_bar, 0.0).T
    # Flat positions of the sources' own blocks in an N x n estimate array
    # and of their own slots in an N x S lineage array.
    own_cols = col_block * ts.n + cols
    own_slots = subs * n_slots + subs
    recon = z[0]
    origin = np.full((n_nodes, n_slots), -1)
    origin.put(own_slots, 0)
    resid = np.zeros((trace.horizon, n_nodes, subs.size))
    for k0 in range(1, trace.horizon + 1, DELAYED_CHUNK):
        k1 = min(k0 + DELAYED_CHUNK, trace.horizon + 1)
        donors = trace.donors[k0:k1]
        reader = np.where(donors >= 0, donors - 1, np.arange(n_nodes)[:, None])
        z_gather = reader[:, :, col_block] * ts.n + cols
        slot_gather = reader * n_slots + np.arange(n_slots)
        z_own = z[k0:k1].reshape(k1 - k0, -1)[:, own_cols]
        recons = z[k0 - 1:k1 - 1] @ a_lower_t
        origins = np.empty(reader.shape, dtype=origin.dtype)
        for c, k in enumerate(range(k0, k1)):
            recons[c] += recon.take(z_gather[c]) @ a_diag_t
            recon = recons[c]
            recon.put(own_cols, z_own[c])
            origin = origin.take(slot_gather[c])
            origin.put(own_slots, k)
            origins[c] = origin
        # The residual pass below overwrites recons: carry a copy.
        recon = recon.copy()

        zs = z[k0:k1]
        diff = np.subtract(recons, zs, out=recons)
        np.square(diff, out=diff)
        res = resid[k0 - 1:k1 - 1]
        np.sqrt(np.add.reduceat(diff, starts, axis=2), out=res)
        res /= np.maximum(1.0, np.sqrt(np.add.reduceat(np.square(zs), starts, axis=2)))
        res[:, subs, np.arange(subs.size)] = 0.0
        taus = trace.taus[k0:k1][:, :, sel]
        ages = np.where(origins >= 0, np.arange(k0, k1)[:, None, None] - origins, -1)
        res[taus < 0] = 0.0
        res[(taus >= 0) & (ages[:, :, sel] != taus)] = np.nan
    return resid


def check_lemma_suite(trace: Trace, check_delayed=False):
    """Run the structural freshness-index checks against a recorded trace.

    Covers: all indices finite by (N-1)T, the 2(N-1)T delay ceiling, the
    one-step index growth bound, the source index pinned at zero, and
    source-preferred donor selection.  Optionally also the delayed-error
    identity at every informed (node, substate, k), through ``trace.ts``,
    with relative residuals up to ``DELAYED_TOL``.  A failing check carries
    its first counterexample (node, substate, k): in (substate, node, k)
    order for the index checks, (substate, k) for the pinned source and
    (k, substate, node) for donor selection and the delayed identity, whose
    ``at`` is the first worst residual.
    """
    trigger_k = (trace.n_nodes - 1) * trace.period_t
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
    taus = trace.taus[:, :, sel]                    # [k, node, substate]
    nonsource = np.ones(taus.shape[1:], dtype=bool)
    nonsource[subs, np.arange(subs.size)] = False
    late = taus[trigger_k:]

    def first(bad, order=(2, 1, 0), k0=0):
        """(node, substate, k) of the first True of bad[k, node, c], searched
        in the axis ``order`` ((substate, node, k) by default), or None."""
        searched = bad.transpose(order)
        if not searched.any():
            return None
        hit = np.unravel_index(int(np.argmax(searched)), searched.shape)
        k, i, c = np.array(hit)[np.argsort(order)]
        return (int(i) + 1, int(subs[c]) + 1, int(k) + k0)

    faults = {
        "indices_finite": first((late < 0) & nonsource, k0=trigger_k),
        "delay_ceiling": first((late > 2 * trigger_k) & nonsource, k0=trigger_k),
        "index_step_bound": first((taus[:-1] >= 0) & (taus[1:] > taus[:-1] + 1)
                                  & nonsource),
        # One node per substate can fail here, so this is (substate, k) order.
        "source_pinned": first((taus != 0) & ~nonsource),
        # Whenever the source is an in-neighbor in round k, it must be the
        # adopted donor; searched in (k, substate, node) order.
        "source_preferred": first(trace.adjacency[:, sel, :].transpose(0, 2, 1)
                                  & (trace.donors[1:, :, sel] != subs + 1)
                                  & nonsource, order=(0, 2, 1)),
    }
    for name, counterexample in faults.items():
        if counterexample is None:
            report["checks"][name] = {"passed": True}
        else:
            report["passed"] = False
            report["checks"][name] = {"passed": False, "counterexample": counterexample}

    if check_delayed:
        resid = _delayed_residuals(trace, trace.ts)
        worst = float(np.max(resid, initial=0.0))    # NaN if any residual is NaN
        worst_at = None if worst == 0.0 else first(
            np.isnan(resid) | (resid == worst), order=(0, 2, 1), k0=1)
        entry = {"passed": worst <= DELAYED_TOL, "max_residual": worst,
                 "at": worst_at}
        report["checks"]["delayed_form"] = entry
        if not entry["passed"]:
            report["passed"] = False

    return report
