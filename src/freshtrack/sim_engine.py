"""End-to-end scenario execution, the trace file, and every check of a run.

Runs either the freshness-index observer or a consensus baseline over a graph
sequence, records a full per-round trace, writes and reads its file
(`Trace.to_csv`, `Trace.read_csv`), and owns every verdict on it: the index
lemma and the delayed-error identity, the exponential error envelopes against
constants computed from the trace itself at the times of `envelope_schedule`,
a deadbeat run's finite time and a baseline's divergence, the four
``check_*`` functions.  A failed check names its first (node, substate, k).

`scenario_trace` starts every trace, run or read back.  A freshness run
fills its arrays in two whole-run passes of ``ProtocolKernel``: the indices
and donors from the graph alone, then the estimates along the recorded
donors.  Every check is array work over the trace's arrays, one column per
substate, with -1 for a never-informed index and for an open-loop donor.
The error norms are `error_norms` of the estimates against the truth, for
the rounds a check needs.  One pass applies the update rule to every
recorded round over its graph; the next round must equal what it gives.
The delayed-error identity is one forward pass of its closed form by
Horner's rule along the recorded donors.  These passes, the error norms
included, go in chunks of `check_chunk_rounds`: ``CHUNK_ROUNDS`` rounds, or
as many as fill ``CHECK_POINTS`` (k, node, state) points, so that a small
plant's check takes few chunks and no buffer grows with the horizon but the
trace's own arrays.  The protocol's passes and the trace writer go in chunks
of ``CHUNK_ROUNDS``.  Every per-substate norm is `_block_norms`.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .baselines import WeightStrategy, baseline_round, mixing_weights
from .decomposition import block_offsets, staircase_transform, to_transformed_coords
from .gain_design import choose_radii, compute_bound_constants, design_gains, envelope_schedule
from .graph_seq import GraphSequence, connectivity_warnings
from .observer_protocol import ProtocolKernel
from .system_model import LtiPlant, simulate_truth

DELAYED_TOL = 1e-8    # largest relative residual the delayed-error identity passes
# Rounds per whole-array pass of the protocol and the trace writer, and the
# fewest per chunk of a check pass.  At N = n = 64 a chunk's (chunk, N, n)
# float64 buffer is 1 MiB, and its int64 gather indices are as large.  There
# (H = 400, two runs each) the delayed pass took 0.12 s with 64-round chunks
# and 0.095-0.10 s with 8-32.  The writer slows past about 80 rounds, and
# the protocol's passes gain nothing from longer chunks.
CHUNK_ROUNDS = 32
# (k, node, state) points per chunk of a check pass past CHUNK_ROUNDS: a
# (rounds, N, n) float64 buffer of at most 128 KiB.
CHECK_POINTS = 2 ** 14
_NONE = np.iinfo(np.int64).max   # the rule pass's "no index": above every real one


def check_chunk_rounds(n_nodes, n):
    """Rounds per chunk of the check passes (`_rule_rounds`,
    `_delayed_residuals`, `_error_chunks`) over N nodes and n states:
    ``CHUNK_ROUNDS``, or as many as ``CHECK_POINTS`` (k, node, state) points
    fill.  Each chunk costs a few dozen numpy calls of set-up, which on a
    small plant outweigh its array work; the chunking moves no bit.
    """
    return max(CHUNK_ROUNDS, CHECK_POINTS // (n_nodes * n))


@dataclass
class Scenario:
    """Everything needed to reproduce one run."""

    plant: LtiPlant
    graph: GraphSequence
    strategy: WeightStrategy | None = None  # set: a baseline run; None: freshness
    rho: float | None = None
    deadbeat: bool = False
    horizon: int = 100
    seed: int = 0
    initial_estimates: list | None = None   # per-node n-vectors, original coords


class Trace:
    """A run's state and its truth: per-round estimates, indices and donors.

    Indices: time-step k in 0..horizon, node ids and substates 1-indexed.
    The arrays stack the protocol kernel's per-round state along a leading
    time axis: ``taus[k]`` is the N x S index array (-1 for never informed),
    ``z_estimates[k]`` the N x n estimates, and ``donors[k]`` the donor ids
    adopted in the round that produced the state at time k (-1 for
    open-loop rounds).  Column c is substate ``substates[c]``, the c-th
    nonempty block; ``sources[c]`` is its 0-based source node, and S their
    number.  A zero-dimension block has no column.  ``adjacency[k]`` is the
    N x N bool graph of round k, and ``truth[k]`` the plant's state in the
    estimates' coordinates, which `scenario_trace` sets: `error_norms`
    takes the errors from the two.  Callers index the arrays directly,
    slicing the estimate columns with ``block_offsets(block_dims)``.
    """

    def __init__(self, n_nodes, horizon, period_t, block_dims, rho=None):
        self.n_nodes = n_nodes
        self.horizon = horizon
        self.period_t = period_t
        self.block_dims = tuple(block_dims)
        self.rho = rho
        self.sources = np.flatnonzero(np.asarray(block_dims) > 0)
        self.substates = (self.sources + 1).tolist()
        self.taus = np.full((horizon + 1, n_nodes, self.sources.size), -1)
        self.donors = np.full_like(self.taus, -1)
        self.z_estimates = np.zeros((horizon + 1, n_nodes, int(sum(block_dims))))
        self.adjacency = np.zeros((horizon, n_nodes, n_nodes), dtype=bool)
        self.truth = self.ts = self.gains = self.constants = None
        # Codes (README lists them): rooted_mode, connectivity_uncertified, envelope_*.
        self.warnings = []

    def csv_header(self):
        """The two lines that open `to_csv`'s file: a comment and the column names."""
        cols = [f"{name}{j}" for name in ("tau", "donor") for j in self.substates]
        cols += [f"z{m}" for m in range(self.z_estimates.shape[2])]
        return ("# tau = -1 encodes omega (never informed); donor = -1 encodes open-loop\n"
                f"k,node,{','.join(cols)}\n")

    def to_csv(self, path_or_buf):
        """Numeric CSV of the protocol's arrays; one row per (k, node), k outer.

        A row is k, node, then that node's ``taus[k]`` and ``donors[k]`` rows
        (one column per substate) and its ``z_estimates[k]`` row.
        Ints are written with ``str`` and floats with ``repr``, so reading
        the file back gives the arrays bit for bit.  ``path_or_buf`` is a
        path (str, bytes or ``os.PathLike``) or an open text file.

        The rows go in chunks of ``CHUNK_ROUNDS`` rounds, one write each.  A
        chunk formats each distinct float bit pattern once (bits, not values,
        so that -0.0 stays apart from 0.0) and takes its int cells from one
        table of ``str`` over the trace's int range, so its buffers do not
        grow with the horizon.
        """
        n_nodes, n_subs = self.taus.shape[1:]
        lo = min(-1, self.taus.min(), self.donors.min())
        hi = max(self.horizon, n_nodes, self.taus.max(), self.donors.max())
        table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
        is_path = isinstance(path_or_buf, (str, bytes, os.PathLike))
        with open(path_or_buf, "w") if is_path else contextlib.nullcontext(path_or_buf) as f:
            f.write(self.csv_header())
            for k0 in range(0, self.horizon + 1, CHUNK_ROUNDS):
                k1 = min(k0 + CHUNK_ROUNDS, self.horizon + 1)
                ints = np.empty((k1 - k0, n_nodes, 2 + 2 * n_subs), dtype=np.int64)
                ints[:, :, 0] = np.arange(k0, k1)[:, None]
                ints[:, :, 1] = np.arange(1, n_nodes + 1)
                ints[:, :, 2:2 + n_subs] = self.taus[k0:k1]
                ints[:, :, 2 + n_subs:] = self.donors[k0:k1]
                ints -= lo
                z = self.z_estimates[k0:k1]
                bits, where = np.unique(z.view(np.int64).ravel(), return_inverse=True)
                reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
                cells = np.concatenate([table[ints], reprs[where].reshape(z.shape)], axis=2)
                rows = map(",".join, cells.reshape(-1, cells.shape[2]).tolist())
                f.write("\n".join(rows) + "\n")

    def read_csv(self, path):
        """Fill ``taus``, ``donors`` and ``z_estimates`` bit for bit from the
        `to_csv` file at ``path``.  ValueError where the file breaks
        `csv_header`, the (k, node) row order or integer tau/donor cells >= -1."""
        h1, n_nodes, s = self.horizon + 1, self.n_nodes, len(self.substates)
        with open(path) as f:
            header = f.readline() + f.readline()
            if header != self.csv_header():
                raise ValueError(f"trace must open with the lines {self.csv_header()!r} "
                                 "for the report's block_dims")
            # One comment character keeps loadtxt on numpy's C parser.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # "input contained no data"
                rows = np.loadtxt(f, delimiter=",", comments="#", ndmin=2)
        shape = (h1 * n_nodes, 2 + 2 * s + self.z_estimates.shape[2])
        if rows.shape != shape:
            raise ValueError(f"trace rows x columns are {rows.shape}, the report's {shape}")
        if not np.array_equal(rows[:, :2], np.indices((h1, n_nodes)).reshape(2, -1).T + [0, 1]):
            raise ValueError("trace rows must be (k, node) for k = 0..H, node = 1..N, in order")
        with np.errstate(invalid="ignore"):
            ints = rows[:, 2:2 + 2 * s].astype(int)
        if not np.array_equal(ints, rows[:, 2:2 + 2 * s]):
            raise ValueError("trace tau/donor columns must be integers")
        if np.any(ints < -1):
            raise ValueError("corrupt trace: tau/donor below -1")
        self.taus[:], self.donors[:] = ints.reshape(h1, n_nodes, 2, s).transpose(2, 0, 1, 3)
        self.z_estimates[:] = rows[:, 2 + 2 * s:].reshape(h1, n_nodes, -1)


@np.errstate(over="ignore")
def _block_norms(x, starts=None):
    """The 2-norms of x's column blocks beginning at ``starts``, or of its
    whole last axis.  Each is the sqrt of a sum of squares, which overflows
    once an entry passes about 1.3e154; only the norms that come out inf
    are taken again by ``np.hypot``, which stays finite up to float64's
    range."""
    sq = np.square(x)
    norms = np.sqrt(np.add.reduce(sq, axis=-1) if starts is None
                    else np.add.reduceat(sq, starts, axis=-1))
    if np.fmax.reduce(norms, axis=None) == np.inf:
        x = np.abs(x)       # a one-entry block reduces to its entry
        safe = (np.hypot.reduce(x, axis=-1) if starts is None
                else np.hypot.reduceat(x, starts, axis=-1))
        over = np.isinf(norms)
        norms[over] = safe[over]
    return norms


def error_norms(estimates, truth, block_dims):
    """``(err_block, err_total)`` of estimates (K, N, n) against the truth
    (K, n) at K rounds: the (K, N, S) `_block_norms` per nonempty block of
    ``block_dims``, and the (K, N) norms over all columns, taken from the
    block norms.  A norm reads only its (round, node) row, so callers pass
    the rounds they need in chunks."""
    starts = [o for o, d in zip(block_offsets(block_dims), block_dims) if d > 0]
    err_block = _block_norms(estimates - truth[:, None, :], starts)
    return err_block, _block_norms(err_block)


def _error_chunks(trace: Trace, start=0, stop=None):
    """Yield (rows, err_block, err_total): `error_norms` of the trace's rounds
    from ``start`` to before ``stop`` (H + 1 by default), in slices ``rows``
    of `check_chunk_rounds`."""
    stop = trace.horizon + 1 if stop is None else stop
    chunk = check_chunk_rounds(*trace.z_estimates.shape[1:])
    for k0 in range(start, stop, chunk):
        rows = slice(k0, min(k0 + chunk, stop))
        yield rows, *error_norms(trace.z_estimates[rows], trace.truth[rows], trace.block_dims)


def total_errors(trace: Trace, start=0, stop=None):
    """The (stop - start, N) total error norms from `_error_chunks`."""
    return np.concatenate([total for _, _, total in _error_chunks(trace, start, stop)])


def scenario_trace(s: Scenario, ts=None):
    """``(trace, states)``: the `Trace` of ``s`` with its adjacency, codes
    and truth, and the plant's (H+1, n) states; runs and `check`'s loader
    start here.  With ``ts``, a freshness run's transform, the trace gets
    connectivity codes and the states through T as truth; without, the one
    block [n] and the states.  The trace's arrays are allocated last."""
    states = simulate_truth(s.plant, s.horizon)
    block_dims = (s.plant.n,) if ts is None else ts.block_dims
    adjacency = s.graph.adjacency(s.horizon)
    codes = ([] if ts is None else
             connectivity_warnings(adjacency, s.graph.period_t, np.flatnonzero(block_dims) + 1))
    trace = Trace(s.plant.n_nodes, s.horizon, s.graph.period_t, block_dims, rho=s.rho)
    trace.adjacency, trace.warnings, trace.ts = adjacency, codes, ts
    trace.truth = states if ts is None else to_transformed_coords(states, ts)
    return trace, states


def run_scenario(s: Scenario) -> Trace:
    """Execute a scenario deterministically and return its trace: the
    baseline of ``s.strategy`` when it is set, else the freshness observer."""
    return _run_freshness(s) if s.strategy is None else _run_baseline(s)


def _run_freshness(s: Scenario) -> Trace:
    plant = s.plant
    ts = staircase_transform(plant)
    gains = design_gains(ts, rho=s.rho, deadbeat=s.deadbeat, seed=s.seed)
    trace, states = scenario_trace(s, ts)
    trace.gains = gains

    # The start: every index -1 but the sources' own, every estimate 0 unless given.
    trace.taus[0, trace.sources, np.arange(trace.sources.size)] = 0
    if s.initial_estimates is not None:
        trace.z_estimates[0] = to_transformed_coords(s.initial_estimates, ts)
    # The sources' outputs, one product per source: a single stacked
    # product rounds differently.  The states are not needed after them.
    rows = np.cumsum([0] + [len(plant.sensors[j]) for j in trace.sources])
    outputs = np.empty((s.horizon + 1, rows[-1]))
    for c, j in enumerate(trace.sources):
        outputs[:, rows[c]:rows[c + 1]] = states @ plant.sensors[j].T
    del states
    kernel = ProtocolKernel(ts, gains)
    kernel.index_pass(trace.adjacency, trace.taus, trace.donors, CHUNK_ROUNDS)
    kernel.estimate_pass(trace.donors, outputs, trace.z_estimates, CHUNK_ROUNDS)

    if not s.deadbeat:     # design_gains has refused a spectral run without rho
        schedule = envelope_schedule(trace.n_nodes, s.graph.period_t)
        subs = trace.sources
        if schedule.reference[subs[-1]] <= s.horizon:
            # Each source's own error at its substate's reference time: column
            # m of err is its block's source node's, at that node's time.
            node = np.repeat(np.arange(trace.n_nodes), ts.block_dims)
            at, cols = schedule.reference[node], np.arange(ts.n)
            err = trace.z_estimates[at, node, cols] - trace.truth[at, cols]
            ref_norms = np.zeros(trace.n_nodes)
            ref_norms[subs] = _block_norms(err, np.asarray(ts.offsets)[subs])
            trace.constants = compute_bound_constants(ts, gains, ref_norms, schedule.t_bar)
            if not np.all(np.isfinite(trace.constants.c_bar)):
                trace.warnings.append("envelope_constants_not_finite")
            if schedule.total_start > s.horizon:   # the last envelope to start
                trace.warnings.append("envelope_horizon_partial")
        else:
            trace.warnings.append("envelope_horizon_short")
    return trace


def _run_baseline(s: Scenario) -> Trace:
    plant = s.plant
    trace, truth = scenario_trace(s)
    weights = mixing_weights(trace.adjacency, s.strategy)
    oracle = np.arange(plant.n_nodes) == 0      # node 1 is the oracle: it knows x(k)
    est = trace.z_estimates
    if s.initial_estimates is not None:
        est[0] = s.initial_estimates
    for k in range(s.horizon):
        est[k + 1] = baseline_round(est[k], weights[k], plant.a_matrix, oracle, truth[k])
    est[:, oracle] = truth[:, None, :]
    return trace


def _first(bad, subs, order=(2, 1, 0), k0=0):
    """(node, substate, k) of the first True of bad[k, node, c], searched in
    the axis ``order`` ((substate, node, k) by default), or None.  Column c
    is substate subs[c] + 1 (``subs`` is a trace's ``sources``), and row k
    is time k + k0."""
    searched = bad.transpose(order)
    if not searched.any():
        return None
    hit = np.unravel_index(int(np.argmax(searched)), searched.shape)
    k, i, c = np.array(hit)[np.argsort(order)]
    return (int(i) + 1, int(subs[c]) + 1, int(k) + k0)


def check_envelope(trace: Trace):
    """Verify the per-substate and total exponential error envelopes.

    The envelopes take ``trace.constants``, the start times of
    `envelope_schedule` and the radii rho_j that `design_gains` draws from
    ``trace.rho``.  Returns ``{"passed", "violations", "counterexample"}``:
    the number of violating (node, substate, k) points and the first of
    them, or None.  Substate envelopes are searched in (substate, k, node)
    order, then the total envelope, marked substate 0, in (k, node) order.
    A point whose error is NaN or whose bound is not finite is a violation.
    A trace without constants, or whose horizon ends before the first
    start, fails with a ``detail``.
    The norms, bounds and live masks go a chunk of `_error_chunks` at a
    time from the first start on; a column's first violation is in the
    first chunk that has one.
    """
    constants, rho = trace.constants, trace.rho
    if constants is None:
        return {"passed": False, "detail": "no envelope constants available"}
    schedule = envelope_schedule(trace.n_nodes, trace.period_t)
    subs = trace.sources
    first = int(schedule.start[subs].min())
    if trace.horizon < first:
        return {"passed": False,
                "detail": f"insufficient horizon {trace.horizon} < first envelope start {first}"}
    radii = np.asarray(choose_radii(rho, len(trace.block_dims)))[subs]
    starts = np.append(schedule.start[subs], schedule.total_start)
    # bound[k, c] for substate subs[c], which counts from its start on, and
    # the total's in a last column, substate 0 through cols.  The hypot
    # overflows only where the norm does, unlike a sum of squares.  A bound
    # that is not finite reads as -1, which every error exceeds.
    cols = np.append(subs, -1)
    c_bar = constants.c_bar[subs]
    with np.errstate(over="ignore", invalid="ignore"):
        c_total = np.hypot.reduce(constants.c_bar)
    count, at = 0, None
    for rows, err_block, err_total in _error_chunks(trace, first):
        ks = np.arange(rows.start, rows.stop)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.column_stack([c_bar * radii ** ks[:, None], c_total * rho ** ks])
            bound = np.nan_to_num(bound * (1.0 + 1e-9) + 1e-300, nan=-1.0, posinf=-1.0)
        err = np.concatenate([err_block, err_total[:, :, None]], axis=2)
        over = ~(err <= bound[:, None, :]) & (ks[:, None] >= starts)[:, None, :]
        count += (found := int(np.count_nonzero(over)))
        # The lower substate wins, the total last; on a tie the earlier chunk.
        at = min(filter(None, (at, found and _first(over, cols, (2, 0, 1), rows.start))),
                 key=lambda a: a[1] or np.inf, default=None)
        # Free this chunk's buffers before the next chunk's norms are taken.
        del err_block, err_total, err, over, bound
    return {"passed": count == 0, "violations": count, "counterexample": at}


def _delayed_residuals(trace: Trace):
    """Yield (k0, resid): the delayed-error identity's residuals at every
    (k, node, substate) for the times k = k0, k0 + 1, ... of a chunk, k0
    from 1 to H.

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

    The rounds go in chunks of `check_chunk_rounds`.  Per round only the
    recursion runs; the products, readers and norms are whole-chunk array
    work, so the buffers are O(max(CHECK_POINTS, CHUNK_ROUNDS * N * n))
    whatever the horizon.

    A chunk's resid is a (rounds, N, S) array over the trace's nonempty
    substates: the relative residual ||z_k - R_k|| / max(1, ||z_k||) per
    block (`_block_norms`), 0 for sources and never-informed entries, NaN
    where ||z_k|| is not finite.
    """
    z, ts = trace.z_estimates, trace.ts
    subs = trace.sources
    # Each state column's block (its source node) and substate column.
    col_block = np.repeat(np.arange(len(ts.block_dims)), ts.block_dims)
    col_slot = np.searchsorted(subs, col_block)
    cols = np.arange(ts.n)
    starts = np.asarray(ts.offsets)[subs]
    a_lower_t = np.where(col_block[:, None] > col_block[None, :], ts.a_bar, 0.0).T
    a_diag_t = np.where(col_block[:, None] == col_block[None, :], ts.a_bar, 0.0).T
    # Flat positions of the sources' own blocks in an N x n estimate array.
    own_cols = col_block * ts.n + cols
    recon = z[0]
    chunk = check_chunk_rounds(*z.shape[1:])
    for k0 in range(1, trace.horizon + 1, chunk):
        k1 = min(k0 + chunk, trace.horizon + 1)
        # Estimates that are not finite leave their residuals inf or NaN: a
        # failed identity, not a raw warning.  The yield stays outside, so
        # that the caller's own numerics keep their warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            donors = trace.donors[k0:k1]
            reader = np.where(donors >= 0, donors - 1, np.arange(trace.n_nodes)[:, None])
            z_gather = reader[:, :, col_slot] * ts.n + cols
            z_own = z[k0:k1].reshape(k1 - k0, -1)[:, own_cols]
            recons = z[k0 - 1:k1 - 1] @ a_lower_t
            for c in range(k1 - k0):
                recons[c] += recon.take(z_gather[c]) @ a_diag_t
                recon = recons[c]
                recon.put(own_cols, z_own[c])
            # The residual pass below overwrites recons: carry a copy.
            recon = recon.copy()

            zs = z[k0:k1]
            res = _block_norms(np.subtract(recons, zs, out=recons), starts)
            z_norm = _block_norms(zs, starts)
            # An estimate whose norm is inf even so is not compared: NaN, not 0.
            z_norm[np.isinf(z_norm)] = np.nan
            res /= np.maximum(1.0, z_norm)
        res[:, subs, np.arange(subs.size)] = 0.0
        res[trace.taus[k0:k1] < 0] = 0.0
        yield k0, res


def _rule_rounds(trace: Trace):
    """Yield (k0, taus, donors): the rule's (rounds, N, S) indices and donors
    at times k0, k0 + 1, ...  Time 0 is the initial state; time k + 1 is
    what round k makes of the recorded ``taus[k]`` over ``adjacency[k]`` by
    the rule ``ProtocolKernel.choose_donors`` states (a source holds index 0
    and donor -1).  Edge by edge, in chunks of `check_chunk_rounds`: one
    minimum per receiver finds the freshest usable index, and one the
    smallest id that sends it.  The edges come in (round, sender, receiver)
    order from one `np.flatnonzero` of the chunk's adjacency.
    """
    n_nodes, subs = trace.n_nodes, trace.sources
    own = (slice(None), subs, np.arange(subs.size))   # each source's own slot
    start = np.full((1, n_nodes, subs.size), -1)
    start[own] = 0
    yield 0, start, np.full_like(start, -1)
    chunk = check_chunk_rounds(*trace.z_estimates.shape[1:])
    for k0 in range(0, trace.horizon, chunk):
        k1 = min(k0 + chunk, trace.horizon)
        prev = trace.taus[k0:k1]
        held = np.where(prev >= 0, prev, _NONE)   # never informed: no index
        t, edge = divmod(np.flatnonzero(trace.adjacency[k0:k1]), n_nodes * n_nodes)
        sender, receiver = divmod(edge, n_nodes)
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

    subs = trace.sources
    nonsource = np.ones(trace.taus.shape[1:], dtype=bool)
    nonsource[subs, np.arange(subs.size)] = False

    faults = dict.fromkeys(("indices_finite", "delay_ceiling",
                            "indices_match_graph", "donors_match_graph"))
    # Rounds come in time order: the first chunk that differs holds the first
    # (k, substate, node).  The bounds from (N-1)T on keep, over the chunks,
    # the first in (substate, node, k) order.
    for k0, taus, donors in _rule_rounds(trace):
        rows = slice(k0, k0 + len(taus))
        for name, recorded, expected in (("indices_match_graph", trace.taus, taus),
                                         ("donors_match_graph", trace.donors, donors)):
            faults[name] = faults[name] or _first(
                recorded[rows] != expected, subs, order=(0, 2, 1), k0=k0)
        late_k0 = max(k0, trigger_k)
        late = trace.taus[late_k0:rows.stop]            # [k, node, substate]
        for name, bad in (("indices_finite", late < 0), ("delay_ceiling", late > 2 * trigger_k)):
            at = _first(bad & nonsource, subs, k0=late_k0)
            kept = faults[name]
            if at and (kept is None or (at[1], at[0]) < (kept[1], kept[0])):
                faults[name] = at
    for name, at in faults.items():
        report["checks"][name] = ({"passed": True} if at is None else
                                  {"passed": False, "counterexample": at})
    report["passed"] = all(at is None for at in faults.values())

    if check_delayed:
        worst, worst_at = 0.0, None
        for k0, resid in _delayed_residuals(trace):
            top = float(np.max(resid, initial=0.0))    # NaN if any residual is NaN
            # A NaN beats any number; on a tie the earlier chunk keeps its point.
            if not (np.isnan(worst) or top <= worst):
                worst, worst_at = top, _first(np.isnan(resid) | (resid == top), subs,
                                              order=(0, 2, 1), k0=k0)
        entry = {"passed": worst <= DELAYED_TOL, "max_residual": worst,
                 "at": worst_at}
        report["checks"]["delayed_form"] = entry
        if not entry["passed"]:
            report["passed"] = False

    return report


def check_finite_time(trace: Trace):
    """A deadbeat run's finite time: from k = n + 2N(N-1)T on, every total
    error norm is at most 1e-6 * max(1, the largest at k = 0), and none NaN.
    A horizon that ends before that bound fails with a ``detail``."""
    bound_k = trace.z_estimates.shape[2] + 2 * trace.n_nodes * (trace.n_nodes - 1) * trace.period_t
    if bound_k > trace.horizon:
        return {"passed": False, "detail": f"horizon shorter than bound {bound_k}"}
    tol = 1e-6 * max(1.0, float(np.max(total_errors(trace, stop=1))))
    tail = float(np.max(total_errors(trace, start=bound_k)))
    return {"passed": tail <= tol, "bound_step": bound_k,
            "max_error_after_bound": tail, "tolerance": tol}


def check_divergence(trace: Trace, threshold, expected):
    """The first k at which some node's total error norm reaches
    ``threshold``, or None.  A NaN norm never reaches it, nor hides another
    node's norm in its round.  Passes when the error crosses exactly when
    ``expected``: divergence is the predicted outcome for the naive
    baselines."""
    hits = np.flatnonzero(np.fmax.reduce(total_errors(trace), axis=1) >= threshold)
    k = int(hits[0]) if hits.size else None
    return {"first_crossing": k, "diverged": k is not None, "passed": (k is not None) == expected}
