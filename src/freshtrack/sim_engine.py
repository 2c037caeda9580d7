"""End-to-end scenario execution, trace capture, and convergence checks.

Runs either the freshness-index observer or a consensus baseline over a graph
sequence, records a full per-round trace, and verifies the structural index
properties, the delayed-error identity, and the exponential error envelopes
against constants computed from the trace itself.

A freshness run steps ``ProtocolKernel`` on the (tau, z) arrays and copies
each round's arrays into the trace; error norms are computed once at the end.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .baselines import WeightStrategy, baseline_round, mixing_weights
from .decomposition import block_offsets, staircase_transform
from .gain_design import compute_bound_constants, design_gains
from .graph_seq import (
    GraphSequence,
    certify_joint_strong_connectivity,
    certify_jointly_rooted,
    window_unions,
)
from .observer_protocol import OMEGA, ProtocolKernel, check_delayed_form, initial_arrays
from .system_model import LtiPlant, simulate_truth

LOG_FLOOR = 1e-13     # error norms below this are numerical noise for log fits


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
    oracle_nodes: frozenset = frozenset({1})


class Trace:
    """Per-round record of estimates, indices, donors, and error norms.

    Indices: time-step k in 0..horizon, node ids and substates 1-indexed.
    The arrays stack the protocol kernel's per-round state along a leading
    time axis: ``taus[k]`` is the N x N index array (-1 for never informed),
    ``z_estimates[k]`` the N x n estimates, and ``donors[k]`` the donor ids
    adopted in the round that produced the state at time k (-1 for
    open-loop rounds).  ``adjacency[k]`` is the N x N bool graph of round k.
    """

    def __init__(self, kind, n_nodes, horizon, period_t, block_dims, rho=None,
                 deadbeat=False, seed=0):
        self.kind = kind
        self.n_nodes = n_nodes
        self.horizon = horizon
        self.period_t = period_t
        self.block_dims = tuple(block_dims)
        self.rho = rho
        self.deadbeat = deadbeat
        self.seed = seed
        self.substates = [j for j in range(1, len(block_dims) + 1) if block_dims[j - 1] > 0]
        n_state = int(sum(block_dims))
        self.taus = -np.ones((horizon + 1, n_nodes, n_nodes), dtype=int)
        self.donors = -np.ones((horizon + 1, n_nodes, n_nodes), dtype=int)
        self.z_estimates = np.zeros((horizon + 1, n_nodes, n_state))
        self.err_block = np.zeros((horizon + 1, n_nodes, n_nodes))
        self.err_total = np.zeros((horizon + 1, n_nodes))
        self.adjacency = np.zeros((horizon, n_nodes, n_nodes), dtype=bool)
        self.ts = None
        self.gains = None
        self.constants = None
        self.warnings = []
        self._offsets = block_offsets(block_dims)

    def _slice(self, j):
        return slice(self._offsets[j - 1], self._offsets[j])

    def tau(self, k, i, j):
        v = self.taus[k, i - 1, j - 1]
        return OMEGA if v < 0 else int(v)

    def donor(self, round_k, i, j):
        """Donor adopted by node i for substate j during round ``round_k``."""
        v = self.donors[round_k + 1, i - 1, j - 1]
        return None if v < 0 else int(v)

    def estimate(self, k, i, j):
        return self.z_estimates[k, i - 1, self._slice(j)]

    def max_error(self):
        """Max-over-nodes total error norm per time-step."""
        return np.max(self.err_total, axis=1)

    def to_csv(self, path_or_buf):
        """Numeric CSV; one row per (k, node, substate)."""
        close = False
        if isinstance(path_or_buf, (str, bytes)):
            f = open(path_or_buf, "w")
            close = True
        else:
            f = path_or_buf
        try:
            width = max((self.block_dims[j - 1] for j in self.substates), default=0)
            zcols = ",".join(f"z{m}" for m in range(width))
            f.write("# tau = -1 encodes omega (never informed); donor = -1 encodes open-loop\n")
            f.write(f"k,node,substate,tau,donor,err_norm{',' if zcols else ''}{zcols}\n")
            # (column, block start, block end, nan padding) per substate.
            layout = [(j - 1, self._offsets[j - 1], self._offsets[j],
                       ",nan" * (width - self.block_dims[j - 1])) for j in self.substates]
            for k in range(self.horizon + 1):
                rows = zip(self.taus[k].tolist(), self.donors[k].tolist(),
                           self.err_block[k].tolist(), self.z_estimates[k].tolist())
                f.write("".join(
                    f"{k},{i},{c + 1},{tau[c]},{donor[c]},{err[c]!r},"
                    f"{','.join(map(repr, z[a:b]))}{pad}\n"
                    for i, (tau, donor, err, z) in enumerate(rows, 1)
                    for c, a, b, pad in layout))
        finally:
            if close:
                f.close()

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


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
    # Transformed coordinates z = T^-1 x of every time-step in one solve.
    z_truth = np.linalg.solve(ts.t_matrix, truth.states.T).T

    trace = Trace("freshness", n_nodes, s.horizon, s.graph.period_t,
                  ts.block_dims, rho=s.rho, deadbeat=s.deadbeat, seed=s.seed)
    trace.ts = ts
    trace.gains = gains
    trace.warnings.extend(ts.warnings)

    trace.adjacency = s.graph.adjacency(s.horizon)
    if s.horizon >= s.graph.period_t:
        unions = window_unions(trace.adjacency, s.graph.period_t)
        if not certify_joint_strong_connectivity(unions):
            if all(certify_jointly_rooted(unions, j) for j in trace.substates):
                trace.warnings.append(
                    "rooted-mode: joint strong connectivity fails but every "
                    "source roots its window unions")
            else:
                trace.warnings.append("connectivity certification failed")

    z0 = None
    if s.initial_estimates is not None:
        z0 = np.linalg.solve(
            ts.t_matrix, np.asarray(s.initial_estimates, dtype=float).T).T
    tau, z = initial_arrays(ts, z0)
    kernel = ProtocolKernel(ts, gains)
    outputs = kernel.source_outputs(truth.measurements)
    trace.taus[0], trace.z_estimates[0] = tau, z
    for k in range(s.horizon):
        tau, z, donors = kernel.step(tau, z, trace.adjacency[k], outputs[k])
        trace.taus[k + 1], trace.donors[k + 1], trace.z_estimates[k + 1] = tau, donors, z

    # Per-substate error norms: one segmented sum over the block columns.
    sq = trace.z_estimates - z_truth[:, None, :]
    np.square(sq, out=sq)
    cols = [j - 1 for j in trace.substates]
    trace.err_block[:, :, cols] = np.sqrt(
        np.add.reduceat(sq, [ts.offsets[c] for c in cols], axis=2))
    trace.err_total = np.sqrt(np.sum(trace.err_block ** 2, axis=2))

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
            trace.constants = compute_bound_constants(
                ts, gains, gains.target_radii, ref_norms, t_bar)
        else:
            trace.warnings.append(
                "horizon too short for envelope constants; skipped")
    return trace


def _run_baseline(s: Scenario) -> Trace:
    plant = s.plant
    n_nodes = plant.n_nodes
    if s.strategy is None:
        raise ValueError("baseline scenarios require a weight strategy")
    truth = simulate_truth(plant, s.horizon)

    # Baseline traces use the original coordinates and a single substate slot.
    block_dims = [plant.n] + [0] * (n_nodes - 1)
    trace = Trace("baseline", n_nodes, s.horizon, s.graph.period_t,
                  block_dims, seed=s.seed)
    trace.adjacency = s.graph.adjacency(s.horizon)
    weights = mixing_weights(trace.adjacency, s.strategy)
    oracle = np.isin(np.arange(1, n_nodes + 1), list(s.oracle_nodes))
    est = trace.z_estimates
    if s.initial_estimates is not None:
        est[0] = s.initial_estimates
    for k in range(s.horizon):
        est[k + 1] = baseline_round(est[k], weights[k], plant.a_matrix, oracle,
                                    truth.states[k])
    est[:, oracle] = truth.states[:, None, :]
    trace.err_total = np.linalg.norm(est - truth.states[:, None, :], axis=2)
    trace.err_block[:, :, 0] = trace.err_total
    return trace


def fit_decay_rate(trace: Trace, k_start: int) -> float:
    """Least-squares exponential rate of the max-node error from k_start on.

    Stops at the numerical floor; requires at least 10 usable points.
    """
    maxed = trace.max_error()
    ks, logs = [], []
    for k in range(k_start, trace.horizon + 1):
        if maxed[k] <= LOG_FLOOR:
            break
        ks.append(k)
        logs.append(np.log(maxed[k]))
    if len(ks) < 10:
        raise ValueError(f"only {len(ks)} usable points above the numerical floor")
    slope = np.polyfit(ks, logs, 1)[0]
    return float(np.exp(slope))


def check_envelope(trace: Trace, constants=None, rho=None):
    """Verify the per-substate and total exponential error envelopes.

    Returns a dict with a (possibly empty) list of violating (node, substate,
    k) triples; substate 0 marks total-envelope violations.
    """
    if constants is None:
        constants = trace.constants
    if constants is None:
        raise ValueError("trace carries no envelope constants")
    if rho is None:
        rho = trace.rho
    t_bar = constants.t_bar
    n_nodes = trace.n_nodes
    slack = 1.0 + 1e-9
    violations = []
    for j in trace.substates:
        rho_j = constants.radii[j - 1]
        cbar_j = constants.c_bar[j - 1]
        start = (2 * j - 1) * t_bar
        for k in range(start, trace.horizon + 1):
            bound = cbar_j * rho_j ** k * slack + 1e-300
            for i in range(1, n_nodes + 1):
                if trace.err_block[k, i - 1, j - 1] > bound:
                    violations.append((i, j, k))
    total_amp = float(np.sqrt(np.sum(constants.c_bar ** 2)))
    start = (2 * trace.n_nodes - 1) * t_bar
    for k in range(start, trace.horizon + 1):
        bound = total_amp * rho ** k * slack + 1e-300
        for i in range(1, n_nodes + 1):
            if trace.err_total[k, i - 1] > bound:
                violations.append((i, 0, k))
    return {"violations": violations, "passed": not violations}


def check_lemma_suite(trace: Trace, ts=None, check_delayed=False,
                      delayed_tol=1e-8):
    """Run the structural freshness-index checks against a recorded trace.

    Covers: all indices finite by (N-1)T, the 2(N-1)T delay ceiling, the
    one-step index growth bound, the source index pinned at zero, and
    source-preferred donor selection.  Optionally also the delayed-error
    identity at every reachable (node, substate, k).
    """
    n_nodes = trace.n_nodes
    t = trace.period_t
    trigger_k = (n_nodes - 1) * t
    report = {"passed": True, "checks": {}, "mode": "strong"}
    if any("rooted-mode" in w for w in trace.warnings):
        report["mode"] = "rooted"
    if trace.horizon < trigger_k:
        report["passed"] = False
        report["checks"]["horizon"] = {
            "passed": False,
            "detail": f"insufficient horizon {trace.horizon} < (N-1)T = {trigger_k}",
        }
        return report

    def fail(name, counterexample):
        report["passed"] = False
        report["checks"][name] = {"passed": False, "counterexample": counterexample}

    def ok(name):
        report["checks"].setdefault(name, {"passed": True})

    # All indices finite from (N-1)T on.
    for name in ("indices_finite", "delay_ceiling", "index_step_bound",
                 "source_pinned", "source_preferred"):
        ok(name)
    ceiling = 2 * (n_nodes - 1) * t
    for j in trace.substates:
        for i in range(1, n_nodes + 1):
            col = trace.taus[:, i - 1, j - 1]
            if i == j:
                bad = np.nonzero(col != 0)[0]
                if bad.size:
                    fail("source_pinned", (i, j, int(bad[0])))
                continue
            late = col[trigger_k:]
            omega_hits = np.nonzero(late < 0)[0]
            if omega_hits.size and report["checks"]["indices_finite"]["passed"]:
                fail("indices_finite", (i, j, int(trigger_k + omega_hits[0])))
            high = np.nonzero(late > ceiling)[0]
            if high.size and report["checks"]["delay_ceiling"]["passed"]:
                fail("delay_ceiling", (i, j, int(trigger_k + high[0])))
            finite = col >= 0
            step_bad = np.nonzero(finite[:-1] & (col[1:] > col[:-1] + 1))[0]
            if step_bad.size and report["checks"]["index_step_bound"]["passed"]:
                fail("index_step_bound", (i, j, int(step_bad[0])))

    # Whenever the source is an in-neighbor, it must be the adopted donor.
    # bad[k, c, i]: source j = subs[c] sends to node i+1 in round k, which
    # adopts another donor; argwhere's row-major order finds the first (k, j, i).
    subs = np.array(trace.substates, dtype=int)
    bad = (trace.adjacency[:, subs - 1, :]
           & (trace.donors[1:, :, subs - 1].transpose(0, 2, 1) != subs[:, None]))
    bad[:, np.arange(len(subs)), subs - 1] = False
    hits = np.argwhere(bad)
    if hits.size:
        k, c, i = hits[0]
        fail("source_preferred", (int(i) + 1, int(subs[c]), int(k)))

    if check_delayed:
        if ts is None:
            ts = trace.ts
        worst = 0.0
        worst_at = None
        for k in range(1, trace.horizon + 1):
            for j in trace.substates:
                for i in range(1, n_nodes + 1):
                    tau = trace.tau(k, i, j)
                    if i == j or tau is OMEGA or k - tau < 0:
                        continue
                    res = check_delayed_form(trace, ts, j, k, i)
                    if res > worst:
                        worst, worst_at = res, (i, j, k)
        entry = {"passed": worst <= delayed_tol, "max_residual": worst,
                 "at": worst_at}
        report["checks"]["delayed_form"] = entry
        if not entry["passed"]:
            report["passed"] = False

    return report
