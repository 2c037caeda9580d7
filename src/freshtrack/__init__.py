"""Freshness-index distributed observer for LTI systems on time-varying digraphs."""

from .system_model import LtiPlant, Trajectory, simulate_truth, is_jointly_observable
from .decomposition import TransformedSystem, staircase_transform, to_transformed_coords
from .gain_design import (
    GainSet,
    BoundConstants,
    choose_radii,
    envelope_schedule,
    place_spectral,
    place_deadbeat,
    design_gains,
    compute_bound_constants,
)
from .graph_seq import (
    GraphSequence,
    PeriodicGraphSequence,
    window_unions,
    certify_joint_strong_connectivity,
    certify_jointly_rooted,
    generate_random_jointly_connected,
)
from .baselines import WeightStrategy, baseline_round, detect_divergence, mixing_weights
from .sim_engine import Scenario, Trace, run_scenario, check_envelope, check_lemma_suite

__version__ = "0.1.0"
