"""The public names of ``kmiter``: ``__all__`` is a promise, so a name is
added or removed only on purpose, together with this snapshot."""

import kmiter

PUBLIC_NAMES = [
    "__version__",
    # errors
    "KmiterError", "ConfigError", "ModelMismatchError", "NumericError", "EvaluationError",
    "ModeOverflowError", "ResonanceError", "DegenerateComplementError",
    # spectral
    "Sine1D", "SineRect2D", "CustomBasis", "SpectrumModel", "SpectralVec",
    "make_sine_spectrum_1d", "make_sine_spectrum_rect", "make_custom_spectrum", "zeros",
    "unit_mode", "from_coeffs", "scale_weights", "norm_s", "inner", "axpy", "sub",
    "apply_spectral_function",
    # problems
    "Elliptic", "Hyperbolic", "Parabolic", "ProblemSpec", "TrajectoryNormSpec",
    "elliptic_solution_at", "elliptic_dt_solution_at", "elliptic_trajectory",
    "hyperbolic_solution_at", "hyperbolic_solution_dt0", "hyperbolic_trajectory",
    "parabolic_solution_at", "parabolic_backward_trace", "parabolic_trajectory_from_terminal",
    "trajectory_norm", "IllPosednessRecord", "illposedness_demo",
    # iterations
    "IterationFactors", "StoppingRule", "IterationSchedule", "CheckpointRecord",
    "IterationReport", "ConditionReport", "build_factors", "default_scale", "fixed_point",
    "iterate_closed_form", "iterate_stepwise", "report_closed_form", "run_schedule",
    "check_operator_conditions",
    # regularization
    "NoiseSpec", "SourceCondition", "RegularizerPlan", "BoundPoint", "CutoffSelection",
    "add_noise", "smooth", "choose_h", "smoothing_bound", "regularized_fixed_point",
    "candidate_cutoffs", "error_bound_curve", "select_n_star", "power_source_function",
    "source_constant", "measure_eps_prime",
    # gridio
    "GridFunction", "make_grid_function", "read_grid_csv", "write_grid_csv", "ingest_grid",
    "render_grid", "synth_data",
    # bench
    "ExperimentConfig", "ExperimentResult", "TableResult", "load_config", "run_experiment",
    "run_convergence_table", "run_decay_table", "run_cutoff_study", "render_report",
    "render_table",
]


def test_all_is_the_snapshot():
    assert kmiter.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in kmiter.__all__ if not hasattr(kmiter, name)]
    assert missing == []
