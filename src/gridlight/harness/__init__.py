from .config import (
    BASELINE_METHODS,
    DESK_CITIES,
    METHODS,
    PIPELINE_METHODS,
    ExperimentConfig,
    default_experiment,
    desk_city_a,
    desk_city_b,
    desk_city_c,
    saturated_city,
)
from .runners import (
    RunReport,
    baseline_controller,
    evaluate_controller,
    modular_pipeline,
    monolithic_pipeline,
    run_ablation,
    run_complexity_sweep,
    run_data_volume_curve,
    run_main,
    run_offline_case,
    run_source_selection,
)

__all__ = [
    "BASELINE_METHODS", "DESK_CITIES", "METHODS", "PIPELINE_METHODS",
    "ExperimentConfig", "default_experiment", "desk_city_a", "desk_city_b",
    "desk_city_c", "saturated_city", "RunReport",
    "baseline_controller", "evaluate_controller", "modular_pipeline",
    "monolithic_pipeline", "run_ablation", "run_complexity_sweep",
    "run_data_volume_curve", "run_main", "run_offline_case",
    "run_source_selection",
]
