"""Experiment runner, sweeps, and table rendering."""

from .campaign import Campaign, config_key, result_to_record
from .checkpoint import (
    CheckpointConfig,
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from .experiment import (
    PROTOCOLS,
    ExperimentConfig,
    ExperimentResult,
    ExperimentWorld,
    build_world,
    finish_world,
    resume_experiment,
    run_experiment,
    run_many,
)
from .render import format_rows, format_series, format_table
from .sweeps import average_results

__all__ = [
    "Campaign",
    "CheckpointConfig",
    "CheckpointError",
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentWorld",
    "PROTOCOLS",
    "average_results",
    "build_world",
    "finish_world",
    "format_rows",
    "format_series",
    "format_table",
    "config_key",
    "latest_checkpoint",
    "load_checkpoint",
    "resume_experiment",
    "result_to_record",
    "run_experiment",
    "run_many",
    "write_checkpoint",
]
