"""Experiment runner: JSON configs in, CSV/JSON/SVG artifacts out."""

from .config import ExperimentConfig, parse_ifs, parse_step_expression
from .runner import RunResult, run_config

__all__ = [
    "ExperimentConfig",
    "parse_step_expression",
    "parse_ifs",
    "run_config",
    "RunResult",
]
