"""Experiment harness: regenerates every figure/table of Chapter 6."""

from repro.harness.engine import ExperimentEngine, RunKey, execute_run
from repro.harness.experiments import (
    FIGURES,
    ExperimentResult,
    Figure,
    plan_experiment,
    run_experiment,
)
from repro.harness.report import format_table
from repro.harness.runner import Runner
from repro.harness.scenario import Overrides, SweepSpec

__all__ = [
    "Runner",
    "RunKey",
    "Overrides",
    "SweepSpec",
    "ExperimentEngine",
    "execute_run",
    "ExperimentResult",
    "Figure",
    "FIGURES",
    "run_experiment",
    "plan_experiment",
    "format_table",
]
