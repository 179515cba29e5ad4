"""Experiment orchestration: datasets, config, checkpoints, plots, CLI."""

from .checkpoints import Checkpoint, load_checkpoint, save_checkpoint
from .config import (EvalSpec, ExperimentConfig, ModelSpec, default_config, parse_config,
                     render_config)
from .datasets import DatasetSpec, generate_toy_dataset
from .experiment import ExperimentResult, offset_seeds, run_experiment, sweep
from .plots import render_scatter
