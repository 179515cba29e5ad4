"""Experiment orchestration: datasets, config, checkpoints, plots, CLI."""
