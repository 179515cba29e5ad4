"""Flat `section.key = value` experiment configuration.

One pair per line, `#` starts a comment, unknown keys are rejected, and an
empty file yields the full default configuration. ``render_config`` emits a
canonical text that parses back to an equal config.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from ..denoiser import TrainConfig
from ..errors import ConfigError
from ..unlearn import UnlearnConfig
from .datasets import GEOMETRIES


@dataclass(frozen=True)
class DatasetSpec:
    k: int = 4
    n_per_class: int = 1000
    geometry: str = "ring"
    noise_scale: float = 0.35
    seed: int = 0


@dataclass(frozen=True)
class ScheduleSpec:
    t: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.2


@dataclass(frozen=True)
class ModelSpec:
    hidden_width: int = 128
    hidden_depth: int = 3
    embed_dim: int = 16


@dataclass(frozen=True)
class EvalSpec:
    n_samples: int = 500
    classifier_hidden_width: int = 64
    classifier_steps: int = 3000
    classifier_learning_rate: float = 0.05
    classifier_seed: int = 3
    seed: int = 4


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    schedule: ScheduleSpec
    model: ModelSpec
    pretrain: TrainConfig
    unlearn: UnlearnConfig
    eval: EvalSpec
    output_dir: str


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetSpec(),
        schedule=ScheduleSpec(),
        model=ModelSpec(),
        pretrain=TrainConfig(steps=20000, batch_size=128, learning_rate=0.02, seed=1),
        unlearn=UnlearnConfig(forget_class=0, lam=1.0, steps=500,
                              learning_rate_forget=0.025, learning_rate_retain=0.025,
                              batch_size_forget=64, batch_size_retain=64, seed=2),
        eval=EvalSpec(),
        output_dir="runs/default",
    )


# key -> (section attr, field attr, parser, validator, requirement text)
_FIELDS: dict[str, tuple] = {
    "dataset.k": ("dataset", "k", int, lambda v: v >= 2, ">= 2"),
    "dataset.n_per_class": ("dataset", "n_per_class", int, lambda v: v >= 2, ">= 2"),
    "dataset.geometry": ("dataset", "geometry", str, lambda v: v in GEOMETRIES,
                         f"one of {GEOMETRIES}"),
    "dataset.noise_scale": ("dataset", "noise_scale", float, lambda v: 0 < v < math.inf,
                            "in (0, inf)"),
    "dataset.seed": ("dataset", "seed", int, lambda v: v >= 0, ">= 0"),
    "schedule.t": ("schedule", "t", int, lambda v: v >= 1, ">= 1"),
    "schedule.beta_min": ("schedule", "beta_min", float, lambda v: 0 < v < 1, "in (0, 1)"),
    "schedule.beta_max": ("schedule", "beta_max", float, lambda v: 0 < v < 1, "in (0, 1)"),
    "model.hidden_width": ("model", "hidden_width", int, lambda v: v >= 1, ">= 1"),
    "model.hidden_depth": ("model", "hidden_depth", int, lambda v: v >= 1, ">= 1"),
    "model.embed_dim": ("model", "embed_dim", int,
                        lambda v: v >= 2 and v % 2 == 0, "even and >= 2"),
    "pretrain.steps": ("pretrain", "steps", int, lambda v: v >= 0, ">= 0"),
    "pretrain.batch_size": ("pretrain", "batch_size", int, lambda v: v >= 1, ">= 1"),
    "pretrain.learning_rate": ("pretrain", "learning_rate", float,
                               lambda v: 0 < v < math.inf, "in (0, inf)"),
    "pretrain.seed": ("pretrain", "seed", int, lambda v: v >= 0, ">= 0"),
    "unlearn.forget_class": ("unlearn", "forget_class", int, lambda v: v >= 0, ">= 0"),
    "unlearn.lambda": ("unlearn", "lam", float, lambda v: v >= 0, ">= 0"),
    "unlearn.steps": ("unlearn", "steps", int, lambda v: v >= 0, ">= 0"),
    "unlearn.learning_rate_forget": ("unlearn", "learning_rate_forget", float,
                                     lambda v: 0 < v < math.inf, "in (0, inf)"),
    "unlearn.learning_rate_retain": ("unlearn", "learning_rate_retain", float,
                                     lambda v: 0 < v < math.inf, "in (0, inf)"),
    "unlearn.batch_size_forget": ("unlearn", "batch_size_forget", int, lambda v: v >= 1, ">= 1"),
    "unlearn.batch_size_retain": ("unlearn", "batch_size_retain", int, lambda v: v >= 1, ">= 1"),
    "unlearn.seed": ("unlearn", "seed", int, lambda v: v >= 0, ">= 0"),
    "eval.n_samples": ("eval", "n_samples", int, lambda v: v >= 3, ">= 3"),
    "eval.classifier_hidden_width": ("eval", "classifier_hidden_width", int,
                                     lambda v: v >= 1, ">= 1"),
    "eval.classifier_steps": ("eval", "classifier_steps", int, lambda v: v >= 1, ">= 1"),
    "eval.classifier_learning_rate": ("eval", "classifier_learning_rate", float,
                                      lambda v: 0 < v < math.inf, "in (0, inf)"),
    "eval.classifier_seed": ("eval", "classifier_seed", int, lambda v: v >= 0, ">= 0"),
    "eval.seed": ("eval", "seed", int, lambda v: v >= 0, ">= 0"),
    "output.dir": ("output", "dir", str, lambda v: len(v) > 0, "non-empty"),
}


def _parse_value(key: str, raw: str, parser) -> object:
    if parser is str:
        return raw
    try:
        if parser is int:
            return int(raw, 10)
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {parser.__name__}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, filling defaults and validating every key."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate key {key!r}")
        _, _, parser, check, requirement = _FIELDS[key]
        value = _parse_value(key, raw, parser)
        if not check(value):
            raise ConfigError(f"{key}: value {value!r} violates requirement ({requirement})")
        values[key] = value

    cfg = default_config()
    sections = {"dataset": cfg.dataset, "schedule": cfg.schedule, "model": cfg.model,
                "pretrain": cfg.pretrain, "unlearn": cfg.unlearn, "eval": cfg.eval}
    output_dir = cfg.output_dir
    for key, value in values.items():
        section, attr, _, _, _ = _FIELDS[key]
        if section == "output":
            output_dir = str(value)
        else:
            sections[section] = replace(sections[section], **{attr: value})
    if not sections["schedule"].beta_min <= sections["schedule"].beta_max:
        raise ConfigError("schedule.beta_min: must be <= schedule.beta_max")
    if sections["unlearn"].forget_class >= sections["dataset"].k:
        raise ConfigError("unlearn.forget_class: must be < dataset.k")
    return ExperimentConfig(dataset=sections["dataset"], schedule=sections["schedule"],
                            model=sections["model"], pretrain=sections["pretrain"],
                            unlearn=sections["unlearn"], eval=sections["eval"],
                            output_dir=output_dir)


def render_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = []
    for key, (section, attr, parser, _, _) in _FIELDS.items():
        if section == "output":
            value = config.output_dir
        else:
            value = getattr(getattr(config, section), attr)
        lines.append(f"{key} = {value!r}" if parser is float else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_sha256(config: ExperimentConfig) -> str:
    """Hash of the experiment-defining keys (the output location is excluded)."""
    return _keys_sha256(config, ("dataset.", "schedule.", "model.", "pretrain.", "unlearn.",
                                 "eval."))


def _keys_sha256(config: ExperimentConfig, prefixes: tuple[str, ...]) -> str:
    relevant = [line for line in render_config(config).splitlines() if line.startswith(prefixes)]
    return hashlib.sha256("\n".join(relevant).encode("utf-8")).hexdigest()


def pretrain_sha256(config: ExperimentConfig) -> str:
    """Hash of only the keys that determine the pretrained model."""
    return _keys_sha256(config, ("dataset.", "schedule.", "model.", "pretrain."))


def classifier_sha256(config: ExperimentConfig) -> str:
    """Hash of only the keys that determine the evaluation classifier."""
    return _keys_sha256(config, ("dataset.", "eval.classifier_"))
