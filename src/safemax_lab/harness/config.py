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
from ..errors import ConfigError, DomainError
from ..unlearn import UnlearnConfig
from .datasets import GEOMETRIES


@dataclass(frozen=True)
class DatasetSpec:
    k: int = 4
    n_per_class: int = 1000
    geometry: str = "ring"
    noise_scale: float = 0.35
    seed: int = 0

    def __post_init__(self):
        if min(self.k, self.n_per_class) < 2:
            raise DomainError(f"k and n_per_class must be >= 2, got {self}")
        if self.geometry not in GEOMETRIES:
            raise DomainError(f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        if not 0.0 < self.noise_scale < math.inf:
            raise DomainError(f"noise_scale must be > 0 and finite, got {self.noise_scale}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ScheduleSpec:
    t: int = 100
    beta_min: float = 1e-4
    beta_max: float = 0.2

    def __post_init__(self):
        if self.t < 1:
            raise DomainError(f"t must be >= 1, got {self.t}")
        if not 0.0 < self.beta_min <= self.beta_max < 1.0:
            raise DomainError(f"need 0 < beta_min <= beta_max < 1, got {self}")


@dataclass(frozen=True)
class ModelSpec:
    hidden_width: int = 128
    hidden_depth: int = 3
    embed_dim: int = 16

    def __post_init__(self):
        if min(self.hidden_width, self.hidden_depth) < 1:
            raise DomainError(f"hidden_width and hidden_depth must be >= 1, got {self}")
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise DomainError(f"embed_dim must be even and >= 2, got {self.embed_dim}")


@dataclass(frozen=True)
class EvalSpec:
    n_samples: int = 500
    classifier_hidden_width: int = 64
    classifier_steps: int = 3000
    classifier_learning_rate: float = 0.05
    classifier_seed: int = 3
    seed: int = 4

    def __post_init__(self):
        if self.n_samples < 3:  # a Frechet fit in d = 2 needs d + 1 points per class
            raise DomainError(f"n_samples must be >= 3, got {self.n_samples}")
        if min(self.classifier_hidden_width, self.classifier_steps) < 1:
            raise DomainError(
                f"classifier_hidden_width and classifier_steps must be >= 1, got {self}")
        if not 0.0 < self.classifier_learning_rate < math.inf:
            raise DomainError("classifier_learning_rate must be > 0 and finite, "
                              f"got {self.classifier_learning_rate}")
        if min(self.classifier_seed, self.seed) < 0:
            raise DomainError(f"classifier_seed and seed must be >= 0, got {self}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    schedule: ScheduleSpec
    model: ModelSpec
    pretrain: TrainConfig
    unlearn: UnlearnConfig
    eval: EvalSpec
    output_dir: str

    def __post_init__(self):
        if self.unlearn.forget_class >= self.dataset.k:
            raise DomainError(f"unlearn.forget_class must be < dataset.k, "
                              f"got {self.unlearn.forget_class} >= {self.dataset.k}")
        if not self.output_dir:
            raise DomainError("output.dir must be non-empty")


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetSpec(),
        schedule=ScheduleSpec(),
        model=ModelSpec(),
        pretrain=TrainConfig(steps=20000, batch_size=128, learning_rate=0.02, seed=1),
        unlearn=UnlearnConfig(forget_class=0, lam=1.0, steps=500, learning_rate=0.025,
                              batch_size=64, seed=2),
        eval=EvalSpec(),
        output_dir="runs/default",
    )


# The config keys in rendering order. A key is `section.field`, but for the two in
# _RENAMED; section None is ExperimentConfig itself.
_KEYS = (
    "dataset.k", "dataset.n_per_class", "dataset.geometry", "dataset.noise_scale", "dataset.seed",
    "schedule.t", "schedule.beta_min", "schedule.beta_max",
    "model.hidden_width", "model.hidden_depth", "model.embed_dim",
    "pretrain.steps", "pretrain.batch_size", "pretrain.learning_rate", "pretrain.seed",
    "unlearn.forget_class", "unlearn.lambda", "unlearn.steps", "unlearn.learning_rate",
    "unlearn.batch_size", "unlearn.seed",
    "eval.n_samples", "eval.classifier_hidden_width", "eval.classifier_steps",
    "eval.classifier_learning_rate", "eval.classifier_seed", "eval.seed",
    "output.dir",
)
_RENAMED = {"unlearn.lambda": ("unlearn", "lam"), "output.dir": (None, "output_dir")}
_FIELDS = {key: _RENAMED.get(key, tuple(key.split("."))) for key in _KEYS}


def _value(config: ExperimentConfig, key: str):
    section, attr = _FIELDS[key]
    return getattr(config if section is None else getattr(config, section), attr)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text, filling defaults; each section checks its own values."""
    base = default_config()
    given: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        if key in given:
            raise ConfigError(f"duplicate key {key!r}")
        kind = type(_value(base, key))
        try:
            given[key] = int(raw, 10) if kind is int else kind(raw)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r} as {kind.__name__}") from None

    fields = {"output_dir": given.get("output.dir", base.output_dir)}
    for section in ("dataset", "schedule", "model", "pretrain", "unlearn", "eval"):
        named = [key for key in given if _FIELDS[key][0] == section]
        try:
            fields[section] = replace(getattr(base, section),
                                      **{_FIELDS[key][1]: given[key] for key in named})
        except DomainError as exc:
            raise ConfigError(f"{', '.join(named)}: {exc}") from None
    try:
        return ExperimentConfig(**fields)
    except DomainError as exc:  # a rule across sections; its message names the keys
        raise ConfigError(str(exc)) from None


def render_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c, else ConfigError."""
    lines = []
    for key in _FIELDS:
        value = _value(config, key)
        if key == "output.dir" and value.split("#", 1)[0].strip().splitlines() != [value]:
            raise ConfigError(f"{key}: {value!r} holds '#', a line break or edge space")
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
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
