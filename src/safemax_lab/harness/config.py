"""Flat `section.key = value` experiment configuration.

One pair per line, `#` starts a comment, unknown keys are rejected, and an
empty file yields the full default configuration. ``render_config`` emits a
canonical text that parses back to an equal config.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from ..denoiser import TrainConfig, even
from ..diffusion import NoiseSchedule
from ..errors import ConfigError, DomainError
from ..gradcore import Record, integer, real, rule
from ..unlearn import UnlearnConfig
from .datasets import DatasetSpec


@dataclass(frozen=True)
class ModelSpec(Record):
    hidden_width: int = rule(integer, 1, default=128)
    hidden_depth: int = rule(integer, 1, default=3)
    embed_dim: int = rule(even, default=16)


@dataclass(frozen=True)
class EvalSpec(Record):
    n_samples: int = rule(integer, 3, default=500)  # a Frechet fit in d = 2 needs d + 1 points
    classifier_hidden_width: int = rule(integer, 1, default=64)
    classifier_steps: int = rule(integer, 1, default=3000)
    classifier_learning_rate: float = rule(real, above=0.0, below=math.inf, default=0.05)
    classifier_seed: int = rule(integer, default=3)
    seed: int = rule(integer, default=4)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    schedule: NoiseSchedule
    model: ModelSpec
    pretrain: TrainConfig
    unlearn: UnlearnConfig
    eval: EvalSpec
    output_dir: str

    def __post_init__(self):
        integer(self.unlearn.forget_class, f"unlearn.forget_class (dataset.k = {self.dataset.k})",
                0, self.dataset.k)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise DomainError(f"output.dir must be a non-empty str, got {self.output_dir!r}")


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=DatasetSpec(),
        schedule=NoiseSchedule(t=100, beta_min=1e-4, beta_max=0.2),
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


_DEFAULT = default_config()
_KINDS = {key: type(_value(_DEFAULT, key)) for key in _KEYS}  # int, float or str


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
        kind = _KINDS[key]
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
        lines.append(f"{key} = {value}")
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
