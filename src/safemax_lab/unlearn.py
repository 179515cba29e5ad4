"""Entropy-maximization unlearning for the conditional denoiser.

A step is one ``denoiser.regress`` over row groups (x_t, condition labels, t,
target, row weights). SAFEMax's forget group is conditioned on the
forget class and regresses terminal-state noise, weighted by a decay over the
step index so early (semantically rich) steps dominate; the retained group
regresses its own noise. The fixed-relabel baseline's forget group is one
retained class's data, regressing its own noise.
``METHODS`` is the one table of methods the harness can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import gradcore as gc
from .denoiser import DenoiserModel, Group, TrainConfig, regress
from .diffusion import LabeledDataset, NoiseSchedule, sample_latent_batch
from .errors import DomainError
from .gradcore import Array, SGD


@dataclass(frozen=True)
class UnlearnConfig(TrainConfig):
    forget_class: int = gc.rule(gc.integer)
    lam: float = gc.rule(gc.real, 0.0, what="lambda")


@dataclass(frozen=True)
class StepRecord:
    step: int
    forget_loss: float
    retain_loss: float
    psi_mean: float
    psi_min: float


@dataclass
class UnlearnLog:
    records: list[StepRecord] = field(default_factory=list)

    def csv_rows(self) -> list[str]:
        rows = ["step,forget_loss,retain_loss,psi_mean,psi_min"]
        for r in self.records:
            rows.append(f"{r.step},{r.forget_loss!r},{r.retain_loss!r},{r.psi_mean!r},{r.psi_min!r}")
        return rows


def psi(t, T: int, lam: float):
    """Decay weight exp(-lam * t / T) of integer steps t in [0, T]; scalar in, scalar out."""
    lam = gc.real(lam, "lambda", 0.0)
    gc.integer(T, "T", 1)
    t_arr = gc.indices(t, "t", 0, T + 1).astype(np.float64)
    if lam == np.inf:  # the limit, since -inf * 0 is nan: weight 1 at t = 0, else 0
        out = np.where(t_arr == 0, 1.0, 0.0)
    else:
        out = np.exp(-lam * t_arr / float(T))
    return float(out) if t_arr.ndim == 0 else out


def epsT_target(x_t: Array, rng: np.random.Generator) -> Array:
    """Terminal-state noise target for the forget objective: a fresh standard
    normal draw, unrelated to the noise in x_t (the terminal latent carries no
    trace of the data when the signal fraction has decayed to ~0)."""
    return rng.standard_normal(x_t.shape)


def _groups(dataset: LabeledDataset, schedule: NoiseSchedule, config: UnlearnConfig,
            rng: np.random.Generator, source_class: int) -> list[Group]:
    """A ``source_class`` batch conditioned on the forget class, then a retained-class
    batch, each regressing its own noise; drawn from ``rng`` in that order, after the forget
    class passes ``gradcore.integer`` (else ``DomainError``)."""
    forget = gc.integer(config.forget_class, "forget class", 0, dataset.K)
    f = sample_latent_batch(dataset, schedule, config.batch_size, rng, classes=[source_class])
    r = sample_latent_batch(dataset, schedule, config.batch_size, rng,
                            classes=[c for c in range(dataset.K) if c != forget])
    return [(*f._replace(labels=np.full_like(f.labels, forget)), None),
            (*r, None)]


def _update(model: DenoiserModel, optimizer: SGD, groups: list[Group]) -> StepRecord:
    """One ``regress`` step, logged as group 0's loss and weights and group 1's loss."""
    forget_loss, retain_loss, *_ = regress(model, optimizer, groups)
    w0 = 1.0 if groups[0][4] is None else groups[0][4]
    return StepRecord(step=-1, forget_loss=forget_loss, retain_loss=retain_loss,
                      psi_mean=float(np.mean(w0)), psi_min=float(np.min(w0)))


def _run(model: DenoiserModel, config: UnlearnConfig, step) -> tuple[DenoiserModel, UnlearnLog]:
    """Run config.steps updates ``step(model, rng, optimizer)`` on a copy of the model."""
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    records = gc.fit(config.steps, config.learning_rate, lambda opt: step(model, rng, opt))
    return model, UnlearnLog([replace(r, step=i) for i, r in enumerate(records)])


def safemax_step(model: DenoiserModel, dataset: LabeledDataset, schedule: NoiseSchedule,
                 config: UnlearnConfig, rng: np.random.Generator, optimizer: SGD) -> StepRecord:
    """One combined update: forget batch on the terminal-noise target, retain batch on regular fine-tuning."""
    (x_t, labels, t, _, _), retain = _groups(dataset, schedule, config, rng, config.forget_class)
    forget = (x_t, labels, t, epsT_target(x_t, rng), psi(t, schedule.t, config.lam))
    return _update(model, optimizer, [forget, retain])


def run_unlearning(model: DenoiserModel, dataset: LabeledDataset, schedule: NoiseSchedule,
                   config: UnlearnConfig) -> tuple[DenoiserModel, UnlearnLog]:
    """Run config.steps unlearning updates on a copy of the model."""
    return _run(model, config,
                lambda m, rng, opt: safemax_step(m, dataset, schedule, config, rng, opt))


def baseline_relabel_step(model: DenoiserModel, dataset: LabeledDataset,
                          schedule: NoiseSchedule, config: UnlearnConfig,
                          target_class: int, rng: np.random.Generator,
                          optimizer: SGD) -> StepRecord:
    """Fixed-relabel baseline: condition on the forget class, regress noise from target-class data.

    Drives forget-conditioned generation onto one retained class instead of
    onto noise, so the evaluation classifier stays confident (low entropy).
    """
    if target_class == config.forget_class:
        raise DomainError("target_class must differ from forget_class")
    return _update(model, optimizer, _groups(dataset, schedule, config, rng, target_class))


def run_relabel_unlearning(model: DenoiserModel, dataset: LabeledDataset,
                           schedule: NoiseSchedule, config: UnlearnConfig,
                           target_class: int) -> tuple[DenoiserModel, UnlearnLog]:
    """Run config.steps relabel-baseline updates on a copy of the model."""
    return _run(model, config,
                lambda m, rng, opt: baseline_relabel_step(m, dataset, schedule, config,
                                                          target_class, rng, opt))


# Method name -> ``(model, dataset, schedule, config) -> (model, UnlearnLog)``.
# The first entry is the default method. Each entry looks its runner up as a
# module global at call time, so a runner patched on this module (as the
# benchmark tracer does) sees every call made through the table.
METHODS = {
    "safemax": lambda model, dataset, schedule, config:
        run_unlearning(model, dataset, schedule, config),
    "relabel": lambda model, dataset, schedule, config:
        run_relabel_unlearning(model, dataset, schedule, config,
                               (config.forget_class + 1) % dataset.K),
}
