"""Entropy-maximization unlearning for the conditional denoiser.

The forget objective regresses the model, when conditioned on the forget
class, onto terminal-state noise instead of the noise that actually formed
each latent, weighted by an exponential decay over the step index so early
(semantically rich) steps dominate. Retained classes keep training on the
ordinary noise-regression objective. A fixed-relabel baseline is included
for contrast: it redirects the forget condition onto one retained class.
``METHODS`` is the one table of methods the harness can run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import gradcore as gc
from .denoiser import DenoiserModel, denoiser_forward
from .diffusion import LabeledDataset, LatentBatch, NoiseSchedule, sample_latent_batch
from .errors import ContractError, DomainError, NumericError
from .gradcore import Array, Node, SGD, Tape


@dataclass(frozen=True)
class UnlearnConfig:
    forget_class: int
    lam: float
    steps: int
    learning_rate: float
    batch_size: int
    seed: int

    def __post_init__(self):
        if self.forget_class < 0:
            raise DomainError(f"forget_class must be >= 0, got {self.forget_class}")
        if not self.lam >= 0.0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 < self.learning_rate < np.inf:
            raise DomainError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")


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
    """Decay weight exp(-lam * t / T); scalar in, scalar out (arrays pass through)."""
    if not lam >= 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or np.any(t_arr > T):
        raise DomainError(f"t must lie in [0, {T}]")
    if lam == np.inf:  # the limit, since -inf * 0 is nan: weight 1 at t = 0, else 0
        out = np.where(t_arr == 0, 1.0, 0.0)
    else:
        out = np.exp(-lam * t_arr / float(T))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def epsT_target(x_t: Array, rng: np.random.Generator) -> Array:
    """Terminal-state noise target for the forget objective: a fresh standard
    normal draw, unrelated to the noise in x_t (the terminal latent carries no
    trace of the data when the signal fraction has decayed to ~0)."""
    return rng.standard_normal(x_t.shape)


def _single_class(batch: LatentBatch) -> int:
    classes = np.unique(batch.labels)
    if classes.size != 1:
        raise ContractError(f"forget batch mixes classes {classes.tolist()}")
    return int(classes[0])


def forget_loss(pred: Node, forget_batch: LatentBatch, schedule: NoiseSchedule,
                lam: float, rng: np.random.Generator) -> tuple[Node, Array]:
    """Decay-weighted regression of ``pred``, the forget-conditioned output, onto terminal noise.

    Returns the loss node and the per-row decay weights it applied."""
    _single_class(forget_batch)
    weights = np.asarray(psi(forget_batch.t, schedule.T, lam), dtype=np.float64)
    target = epsT_target(forget_batch.x_t, rng)
    return gc.mse_loss(pred, target, weights=weights), weights


def retain_loss(pred: Node, retain_batch: LatentBatch, forget_class: int | None = None) -> Node:
    """Ordinary noise regression of ``pred``, the retained rows' prediction (fine-tuning)."""
    if forget_class is not None and np.any(retain_batch.labels == forget_class):
        raise ContractError(f"retain batch contains forget class {forget_class}")
    return gc.mse_loss(pred, retain_batch.eps)


def _retained_classes(dataset: LabeledDataset, forget_class: int) -> list[int]:
    if forget_class >= dataset.K:
        raise DomainError(f"forget_class {forget_class} outside [0, {dataset.K})")
    if dataset.class_indices(forget_class).size == 0:
        raise DomainError(f"dataset has no samples of forget class {forget_class}")
    retained = [c for c in range(dataset.K) if c != forget_class
                and dataset.class_indices(c).size > 0]
    if not retained:
        raise DomainError("no retained classes to fine-tune on")
    return retained


def _update(model: DenoiserModel, dataset: LabeledDataset, schedule: NoiseSchedule,
            config: UnlearnConfig, rng: np.random.Generator, optimizer: SGD,
            source_class: int, forget_objective) -> StepRecord:
    """One combined update on a ``source_class`` batch and a retained-class batch.

    Both batches go through one denoiser pass, the forget rows first and
    conditioned on the forget class. ``forget_objective(batch, pred)`` gives
    the forget loss node and row weights from the forget rows' prediction;
    the retain rows fine-tune. The rng is drawn in a fixed order: forget
    batch, retain batch, then any draw inside ``forget_objective``."""
    retained = _retained_classes(dataset, config.forget_class)
    f_batch = sample_latent_batch(dataset, schedule, config.batch_size, rng,
                                  classes=[source_class])
    r_batch = sample_latent_batch(dataset, schedule, config.batch_size, rng, classes=retained)
    n_f = f_batch.size
    labels = np.concatenate([np.full(n_f, config.forget_class, dtype=np.int64), r_batch.labels])
    tape = Tape()
    pred = denoiser_forward(tape, tape.params(model.params), model.arch,
                            np.concatenate([f_batch.x_t, r_batch.x_t]), labels,
                            np.concatenate([f_batch.t, r_batch.t]))
    f_loss, weights = forget_objective(f_batch, gc.rows(pred, 0, n_f))
    r_loss = retain_loss(gc.rows(pred, n_f, pred.shape[0]), r_batch,
                         forget_class=config.forget_class)
    objective = gc.add(f_loss, r_loss)
    if not np.isfinite(objective.value):
        raise NumericError("non-finite unlearning objective")
    optimizer.step(model.params, gc.backward(objective))
    return StepRecord(step=-1, forget_loss=float(f_loss.value), retain_loss=float(r_loss.value),
                      psi_mean=float(np.mean(weights)), psi_min=float(np.min(weights)))


def _run(model: DenoiserModel, config: UnlearnConfig, step) -> tuple[DenoiserModel, UnlearnLog]:
    """Run config.steps updates ``step(model, rng, optimizer)`` on a copy of the model."""
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    opt = SGD(config.learning_rate, momentum=0.9)
    log = UnlearnLog()
    with gc.one_blas_thread():
        for i in range(config.steps):
            try:
                record = step(model, rng, opt)
            except NumericError as exc:
                raise NumericError(f"{exc} (at step {i})") from exc
            log.records.append(replace(record, step=i))
    return model, log


def safemax_step(model: DenoiserModel, dataset: LabeledDataset, schedule: NoiseSchedule,
                 config: UnlearnConfig, rng: np.random.Generator, optimizer: SGD) -> StepRecord:
    """One combined update: forget batch on the terminal-noise target, retain batch on regular fine-tuning."""
    def objective(batch: LatentBatch, pred: Node):
        return forget_loss(pred, batch, schedule, config.lam, rng)

    return _update(model, dataset, schedule, config, rng, optimizer, config.forget_class, objective)


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
    if not 0 <= target_class < dataset.K:
        raise DomainError(f"target_class {target_class} outside [0, {dataset.K})")

    def objective(donor: LatentBatch, pred: Node):
        # ``pred`` is the donor rows' prediction under the forget-class condition.
        return gc.mse_loss(pred, donor.eps), 1.0

    return _update(model, dataset, schedule, config, rng, optimizer, target_class, objective)


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
