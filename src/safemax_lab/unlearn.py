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

EPST_MODES = ("independent", "trajectory")


@dataclass(frozen=True)
class UnlearnConfig:
    forget_class: int
    lam: float
    steps: int
    learning_rate_forget: float
    learning_rate_retain: float
    batch_size_forget: int
    batch_size_retain: int
    epsT_mode: str
    seed: int

    def __post_init__(self):
        if self.forget_class < 0:
            raise DomainError(f"forget_class must be >= 0, got {self.forget_class}")
        if self.lam < 0.0:
            raise DomainError(f"lambda must be >= 0, got {self.lam}")
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if min(self.learning_rate_forget, self.learning_rate_retain) <= 0.0:
            raise DomainError("learning rates must be > 0")
        if min(self.batch_size_forget, self.batch_size_retain) < 1:
            raise DomainError("batch sizes must be >= 1")
        if self.epsT_mode not in EPST_MODES:
            raise DomainError(f"epsT_mode must be one of {EPST_MODES}, got {self.epsT_mode!r}")


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
    if lam < 0.0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0) or np.any(t_arr > T):
        raise DomainError(f"t must lie in [0, {T}]")
    out = np.exp(-lam * t_arr / float(T))
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def epsT_target(x0: Array, x_t: Array, t, schedule: NoiseSchedule, mode: str,
                rng: np.random.Generator) -> Array:
    """Terminal-state noise target for the forget objective.

    independent: a fresh standard normal draw, unrelated to the noise in
    x_t (the terminal latent carries no trace of the data when the signal
    fraction has decayed to ~0).

    trajectory: extend the chain that produced x_t out to the final step,
    then solve for the cumulative noise that final latent implies.
    """
    if mode not in EPST_MODES:
        raise DomainError(f"mode must be one of {EPST_MODES}, got {mode!r}")
    x0 = gc.as_array(x0)
    x_t = gc.as_array(x_t)
    abar_T = float(schedule.alpha_bar[-1])
    if abar_T >= 1.0:
        raise DomainError("degenerate schedule: terminal signal fraction is 1")
    if mode == "independent":
        return rng.standard_normal(x0.shape)
    t = np.asarray(t, dtype=np.int64)
    abar_t = schedule.alpha_bar[t - 1][:, None]
    ratio = abar_T / abar_t
    noise = rng.standard_normal(x0.shape)
    x_T = np.sqrt(ratio) * x_t + np.sqrt(1.0 - ratio) * noise
    return (x_T - np.sqrt(abar_T) * x0) / np.sqrt(1.0 - abar_T)


def _single_class(batch: LatentBatch) -> int:
    classes = np.unique(batch.labels)
    if classes.size != 1:
        raise ContractError(f"forget batch mixes classes {classes.tolist()}")
    return int(classes[0])


def forget_loss(model: DenoiserModel, forget_batch: LatentBatch, schedule: NoiseSchedule,
                lam: float, epsT_mode: str, rng: np.random.Generator,
                tape: Tape | None = None,
                pnodes: dict[str, Node] | None = None) -> tuple[Node, Array]:
    """Decay-weighted regression of the forget-conditioned output onto terminal noise.

    Returns the loss node and the per-row decay weights it applied."""
    _single_class(forget_batch)
    if tape is None:
        tape = Tape()
    if pnodes is None:
        pnodes = tape.params(model.params)
    weights = np.asarray(psi(forget_batch.t, schedule.T, lam), dtype=np.float64)
    target = epsT_target(forget_batch.x0, forget_batch.x_t, forget_batch.t,
                         schedule, epsT_mode, rng)
    pred = denoiser_forward(tape, pnodes, model.arch,
                            forget_batch.x_t, forget_batch.labels, forget_batch.t)
    return gc.mse_loss(pred, target, weights=weights), weights


def retain_loss(model: DenoiserModel, retain_batch: LatentBatch,
                tape: Tape | None = None, pnodes: dict[str, Node] | None = None,
                forget_class: int | None = None) -> Node:
    """Ordinary noise regression on retained classes (regular fine-tuning)."""
    if forget_class is not None and np.any(retain_batch.labels == forget_class):
        raise ContractError(f"retain batch contains forget class {forget_class}")
    if tape is None:
        tape = Tape()
    if pnodes is None:
        pnodes = tape.params(model.params)
    pred = denoiser_forward(tape, pnodes, model.arch,
                            retain_batch.x_t, retain_batch.labels, retain_batch.t)
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
    """One combined update: ``forget_objective(batch, tape, pnodes)`` gives the forget
    loss node and row weights for a ``source_class`` batch; retained classes fine-tune.

    The rng is drawn in a fixed order: forget batch, retain batch, then any
    draw inside ``forget_objective``."""
    retained = _retained_classes(dataset, config.forget_class)
    f_batch = sample_latent_batch(dataset, schedule, config.batch_size_forget, rng,
                                  classes=[source_class])
    r_batch = sample_latent_batch(dataset, schedule, config.batch_size_retain, rng,
                                  classes=retained)
    tape = Tape()
    pnodes = tape.params(model.params)
    f_loss, weights = forget_objective(f_batch, tape, pnodes)
    r_loss = retain_loss(model, r_batch, tape=tape, pnodes=pnodes,
                         forget_class=config.forget_class)
    # Separate rates fold into one update: step with lr_forget on
    # f + (lr_retain / lr_forget) * r. Equal rates give the plain unit sum.
    ratio = config.learning_rate_retain / config.learning_rate_forget
    objective = gc.add(f_loss, gc.scale(r_loss, ratio)) if ratio != 1.0 else gc.add(f_loss, r_loss)
    if not np.isfinite(objective.value):
        raise NumericError("non-finite unlearning objective")
    optimizer.step(model.params, gc.backward(objective))
    return StepRecord(step=-1, forget_loss=float(f_loss.value), retain_loss=float(r_loss.value),
                      psi_mean=float(np.mean(weights)), psi_min=float(np.min(weights)))


def _run(model: DenoiserModel, config: UnlearnConfig, step) -> tuple[DenoiserModel, UnlearnLog]:
    """Run config.steps updates ``step(model, rng, optimizer)`` on a copy of the model."""
    model = model.copy()
    rng = np.random.default_rng(config.seed)
    opt = SGD(config.learning_rate_forget, momentum=0.9)
    log = UnlearnLog()
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
    def objective(batch: LatentBatch, tape: Tape, pnodes: dict[str, Node]):
        return forget_loss(model, batch, schedule, config.lam, config.epsT_mode, rng,
                           tape=tape, pnodes=pnodes)

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

    def objective(donor: LatentBatch, tape: Tape, pnodes: dict[str, Node]):
        labels = np.full(donor.size, config.forget_class, dtype=np.int64)
        pred = denoiser_forward(tape, pnodes, model.arch, donor.x_t, labels, donor.t)
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
