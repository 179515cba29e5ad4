"""The benchmark's three workloads over the lab's public API.

Each workload is prepared once per process from the workload seed (applied
with ``offset_seeds``) and then repeated as identical passes by one
closed-loop caller. A pass returns what its checks need; the measurement
loop in ``run.py`` times it.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from safemax_lab import denoiser, unlearn
from safemax_lab.harness import checkpoints, experiment
from safemax_lab.harness.config import ExperimentConfig, default_config

# Pretraining behind the shared checkpoint, and one pass of ``pretrain``.
PRETRAIN_STEPS = 500
# Untimed pretraining steps before the first ``pretrain`` pass.
WARM_UP_STEPS = 100
# ``pretrain_loss`` is the mean loss over the last LOSS_WINDOW steps.
LOSS_WINDOW = 100
# Median and full range of ``pretrain_loss`` over seeds 0..19 (see README).
PRETRAIN_LOSS_REFERENCE = 0.15921
PRETRAIN_LOSS_SPREAD = 0.01640

PIPELINE_ARTIFACTS = ("metrics.csv", "report.json", "samples_pretrained.svg",
                      "samples_unlearned.svg")


def bench_config(seed: int, outdir: Path) -> ExperimentConfig:
    """The shipped default config with a shorter pretraining."""
    base = default_config()
    config = replace(base, pretrain=replace(base.pretrain, steps=PRETRAIN_STEPS),
                     output_dir=str(outdir))
    return experiment.offset_seeds(config, seed)


def setup(workload: str, seed: int, workdir: Path):
    """What every pass starts from: the world and, past ``pretrain``, the model.

    This is the part ``setup_s`` times; the checkpoint must already exist.
    """
    config = bench_config(seed, workdir)
    train_ds, _, schedule = experiment.build_world(config)
    model = None
    if workload != "pretrain":
        # ``ensure_pretrained`` saved it under this name in ``make_checkpoint``.
        ckpt = checkpoints.load_checkpoint(workdir / "pretrained.ckpt")
        model, _ = experiment.model_from_checkpoint(ckpt)
    return config, train_ds, schedule, model


def make_checkpoint(seed: int, workdir: Path) -> list[float]:
    """Pretrain and save through the program's ``ensure_pretrained``.

    Returns the per-step pretraining losses, which ``ensure_pretrained``
    drops, by keeping what ``denoiser.train`` returns while it runs.
    """
    config = bench_config(seed, workdir)
    train_ds, _, schedule = experiment.build_world(config)
    kept: list[list[float]] = []
    train = denoiser.train

    def keep_losses(*args, **kwargs):
        model, losses = train(*args, **kwargs)
        kept.append(losses)
        return model, losses

    denoiser.train = keep_losses
    try:
        experiment.ensure_pretrained(config, workdir, train_ds, schedule)
    finally:
        denoiser.train = train
    return kept[0]


def window_loss(losses: list[float]) -> float:
    return float(np.mean(losses[-LOSS_WINDOW:]))


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Pass:
    steps: int          # training steps in the timed part (0 if none)
    train_s: float      # wall time of those steps
    fingerprint: tuple  # must repeat exactly on every pass of one seed
    checks: list[Check] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)


class RecordingClock:
    """Clock for ``run_experiment``: the program reads a fixed 0.0, so its
    outputs stay byte-identical, while the benchmark keeps the real times
    of the calls, which bracket the unlearning loop."""

    def __init__(self):
        self.stamps: list[float] = []

    def __call__(self) -> float:
        self.stamps.append(time.perf_counter())
        return 0.0


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.config, self.train_ds, self.schedule, self.model = setup(self.name, seed, workdir)

    def warm_up(self) -> None:
        """Untimed work that lets lazy set-up in numpy and BLAS finish."""

    def run(self):
        """The timed part of one pass."""
        raise NotImplementedError

    def inspect(self, out) -> Pass:
        """Untimed: turn the pass output into checks and fingerprints."""
        raise NotImplementedError


class Pretrain(Workload):
    """``denoiser.train`` from ``init_model`` on the default world."""

    name = "pretrain"

    def warm_up(self) -> None:
        # The other workloads are warm from pretraining their checkpoint.
        model = self._init_model()
        config = replace(self.config.pretrain, steps=WARM_UP_STEPS)
        denoiser.train(model, self.train_ds, self.schedule, config)

    def _init_model(self):
        arch = self.config.model
        return denoiser.init_model(d=self.train_ds.d, K=self.train_ds.K,
                                   hidden_width=arch.hidden_width,
                                   hidden_depth=arch.hidden_depth,
                                   embed_dim=arch.embed_dim, T=self.config.schedule.t,
                                   rng=np.random.default_rng(self.config.pretrain.seed))

    def run(self):
        model = self._init_model()
        start = time.perf_counter()
        _, losses = denoiser.train(model, self.train_ds, self.schedule, self.config.pretrain)
        return losses, time.perf_counter() - start

    def inspect(self, out) -> Pass:
        losses, train_s = out
        loss = window_loss(losses)
        return Pass(steps=len(losses), train_s=train_s, fingerprint=(loss,),
                    checks=[Check("pretrain losses finite", bool(np.all(np.isfinite(losses))))],
                    values={"pretrain_loss": loss})


class Unlearn(Workload):
    """``run_unlearning`` (safemax) then ``run_relabel_unlearning`` from the checkpoint."""

    name = "unlearn"

    def run(self):
        ucfg = self.config.unlearn
        target = (ucfg.forget_class + 1) % self.config.dataset.k
        start = time.perf_counter()
        _, safemax_log = unlearn.run_unlearning(self.model, self.train_ds, self.schedule, ucfg)
        _, relabel_log = unlearn.run_relabel_unlearning(self.model, self.train_ds,
                                                        self.schedule, ucfg, target)
        return safemax_log, relabel_log, time.perf_counter() - start

    def inspect(self, out) -> Pass:
        safemax_log, relabel_log, train_s = out
        records = safemax_log.records + relabel_log.records
        losses = [v for r in records for v in (r.forget_loss, r.retain_loss)]
        return Pass(steps=len(records), train_s=train_s, fingerprint=tuple(losses),
                    checks=[Check("unlearning losses finite", bool(np.all(np.isfinite(losses))))])


class Pipeline(Workload):
    """``run_experiment`` reusing the checkpoint, into a fresh output dir per pass."""

    name = "pipeline"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.passes = 0

    def run(self):
        outdir = self.workdir / f"run{self.passes}"
        self.passes += 1
        clock = RecordingClock()
        result = experiment.run_experiment(replace(self.config, output_dir=str(outdir)),
                                           clock=clock, pretrained_dir=self.workdir)
        return result, clock

    def inspect(self, out) -> Pass:
        result, clock = out
        pre, post = result.pre_report, result.post_report
        digests = tuple(hashlib.sha256((result.outdir / name).read_bytes()).hexdigest()
                        for name in PIPELINE_ARTIFACTS)
        shutil.rmtree(result.outdir)
        checks = [
            # run_experiment raises when the classifier misses its gate.
            Check("classifier passes its 98% gate", True),
            Check("unlearning raises UA", post.ua_percent > pre.ua_percent,
                  f"{pre.ua_percent:.2f} -> {post.ua_percent:.2f}"),
            Check("unlearning raises prediction entropy",
                  post.mean_entropy_nats > pre.mean_entropy_nats,
                  f"{pre.mean_entropy_nats:.4f} -> {post.mean_entropy_nats:.4f}"),
            Check("retain_fd finite", math.isfinite(post.frechet_mean)),
        ]
        start, end = clock.stamps
        return Pass(steps=self.config.unlearn.steps, train_s=end - start, fingerprint=digests,
                    checks=checks,
                    values={"retain_fd": post.frechet_mean, "ua_pretrained": pre.ua_percent,
                            "ua_unlearned": post.ua_percent,
                            "entropy_pretrained": pre.mean_entropy_nats,
                            "entropy_unlearned": post.mean_entropy_nats})


WORKLOADS = {w.name: w for w in (Pretrain, Unlearn, Pipeline)}
