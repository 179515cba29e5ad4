"""Experiment orchestration: train, unlearn, evaluate, persist.

Every artifact lands under the config's output directory (overridable with
the ``SAFEMAX_LAB_OUT`` environment variable for relative paths). Given the
same config and seeds, reruns produce byte-identical CSV/JSON/SVG artifacts;
the runtime column is the one measurement and is injectable for tests.
"""

from __future__ import annotations

import json
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from .. import denoiser, unlearn
from ..diffusion import LabeledDataset, NoiseSchedule, ancestral_sample, build_schedule
from ..errors import DomainError, StageError
from ..evaluation import EvalReport, entropy_linkage_holds, evaluate, train_classifier
from .checkpoints import Checkpoint, FORMAT_VERSION, load_checkpoint, param_store_from, save_checkpoint
from .config import ExperimentConfig, config_sha256, pretrain_sha256, render_config
from .datasets import generate_toy_dataset
from .plots import render_scatter

log = logging.getLogger(__name__)

OUTPUT_ROOT_ENV = "SAFEMAX_LAB_OUT"
HELDOUT_SEED_OFFSET = 1_000_003

METHODS = ("safemax", "relabel")


@dataclass
class ExperimentResult:
    outdir: Path
    pre_report: EvalReport
    post_report: EvalReport
    method: str
    lam: float
    rte_seconds: float


def resolve_outdir(config: ExperimentConfig) -> Path:
    """Output directory, honoring the environment root override for relative paths."""
    configured = Path(config.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not configured.is_absolute():
        return Path(root) / configured
    return configured


def _ensure_dir(outdir: Path) -> Path:
    if not outdir.exists():
        if not outdir.parent.exists():
            raise FileNotFoundError(
                f"parent directory {outdir.parent} does not exist for output dir {outdir}")
        outdir.mkdir()
    return outdir


@contextmanager
def _stage(name: str, outdir: Path | None):
    try:
        yield
    except Exception as exc:
        if outdir is not None:
            try:
                (outdir / "status.json").write_text(
                    json.dumps({"stage": name, "error": str(exc)}, sort_keys=True) + "\n",
                    encoding="utf-8")
            except OSError:
                pass
        raise StageError(name, str(exc)) from exc


def build_world(config: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset, NoiseSchedule]:
    """Training dataset, a held-out dataset for evaluation, and the schedule."""
    ds = config.dataset
    train_ds = generate_toy_dataset(ds.k, ds.n_per_class, ds.geometry, ds.noise_scale, ds.seed)
    held_ds = generate_toy_dataset(ds.k, ds.n_per_class, ds.geometry, ds.noise_scale,
                                   ds.seed + HELDOUT_SEED_OFFSET)
    schedule = build_schedule(config.schedule.t, config.schedule.beta_min,
                              config.schedule.beta_max)
    return train_ds, held_ds, schedule


def _model_checkpoint(model: denoiser.DenoiserModel, config: ExperimentConfig,
                      seed: int, steps: int, schedule: NoiseSchedule) -> Checkpoint:
    arch = model.arch
    return Checkpoint(
        format_version=FORMAT_VERSION,
        arch={"d": arch.d, "K": arch.K, "hidden_width": arch.hidden_width,
              "hidden_depth": arch.hidden_depth, "embed_dim": arch.embed_dim, "T": arch.T},
        schedule={"t": config.schedule.t, "beta_min": config.schedule.beta_min,
                  "beta_max": config.schedule.beta_max},
        beta=schedule.beta,
        params=dict(model.params.items()),
        provenance={"config_sha256": config_sha256(config),
                    "pretrain_sha256": pretrain_sha256(config),
                    "seed": seed, "steps": steps},
    )


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[denoiser.DenoiserModel, NoiseSchedule]:
    arch = denoiser.DenoiserArch(**{k: int(v) for k, v in ckpt.arch.items()})
    model = denoiser.DenoiserModel(params=param_store_from(ckpt.params), arch=arch)
    schedule = build_schedule(int(ckpt.schedule["t"]), float(ckpt.schedule["beta_min"]),
                              float(ckpt.schedule["beta_max"]))
    return model, schedule


def pretrain_model(config: ExperimentConfig, train_ds: LabeledDataset,
                   schedule: NoiseSchedule) -> denoiser.DenoiserModel:
    model = denoiser.init_model(d=train_ds.d, K=train_ds.K,
                                hidden_width=config.model.hidden_width,
                                hidden_depth=config.model.hidden_depth,
                                embed_dim=config.model.embed_dim,
                                T=config.schedule.t,
                                rng=np.random.default_rng(config.pretrain.seed))
    denoiser.train(model, train_ds, schedule, config.pretrain)
    return model


def ensure_pretrained(config: ExperimentConfig, outdir: Path, train_ds: LabeledDataset,
                      schedule: NoiseSchedule) -> denoiser.DenoiserModel:
    """Load the pretrained checkpoint when its provenance matches, else train and save."""
    path = outdir / "pretrained.ckpt"
    if path.exists():
        ckpt = load_checkpoint(path)
        if ckpt.provenance.get("pretrain_sha256") == pretrain_sha256(config):
            model, _ = model_from_checkpoint(ckpt)
            log.info("reusing pretrained checkpoint %s", path)
            return model
        log.info("pretrained checkpoint %s is stale; retraining", path)
    model = pretrain_model(config, train_ds, schedule)
    save_checkpoint(path, _model_checkpoint(model, config, config.pretrain.seed,
                                            config.pretrain.steps, schedule))
    return model


def _fmt(value) -> str:
    return repr(float(value))


def metrics_rows(config: ExperimentConfig, phase: str, seed: int, lam: float,
                 steps: int, report: EvalReport) -> str:
    k = config.dataset.k
    c_f = config.unlearn.forget_class
    cells = [phase, str(seed), _fmt(lam), str(steps), _fmt(report.ua_percent),
             _fmt(report.mean_entropy_nats), _fmt(report.frechet_mean)]
    for c in range(k):
        cells.append("" if c == c_f else _fmt(report.frechet_per_class[c]))
    cells.append(_fmt(report.rte_seconds))
    return ",".join(cells)


def metrics_header(k: int) -> str:
    cols = ["phase", "seed", "lambda", "steps", "ua_percent", "mean_entropy_nats",
            "frechet_mean"] + [f"frechet_c{c}" for c in range(k)] + ["rte_seconds"]
    return ",".join(cols)


def write_metrics_csv(path: Path, config: ExperimentConfig, rows: list[str]) -> None:
    text = "\n".join([metrics_header(config.dataset.k)] + rows) + "\n"
    path.write_text(text, encoding="utf-8")


def _scatter_from_model(model, schedule, K: int, seed: int, path: Path, title: str) -> None:
    rng = np.random.default_rng(seed)
    samples = {c: ancestral_sample(model, c, schedule, 200, rng) for c in range(K)}
    render_scatter(samples, path, title=title)


def run_experiment(config: ExperimentConfig, method: str = "safemax",
                   lam: float | None = None, clock=time.perf_counter,
                   pretrained_dir: Path | None = None) -> ExperimentResult:
    """Full pipeline: pretrain (or reuse), unlearn, evaluate both models, persist.

    ``lam`` overrides the config's decay rate. ``clock`` feeds the runtime
    measurement around the unlearning loop; inject a fake for byte-stable
    outputs. ``pretrained_dir`` points at a directory whose pretrained
    checkpoint may be shared across runs.
    """
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if lam is not None:
        config = replace(config, unlearn=replace(config.unlearn, lam=float(lam)))
    ucfg = config.unlearn

    outdir = _ensure_dir(resolve_outdir(config))
    (outdir / "config.txt").write_text(render_config(config), encoding="utf-8")

    with _stage("dataset", outdir):
        train_ds, held_ds, schedule = build_world(config)
    with _stage("pretrain", outdir):
        model = ensure_pretrained(config, pretrained_dir or outdir, train_ds, schedule)
    with _stage("classifier", outdir):
        classifier = train_classifier(train_ds, config.eval.classifier_hidden_width,
                                      config.eval.classifier_steps,
                                      config.eval.classifier_learning_rate,
                                      config.eval.classifier_seed)
        if not entropy_linkage_holds(classifier, train_ds, ucfg.forget_class,
                                     np.random.default_rng(config.eval.classifier_seed)):
            log.warning("standard-normal inputs do not raise classifier entropy above "
                        "real forget-class data; entropy comparisons may be weak")

    with _stage("evaluate_pretrained", outdir):
        pre_report = evaluate(model, classifier, held_ds, schedule, ucfg.forget_class,
                              config.eval.n_samples, np.random.default_rng(config.eval.seed),
                              rte_seconds=0.0, steps_executed=0)

    with _stage("unlearn", outdir):
        start = clock()
        if method == "safemax":
            unlearned, ulog = unlearn.run_unlearning(model, train_ds, schedule, ucfg)
        else:
            target = (ucfg.forget_class + 1) % config.dataset.k
            unlearned, ulog = unlearn.run_relabel_unlearning(model, train_ds, schedule,
                                                             ucfg, target)
        rte_seconds = clock() - start
        (outdir / "unlearn_log.csv").write_text("\n".join(ulog.csv_rows()) + "\n",
                                                encoding="utf-8")
        save_checkpoint(outdir / "unlearned.ckpt",
                        _model_checkpoint(unlearned, config, ucfg.seed, ucfg.steps, schedule))

    with _stage("evaluate_unlearned", outdir):
        post_report = evaluate(unlearned, classifier, held_ds, schedule, ucfg.forget_class,
                               config.eval.n_samples, np.random.default_rng(config.eval.seed),
                               rte_seconds=rte_seconds, steps_executed=ucfg.steps)

    with _stage("report", outdir):
        rows = [metrics_rows(config, "pretrained", ucfg.seed, ucfg.lam, 0, pre_report),
                metrics_rows(config, method, ucfg.seed, ucfg.lam, ucfg.steps, post_report)]
        write_metrics_csv(outdir / "metrics.csv", config, rows)
        report = {"method": method, "lambda": ucfg.lam, "seed": ucfg.seed,
                  "config_sha256": config_sha256(config),
                  "pretrained": pre_report.to_json_dict(),
                  "unlearned": post_report.to_json_dict()}
        (outdir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")
        _scatter_from_model(model, schedule, config.dataset.k, config.eval.seed,
                            outdir / "samples_pretrained.svg", "pretrained samples")
        _scatter_from_model(unlearned, schedule, config.dataset.k, config.eval.seed,
                            outdir / "samples_unlearned.svg", f"unlearned samples ({method})")
    return ExperimentResult(outdir=outdir, pre_report=pre_report, post_report=post_report,
                            method=method, lam=ucfg.lam, rte_seconds=rte_seconds)


def offset_seeds(config: ExperimentConfig, k: int) -> ExperimentConfig:
    """Shift every component seed by k, for independent-seed replicates."""
    return replace(
        config,
        dataset=replace(config.dataset, seed=config.dataset.seed + k),
        pretrain=replace(config.pretrain, seed=config.pretrain.seed + k),
        unlearn=replace(config.unlearn, seed=config.unlearn.seed + k),
        eval=replace(config.eval, seed=config.eval.seed + k,
                     classifier_seed=config.eval.classifier_seed + k),
    )


def sweep(config: ExperimentConfig, parameter: str, values, members: int = 3,
          clock=time.perf_counter) -> Path:
    """Run the pipeline per decay value with shared member seeds; emit a table.

    Members reuse one pretrained checkpoint each (the pretraining inputs do
    not depend on the swept value). Failed runs are recorded and skipped;
    medians summarize the successful ones.
    """
    if parameter != "lambda":
        raise DomainError(f"only the decay rate can be swept, got {parameter!r}")
    values = [float(v) for v in values]
    if not values:
        raise DomainError("values must be non-empty")
    if len(set(values)) != len(values):
        raise DomainError(f"duplicate sweep values: {values}")

    outdir = _ensure_dir(resolve_outdir(config))
    sweep_dir = outdir / "sweep_lambda"
    sweep_dir.mkdir(exist_ok=True)
    lines = ["value,seed,status,ua_percent,mean_entropy_nats,frechet_mean,rte_seconds"]
    collected: dict[float, list[tuple[int, EvalReport]]] = {v: [] for v in values}
    for k in range(members):
        member_cfg = offset_seeds(config, k)
        member_dir = sweep_dir / f"member{k}"
        member_dir.mkdir(exist_ok=True)
        for value in values:
            run_dir = member_dir / f"value_{value!r}"
            run_cfg = replace(member_cfg, output_dir=str(run_dir))
            try:
                result = run_experiment(run_cfg, method="safemax", lam=value,
                                        clock=clock, pretrained_dir=member_dir)
            except Exception as exc:  # keep sweeping; mark the failure
                log.error("sweep member %d value %s failed: %s", k, value, exc)
                lines.append(f"{value!r},{member_cfg.unlearn.seed},failed,,,,")
                continue
            r = result.post_report
            lines.append(f"{value!r},{member_cfg.unlearn.seed},ok,{r.ua_percent!r},"
                         f"{r.mean_entropy_nats!r},{r.frechet_mean!r},{r.rte_seconds!r}")
            collected[value].append((member_cfg.unlearn.seed, r))
    for value in values:
        reports = [r for _, r in collected[value]]
        if not reports:
            continue
        lines.append(f"{value!r},median,ok,"
                     f"{median(r.ua_percent for r in reports)!r},"
                     f"{median(r.mean_entropy_nats for r in reports)!r},"
                     f"{median(r.frechet_mean for r in reports)!r},"
                     f"{median(r.rte_seconds for r in reports)!r}")
    path = sweep_dir / "sweep.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
