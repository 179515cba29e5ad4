"""Experiment orchestration: train, unlearn, evaluate, persist.

Every artifact lands under the config's output directory (overridable with
the ``SAFEMAX_LAB_OUT`` environment variable for relative paths). Given the
same config and seeds, reruns produce byte-identical CSV/JSON/SVG artifacts;
the runtime column is the one measurement and is injectable for tests.
``env.json``, which describes the interpreter and BLAS, is outside that set.
"""

from __future__ import annotations

import json
import logging
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

from .. import denoiser, unlearn
from ..diffusion import LabeledDataset, NoiseSchedule, build_schedule
from ..errors import CheckpointIntegrityError, CheckpointVersionError, DomainError, StageError
from ..evaluation import (SUMMARY, Classifier, ClassifierArch, EvalReport, entropy_linkage_holds,
                          evaluate, gate_classifier, init_classifier, sample_classes,
                          score_samples, train_classifier)
from ..gradcore import Array, blas_threads, one_blas_thread
from .checkpoints import (Checkpoint, FORMAT_VERSION, load_checkpoint, save_checkpoint,
                          write_atomic)
from .config import (ExperimentConfig, classifier_sha256, config_sha256, pretrain_sha256,
                     render_config)
from .datasets import generate_toy_dataset
from .plots import render_scatter

log = logging.getLogger(__name__)

OUTPUT_ROOT_ENV = "SAFEMAX_LAB_OUT"
HELDOUT_SEED_OFFSET = 1_000_003


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
def _stage(name: str, outdir: Path):
    try:
        yield
    except Exception as exc:
        try:
            write_atomic(outdir / "status.json",
                         json.dumps({"stage": name, "error": str(exc)}, sort_keys=True) + "\n")
        except OSError:
            pass
        raise StageError(name, str(exc)) from exc


def build_world(config: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset, NoiseSchedule]:
    """Training dataset, a held-out dataset for evaluation, and the schedule."""
    ds = config.dataset
    train_ds = generate_toy_dataset(ds)
    held_ds = generate_toy_dataset(replace(ds, seed=ds.seed + HELDOUT_SEED_OFFSET))
    schedule = build_schedule(config.schedule.t, config.schedule.beta_min,
                              config.schedule.beta_max)
    return train_ds, held_ds, schedule


def _model_checkpoint(model: denoiser.DenoiserModel, config: ExperimentConfig,
                      seed: int, steps: int, schedule: NoiseSchedule) -> Checkpoint:
    return Checkpoint(
        format_version=FORMAT_VERSION, arch=asdict(model.arch), schedule=asdict(config.schedule),
        beta=schedule.beta,
        params=dict(model.params.items()),
        provenance={"config_sha256": config_sha256(config),
                    "pretrain_sha256": pretrain_sha256(config),
                    "seed": seed, "steps": steps},
    )


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[denoiser.DenoiserModel, NoiseSchedule]:
    """The model and schedule a checkpoint holds.

    Raises ``CheckpointIntegrityError`` when the architecture or schedule
    entries are unusable or the parameters do not fit the architecture.
    """
    arch, params = _params_for(ckpt, denoiser.DenoiserArch,
                               lambda arch, rng: denoiser.init_model(**asdict(arch), rng=rng))
    try:
        schedule = build_schedule(int(ckpt.schedule["t"]), float(ckpt.schedule["beta_min"]),
                                  float(ckpt.schedule["beta_max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointIntegrityError(f"checkpoint has no usable schedule: {exc!r}") from exc
    return denoiser.DenoiserModel(params=params, arch=arch), schedule


def _params_for(ckpt: Checkpoint, arch_cls, init):
    """The architecture ``ckpt`` declares and its parameters, checked against that architecture.

    ``init(arch, rng)`` builds a model of ``arch`` whose ``params`` give the
    expected names and shapes; the checkpoint's arrays are copied into that
    store. Raises ``CheckpointIntegrityError`` when the architecture entries
    are unusable or the parameters do not fit them.
    """
    try:
        arch = arch_cls(**{k: int(v) for k, v in ckpt.arch.items()})
        params = init(arch, np.random.default_rng(0)).params
    except (TypeError, ValueError) as exc:
        raise CheckpointIntegrityError(f"checkpoint does not describe a {arch_cls.__name__}: "
                                       f"{exc!r}") from exc
    expected = {name: value.shape for name, value in params.items()}
    found = {name: np.shape(value) for name, value in ckpt.params.items()}
    if found != expected:
        raise CheckpointIntegrityError(
            f"parameters {found} disagree with the architecture's {expected}")
    for name in expected:
        params[name] = ckpt.params[name]
    return arch, params


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


def _load_or_build(path: Path, key: dict, build, use):
    """``use`` of the checkpoint cached at ``path`` under ``key``, else of a fresh ``build()``.

    ``use`` turns a checkpoint into what the caller needs and runs its
    checks, on cached and fresh checkpoints alike. A fresh one is saved,
    with ``key`` in its provenance, only once ``use`` accepts it. A cached
    file that fails its integrity or version check, when loaded or in
    ``use``, counts as stale.
    """
    if path.exists():
        try:
            ckpt = load_checkpoint(path)
            if all(ckpt.provenance.get(name) == value for name, value in key.items()):
                log.info("reusing %s", path)
                return use(ckpt)
            log.info("cached %s is stale; rebuilding", path)
        except (CheckpointIntegrityError, CheckpointVersionError) as exc:
            log.warning("cached %s is unreadable (%s); rebuilding", path, exc)
    ckpt = build()
    ckpt.provenance.update(key)
    value = use(ckpt)
    save_checkpoint(path, ckpt)
    return value


def _arrays_checkpoint(arrays: dict[str, Array], arch: dict | None = None) -> Checkpoint:
    """A checkpoint of arrays that need no noise schedule."""
    return Checkpoint(format_version=FORMAT_VERSION, arch=arch or {}, schedule={},
                      beta=np.zeros(0), params=arrays, provenance={})


def ensure_pretrained(config: ExperimentConfig, outdir: Path, train_ds: LabeledDataset,
                      schedule: NoiseSchedule) -> denoiser.DenoiserModel:
    """Load the pretrained checkpoint when its provenance matches, else train and save."""
    def build():
        model = pretrain_model(config, train_ds, schedule)
        return _model_checkpoint(model, config, config.pretrain.seed, config.pretrain.steps,
                                 schedule)

    return _load_or_build(outdir / "pretrained.ckpt", {"pretrain_sha256": pretrain_sha256(config)},
                          build, lambda ckpt: model_from_checkpoint(ckpt)[0])


def _ensure_classifier(config: ExperimentConfig, cache_dir: Path,
                       train_ds: LabeledDataset) -> Classifier:
    """The evaluation classifier, cached by its training inputs and gated on every load."""
    ev = config.eval

    def build():
        clf = train_classifier(train_ds, ev.classifier_hidden_width, ev.classifier_steps,
                               ev.classifier_learning_rate, ev.classifier_seed)
        return _arrays_checkpoint(dict(clf.params.items()), asdict(clf.arch))

    def use(ckpt):
        arch, params = _params_for(
            ckpt, ClassifierArch,
            lambda arch, rng: init_classifier(arch.d, arch.K, arch.hidden_width, rng))
        clf = Classifier(params=params, arch=arch)
        gate_classifier(clf, train_ds, ev.classifier_seed)
        return clf

    return _load_or_build(cache_dir / "classifier.ckpt",
                          {"classifier_sha256": classifier_sha256(config)}, build, use)


def _score_pretrained(config: ExperimentConfig, cache_dir: Path, model: denoiser.DenoiserModel,
                      classifier: Classifier, held_ds: LabeledDataset,
                      schedule: NoiseSchedule) -> EvalReport:
    """The pretrained model's report, from samples cached by model and sampling inputs."""
    ev, k = config.eval, held_ds.K

    def build():
        samples = sample_classes(model, schedule, k, ev.n_samples, np.random.default_rng(ev.seed))
        return _arrays_checkpoint({f"class{c}": samples[c] for c in range(k)})

    def use(ckpt):
        shapes = {name: value.shape for name, value in ckpt.params.items()}
        if shapes != {f"class{c}": (ev.n_samples, held_ds.d) for c in range(k)}:
            raise CheckpointIntegrityError(f"cached samples {shapes} do not hold "
                                           f"{ev.n_samples} points per class")
        samples = {c: ckpt.params[f"class{c}"] for c in range(k)}
        return score_samples(classifier, samples, held_ds, config.unlearn.forget_class)

    key = {"pretrain_sha256": pretrain_sha256(config), "eval_seed": ev.seed,
           "n_samples": ev.n_samples}
    return _load_or_build(cache_dir / "samples_pretrained.ckpt", key, build, use)


def _environment() -> dict:
    """The Python, numpy and BLAS a run used, and BLAS's default and training thread counts."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    with one_blas_thread():
        training = blas_threads()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_default": blas_threads(), "blas_threads_training": training}


def _fmt(value) -> str:
    return repr(float(value))


def _metrics_row(config: ExperimentConfig, phase: str, report: EvalReport, steps: int,
                 rte_seconds: float) -> str:
    """One ``write_metrics_csv`` row; the forget class's distance cell is empty."""
    ucfg = config.unlearn
    per_class = ["" if c == ucfg.forget_class else _fmt(report.frechet_per_class[c])
                 for c in range(config.dataset.k)]
    return ",".join([phase, str(ucfg.seed), _fmt(ucfg.lam), str(steps),
                     *(_fmt(getattr(report, name)) for name in SUMMARY), *per_class,
                     _fmt(rte_seconds)])


def write_metrics_csv(path: Path, config: ExperimentConfig, rows: list[str]) -> None:
    header = ["phase", "seed", "lambda", "steps", *SUMMARY,
              *(f"frechet_c{c}" for c in range(config.dataset.k)), "rte_seconds"]
    write_atomic(path, "\n".join([",".join(header), *rows]) + "\n")


def run_experiment(config: ExperimentConfig, method: str = next(iter(unlearn.METHODS)),
                   lam: float | None = None, clock=time.perf_counter,
                   pretrained_dir: Path | None = None) -> ExperimentResult:
    """Full pipeline: pretrain (or reuse), unlearn, evaluate both models, persist.

    ``method`` names an entry of ``unlearn.METHODS``. ``lam`` overrides the
    config's decay rate. ``clock`` feeds the runtime measurement around the
    unlearning loop; inject a fake for byte-stable outputs. ``pretrained_dir``
    points at a directory whose pretrained checkpoint may be shared across runs;
    the evaluation classifier and the pretrained model's samples are cached
    next to that checkpoint. The scatter plots show the samples each
    evaluation scored.
    """
    if method not in unlearn.METHODS:
        raise DomainError(f"method must be one of {tuple(unlearn.METHODS)}, got {method!r}")
    if lam is not None:
        config = replace(config, unlearn=replace(config.unlearn, lam=float(lam)))
    ucfg = config.unlearn

    config_text = render_config(config)  # before any directory: it may reject output_dir
    outdir = _ensure_dir(resolve_outdir(config))
    cache_dir = pretrained_dir or outdir
    (outdir / "status.json").unlink(missing_ok=True)  # a failure record of an earlier run
    write_atomic(outdir / "config.txt", config_text)
    write_atomic(outdir / "env.json", json.dumps(_environment(), sort_keys=True) + "\n")

    with _stage("dataset", outdir):
        train_ds, held_ds, schedule = build_world(config)
    with _stage("pretrain", outdir):
        model = ensure_pretrained(config, cache_dir, train_ds, schedule)
    with _stage("classifier", outdir):
        classifier = _ensure_classifier(config, cache_dir, train_ds)
        if not entropy_linkage_holds(classifier, train_ds, ucfg.forget_class,
                                     np.random.default_rng(config.eval.classifier_seed)):
            log.warning("standard-normal inputs do not raise classifier entropy above "
                        "real forget-class data; entropy comparisons may be weak")

    with _stage("evaluate_pretrained", outdir):
        pre_report = _score_pretrained(config, cache_dir, model, classifier, held_ds, schedule)

    with _stage("unlearn", outdir):
        start = clock()
        unlearned, ulog = unlearn.METHODS[method](model, train_ds, schedule, ucfg)
        rte_seconds = clock() - start
        write_atomic(outdir / "unlearn_log.csv", "\n".join(ulog.csv_rows()) + "\n")
        save_checkpoint(outdir / "unlearned.ckpt",
                        _model_checkpoint(unlearned, config, ucfg.seed, ucfg.steps, schedule))

    with _stage("evaluate_unlearned", outdir):
        post_report = evaluate(unlearned, classifier, held_ds, schedule, ucfg.forget_class,
                               config.eval.n_samples, np.random.default_rng(config.eval.seed))

    with _stage("report", outdir):
        # phase name in metrics.csv, report.json key, report, steps run, unlearning seconds
        phases = [("pretrained", "pretrained", pre_report, 0, 0.0),
                  (method, "unlearned", post_report, ucfg.steps, rte_seconds)]
        write_metrics_csv(outdir / "metrics.csv", config,
                          [_metrics_row(config, name, *rest) for name, _, *rest in phases])
        report = {"method": method, "lambda": ucfg.lam, "seed": ucfg.seed,
                  "config_sha256": config_sha256(config)}
        for _, key, phase_report, steps, seconds in phases:
            report[key] = {**phase_report.to_json_dict(), "rte_seconds": seconds,
                           "steps_executed": steps}
        write_atomic(outdir / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
        render_scatter(pre_report.samples, outdir / "samples_pretrained.svg",
                       title="pretrained samples")
        render_scatter(post_report.samples, outdir / "samples_unlearned.svg",
                       title=f"unlearned samples ({method})")
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


def sweep(config: ExperimentConfig, values, members: int = 3,
          clock=time.perf_counter) -> Path:
    """Run the default method per decay value with shared member seeds; emit a table.

    Members reuse one pretrained checkpoint, evaluation classifier and set
    of pretrained-model samples each (none depends on the swept value). A
    run that fails in a pipeline stage gets the status ``failed:<stage>``
    and is skipped; medians summarize the successful ones. A decay value
    the config rejects raises before the first run; any other error
    propagates.
    """
    values = [float(v) for v in values]
    if not values:
        raise DomainError("values must be non-empty")
    if members < 1:
        raise DomainError(f"members must be >= 1, got {members}")
    if len(set(values)) != len(values):
        raise DomainError(f"duplicate sweep values: {values}")
    for value in values:  # reject a bad value before any run starts
        replace(config.unlearn, lam=value)

    outdir = _ensure_dir(resolve_outdir(config))
    sweep_dir = outdir / "sweep_lambda"
    sweep_dir.mkdir(exist_ok=True)
    columns = (*SUMMARY, "rte_seconds")
    lines = [",".join(("value", "seed", "status", *columns))]
    collected: dict[float, list[list[float]]] = {v: [] for v in values}  # ok runs' columns
    for k in range(members):
        member_cfg = offset_seeds(config, k)
        member_dir = sweep_dir / f"member{k}"
        member_dir.mkdir(exist_ok=True)
        for value in values:
            run_dir = member_dir / f"value_{value!r}"
            run_cfg = replace(member_cfg, output_dir=str(run_dir))
            try:
                result = run_experiment(run_cfg, lam=value, clock=clock,
                                        pretrained_dir=member_dir)
            except StageError as exc:  # keep sweeping; mark the failure
                log.error("sweep member %d value %s failed: %s", k, value, exc)
                lines.append(",".join([repr(value), str(member_cfg.unlearn.seed),
                                       f"failed:{exc.stage}", *[""] * len(columns)]))
                continue
            run = [getattr(result.post_report, name) for name in SUMMARY] + [result.rte_seconds]
            lines.append(",".join([repr(value), str(member_cfg.unlearn.seed), "ok",
                                   *map(_fmt, run)]))
            collected[value].append(run)
    for value in values:
        if collected[value]:
            medians = [median(column) for column in zip(*collected[value])]
            lines.append(",".join([repr(value), "median", "ok", *map(_fmt, medians)]))
    path = sweep_dir / "sweep.csv"
    write_atomic(path, "\n".join(lines) + "\n")
    return path
