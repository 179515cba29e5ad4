"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 6..9 share one expensive fixture that runs the full default pipeline
(pretrain, unlearn variants, evaluation) across three seed offsets. Everything
uses the shipped default configuration; nothing here is scaled down except
criterion 10's determinism check, which exercises the identical code path on
a small config to keep the suite under ten minutes.

Known red: criterion 6's unlearning-accuracy clause. With a 2-d four-blob
dataset, every evaluation classifier we can train partitions the plane into
near-equal angular cells at all radii, so even an ideal unlearner whose
forget-class output is exact standard normal noise scores UA around 70-78
(the oracle is measured inside the test and printed with the failure). The
95% target would require the evaluator to concentrate noise into one
non-forget class, which small symmetric MLPs demonstrably never do. The
entropy and runtime clauses of criterion 6 hold and are asserted separately.
"""

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from statistics import median

import numpy as np
import pytest

from safemax_lab import denoiser as dn
from safemax_lab import diffusion as df
from safemax_lab import evaluation as ev
from safemax_lab import gradcore as gc
from safemax_lab import unlearn as ul
from safemax_lab.harness import checkpoints as ck
from safemax_lab.harness import experiment as ex
from safemax_lab.harness.config import default_config
from safemax_lab.harness.datasets import DatasetSpec, generate_toy_dataset


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


# ----------------------------------------------------------------------
# Criterion 1: gradient oracle over both model losses
# ----------------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    with criterion(1, "gradient oracle"):
        start = time.perf_counter()
        ds = generate_toy_dataset(DatasetSpec(4, 300, "ring", 0.35, 0))
        sched = df.NoiseSchedule(100, 1e-4, 0.2)

        model = dn.init_model(2, 4, 128, 3, 16, 100, np.random.default_rng(1))
        batch = df.sample_latent_batch(ds, sched, 16, np.random.default_rng(2))
        target = ul.epsT_target(batch.x_t, np.random.default_rng(3))
        weights = ul.psi(batch.t, sched.t, 1.0)

        def denoiser_train_loss(tape, params):
            pn = tape.params(params)
            pred = dn.denoiser_forward(tape, pn, model.arch, batch.x_t, batch.labels, batch.t)
            return gc.mse_loss(pred, batch.eps)

        def denoiser_forget_loss(tape, params):
            pn = tape.params(params)
            pred = dn.denoiser_forward(tape, pn, model.arch, batch.x_t, batch.labels, batch.t)
            return gc.mse_loss(pred, target, weights=weights)

        clf = ev.init_classifier(2, 4, 64, np.random.default_rng(4))
        points, labels = ds.points[:32], ds.labels[:32]

        def classifier_loss(tape, params):
            c = ev.Classifier(params=params, arch=clf.arch)
            return ev.classifier_loss_node(tape, c, points, labels)

        probes = [(denoiser_train_loss, model.params, 40),
                  (denoiser_forget_loss, model.params, 40),
                  (classifier_loss, clf.params, 40)]
        total = sum(n for _, _, n in probes)
        assert total >= 100
        worst = max(gc.grad_check(fn, params, epsilon=1e-5, probes=n,
                                  rng=np.random.default_rng(7))
                    for fn, params, n in probes)
        elapsed = time.perf_counter() - start
        print(f"  max relative error {worst:.3e} over {total} probes in {elapsed:.1f}s")
        assert worst < 1e-4
        assert elapsed < 30.0


# ----------------------------------------------------------------------
# Criterion 2: forward-process statistics
# ----------------------------------------------------------------------

def test_criterion_2_forward_statistics():
    with criterion(2, "forward-process statistics"):
        start = time.perf_counter()
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        rng = np.random.default_rng(40)
        n = 100_000
        for x0, t in ((np.array([1.5, -2.0]), 1),
                      (np.array([1.5, -2.0]), 50),
                      (np.array([-3.0, 0.5]), 100)):
            abar = sched.alpha_bar[t - 1]
            eps = rng.standard_normal((n, 2))
            x_t = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps
            mean_se = np.sqrt((1 - abar) / n)
            assert np.all(np.abs(x_t.mean(axis=0) - np.sqrt(abar) * x0) < 3 * mean_se)
            var = x_t.var(axis=0, ddof=1)
            var_se = (1 - abar) * np.sqrt(2.0 / (n - 1))
            assert np.all(np.abs(var - (1 - abar)) < 3 * var_se)
        elapsed = time.perf_counter() - start
        print(f"  three (x0, t) pairs at n={n} in {elapsed:.1f}s")
        assert elapsed < 10.0


# ----------------------------------------------------------------------
# Criterion 3: entropy growth and inter-class convergence along diffusion
# ----------------------------------------------------------------------

def test_criterion_3_latent_trajectories():
    with criterion(3, "latent trajectory properties"):
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        ds = generate_toy_dataset(DatasetSpec(4, 1000, "ring", 0.35, 0))
        rng = np.random.default_rng(9)
        checkpoints = [1, 25, 50, 75, 100]
        n = 100_000
        entropies = {c: [] for c in range(4)}
        distances = []
        for t in checkpoints:
            latents = []
            for c in range(4):
                x0 = ds.points[ds.class_indices(c)]
                rows = x0[rng.integers(0, len(x0), size=n)]
                x_t = df._forward_sample_rows(rows, np.full(n, t), sched,
                                              rng.standard_normal((n, 2)))
                latents.append(x_t)
                entropies[c].append(df.latent_entropy_estimate(x_t))
            distances.append(df.interclass_distance(latents))
        for c, series in entropies.items():
            assert np.all(np.diff(series) > -0.02), f"class {c}: {series}"
        tol = 0.05 * distances[0]
        assert np.all(np.diff(distances) < tol), distances
        assert distances[-1] < 0.2 * distances[0], distances
        print(f"  entropy class 0: {[round(e, 3) for e in entropies[0]]}")
        print(f"  inter-class distance: {[round(d, 3) for d in distances]}")


# ----------------------------------------------------------------------
# Criterion 4: reference differential entropies
# ----------------------------------------------------------------------

def test_criterion_4_reference_entropies():
    with criterion(4, "reference differential entropies"):
        # exact value ln 2 = 0.69314718...; 0.693147 is its printed rounding
        uniform = ev.differential_entropy_uniform(-1.0, 1.0)
        assert abs(uniform - np.log(2.0)) < 1e-9
        assert abs(uniform - 0.693147) < 1e-6
        gaussian = ev.differential_entropy_gaussian(1.0)
        assert abs(gaussian - 1.4189) < 1e-4


# ----------------------------------------------------------------------
# Criterion 5: error-probability bound from conditional entropy
# ----------------------------------------------------------------------

def test_criterion_5_fano_bound():
    with criterion(5, "error-probability bound"):
        assert ev.fano_bound(1.0, 16).pe_lower_bound == 0.0
        card = 16
        assert abs(ev.fano_bound(1.0 + np.log(card), card).pe_lower_bound - 1.0) < 1e-12
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = float(rng.uniform(0.0, 8.0))
            dh = float(rng.uniform(0.0, 2.0))
            card = int(rng.integers(2, 500))
            base = ev.fano_bound(h, card).pe_lower_bound
            assert ev.fano_bound(h + dh, card).pe_lower_bound >= base
            assert ev.fano_bound(h, card + 1).pe_lower_bound <= base
            assert 0.0 <= base <= 1.0


# ----------------------------------------------------------------------
# Criteria 6..9 share the full default pipeline across three seeds
# ----------------------------------------------------------------------

@dataclass
class SeedOutcome:
    pre: ev.EvalReport
    by_lambda: dict           # lambda value -> EvalReport (500 unlearning steps)
    relabel: ev.EvalReport
    oracle_ua: float          # UA if forget-conditioned output were exact N(0, I)
    pipeline_seconds: float   # pretrain + default unlearning + evaluation


def run_seed(k: int) -> SeedOutcome:
    """Criteria 6..9's pipeline at seed offset ``k``; runs in a worker process of ``matrix``."""
    base = default_config()
    cfg = ex.offset_seeds(base, k)
    t0 = time.perf_counter()
    train_ds, held_ds, sched = ex.build_world(cfg)
    model = ex.pretrain_model(cfg, train_ds, sched)
    clf = ev.train_classifier(train_ds, cfg.eval.classifier_hidden_width,
                              cfg.eval.classifier_steps,
                              cfg.eval.classifier_learning_rate,
                              cfg.eval.classifier_seed)
    pre = ev.evaluate(model, clf, held_ds, sched, cfg.unlearn.forget_class,
                      cfg.eval.n_samples, np.random.default_rng(cfg.eval.seed))
    by_lambda = {}
    default_seconds = None
    for lam in (1.0, 0.0, 100.0):  # default first, so its timing is not inflated
        ucfg = replace(cfg.unlearn, lam=lam)
        unlearned, _ = ul.run_unlearning(model, train_ds, sched, ucfg)
        by_lambda[lam] = ev.evaluate(unlearned, clf, held_ds, sched, ucfg.forget_class,
                                     cfg.eval.n_samples,
                                     np.random.default_rng(cfg.eval.seed))
        if lam == 1.0:
            default_seconds = time.perf_counter() - t0
    relabel_model, _ = ul.run_relabel_unlearning(
        model, train_ds, sched, cfg.unlearn,
        target_class=(cfg.unlearn.forget_class + 1) % cfg.dataset.k)
    relabel = ev.evaluate(relabel_model, clf, held_ds, sched,
                          cfg.unlearn.forget_class, cfg.eval.n_samples,
                          np.random.default_rng(cfg.eval.seed))
    noise = np.random.default_rng(50 + k).standard_normal((cfg.eval.n_samples, 2))
    oracle_ua = ev.unlearning_accuracy(clf, noise, cfg.unlearn.forget_class)
    return SeedOutcome(pre=pre, by_lambda=by_lambda, relabel=relabel, oracle_ua=oracle_ua,
                       pipeline_seconds=default_seconds)


def inherit_warning_filters(filters: list) -> None:
    """Worker initializer: the parent's warning filters, so ``-W error`` holds in workers too."""
    for action, message, category, module, lineno in reversed(filters):
        warnings.filterwarnings(action, getattr(message, "pattern", message or ""), category,
                                getattr(module, "pattern", module or ""), lineno)


@pytest.fixture(scope="module")
def matrix():
    """The three seeds' outcomes in seed order, from a pool of min(3, usable cores) processes.

    The seeds share nothing, so they run side by side. Workers start by ``spawn``: the lab's
    OpenBLAS keeps a worker thread, and ``fork`` is unsafe in a process with threads. The pool
    is shut down, its workers joined, before the fixture returns.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ProcessPoolExecutor(min(3, cores), mp_context=multiprocessing.get_context("spawn"),
                             initializer=inherit_warning_filters,
                             initargs=(warnings.filters,)) as pool:
        return list(pool.map(run_seed, range(3)))


@pytest.mark.slow
def test_criterion_6_unlearning_efficacy(matrix):
    with criterion(6, "unlearning efficacy (UA + entropy)"):
        ua = [o.by_lambda[1.0].ua_percent for o in matrix]
        pre_ua = [o.pre.ua_percent for o in matrix]
        pre_h = [o.pre.mean_entropy_nats for o in matrix]
        post_h = [o.by_lambda[1.0].mean_entropy_nats for o in matrix]
        oracle = [o.oracle_ua for o in matrix]
        secs = [o.pipeline_seconds for o in matrix]
        assert median(pre_ua) <= 5.0, "pretrained model must generate recognizable classes"
        print(f"  UA per seed {[round(u, 1) for u in ua]} (median {median(ua):.1f})")
        print(f"  entropy pre {[f'{h:.2e}' for h in pre_h]} -> post {[round(h, 4) for h in post_h]}")
        print(f"  oracle UA for exact-noise output: {[round(u, 1) for u in oracle]}")
        print(f"  pipeline seconds per seed {[round(s, 1) for s in secs]}")
        assert median(post_h) > median(pre_h), "entropy must strictly increase"
        assert max(secs) < 300.0, "per-seed pipeline exceeded five minutes"
        assert median(ua) >= 95.0, (
            f"median UA {median(ua):.1f} < 95. Structural ceiling of this desk-scale "
            f"evaluator: ideal noise output scores only {[round(u, 1) for u in oracle]} "
            f"(median {median(oracle):.1f}), because the classifier splits the plane "
            f"into near-equal angular cells at every radius.")


@pytest.mark.slow
def test_criterion_7_retention(matrix):
    with criterion(7, "retention quality"):
        ratios = [o.by_lambda[1.0].frechet_mean / o.pre.frechet_mean for o in matrix]
        fd1 = [o.by_lambda[1.0].frechet_mean for o in matrix]
        fd0 = [o.by_lambda[0.0].frechet_mean for o in matrix]
        print(f"  FD(post)/FD(pre) per seed {[round(r, 2) for r in ratios]}")
        print(f"  median FD lam=1 {median(fd1):.4f} vs lam=0 {median(fd0):.4f}")
        assert all(o.pre.frechet_mean < 0.5 for o in matrix), "pretraining quality floor"
        assert median(ratios) <= 1.5
        assert median(fd1) <= median(fd0)


@pytest.mark.slow
def test_criterion_8_decay_rate_ablation(matrix):
    with criterion(8, "decay-rate ablation direction"):
        ua_1 = [o.by_lambda[1.0].ua_percent for o in matrix]
        ua_100 = [o.by_lambda[100.0].ua_percent for o in matrix]
        print(f"  UA lam=100 {[round(u, 1) for u in ua_100]} vs lam=1 {[round(u, 1) for u in ua_1]}")
        assert median(ua_100) <= median(ua_1)


@pytest.mark.slow
def test_criterion_9_baseline_contrast(matrix):
    with criterion(9, "relabel baseline contrast"):
        relabel_h = [o.relabel.mean_entropy_nats for o in matrix]
        safemax_h = [o.by_lambda[1.0].mean_entropy_nats for o in matrix]
        print(f"  entropy relabel {[f'{h:.2e}' for h in relabel_h]} "
              f"vs safemax {[round(h, 4) for h in safemax_h]}")
        assert median(relabel_h) < median(safemax_h)


# ----------------------------------------------------------------------
# Criterion 10: determinism and persistence
# ----------------------------------------------------------------------

def test_criterion_10_determinism_and_persistence(tmp_path):
    with criterion(10, "determinism and persistence"):
        cfg = default_config()
        cfg = replace(
            cfg,
            dataset=replace(cfg.dataset, n_per_class=150),
            schedule=replace(cfg.schedule, t=20),
            model=replace(cfg.model, hidden_width=16, hidden_depth=2, embed_dim=8),
            pretrain=replace(cfg.pretrain, steps=150, batch_size=32),
            unlearn=replace(cfg.unlearn, steps=10),
            eval=replace(cfg.eval, n_samples=40, classifier_hidden_width=16,
                         classifier_steps=500),
        )

        class Clock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                self.now += 1.0
                return self.now

        outputs = []
        for tag in ("first", "second"):
            run_cfg = replace(cfg, output_dir=str(tmp_path / tag))
            result = ex.run_experiment(run_cfg, clock=Clock())
            outputs.append(result.outdir)
        for name in ("metrics.csv", "report.json", "unlearn_log.csv",
                     "samples_pretrained.svg", "samples_unlearned.svg",
                     "pretrained.ckpt", "unlearned.ckpt"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} not byte-identical across reruns"

        ckpt = ck.load_checkpoint(outputs[0] / "pretrained.ckpt")
        resaved = tmp_path / "resaved.ckpt"
        ck.save_checkpoint(resaved, ckpt)
        again = ck.load_checkpoint(resaved)
        for name, value in ckpt.params.items():
            assert again.params[name].tobytes() == value.tobytes()
        assert resaved.read_bytes() == (outputs[0] / "pretrained.ckpt").read_bytes()
        print("  metrics, report, log, plots and checkpoints byte-identical; "
              "checkpoints bit-exact")
