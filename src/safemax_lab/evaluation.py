"""Evaluation protocol: unlearning accuracy, prediction entropy, Frechet
retention distance, the Fano-style error bound, and reference entropy values.
"""

from __future__ import annotations

import contextvars
import copy
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .denoiser import Layout, class_predictor, init_params, mlp, mlp_layout
from .diffusion import LabeledDataset, NoiseSchedule, ancestral_sample
from .errors import DimensionError, DomainError, EvaluatorQualityError, NumericError
from .gradcore import Array, ParamStore, Record, Tape, rule

log = logging.getLogger(__name__)

_CLASSIFIER_DEPTH = 2


@dataclass(frozen=True)
class ClassifierArch(Record):
    d: int = rule(gc.integer, 1)
    K: int = rule(gc.integer, 1)
    hidden_width: int = rule(gc.integer, 1)

    def layout(self) -> Layout:
        return mlp_layout(self.d, self.hidden_width, _CLASSIFIER_DEPTH, self.K)


@dataclass
class Classifier:
    params: ParamStore
    arch: ClassifierArch


# An EvalReport's headline fields, in the column order of metrics.csv and sweep.csv.
SUMMARY = ("ua_percent", "mean_entropy_nats", "frechet_mean")


@dataclass
class EvalReport:
    ua_percent: float
    mean_entropy_nats: float
    frechet_per_class: dict[int, float]
    frechet_mean: float
    samples: dict[int, Array]  # the generated samples scored above, per class; not in JSON

    def to_json_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in SUMMARY},
                "frechet_per_class": {str(c): v for c, v in sorted(self.frechet_per_class.items())}}


@dataclass(frozen=True)
class FanoDiagnostic:
    h_cond_nats: float
    cardinality: int
    pe_lower_bound: float


def _classifier_logits(tape: Tape, pnodes, x: Array):
    return mlp(tape.constant(x), pnodes, _CLASSIFIER_DEPTH, "relu")


def predict_proba(classifier: Classifier, samples: Array) -> Array:
    """Softmax class probabilities, one row per sample."""
    samples = gc.as_array(samples)
    if samples.ndim != 2 or samples.shape[1] != classifier.arch.d:
        raise DimensionError(f"samples must have shape (n, {classifier.arch.d})")
    tape = Tape(grad=False)
    pnodes = tape.params(classifier.params)
    logits = _classifier_logits(tape, pnodes, samples).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def classify(classifier: Classifier, samples: Array) -> Array:
    """Argmax class per sample; ties resolve to the lowest class id."""
    return np.argmax(predict_proba(classifier, samples), axis=1)


def init_classifier(d: int, K: int, hidden_width: int, rng: np.random.Generator) -> Classifier:
    """Two hidden relu layers with fan-in scaled normal initialization."""
    arch = ClassifierArch(d=d, K=K, hidden_width=hidden_width)
    return Classifier(init_params(arch.layout(), rng), arch)


def _init_and_split(dataset: LabeledDataset, hidden_width: int, seed: int):
    """Initial classifier, the generator after it, and the train/held-out rows.

    A quarter of each class is held out. Both draws come from ``seed``, so
    the split can be replayed for a classifier trained elsewhere.
    """
    rng = np.random.default_rng(gc.integer(seed, "seed"))
    clf = init_classifier(dataset.d, dataset.K, hidden_width, rng)
    train_idx, held_idx = [], []
    for c in range(dataset.K):
        idx = dataset.class_indices(c).copy()
        rng.shuffle(idx)
        cut = max(1, idx.size // 4)
        held_idx.append(idx[:cut])
        train_idx.append(idx[cut:])
    return clf, rng, np.concatenate(train_idx), np.concatenate(held_idx)


def _gate(classifier: Classifier, dataset: LabeledDataset, held_idx: Array) -> None:
    held_acc = float(np.mean(classify(classifier, dataset.points[held_idx])
                             == dataset.labels[held_idx]))
    if held_acc < 0.98:
        raise EvaluatorQualityError(
            f"classifier held-out accuracy {held_acc:.3f} below the 0.98 gate")


def classifier_loss_node(tape: Tape, classifier: Classifier, points: Array, labels: Array):
    """Cross-entropy loss node on given data: the training loss, checked by finite differences."""
    pnodes = tape.params(classifier.params)
    logits = _classifier_logits(tape, pnodes, points)
    return gc.softmax_cross_entropy(logits, labels)


def train_classifier(dataset: LabeledDataset, hidden_width: int, steps: int,
                     lr: float, seed: int) -> Classifier:
    """Train the evaluation MLP and gate it on held-out accuracy >= 98%.

    A quarter of each class is held out; the gate keeps untrustworthy
    evaluators from ever producing an unlearning-accuracy number.
    """
    clf, rng, train_idx, held_idx = _init_and_split(dataset, hidden_width, seed)

    def step(opt):
        rows = train_idx[rng.integers(0, train_idx.size, size=min(128, train_idx.size))]
        loss = classifier_loss_node(Tape(), clf, dataset.points[rows], dataset.labels[rows])
        if not np.isfinite(loss.value):
            raise NumericError("non-finite classifier loss")
        opt.step(clf.params, gc.backward(loss))

    gc.fit(steps, lr, step)
    _gate(clf, dataset, held_idx)
    return clf


def gate_classifier(classifier: Classifier, dataset: LabeledDataset, seed: int) -> None:
    """Re-apply ``train_classifier``'s 98% gate to a classifier it trained
    from ``dataset`` and ``seed``, on the same held-out quarter."""
    *_, held_idx = _init_and_split(dataset, classifier.arch.hidden_width, seed)
    _gate(classifier, dataset, held_idx)


def unlearning_accuracy(classifier: Classifier, samples: Array, c_f: int) -> float:
    """100 minus the classifier's percent accuracy on forget-conditioned samples; ``DomainError``
    for no samples or a ``c_f`` that fails ``gradcore.integer`` for the classifier's K."""
    c_f = gc.integer(c_f, "forget class", 0, classifier.arch.K)
    samples = gc.as_array(samples)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise DomainError("need a non-empty rank-2 sample array")
    hits = int(np.count_nonzero(classify(classifier, samples) == c_f))
    return 100.0 * (samples.shape[0] - hits) / samples.shape[0]


def prediction_entropy(classifier: Classifier, samples: Array) -> float:
    """Mean Shannon entropy (nats) of per-sample prediction distributions."""
    samples = gc.as_array(samples)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise DomainError("need a non-empty rank-2 sample array")
    probs = predict_proba(classifier, samples)
    terms = np.zeros_like(probs)
    mask = probs > 0.0
    terms[mask] = probs[mask] * np.log(probs[mask])
    return float(np.mean(-terms.sum(axis=1)))


def frechet_distance(samples_a: Array, samples_b: Array) -> float:
    """Squared 2-Wasserstein distance between Gaussian fits of two sample sets.

    ``|mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2))`` with the matrix
    square root taken through the symmetric form ``S_b^(1/2) S_a S_b^(1/2)``.
    Tiny negative eigenvalues from roundoff clamp to zero; anything more
    negative raises.
    """
    a = gc.as_array(samples_a)
    b = gc.as_array(samples_b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"incompatible sample shapes {a.shape} and {b.shape}")
    d = a.shape[1]
    if a.shape[0] < d + 1 or b.shape[0] < d + 1:
        raise DomainError(f"need at least d+1={d + 1} samples per side")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a, cov_b = (np.atleast_2d(np.cov(s, rowvar=False)) for s in (a, b))

    eigs_b, vecs_b = np.linalg.eigh(cov_b)
    eigs_b = np.clip(eigs_b, 0.0, None)
    sqrt_b = (vecs_b * np.sqrt(eigs_b)) @ vecs_b.T
    inner = sqrt_b @ cov_a @ sqrt_b
    inner = 0.5 * (inner + inner.T)
    eigs = np.linalg.eigvalsh(inner)
    scale = max(1.0, float(np.abs(eigs).max()))
    if eigs[0] < -1e-8 * scale:
        raise NumericError(f"indefinite product in frechet_distance (min eig {eigs[0]:.3e})")
    eigs = np.clip(eigs, 0.0, None)
    mean_term = float(np.sum((mu_a - mu_b) ** 2))
    trace_term = float(np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.sum(np.sqrt(eigs)))
    return mean_term + trace_term


def fano_bound(h_cond_nats: float, cardinality: int) -> FanoDiagnostic:
    """Lower bound on reconstruction-error probability from conditional entropy.

    ``clamp((h_cond - 1) / ln(cardinality), 0, 1)``; entropies in nats.
    """
    gc.integer(cardinality, "cardinality", 2)
    h_cond_nats = gc.real(h_cond_nats, "h_cond_nats", 0.0)
    raw = (h_cond_nats - 1.0) / float(np.log(cardinality))
    return FanoDiagnostic(h_cond_nats=h_cond_nats, cardinality=cardinality,
                          pe_lower_bound=float(np.clip(raw, 0.0, 1.0)))


def differential_entropy_uniform(a: float, b: float) -> float:
    """Differential entropy of Uniform(a, b): ln(b - a) nats."""
    a = gc.real(a, "a")
    return float(np.log(gc.real(b, "b", above=a) - a))


def differential_entropy_gaussian(sigma: float) -> float:
    """Differential entropy of N(mu, sigma^2): 0.5 ln(2 pi e sigma^2) nats."""
    sigma = gc.real(sigma, "sigma", above=0.0)
    return 0.5 * float(np.log(2.0 * np.pi * np.e * sigma * sigma))


def entropy_linkage_holds(classifier: Classifier, dataset: LabeledDataset,
                          c_f: int, rng: np.random.Generator, n: int = 2000) -> bool:
    """Check that pure standard-normal inputs confuse the classifier more
    than real forget-class data does. The unlearning-evaluation story rests
    on this gap existing for the dataset at hand."""
    noise_entropy = prediction_entropy(classifier, rng.standard_normal((n, dataset.d)))
    real = dataset.points[dataset.class_indices(c_f)]
    real_entropy = prediction_entropy(classifier, real)
    return noise_entropy > real_entropy


def sample_classes(model, schedule: NoiseSchedule, k: int, n_samples: int,
                   rng: np.random.Generator) -> dict[int, Array]:
    """``n_samples`` ancestral samples per class, classes in order from one ``rng``.

    The chains run on a thread per usable core, each in a copy of the caller's
    context (numpy's error state) and from a copy of ``rng`` taken where its
    draws begin. A bulk draw of the same length moves ``rng`` past them, so
    every bit, ``rng``'s too, is as if the classes ran in turn. The first
    failing class raises.
    """
    gc.integer(n_samples, "n_samples", 1)
    chains = []
    for c in range(k):
        chains.append((c, copy.deepcopy(rng), contextvars.copy_context()))
        rng.standard_normal((schedule.t, n_samples, model.arch.d))

    def run(c, chain_rng, context):  # finds ancestral_sample per call, so a patched binding applies
        return context.run(ancestral_sample, class_predictor(model, c), model.arch.d, schedule,
                           n_samples, chain_rng)

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(cores) as pool:  # starts at most k threads
        return dict(zip(range(k), pool.map(run, *zip(*chains))))


def score_samples(classifier: Classifier, samples: dict[int, Array], dataset: LabeledDataset,
                  c_f: int) -> EvalReport:
    """Score forgetting on ``samples[c_f]`` and retention on every other class.

    ``dataset`` should be held-out data (not what the model trained on) so
    the retention distances measure generalization, not memorization.
    ``DomainError`` for a ``c_f`` that fails ``gradcore.integer`` for the dataset's K.
    """
    gc.integer(c_f, "forget class", 0, dataset.K)
    forget_samples = samples[c_f]
    ua = unlearning_accuracy(classifier, forget_samples, c_f)
    entropy = prediction_entropy(classifier, forget_samples)

    predicted = classify(classifier, forget_samples)
    modal = int(np.bincount(predicted, minlength=dataset.K).argmax())
    modal_share = float(np.mean(predicted == modal))
    if modal_share >= 0.5:
        log.info("forget-conditioned samples concentrate on class %d (share %.2f); "
                 "treat the accuracy number with care", modal, modal_share)

    frechet_per_class: dict[int, float] = {}
    for c in range(dataset.K):
        if c == c_f:
            continue
        held = dataset.points[dataset.class_indices(c)]
        frechet_per_class[c] = frechet_distance(samples[c], held)
    frechet_mean = float(np.mean(list(frechet_per_class.values())))
    return EvalReport(ua_percent=ua, mean_entropy_nats=entropy,
                      frechet_per_class=frechet_per_class, frechet_mean=frechet_mean,
                      samples=samples)


def evaluate(model, classifier: Classifier, dataset: LabeledDataset,
             schedule: NoiseSchedule, c_f: int, n_samples: int,
             rng: np.random.Generator) -> EvalReport:
    """Full protocol: ``sample_classes`` from ``model``, then ``score_samples``."""
    samples = sample_classes(model, schedule, dataset.K, n_samples, rng)
    return score_samples(classifier, samples, dataset, c_f)
