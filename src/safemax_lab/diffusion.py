"""Forward noising process, schedules, ancestral sampling, and latent diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSampleError, DimensionError, DomainError, NumericError
from .gradcore import Array, Record, as_array, indices, integer, real, rule

LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))


@dataclass(frozen=True)
class NoiseSchedule(Record):
    """A linear beta schedule over steps 1..t: ``t`` in [1, 10_000] under ``gradcore.integer``, and
    ``beta_min`` in (0, 1) and ``beta_max`` in [beta_min, 1) under ``gradcore.real``, else
    ``DomainError``. Its read-only float64 tables ``beta``, ``alpha = 1 - beta`` and their
    running product ``alpha_bar``, position ``s - 1`` for step ``s``, are attributes, not
    fields, so ``asdict`` gives only the three header values."""

    t: int = rule(integer, 1, 10_001)  # 100x the default; bounds the tables a header can ask for
    beta_min: float = rule(real, above=0.0, below=1.0)
    beta_max: float = rule(real, above=0.0, below=1.0)

    def __post_init__(self):
        super().__post_init__()
        real(self.beta_max, "beta_max", self.beta_min, below=1.0)
        beta = np.linspace(self.beta_min, self.beta_max, self.t)
        for name, table in (("beta", beta), ("alpha", 1.0 - beta),
                            ("alpha_bar", np.cumprod(1.0 - beta))):
            table.setflags(write=False)
            object.__setattr__(self, name, table)


@dataclass
class LabeledDataset:
    """Class-conditional points with integer labels in [0, K), at least 2 per class, and a
    read-only class-sorted index: the stable argsort of the labels, each class's start and count."""

    points: Array
    labels: Array
    K: int
    _order: Array = field(init=False, repr=False)
    _starts: Array = field(init=False, repr=False)
    _counts: Array = field(init=False, repr=False)

    def __post_init__(self):
        self.points = as_array(self.points)
        self.K = integer(self.K, "K", 2)
        self.labels = indices(self.labels, "labels", 0, self.K)
        if self.points.ndim != 2:
            raise DimensionError(f"points must be rank-2, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise DomainError("points must be finite")
        if self.labels.shape != (self.points.shape[0],):
            raise DimensionError("labels must align with points")
        counts = np.bincount(self.labels, minlength=self.K)
        if np.any(counts < 2):
            raise DomainError("every class needs at least 2 samples")
        self._order = np.argsort(self.labels, kind="stable")
        self._starts = np.cumsum(counts) - counts
        self._counts = counts
        for index in (self._order, self._starts, self._counts):
            index.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def _class_ids(self, classes) -> Array:
        """``classes`` as a non-empty rank-1 array of ``indices`` in [0, K), else DomainError."""
        ids = indices(classes, "class ids", 0, self.K)
        if ids.ndim != 1 or ids.size == 0:
            raise DomainError(f"class ids must be a non-empty rank-1 list, got {classes!r}")
        return ids

    def class_indices(self, c: int) -> Array:
        """Row ids of class ``c``, ascending, as a read-only view of the class index."""
        self._class_ids([c])
        return self._order[self._starts[c]:self._starts[c] + self._counts[c]]


class LatentBatch(NamedTuple):
    """A training batch, the first four fields of ``denoiser.Group``: noised
    latents, their labels, their steps and the noise that produced them."""

    x_t: Array
    labels: Array
    t: Array
    eps: Array


def _forward_sample_rows(x0: Array, t: Array, schedule: NoiseSchedule, eps: Array) -> Array:
    """Noised latents, row i at step t[i]: sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps."""
    abar = schedule.alpha_bar[t - 1][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def sample_latent_batch(dataset: LabeledDataset, schedule: NoiseSchedule,
                        batch_size: int, rng: np.random.Generator,
                        classes=None) -> LatentBatch:
    """Draw a training batch: uniform steps, standard-normal noise.

    With ``classes`` given (integer ids in [0, K), checked before any draw),
    rows are drawn uniformly over those classes (class first, then a sample
    within it); otherwise uniformly over all dataset rows.
    """
    integer(batch_size, "batch_size", 1)
    if classes is None:
        rows = rng.integers(0, dataset.n, size=batch_size)
    else:
        ids = dataset._class_ids(classes)
        picks = ids[rng.integers(0, ids.size, size=batch_size)]
        # Array bounds draw one value per row in row order, so the generator
        # stream is the same as one scalar draw per row.
        rows = dataset._order[dataset._starts[picks] + rng.integers(0, dataset._counts[picks])]
    x0 = dataset.points[rows]
    t = rng.integers(1, schedule.t + 1, size=batch_size)
    eps = rng.standard_normal(x0.shape)
    return LatentBatch(_forward_sample_rows(x0, t, schedule, eps), dataset.labels[rows], t, eps)


def ancestral_sample(eps_hat, d: int, schedule: NoiseSchedule, n: int,
                     rng: np.random.Generator) -> Array:
    """Generate n samples in d dimensions by running the reverse chain of the
    noise predictor ``eps_hat(x_t, t)``, called once per step ``t`` on all rows.

    Starts from standard normal noise and iterates
    ``x_{t-1} = (x_t - ((1 - a_t)/sqrt(1 - abar_t)) * eps_hat) / sqrt(a_t) + sigma_t z``
    with ``sigma_t^2 = beta_t`` and no noise at the final step.
    ``DomainError`` for an ``n`` below 0 under ``gradcore.integer``.
    """
    integer(n, "n")
    x = rng.standard_normal((n, d))
    for t in range(schedule.t, 0, -1):
        a_t = schedule.alpha[t - 1]
        abar_t = schedule.alpha_bar[t - 1]
        x = (x - ((1.0 - a_t) / np.sqrt(1.0 - abar_t)) * eps_hat(x, t)) / np.sqrt(a_t)
        if t > 1:
            x = x + np.sqrt(schedule.beta[t - 1]) * rng.standard_normal((n, d))
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite latent at reverse step t={t}")
    return x


def latent_entropy_estimate(samples: Array) -> float:
    """Differential entropy (nats) of a Gaussian fit to the samples.

    Computes ``0.5 * ln((2 pi e)^d det(cov))`` from the sample covariance.
    Raises when the covariance is numerically singular rather than
    regularizing it, so degenerate inputs fail loudly.
    """
    samples = as_array(samples)
    if samples.ndim != 2:
        raise DimensionError(f"samples must be rank-2, got {samples.shape}")
    n, d = samples.shape
    if n < d + 1:
        raise DomainError(f"need at least d+1={d + 1} samples, got {n}")
    cov = np.atleast_2d(np.cov(samples, rowvar=False))
    eigs = np.linalg.eigvalsh(cov)
    floor = max(abs(eigs[-1]), 1.0) * 1e-12
    if eigs[0] <= floor:
        raise DegenerateSampleError("sample covariance is singular")
    return 0.5 * (d * LOG_2PI_E + float(np.sum(np.log(eigs))))


def interclass_distance(latents_by_class) -> float:
    """Mean Euclidean distance between class means over all unordered pairs."""
    groups = [as_array(g) for g in latents_by_class]
    if len(groups) < 2:
        raise DomainError(f"need at least 2 classes, got {len(groups)}")
    means = []
    for g in groups:
        if g.ndim != 2 or g.shape[0] == 0:
            raise DomainError("every class needs a non-empty rank-2 sample array")
        means.append(g.mean(axis=0))
    dists = []
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            dists.append(float(np.linalg.norm(means[i] - means[j])))
    return float(np.mean(dists))
