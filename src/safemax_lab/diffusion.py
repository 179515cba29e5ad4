"""Forward noising process, schedules, ancestral sampling, and latent diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSampleError, DimensionError, DomainError, NumericError
from .gradcore import Array, Tape, as_array

LOG_2PI_E = float(np.log(2.0 * np.pi * np.e))


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noising tables: beta, alpha = 1 - beta, and their running product.

    Index convention: position ``t - 1`` holds the values for step ``t``,
    with steps numbered 1..T.
    """

    beta: Array
    alpha: Array
    alpha_bar: Array

    @property
    def T(self) -> int:
        return len(self.beta)


def build_schedule(T: int, beta_min: float, beta_max: float) -> NoiseSchedule:
    """Linear beta schedule from beta_min to beta_max over T steps."""
    if T < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise DomainError(
            f"need 0 < beta_min <= beta_max < 1, got ({beta_min}, {beta_max})")
    beta = np.linspace(beta_min, beta_max, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(beta=beta, alpha=alpha, alpha_bar=alpha_bar)


@dataclass
class LabeledDataset:
    """Class-conditional 2-d (or general d) sample set."""

    points: Array
    labels: Array
    K: int
    _by_class: dict[int, Array] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.points = as_array(self.points)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu":  # no silent truncation of float or bool labels
            raise DomainError(f"labels must be an integer array, got {labels.dtype}")
        self.labels = labels.astype(np.int64)
        if self.K < 2:
            raise DomainError(f"K must be >= 2, got {self.K}")
        if self.points.ndim != 2:
            raise DimensionError(f"points must be rank-2, got {self.points.shape}")
        if not np.all(np.isfinite(self.points)):
            raise DomainError("points must be finite")
        if self.labels.shape != (self.points.shape[0],):
            raise DimensionError("labels must align with points")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.K):
            raise DomainError(f"labels must lie in [0, {self.K})")
        counts = np.bincount(self.labels, minlength=self.K)
        if np.any(counts < 2):
            raise DomainError("every class needs at least 2 samples")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def class_indices(self, c: int) -> Array:
        idx = self._by_class.get(c)
        if idx is None:
            idx = np.nonzero(self.labels == c)[0]
            self._by_class[c] = idx
        return idx


@dataclass
class LatentBatch:
    """A batch of noised samples together with what produced them."""

    x_t: Array
    eps: Array
    t: Array
    labels: Array
    x0: Array

    def __post_init__(self):
        if not (self.x_t.shape == self.eps.shape == self.x0.shape):
            raise DimensionError("x_t, eps, x0 must share a shape")
        rows = self.x_t.shape[0]
        if self.t.shape != (rows,) or self.labels.shape != (rows,):
            raise DimensionError("t and labels must have one entry per row")

    @property
    def size(self) -> int:
        return self.x_t.shape[0]


def _forward_sample_rows(x0: Array, t: Array, schedule: NoiseSchedule, eps: Array) -> Array:
    """Noised latents, row i at step t[i]: sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps."""
    abar = schedule.alpha_bar[t - 1][:, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def sample_latent_batch(dataset: LabeledDataset, schedule: NoiseSchedule,
                        batch_size: int, rng: np.random.Generator,
                        classes=None) -> LatentBatch:
    """Draw a training batch: uniform steps, standard-normal noise.

    With ``classes`` given, rows are drawn uniformly over those classes
    (class first, then a sample within it); otherwise uniformly over all
    dataset rows.
    """
    if batch_size < 1:
        raise DomainError(f"batch_size must be >= 1, got {batch_size}")
    if classes is None:
        rows = rng.integers(0, dataset.n, size=batch_size)
    else:
        classes = list(classes)
        if not classes:
            raise DomainError("classes must name at least one class")
        pools = []
        for c in classes:
            idx = dataset.class_indices(int(c))
            if idx.size == 0:
                raise DomainError(f"dataset has no samples of class {c}")
            pools.append(idx)
        picks = rng.integers(0, len(pools), size=batch_size)
        sizes = np.array([pool.size for pool in pools])
        starts = np.cumsum(sizes) - sizes
        # Array bounds draw one value per row in row order, so the generator
        # stream is the same as one scalar draw per row.
        rows = np.concatenate(pools)[starts[picks] + rng.integers(0, sizes[picks])]
    x0 = dataset.points[rows]
    labels = dataset.labels[rows]
    t = rng.integers(1, schedule.T + 1, size=batch_size)
    eps = rng.standard_normal(x0.shape)
    x_t = _forward_sample_rows(x0, t, schedule, eps)
    return LatentBatch(x_t=x_t, eps=eps, t=t, labels=labels, x0=x0)


def ancestral_sample(model, c: int, schedule: NoiseSchedule, n: int,
                     rng: np.random.Generator) -> Array:
    """Generate n samples of class c by running the reverse chain.

    Starts from standard normal noise and iterates
    ``x_{t-1} = (x_t - ((1 - a_t)/sqrt(1 - abar_t)) * eps_hat) / sqrt(a_t) + sigma_t z``
    with ``sigma_t^2 = beta_t`` and no noise at the final step. The T
    forward passes share one gradient-free tape, so they share its buffers.
    """
    from .denoiser import predict_eps

    if not 0 <= c < model.arch.K:
        raise DomainError(f"class {c} outside [0, {model.arch.K})")
    d = model.arch.d
    if n == 0:
        return np.zeros((0, d))
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    x = rng.standard_normal((n, d))
    labels = np.full(n, c, dtype=np.int64)
    tape = Tape(grad=False)
    for t in range(schedule.T, 0, -1):
        steps = np.full(n, t, dtype=np.int64)
        eps_hat = predict_eps(model, x, labels, steps, tape)
        a_t = schedule.alpha[t - 1]
        abar_t = schedule.alpha_bar[t - 1]
        x = (x - ((1.0 - a_t) / np.sqrt(1.0 - abar_t)) * eps_hat) / np.sqrt(a_t)
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
