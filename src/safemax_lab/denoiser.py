"""Class-conditional noise-prediction MLP, its one update ``regress`` and its training loop.

The network sees ``[x_t || class embedding || projected timestep features]``
and regresses the noise that produced ``x_t``. Conditioning by concatenation
keeps the gradient path trivial to verify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gradcore as gc
from .diffusion import LabeledDataset, LatentBatch, NoiseSchedule, sample_latent_batch
from .errors import DimensionError, DomainError, NumericError
from .gradcore import Array, Node, ParamStore, SGD, Tape


@dataclass(frozen=True)
class DenoiserArch:
    d: int
    K: int
    hidden_width: int
    hidden_depth: int
    embed_dim: int
    T: int


@dataclass
class DenoiserModel:
    params: ParamStore
    arch: DenoiserArch

    def copy(self) -> "DenoiserModel":
        return DenoiserModel(params=self.params.copy(), arch=self.arch)


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int
    learning_rate: float
    seed: int

    def __post_init__(self):
        if self.steps < 0:
            raise DomainError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:
            raise DomainError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@functools.lru_cache(maxsize=8)
def _timestep_embedding_table(T: int, embed_dim: int) -> Array:
    """Read-only sinusoidal features for every step 0..T, indexed by step:
    interleaved sin/cos over geometric frequencies."""
    half = embed_dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = np.arange(T + 1)[:, None].astype(np.float64) * freqs[None, :]
    table = np.empty((T + 1, embed_dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.setflags(write=False)
    return table


def init_mlp(params: ParamStore, fan_in: int, width: int, depth: int, out: int,
             rng: np.random.Generator) -> None:
    """Add fan-in scaled ``layer{i}_w``/``layer{i}_b`` for i < depth, then ``head_w``/``head_b``."""
    for i in range(depth):
        params.add(f"layer{i}_w", rng.standard_normal((fan_in, width)) / np.sqrt(fan_in))
        params.add(f"layer{i}_b", np.zeros(width))
        fan_in = width
    params.add("head_w", rng.standard_normal((width, out)) / np.sqrt(width))
    params.add("head_b", np.zeros(out))


def mlp(h: Node, pnodes: dict[str, Node], depth: int, kind: str) -> Node:
    """Forward pass through the layers ``init_mlp`` made, ``kind`` activation on each hidden layer."""
    for i in range(depth):
        h = gc.dense(h, pnodes[f"layer{i}_w"], pnodes[f"layer{i}_b"], kind)
    return gc.dense(h, pnodes["head_w"], pnodes["head_b"])


def init_model(d: int, K: int, hidden_width: int, hidden_depth: int,
               embed_dim: int, T: int, rng: np.random.Generator) -> DenoiserModel:
    """Fan-in scaled normal initialization; deterministic given the rng state."""
    if min(d, K, hidden_width, hidden_depth, embed_dim, T) < 1:
        raise DomainError("all architecture dimensions must be positive")
    if K < 2:
        raise DomainError(f"K must be >= 2, got {K}")
    if embed_dim % 2 != 0:
        raise DomainError(f"embed_dim must be even, got {embed_dim}")
    arch = DenoiserArch(d=d, K=K, hidden_width=hidden_width, hidden_depth=hidden_depth,
                        embed_dim=embed_dim, T=T)
    params = ParamStore()
    params.add("class_embed", rng.standard_normal((K, embed_dim)) / np.sqrt(embed_dim))
    params.add("time_w", rng.standard_normal((embed_dim, embed_dim)) / np.sqrt(embed_dim))
    params.add("time_b", np.zeros(embed_dim))
    init_mlp(params, d + 2 * embed_dim, hidden_width, hidden_depth, d, rng)
    return DenoiserModel(params=params, arch=arch)


def _validate_batch_inputs(arch: DenoiserArch, x_t: Array, labels: Array, t: Array) -> None:
    if x_t.ndim != 2 or x_t.shape[1] != arch.d:
        raise DimensionError(f"x_t must have shape (batch, {arch.d}), got {x_t.shape}")
    rows = x_t.shape[0]
    if labels.shape != (rows,) or t.shape != (rows,):
        raise DimensionError("labels and t must have one entry per row")
    if labels.dtype.kind not in "iu" or t.dtype.kind not in "iu":
        raise DomainError(f"labels and t must be integer arrays, got {labels.dtype}, {t.dtype}")
    if rows and (labels.min() < 0 or labels.max() >= arch.K):
        raise DomainError(f"label out of range [0, {arch.K})")
    if rows and (t.min() < 1 or t.max() > arch.T):
        raise DomainError(f"step out of range [1, {arch.T}]")


def denoiser_forward(tape: Tape, pnodes: dict[str, Node], arch: DenoiserArch,
                     x_t: Array, labels: Array, t: Array) -> Node:
    """Predicted noise as a tape node, for building differentiable losses."""
    x_t = gc.as_array(x_t)
    labels, t = np.asarray(labels), np.asarray(t)
    _validate_batch_inputs(arch, x_t, labels, t)
    sinusoid = tape.constant(_timestep_embedding_table(arch.T, arch.embed_dim)[t])
    temb = gc.dense(sinusoid, pnodes["time_w"], pnodes["time_b"])
    cemb = gc.embedding(pnodes["class_embed"], labels)
    h = gc.concat_cols([tape.constant(x_t), cemb, temb])
    return mlp(h, pnodes, arch.hidden_depth, "silu")


def predict_eps(model: DenoiserModel, x_t: Array, labels: Array, t: Array,
                tape: Tape) -> Array:
    """Plain forward pass: the training code path on a tape that records no graph.

    ``tape``, a ``Tape(grad=False)``, is rewound and its layer buffers reused,
    so repeated calls at one batch size allocate none. Returns a copy, which
    the next call leaves intact.
    """
    tape.rewind()
    pnodes = tape.params(model.params)
    return denoiser_forward(tape, pnodes, model.arch, x_t, labels, t).value.copy()


# A row group: (x_t, condition labels, t, regression target, row weights or None for 1).
Group = tuple[Array, Array, Array, Array, Array | None]


def regress(model: DenoiserModel, optimizer: SGD, groups: list[Group]) -> list[float]:
    """One step on the summed weighted ``mse_loss`` of each group's rows of one
    denoiser pass; returns each group's pre-step loss."""
    x_t, labels, t, targets, weights = zip(*groups)
    tape = Tape()
    pred = denoiser_forward(tape, tape.params(model.params), model.arch, np.concatenate(x_t),
                            np.concatenate(labels), np.concatenate(t))
    bounds = np.cumsum([0, *map(len, x_t)]).tolist()
    losses = [gc.mse_loss(gc.rows(pred, a, b), target, weights=w)
              for a, b, target, w in zip(bounds, bounds[1:], targets, weights)]
    objective = functools.reduce(gc.add, losses)
    if not np.isfinite(objective.value):
        raise NumericError("non-finite training loss")
    optimizer.step(model.params, gc.backward(objective))
    return [float(loss.value) for loss in losses]


def train_step(model: DenoiserModel, batch: LatentBatch, optimizer: SGD) -> float:
    """One update on the noise-regression loss; returns the pre-step loss."""
    return regress(model, optimizer, [(batch.x_t, batch.labels, batch.t, batch.eps, None)])[0]


def train(model: DenoiserModel, dataset: LabeledDataset, schedule: NoiseSchedule,
          config: TrainConfig) -> tuple[DenoiserModel, list[float]]:
    """Train in place for config.steps; returns the model and per-step losses."""
    if dataset.K != model.arch.K:
        raise DomainError(f"dataset has {dataset.K} classes, model expects {model.arch.K}")
    rng = np.random.default_rng(config.seed)
    losses = gc.fit(config.steps, config.learning_rate, lambda opt: train_step(
        model, sample_latent_batch(dataset, schedule, config.batch_size, rng), opt))
    return model, losses
