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
from .gradcore import Array, Node, ParamStore, Record, SGD, Tape, rule


def even(value, what: str) -> int:
    """The rule for an embedding width, sin/cos pairs: ``gradcore.integer`` from 2, and even."""
    width = gc.integer(value, what, 2)
    if width % 2:
        raise DomainError(f"{what} must be even, got {width}")
    return width


# name -> (shape, n): a weight drawn from normal(0, 1/n), or a zero bias when n is None.
Layout = dict[str, tuple[tuple[int, ...], int | None]]


def mlp_layout(fan_in: int, width: int, depth: int, out: int) -> Layout:
    """Fan-in scaled ``layer{i}_w``/``layer{i}_b`` for i < depth, then ``head_w``/``head_b``."""
    layout = {}
    for i in range(depth):
        layout[f"layer{i}_w"] = ((fan_in, width), fan_in)
        layout[f"layer{i}_b"] = ((width,), None)
        fan_in = width
    return {**layout, "head_w": ((width, out), width), "head_b": ((out,), None)}


def init_params(layout: Layout, rng: np.random.Generator) -> ParamStore:
    """The layout's parameters, drawn in its order; deterministic given the rng state."""
    return ParamStore({name: rng.standard_normal(shape) / np.sqrt(n) if n else np.zeros(shape)
                       for name, (shape, n) in layout.items()})


@dataclass(frozen=True)
class DenoiserArch(Record):
    d: int = rule(gc.integer, 1)
    K: int = rule(gc.integer, 2)
    hidden_width: int = rule(gc.integer, 1)
    hidden_depth: int = rule(gc.integer, 1)
    embed_dim: int = rule(even)
    T: int = rule(gc.integer, 1)

    def layout(self) -> Layout:
        e = self.embed_dim
        return {"class_embed": ((self.K, e), e), "time_w": ((e, e), e), "time_b": ((e,), None),
                **mlp_layout(self.d + 2 * e, self.hidden_width, self.hidden_depth, self.d)}


@dataclass
class DenoiserModel:
    params: ParamStore
    arch: DenoiserArch

    def copy(self) -> "DenoiserModel":
        return DenoiserModel(params=self.params.copy(), arch=self.arch)


@dataclass(frozen=True)
class TrainConfig(Record):
    steps: int = rule(gc.integer)
    batch_size: int = rule(gc.integer, 1)
    learning_rate: float = rule(gc.real, above=0.0, below=np.inf)
    seed: int = rule(gc.integer)


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


def mlp(h: Node, pnodes: dict[str, Node], depth: int, kind: str) -> Node:
    """Forward pass through an ``mlp_layout``'s layers, ``kind`` activation on each hidden layer."""
    for i in range(depth):
        h = gc.dense(h, pnodes[f"layer{i}_w"], pnodes[f"layer{i}_b"], kind)
    return gc.dense(h, pnodes["head_w"], pnodes["head_b"])


def init_model(d: int, K: int, hidden_width: int, hidden_depth: int,
               embed_dim: int, T: int, rng: np.random.Generator) -> DenoiserModel:
    """``init_params`` of the architecture's layout; deterministic given the rng state."""
    arch = DenoiserArch(d=d, K=K, hidden_width=hidden_width, hidden_depth=hidden_depth,
                        embed_dim=embed_dim, T=T)
    return DenoiserModel(init_params(arch.layout(), rng), arch)


def _validate_batch_inputs(arch: DenoiserArch, x_t: Array, labels: Array, t: Array) -> None:
    if x_t.ndim != 2 or x_t.shape[1] != arch.d:
        raise DimensionError(f"x_t must have shape (batch, {arch.d}), got {x_t.shape}")
    rows = x_t.shape[0]
    if labels.shape != (rows,) or t.shape != (rows,):
        raise DimensionError("labels and t must have one entry per row")
    gc.indices(t, "steps t", 1, arch.T + 1)


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


def class_predictor(model: DenoiserModel, c: int):
    """Class ``c``'s noise predictor ``eps_hat(x_t, t)`` for one ``ancestral_sample`` chain: its
    ``predict_eps`` calls share one gradient-free tape. ``DomainError`` for a ``c`` outside the
    model's K classes under ``gradcore.integer``."""
    c, tape = gc.integer(c, "class", 0, model.arch.K), Tape(grad=False)
    return lambda x_t, t: predict_eps(model, x_t, np.full(len(x_t), c), np.full(len(x_t), t), tape)


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
    """One update regressing ``batch``'s noise as one unweighted row group; returns the pre-step loss."""
    return regress(model, optimizer, [(*batch, None)])[0]


def train(model: DenoiserModel, dataset: LabeledDataset, schedule: NoiseSchedule,
          config: TrainConfig) -> tuple[DenoiserModel, list[float]]:
    """Train in place for config.steps; returns the model and per-step losses."""
    if dataset.K != model.arch.K:
        raise DomainError(f"dataset has {dataset.K} classes, model expects {model.arch.K}")
    rng = np.random.default_rng(config.seed)
    losses = gc.fit(config.steps, config.learning_rate, lambda opt: train_step(
        model, sample_latent_batch(dataset, schedule, config.batch_size, rng), opt))
    return model, losses
