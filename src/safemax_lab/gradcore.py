"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` records operations in execution order. ``backward`` replays the
tape in reverse, accumulating gradients into every node it reaches.
Parameters live in a ``ParamStore`` as plain numpy arrays; each training
step wraps them into fresh leaf nodes, so every step owns a small acyclic
graph and no state leaks between steps.

All math is 64-bit. Broadcasting is restricted to row-wise bias addition;
every other op demands exact shape agreement, which keeps the gradient
code small enough to verify by finite differences.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericError

Array = np.ndarray

ACTIVATION_KINDS = ("relu", "silu")


def as_array(value) -> Array:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(value, dtype=np.float64)


class Node:
    """One tape entry: an operation tag, its value, and its gradient slot."""

    __slots__ = ("tape", "id", "op", "inputs", "value", "grad", "_backward")

    def __init__(self, tape: "Tape", node_id: int, op: str, inputs: list["Node"],
                 value: Array, backward: Callable[[Array], None] | None):
        self.tape = tape
        self.id = node_id
        self.op = op
        self.inputs = inputs
        self.value = value
        self.grad: Array | None = None
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def accumulate(self, contribution: Array) -> None:
        # The first contribution may be another node's grad or a view of it,
        # so later ones build a new array instead of adding in place.
        if self.grad is None:
            self.grad = contribution
        else:
            self.grad = self.grad + contribution

    def __repr__(self) -> str:
        return f"Node(id={self.id}, op={self.op!r}, shape={self.value.shape})"


class ParamStore:
    """Named float64 parameter arrays with stable iteration order.

    Names are unique; iteration follows insertion order, which is
    deterministic across runs that construct parameters in the same
    sequence.
    """

    def __init__(self):
        self._arrays: dict[str, Array] = {}

    def add(self, name: str, value) -> None:
        if name in self._arrays:
            raise ContractError(f"parameter {name!r} already exists")
        self._arrays[name] = as_array(value).copy()

    def __getitem__(self, name: str) -> Array:
        return self._arrays[name]

    def __setitem__(self, name: str, value) -> None:
        if name not in self._arrays:
            raise ContractError(f"unknown parameter {name!r}")
        self._arrays[name] = as_array(value)

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._arrays.items())

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        for name, value in self._arrays.items():
            dup.add(name, value)
        return dup

    def total_size(self) -> int:
        return sum(a.size for a in self._arrays.values())


Gradients = dict[str, Array]


class Tape:
    """Execution trace for one forward pass.

    Confined to a single worker: a tape, the nodes it owns, and the
    ParamStore it wrapped must not be shared across threads.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._param_nodes: dict[str, Node] = {}
        self._wrapped_stores: dict[int, dict[str, Node]] = {}

    def _record(self, op: str, inputs: list[Node], value: Array,
                backward: Callable[[Array], None] | None) -> Node:
        node = Node(self, len(self._nodes), op, inputs, value, backward)
        self._nodes.append(node)
        return node

    def constant(self, value) -> Node:
        """A leaf holding fixed data; gradients stop here."""
        return self._record("const", [], as_array(value), None)

    def params(self, store: ParamStore) -> dict[str, Node]:
        """Wrap every array in ``store`` as a leaf node, once per tape."""
        cached = self._wrapped_stores.get(id(store))
        if cached is not None:
            return cached
        nodes: dict[str, Node] = {}
        for name, value in store.items():
            if name in self._param_nodes:
                raise ContractError(f"parameter name collision on tape: {name!r}")
            node = self._record("param", [], value, None)
            self._param_nodes[name] = node
            nodes[name] = node
        self._wrapped_stores[id(store)] = nodes
        return nodes

    @property
    def size(self) -> int:
        return len(self._nodes)


def _check_same_tape(nodes: list[Node]) -> Tape:
    tape = nodes[0].tape
    for node in nodes[1:]:
        if node.tape is not tape:
            raise ContractError("operands belong to different tapes")
    return tape


def matmul(a: Node, b: Node) -> Node:
    """Matrix product of two rank-2 nodes."""
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise DimensionError(f"matmul needs rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    tape = _check_same_tape([a, b])
    value = a.value @ b.value

    def backward(g: Array) -> None:
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return tape._record("matmul", [a, b], value, backward)


def add(a: Node, b: Node) -> Node:
    """Elementwise sum; the only broadcast allowed is a row-wise bias."""
    tape = _check_same_tape([a, b])
    if a.shape == b.shape:
        def backward(g: Array) -> None:
            a.accumulate(g)
            b.accumulate(g)
    elif a.value.ndim == 2 and b.value.ndim == 1 and b.shape[0] == a.shape[1]:
        def backward(g: Array) -> None:
            a.accumulate(g)
            b.accumulate(g.sum(axis=0))
    else:
        raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}")
    return tape._record("add", [a, b], a.value + b.value, backward)


def scale(a: Node, s: float) -> Node:
    """Multiply every element by the scalar ``s``."""
    s = float(s)
    if not np.isfinite(s):
        raise DomainError(f"scale factor must be finite, got {s}")

    def backward(g: Array) -> None:
        a.accumulate(s * g)

    return a.tape._record("scale", [a], s * a.value, backward)


def activation(a: Node, kind: str) -> Node:
    """Apply relu or silu elementwise."""
    if kind == "relu":
        value = np.maximum(a.value, 0.0)

        def backward(g: Array) -> None:
            a.accumulate(g * (a.value > 0.0))
    elif kind == "silu":
        x = a.value
        # Overflow-free sigmoid: the numerator is 1 for x >= 0 and e^x below.
        ex = np.exp(-np.abs(x))
        sig = np.maximum(ex, x >= 0) / (1.0 + ex)
        value = x * sig

        def backward(g: Array) -> None:
            a.accumulate(g * (sig * (1.0 + a.value * (1.0 - sig))))
    else:
        raise DomainError(f"unknown activation kind {kind!r}; expected one of {ACTIVATION_KINDS}")
    return a.tape._record(kind, [a], value, backward)


def square(a: Node) -> Node:
    def backward(g: Array) -> None:
        a.accumulate(g * (2.0 * a.value))

    return a.tape._record("square", [a], a.value * a.value, backward)


def total(a: Node) -> Node:
    """Sum of all elements, as a scalar node."""
    def backward(g: Array) -> None:
        a.accumulate(np.full_like(a.value, float(g)))

    return a.tape._record("total", [a], np.asarray(a.value.sum()), backward)


def concat_cols(parts: list[Node]) -> Node:
    """Concatenate rank-2 nodes along columns."""
    if not parts:
        raise ContractError("concat_cols needs at least one operand")
    tape = _check_same_tape(parts)
    rows = parts[0].shape[0]
    for p in parts:
        if p.value.ndim != 2 or p.shape[0] != rows:
            raise DimensionError(f"concat_cols row mismatch: {[p.shape for p in parts]}")
    value = np.concatenate([p.value for p in parts], axis=1)
    widths = [p.shape[1] for p in parts]

    def backward(g: Array) -> None:
        offset = 0
        for p, width in zip(parts, widths):
            p.accumulate(g[:, offset:offset + width])
            offset += width

    return tape._record("concat", list(parts), value, backward)


def embedding(table: Node, ids) -> Node:
    """Row lookup into a rank-2 table; gradients scatter-add back."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.value.ndim != 2:
        raise DimensionError(f"embedding table must be rank-2, got {table.shape}")
    if ids.ndim != 1:
        raise DimensionError(f"embedding ids must be rank-1, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DomainError(f"embedding id out of range [0, {table.shape[0]})")

    def backward(g: Array) -> None:
        scattered = np.zeros_like(table.value)
        np.add.at(scattered, ids, g)
        table.accumulate(scattered)

    return table.tape._record("embed", [table], table.value[ids], backward)


def mse_loss(pred: Node, target, weights=None) -> Node:
    """Mean squared error, optionally weighted per batch row.

    Returns the mean over rows of ``w_i * mean_features((pred_i - target_i)^2)``.
    Axis 0 indexes batch rows; any remaining axes are feature axes.
    """
    target = as_array(target)
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    if pred.value.ndim == 0:
        raise DimensionError("mse_loss needs at least one batch axis")
    rows = pred.shape[0]
    feat = pred.value.size // rows if rows else 1
    if weights is not None:
        weights = as_array(weights)
        if weights.shape != (rows,):
            raise DimensionError(f"weights must have shape ({rows},), got {weights.shape}")
        if np.any(weights < 0.0):
            raise DomainError("mse_loss weights must be non-negative")
    diff = pred.value - target
    per_row = diff.reshape(rows, -1)
    row_means = np.mean(per_row * per_row, axis=1)
    w = weights if weights is not None else np.ones(rows)
    value = np.asarray(np.mean(w * row_means))

    def backward(g: Array) -> None:
        coeff = (2.0 / (rows * feat)) * w
        grad = float(g) * coeff.reshape((rows,) + (1,) * (pred.value.ndim - 1)) * diff
        pred.accumulate(grad)

    return pred.tape._record("mse", [pred], value, backward)


def softmax_cross_entropy(logits: Node, labels) -> Node:
    """Mean cross-entropy of a softmax head against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.value.ndim != 2:
        raise DimensionError(f"logits must be rank-2, got {logits.shape}")
    rows, k = logits.shape
    if labels.shape != (rows,):
        raise DimensionError(f"labels must have shape ({rows},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DomainError(f"label out of range [0, {k})")
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    value = np.asarray(-np.mean(log_probs[np.arange(rows), labels]))
    probs = np.exp(log_probs)

    def backward(g: Array) -> None:
        grad = probs.copy()
        grad[np.arange(rows), labels] -= 1.0
        logits.accumulate(float(g) * grad / rows)

    return logits.tape._record("softmax_xent", [logits], value, backward)


def backward(loss: Node) -> Gradients:
    """Run reverse accumulation from a scalar loss.

    Every node reachable from the loss receives its gradient. Returns the
    gradient for each parameter the tape wrapped; parameters the loss does
    not depend on map to zeros.
    """
    if loss.value.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = loss.tape
    loss.grad = np.ones_like(loss.value)
    for node in reversed(tape._nodes[:loss.id + 1]):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)
    grads: Gradients = {}
    for name, node in tape._param_nodes.items():
        grads[name] = node.grad if node.grad is not None else np.zeros_like(node.value)
    return grads


def grad_check(model_loss_fn, params: ParamStore, epsilon: float = 1e-5,
               probes: int = 64, rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients against central finite differences.

    ``model_loss_fn(tape, params)`` must rebuild the loss node from scratch
    on the given tape. Coordinates are sampled round-robin across
    parameters until ``probes`` probes have run. Returns the maximum
    relative error ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.
    """
    if not (0.0 < epsilon <= 1e-3):
        raise DomainError(f"epsilon must lie in (0, 1e-3], got {epsilon}")
    if rng is None:
        rng = np.random.default_rng(0)

    def loss_value() -> float:
        value = float(model_loss_fn(Tape(), params).value)
        if not np.isfinite(value):
            raise NumericError("non-finite loss while probing gradients")
        return value

    tape = Tape()
    loss = model_loss_fn(tape, params)
    if not np.isfinite(loss.value):
        raise NumericError("non-finite loss at the evaluation point")
    grads = backward(loss)

    names = params.names()
    worst = 0.0
    for probe in range(probes):
        name = names[probe % len(names)]
        array = params[name]
        flat = array.reshape(-1)
        idx = int(rng.integers(flat.size))
        original = flat[idx]
        try:
            flat[idx] = original + epsilon
            upper = loss_value()
            flat[idx] = original - epsilon
            lower = loss_value()
        finally:
            flat[idx] = original
        numeric = (upper - lower) / (2.0 * epsilon)
        analytic = grads[name].reshape(-1)[idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def _apply_update(params: ParamStore, name: str, step: Array) -> None:
    if not np.all(np.isfinite(step)):
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    params[name] = params[name] - step


def sgd_step(params: ParamStore, grads: Gradients, learning_rate: float) -> ParamStore:
    """One plain gradient-descent update, in place."""
    return SGD(learning_rate, momentum=0.0).step(params, grads)


class SGD:
    """Gradient descent with classical momentum (momentum=0 is plain SGD)."""

    def __init__(self, learning_rate: float, momentum: float = 0.9):
        if learning_rate <= 0.0:
            raise DomainError(f"learning_rate must be positive, got {learning_rate}")
        if not (0.0 <= momentum < 1.0):
            raise DomainError(f"momentum must lie in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: dict[str, Array] = {}

    def step(self, params: ParamStore, grads: Gradients) -> ParamStore:
        for name in params.names():
            g = grads[name]
            if self.momentum > 0.0:
                v = self._velocity.get(name)
                if v is None:  # a copy, so the in-place updates leave `grads` intact
                    v = self._velocity[name] = g.copy()
                else:  # rounds exactly as `momentum * v + g`
                    v *= self.momentum
                    v += g
            else:
                v = g
            _apply_update(params, name, self.learning_rate * v)
        return params
