"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every op returns a ``Node`` that holds its inputs and its tape; the tape
holds its nodes only weakly. ``backward`` walks the graph from the loss
through the inputs and replays the nodes it reaches in reverse creation
order, accumulating gradients into each. References therefore point only
from later nodes to earlier ones, so a step's graph, with its activations
and gradients, is freed by reference counting as soon as the step drops it.

Parameters live in a ``ParamStore``: one contiguous float64 buffer with a
named view per parameter, which each tape wraps into fresh leaf nodes.
``dense`` is the one layer op: product, row bias and activation in one node.

All math is 64-bit. The only broadcast is ``dense``'s bias row; every
other op demands exact shape agreement, which keeps the gradient
code small enough to verify by finite differences.

``fit`` is the one training loop: momentum SGD, on one OpenBLAS thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DimensionError, DomainError, NumericError

Array = np.ndarray

DENSE_KINDS = (None, "relu", "silu")


def as_array(value) -> Array:
    """Coerce to a float64 ndarray without copying when already one."""
    return np.asarray(value, dtype=np.float64)


class Node:
    """One tape entry: an operation tag, its value, and its gradient slot."""

    __slots__ = ("tape", "id", "op", "inputs", "value", "grad", "_backward", "__weakref__")

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
    """Named float64 parameters in one contiguous buffer, ``flat``.

    Each name maps to a view into ``flat``, laid out in insertion order, so
    an optimizer updates every parameter with whole-buffer operations and
    the views see the update. Names are unique; iteration follows insertion
    order, which is deterministic across runs that construct parameters in
    the same sequence.
    """

    def __init__(self):
        self.flat = np.zeros(0)
        self._shapes: dict[str, tuple[int, ...]] = {}
        self._views: dict[str, Array] = {}

    def _bind_views(self) -> None:
        offset = 0
        for name, shape in self._shapes.items():
            size = math.prod(shape)
            self._views[name] = self.flat[offset:offset + size].reshape(shape)
            offset += size

    def add(self, name: str, value) -> None:
        if name in self._shapes:
            raise ContractError(f"parameter {name!r} already exists")
        value = as_array(value)
        self.flat = np.concatenate([self.flat, value.reshape(-1)])
        self._shapes[name] = value.shape
        self._bind_views()

    def __getitem__(self, name: str) -> Array:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        """Copy ``value`` into the parameter's view; its shape must not change."""
        if name not in self._views:
            raise ContractError(f"unknown parameter {name!r}")
        value = as_array(value)
        if value.shape != self._shapes[name]:
            raise DimensionError(f"parameter {name!r} has shape {self._shapes[name]}, "
                                 f"got {value.shape}")
        self._views[name][...] = value

    def names(self) -> list[str]:
        return list(self._views)

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._views.items())

    def copy(self) -> "ParamStore":
        dup = ParamStore()
        dup.flat = self.flat.copy()
        dup._shapes = dict(self._shapes)
        dup._bind_views()
        return dup


Gradients = dict[str, Array]


class Tape:
    """Execution trace for one forward pass.

    The tape counts its nodes but keeps none of them: nodes reference the
    tape and their inputs, and the parameter registry holds its leaf nodes
    through weak references, beside the wrapped arrays that unreached
    parameters' zero gradients are shaped after.

    A tape made with ``grad=False`` is for inference: its nodes keep no
    inputs and no backward, so each value is freed as soon as the next op
    has consumed it, and ``backward`` refuses it. Once ``rewind`` is called
    it becomes a workspace instead: the n-th buffer ``dense`` or
    ``concat_cols`` takes in a forward pass is the tape's slot n, allocated
    on first use and again only when its shape changes. Each ``rewind``
    starts a pass that overwrites the values of the last one, so a caller
    copies what it keeps.

    Confined to a single worker: a tape, its nodes, and the ParamStore it
    wrapped must not be shared across threads.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.size = 0
        # name -> (id of the wrapped store, weak reference to the leaf, wrapped array)
        self._params: dict[str, tuple[int, weakref.ref, Array]] = {}
        self._slots: list[Array] | None = None  # a list once the tape is rewound
        self._next_slot = 0

    def rewind(self) -> None:
        """Start the next forward pass on a gradient-free tape, reusing its buffers."""
        if self.grad:
            raise ContractError("rewind requires a tape made with grad=False")
        if self._slots is None:
            self._slots = []
        self._next_slot = 0

    def _slot(self, shape: tuple[int, ...]) -> Array | None:
        """This pass's next output buffer, contents undefined; None until the tape is rewound."""
        if self._slots is None:
            return None
        i = self._next_slot
        self._next_slot += 1
        if i == len(self._slots):
            self._slots.append(np.empty(shape))
        elif self._slots[i].shape != shape:
            self._slots[i] = np.empty(shape)
        return self._slots[i]

    def _record(self, op: str, inputs: list[Node], value: Array,
                backward: Callable[[Array], None] | None) -> Node:
        if not self.grad:
            inputs, backward = [], None
        node = Node(self, self.size, op, inputs, value, backward)
        self.size += 1
        return node

    def constant(self, value) -> Node:
        """A leaf holding fixed data; gradients stop here."""
        return self._record("const", [], as_array(value), None)

    def params(self, store: ParamStore) -> dict[str, Node]:
        """Wrap every array in ``store`` as a leaf node, once per tape and store."""
        owner = id(store)
        nodes: dict[str, Node] = {}
        for name, value in store.items():
            entry = self._params.get(name)
            if entry is not None and entry[0] != owner:
                raise ContractError(f"parameter name collision on tape: {name!r}")
            node = entry[1]() if entry is not None else None
            if node is None:  # first wrap, or the earlier leaf was dropped unused
                node = self._record("param", [], value, None)
                self._params[name] = (owner, weakref.ref(node), value)
            nodes[name] = node
        return nodes


def _check_same_tape(nodes: list[Node]) -> Tape:
    tape = nodes[0].tape
    for node in nodes[1:]:
        if node.tape is not tape:
            raise ContractError("operands belong to different tapes")
    return tape


def add(a: Node, b: Node) -> Node:
    """Elementwise sum of two nodes of one shape."""
    tape = _check_same_tape([a, b])
    if a.shape != b.shape:
        raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}")

    def backward(g: Array) -> None:
        a.accumulate(g)
        b.accumulate(g)

    return tape._record("add", [a, b], a.value + b.value, backward)


def _silu(z: Array, ex: Array | None = None, sig: Array | None = None,
          out: Array | None = None) -> tuple[Array, Array]:
    """silu's value ``z * sigmoid(z)`` and the sigmoid, without overflow.

    ``ex`` and ``sig`` are buffers for ``e^-|z|`` and the sigmoid, fresh
    arrays when omitted; the value lands in ``out``, or else in ``ex``.
    """
    # The sigmoid's numerator is 1 for z >= 0 and e^z below; the mask z >= 0
    # is written into the sigmoid's own buffer as 1.0 or 0.0.
    ex = np.abs(z, out=ex)
    np.negative(ex, out=ex)
    np.exp(ex, out=ex)
    if sig is None:
        sig = np.empty_like(z)
    np.greater_equal(z, 0.0, out=sig)
    np.maximum(ex, sig, out=sig)
    ex += 1.0
    sig /= ex
    return np.multiply(z, sig, out=ex if out is None else out), sig


def _silu_grad(z: Array, sig: Array, g: Array) -> Array:
    """``g * (sig * (1 + z * (1 - sig)))``, one rounding at a time."""
    gz = 1.0 - sig
    gz *= z
    gz += 1.0
    gz *= sig
    gz *= g
    return gz


def dense(h: Node, w: Node, b: Node, kind: str | None = None) -> Node:
    """One layer, ``kind(h @ w + b)``, as a single node with a hand-written backward.

    ``h`` and ``w`` are rank-2, ``b`` is a bias row of ``w``'s width, and
    ``kind`` is None (identity), "relu" or "silu". The forward pass works in
    the product's buffer; every value and gradient rounds exactly as the
    product, the row-bias sum and the activation taken as separate steps.
    On a rewound tape that buffer and silu's two scratch buffers are the
    tape's slots, so the value is overwritten after the tape rewinds again.
    """
    if kind not in DENSE_KINDS:
        raise DomainError(f"unknown activation kind {kind!r}; expected one of {DENSE_KINDS}")
    if h.value.ndim != 2 or w.value.ndim != 2:
        raise DimensionError(f"dense needs rank-2 operands, got {h.shape} @ {w.shape}")
    if h.shape[1] != w.shape[0]:
        raise DimensionError(f"dense inner dims differ: {h.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"dense bias must have shape ({w.shape[1]},), got {b.shape}")
    tape = _check_same_tape([h, w, b])
    z = np.matmul(h.value, w.value, out=tape._slot((h.shape[0], w.shape[1])))
    z += b.value
    if kind == "silu":  # backward needs z, so only a gradient-free tape overwrites it
        value, sig = _silu(z, tape._slot(z.shape), tape._slot(z.shape),
                           out=None if tape.grad else z)
    elif kind == "relu":
        value = np.maximum(z, 0.0, out=z)  # positive exactly where z was
    else:
        value = z

    def backward(g: Array) -> None:
        if kind == "silu":
            gz = _silu_grad(z, sig, g)
        elif kind == "relu":
            gz = g * (value > 0.0)
        else:
            gz = g
        b.accumulate(gz.sum(axis=0))
        h.accumulate(gz @ w.value.T)
        w.accumulate(h.value.T @ gz)

    return tape._record("dense", [h, w, b], value, backward)


def concat_cols(parts: list[Node]) -> Node:
    """Concatenate rank-2 nodes along columns, into a slot on a rewound tape."""
    if not parts:
        raise ContractError("concat_cols needs at least one operand")
    tape = _check_same_tape(parts)
    rows = parts[0].shape[0]
    for p in parts:
        if p.value.ndim != 2 or p.shape[0] != rows:
            raise DimensionError(f"concat_cols row mismatch: {[p.shape for p in parts]}")
    widths = [p.shape[1] for p in parts]
    value = np.concatenate([p.value for p in parts], axis=1,
                           out=tape._slot((rows, sum(widths))))

    def backward(g: Array) -> None:
        offset = 0
        for p, width in zip(parts, widths):
            p.accumulate(g[:, offset:offset + width])
            offset += width

    return tape._record("concat", list(parts), value, backward)


def rows(a: Node, start: int, stop: int) -> Node:
    """Rows ``start:stop`` of ``a``; the gradient lands in those rows of a zero array."""
    if a.value.ndim == 0:
        raise DimensionError("rows needs at least one axis")
    if not 0 <= start < stop <= a.shape[0]:
        raise DimensionError(f"rows {start}:{stop} outside a node of {a.shape[0]} rows")

    def backward(g: Array) -> None:
        full = np.zeros_like(a.value)
        full[start:stop] = g
        a.accumulate(full)

    return a.tape._record("rows", [a], a.value[start:stop], backward)


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

    Every node reachable from the loss through ``inputs`` receives its
    gradient; the reached nodes replay in reverse creation order. Returns
    the gradient for each parameter the tape wrapped; parameters the loss
    does not depend on map to zeros.
    """
    if loss.value.ndim != 0:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.tape.grad:
        raise ContractError("backward requires a tape made with grad=True")
    reached = {loss.id: loss}
    pending = [loss]
    while pending:
        for node in pending.pop().inputs:
            if node.id not in reached:
                reached[node.id] = node
                pending.append(node)
    loss.grad = np.ones_like(loss.value)
    for node_id in sorted(reached, reverse=True):
        node = reached[node_id]
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)
    grads: Gradients = {}
    for name, (_, ref, value) in loss.tape._params.items():
        node = ref()
        grads[name] = node.grad if node is not None and node.grad is not None else np.zeros_like(value)
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
        value = float(model_loss_fn(Tape(grad=False), params).value)
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


def sgd_step(params: ParamStore, grads: Gradients, learning_rate: float) -> ParamStore:
    """One plain gradient-descent update, in place."""
    return SGD(learning_rate, momentum=0.0).step(params, grads)


class SGD:
    """Gradient descent with classical momentum (momentum=0 is plain SGD).

    The velocity is one flat array laid out like ``ParamStore.flat``.
    """

    def __init__(self, learning_rate: float, momentum: float = 0.9):
        if not 0.0 < learning_rate < math.inf:
            raise DomainError(f"learning_rate must be positive and finite, got {learning_rate}")
        if not (0.0 <= momentum < 1.0):
            raise DomainError(f"momentum must lie in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: Array | None = None

    def step(self, params: ParamStore, grads: Gradients) -> ParamStore:
        # A fresh array, so the in-place updates below leave `grads` intact.
        g = np.concatenate([grads[name].reshape(-1) for name in params.names()])
        if self._velocity is None:
            self._velocity = g
            step = self.learning_rate * g
        else:  # rounds exactly as `momentum * v + g`
            v = self._velocity
            v *= self.momentum
            v += g
            step = np.multiply(v, self.learning_rate, out=g)
        if not np.isfinite(step).all():
            raise NumericError(f"non-finite gradient for parameter {_first_non_finite(params, step)!r}")
        params.flat -= step
        return params


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's get- and set-threads functions, found on first use; None without one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "blas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            get = getattr(lib, stem.format("get_num_threads"), None)
            put = getattr(lib, stem.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_threads() -> int | None:
    """The thread count the loaded OpenBLAS uses now; None without one."""
    fns = _openblas()
    return None if fns is None else fns[0]()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread, then restore its count; without one, do nothing.

    Training products of 128 rows or fewer gain no wall time from a second
    thread, which spins a core for the whole loop. The count is process-wide.
    """
    fns = _openblas()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def fit(steps: int, learning_rate: float, step: Callable[[SGD], object]) -> list:
    """Call ``step(optimizer)`` ``steps`` times on one momentum ``SGD`` inside ``one_blas_thread``;
    returns the results in order. A ``NumericError`` is re-raised naming its step."""
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    optimizer = SGD(learning_rate)
    results = []
    with one_blas_thread():
        for i in range(steps):
            try:
                results.append(step(optimizer))
            except NumericError as exc:
                raise NumericError(f"{exc} (at step {i})") from exc
    return results


def _first_non_finite(params: ParamStore, flat: Array) -> str:
    """The parameter whose stretch of ``flat`` holds the first non-finite value."""
    ends = np.cumsum([value.size for _, value in params.items()])
    first = np.flatnonzero(~np.isfinite(flat))[0]
    return params.names()[int(np.searchsorted(ends, first, side="right"))]
