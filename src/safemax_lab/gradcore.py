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

``fit`` is the one training loop: momentum SGD.

Importing this module sets a loaded OpenBLAS to one thread, once, for the
whole process: the lab's products are small (a 128-row training batch, a
500-row chain), and a second thread gains them little or no wall time while
it spins a core. Nothing restores the count; a caller that wants more threads
for its own work sets them itself.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import weakref
from typing import Callable, Iterator, Mapping

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

    Built once from a name -> array mapping, with one copy: each name maps
    to a view into ``flat``, laid out in the mapping's order, so an
    optimizer updates every parameter with whole-buffer operations and the
    views see the update. Iteration follows the mapping's order, which is
    deterministic across runs that build the mapping in the same sequence.
    """

    def __init__(self, arrays: Mapping[str, Array]):
        arrays = {name: as_array(value) for name, value in arrays.items()}
        self.flat = np.concatenate([value.reshape(-1) for value in arrays.values()])
        self._views: dict[str, Array] = {}
        offset = 0
        for name, value in arrays.items():
            self._views[name] = self.flat[offset:offset + value.size].reshape(value.shape)
            offset += value.size

    def __getitem__(self, name: str) -> Array:
        return self._views[name]

    def names(self) -> list[str]:
        return list(self._views)

    def items(self) -> Iterator[tuple[str, Array]]:
        return iter(self._views.items())

    def copy(self) -> "ParamStore":
        return ParamStore(self._views)


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
    on first use and again only when its shape changes; silu's scratch is one
    pair per shape for every layer and pass. Each ``rewind`` starts a pass
    that overwrites the last one's values, so a caller copies what it keeps.

    A tape and its nodes belong to one thread. Gradient-free tapes on
    different threads may read one ParamStore while nothing writes to it.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.size = 0
        # name -> (id of the wrapped store, weak reference to the leaf, wrapped array)
        self._params: dict[str, tuple[int, weakref.ref, Array]] = {}
        self._slots: list[Array] | None = None  # a list once the tape is rewound
        self._next_slot = 0
        self._pairs: dict[tuple[int, ...], tuple[Array, Array]] = {}

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

    def _scratch(self, shape: tuple[int, ...]) -> tuple[Array | None, Array | None]:
        """Two buffers of ``shape`` an op drops before it returns; (None, None) until rewound."""
        if self._slots is None:
            return None, None
        if shape not in self._pairs:
            self._pairs[shape] = (np.empty(shape), np.empty(shape))
        return self._pairs[shape]

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
    On a rewound tape that buffer is a slot, overwritten after the next
    rewind, and silu's two scratch buffers are the tape's shared pair.
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
        value, sig = _silu(z, *tape._scratch(z.shape), out=None if tape.grad else z)
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


def indices(values, what: str, low: int = 0, high: int | None = None) -> Array:
    """``values`` as int64, the lab's one integer rule for ids, counts, sizes, seeds and steps:
    ``DomainError``, naming ``what``, unless the dtype is integer (not bool or float) and every
    value is in [low, high), or >= low without ``high``."""
    ids = np.asarray(values)
    if ids.dtype.kind not in "iu" or (ids.size and (
            ids.min() < low or (high is not None and ids.max() >= high))):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise DomainError(f"{what} must be integer {bound}, got {ids} ({ids.dtype})")
    return ids.astype(np.int64, copy=False)


def integer(value, what: str, low: int = 0, high: int | None = None) -> int:
    """One integer under ``indices``, as a Python int; ``DomainError`` also for a list or array."""
    ids = indices(value, what, low, high)
    if ids.ndim:
        raise DomainError(f"{what} must be a single integer, got {value!r}")
    return int(ids)


def real(value, what: str, low: float = -math.inf, high: float = math.inf, *,
         above: float | None = None, below: float | None = None) -> float:
    """``value`` as a Python float, the lab's one rule for rates, scales, weights and bounds:
    ``DomainError``, naming ``what`` and the interval, unless it is rank 0 with an integer or
    float dtype (not bool), not NaN, and in [low, high], where ``above``/``below`` open an end."""
    x = np.asarray(value)
    if not (x.ndim == 0 and x.dtype.kind in "iuf"
            and (x > above if above is not None else x >= low)
            and (x < below if below is not None else x <= high)):
        interval = (f"({above}" if above is not None else f"[{low}") + ", " + (
            f"{below})" if below is not None else f"{high}]")
        raise DomainError(f"{what}: expected a real number in {interval}, got {value!r}")
    return float(x)


def one_of(value, what: str, *choices: str) -> str:
    """``value`` as a Python str, the rule for a name: ``DomainError``, naming ``what``, unless it
    is one rank-0 str (a numpy str too) among ``choices``."""
    x = np.asarray(value)
    if x.ndim or x.dtype.kind != "U" or str(x) not in choices:
        raise DomainError(f"{what} must be one of {choices}, got {value!r}")
    return str(x)


def rule(check: Callable, *bounds, default=dataclasses.MISSING, what: str | None = None,
         **options):
    """A ``Record`` field whose value ``check(value, what, *bounds, **options)`` checks, and
    whose record holds what it returns; ``what`` defaults to the field's name."""
    return dataclasses.field(default=default, metadata={"rule": (check, what, bounds, options)})


class Record:
    """Base of a frozen dataclass whose ``rule`` fields, once it is built (or ``replace``d),
    hold what their checks return: a Python int, float or str. A subclass that adds a rule
    across fields calls ``super().__post_init__()`` first."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "rule" in f.metadata:
                check, what, bounds, options = f.metadata["rule"]
                object.__setattr__(self, f.name, check(getattr(self, f.name), what or f.name,
                                                       *bounds, **options))


def embedding(table: Node, ids) -> Node:
    """Row lookup into a rank-2 table, ``ids`` checked by ``indices``; gradients scatter-add back."""
    if table.value.ndim != 2:
        raise DimensionError(f"embedding table must be rank-2, got {table.shape}")
    ids = indices(ids, "embedding ids", 0, table.shape[0])
    if ids.ndim != 1:
        raise DimensionError(f"embedding ids must be rank-1, got shape {ids.shape}")

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
    """Mean cross-entropy of a softmax head against labels checked by ``indices``."""
    if logits.value.ndim != 2:
        raise DimensionError(f"logits must be rank-2, got {logits.shape}")
    rows, k = logits.shape
    labels = indices(labels, "labels", 0, k)
    if labels.shape != (rows,):
        raise DimensionError(f"labels must have shape ({rows},), got {labels.shape}")
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
    epsilon = real(epsilon, "epsilon", above=0.0, high=1e-3)
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
        self.learning_rate = real(learning_rate, "learning_rate", above=0.0, below=math.inf)
        self.momentum = real(momentum, "momentum", 0.0, below=1.0)
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
    """The loaded OpenBLAS's get- and set-threads functions, found once; None without one."""
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


if _openblas() is not None:  # the lab's one thread count, set once (see the module docstring)
    _openblas()[1](1)


def fit(steps: int, learning_rate: float, step: Callable[[SGD], object]) -> list:
    """Call ``step(optimizer)`` ``steps`` times on one momentum ``SGD``; returns the results in
    order. A ``NumericError`` is re-raised naming its step."""
    optimizer = SGD(learning_rate)
    results = []
    for i in range(integer(steps, "steps")):
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
