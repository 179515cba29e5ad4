import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from safemax_lab import gradcore as gc
from safemax_lab.errors import ContractError, DimensionError, DomainError, NumericError


def make_store(**arrays) -> gc.ParamStore:
    return gc.ParamStore(arrays)


def _square(a):
    """Elementwise square, a test-only op for building losses."""
    def backward(g):
        a.accumulate(g * (2.0 * a.value))

    return a.tape._record("square", [a], a.value * a.value, backward)


def _total(a):
    """Sum of all elements as a scalar node, a test-only op for building losses."""
    def backward(g):
        a.accumulate(np.full_like(a.value, float(g)))

    return a.tape._record("total", [a], np.asarray(a.value.sum()), backward)


def _chain_matmul(a, b):
    """The product op ``dense`` replaced, kept as its reference."""
    def backward(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    return a.tape._record("matmul", [a, b], a.value @ b.value, backward)


def _chain_add_bias(a, b):
    """The row-bias sum ``dense`` replaced, kept as its reference."""
    def backward(g):
        a.accumulate(g)
        b.accumulate(g.sum(axis=0))

    return a.tape._record("add", [a, b], a.value + b.value, backward)


def _chain_activation(a, kind):
    """The activation op ``dense`` replaced, kept as its reference."""
    if kind is None:
        return a
    if kind == "relu":
        value = np.maximum(a.value, 0.0)

        def backward(g):
            a.accumulate(g * (a.value > 0.0))
    else:
        x = a.value
        ex = np.exp(-np.abs(x))
        sig = np.maximum(ex, x >= 0) / (1.0 + ex)
        value = x * sig

        def backward(g):
            a.accumulate(g * (sig * (1.0 + a.value * (1.0 - sig))))
    return a.tape._record(kind, [a], value, backward)


def _assert_same_bits(actual, expected):
    nan = np.isnan(expected)
    npt.assert_array_equal(np.isnan(actual), nan)
    npt.assert_array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


class TestDense:
    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        tape = gc.Tape()
        out = gc.dense(tape.constant(np.eye(2)), tape.constant(m), tape.constant(np.zeros(2)))
        npt.assert_array_equal(out.value, m)

    def test_hand_product_plus_row_bias(self):
        tape = gc.Tape()
        a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        b = tape.constant([[1.0], [1.0]])
        npt.assert_array_equal(gc.dense(a, b, tape.constant([0.5])).value, [[3.5], [7.5]])

    @pytest.mark.parametrize("h_shape, w_shape, b_shape", [
        ((2, 3), (2, 3), (3,)),     # inner dims differ
        ((3,), (3, 2), (2,)),       # rank-1 input
        ((2, 3), (3, 2), (3,)),     # bias of the wrong width
        ((2, 3), (3, 2), (1, 2)),   # bias not a row
    ])
    def test_shape_mismatch(self, h_shape, w_shape, b_shape):
        tape = gc.Tape()
        with pytest.raises(DimensionError):
            gc.dense(tape.constant(np.zeros(h_shape)), tape.constant(np.zeros(w_shape)),
                     tape.constant(np.zeros(b_shape)))

    def test_backward_accumulates_to_every_operand(self):
        store = make_store(a=np.array([[1.0, 2.0], [5.0, -1.0]]), b=np.array([[3.0], [4.0]]),
                           c=np.array([0.5]))
        tape = gc.Tape()
        p = tape.params(store)
        grads = gc.backward(_total(gc.dense(p["a"], p["b"], p["c"])))
        npt.assert_allclose(grads["a"], [[3.0, 4.0], [3.0, 4.0]])
        npt.assert_allclose(grads["b"], [[6.0], [1.0]])
        npt.assert_allclose(grads["c"], [2.0])

    def test_relu_definition(self):
        tape = gc.Tape()
        out = gc.dense(tape.constant([[-1.0, 2.0]]), tape.constant(np.eye(2)),
                       tape.constant(np.zeros(2)), "relu")
        npt.assert_array_equal(out.value, [[0.0, 2.0]])

    def test_unknown_kind(self):
        tape = gc.Tape()
        with pytest.raises(DomainError):
            gc.dense(tape.constant([[0.0]]), tape.constant([[1.0]]), tape.constant([0.0]), "gelu")

    def test_silu_derivative_at_zero(self):
        # finite difference with h=1e-6 around 0 gives 0.5
        store = make_store(x=np.array([[0.0]]))

        def loss_fn(tape, params):
            return _total(gc.dense(tape.params(params)["x"], tape.constant([[1.0]]),
                                   tape.constant([0.0]), "silu"))

        tape = gc.Tape()
        grads = gc.backward(loss_fn(tape, store))
        h = 1e-6
        fd = (np.log(1 + np.exp(h)) * 0 + (h / (1 + np.exp(-h)) - (-h / (1 + np.exp(h)))) / (2 * h))
        npt.assert_allclose(grads["x"], [[0.5]], atol=1e-12)
        npt.assert_allclose(fd, 0.5, atol=1e-6)

    @staticmethod
    def _silu_reference(x):
        """Two-sided masked sigmoid, then silu's value and its derivative."""
        sig = np.empty_like(x)
        pos = x >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sig[~pos] = ex / (1.0 + ex)
        return x * sig, sig * (1.0 + x * (1.0 - sig))

    @pytest.mark.parametrize("scale", [1.0, 3.0, 40.0])
    @pytest.mark.parametrize("shape", [(7,), (128, 128), (500, 128)])
    def test_silu_bit_identical_to_masked_form(self, scale, shape):
        x = scale * np.random.default_rng(int(scale) + len(shape)).standard_normal(shape)
        self._check_silu_bits(x)

    def test_silu_bit_identical_at_edge_values(self):
        edges = np.array([0.0, np.inf, 745.0, 800.0, 5e-324, 1e308])
        x = np.concatenate([edges, -edges, [np.nan]])
        self._check_silu_bits(x)

    def _check_silu_bits(self, x):
        """``dense``'s silu value and slope at ``x`` itself, then through a one-input unit layer.

        The unit layer alone would not reach -0.0: BLAS sums the product
        from +0.0, so ``-0.0 @ [[1.0]]`` is +0.0 before the bias is added.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            value, slope = self._silu_reference(x)
            out, sig = gc._silu(x)
            _assert_same_bits(out, value)
            _assert_same_bits(gc._silu_grad(x, sig, np.ones_like(x)), slope)
            assert np.isnan(out[np.isnan(x)]).all()

            h = x.reshape(-1, 1)
            w, b = np.array([[1.0]]), np.array([-0.0])
            store = make_store(h=h)
            tape = gc.Tape()
            out = gc.dense(tape.params(store)["h"], tape.constant(w), tape.constant(b), "silu")
            grads = gc.backward(_total(out))
            z = h @ w
            z += b
            value, slope = self._silu_reference(z)
            grad_h = slope @ w.T
        _assert_same_bits(out.value, value)
        _assert_same_bits(grads["h"], grad_h)

    @pytest.mark.parametrize("kind", gc.DENSE_KINDS)
    @pytest.mark.parametrize("rows", [1, 64, 128, 500])
    def test_bit_identical_to_op_chain(self, rows, kind):
        rng = np.random.default_rng(rows)
        self._check_against_chain(rng.standard_normal((rows, 34)),
                                  rng.standard_normal((34, 128)) / np.sqrt(34),
                                  rng.standard_normal(128), rng.standard_normal((rows, 128)), kind)

    @pytest.mark.parametrize("kind", gc.DENSE_KINDS)
    def test_bit_identical_to_op_chain_at_edge_values(self, kind):
        rng = np.random.default_rng(5)
        edges = np.array([0.0, np.inf, 745.0, 800.0, 5e-324, 1e308])
        b = np.concatenate([edges, -edges, [np.nan], 40.0 * rng.standard_normal(19)])
        self._check_against_chain(3.0 * rng.standard_normal((64, 8)), rng.standard_normal((8, 32)),
                                  b, rng.standard_normal((64, 32)), kind)

    @staticmethod
    def _check_against_chain(h, w, b, target, kind):
        """Value and every gradient of ``dense`` against matmul, row-bias add and activation."""
        results = []
        with np.errstate(invalid="ignore", over="ignore"):
            for fused in (True, False):
                tape = gc.Tape()
                p = tape.params(make_store(h=h, w=w, b=b))
                if fused:
                    out = gc.dense(p["h"], p["w"], p["b"], kind)
                else:
                    out = _chain_activation(_chain_add_bias(_chain_matmul(p["h"], p["w"]), p["b"]),
                                            kind)
                results.append((out.value, gc.backward(gc.mse_loss(out, target))))
        (value, grads), (ref_value, ref_grads) = results
        _assert_same_bits(value, ref_value)
        for name in ("h", "w", "b"):
            _assert_same_bits(grads[name], ref_grads[name])

    @pytest.mark.parametrize("kind", gc.DENSE_KINDS)
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        store = make_store(h=rng.standard_normal((6, 4)), w=rng.standard_normal((4, 5)) / 2.0,
                           b=0.1 * rng.standard_normal(5))
        target = rng.standard_normal((6, 5))

        def loss_fn(tape, params):
            p = tape.params(params)
            return gc.mse_loss(gc.dense(p["h"], p["w"], p["b"], kind), target)

        assert gc.grad_check(loss_fn, store, epsilon=1e-5, probes=30, rng=rng) < 1e-6


class TestElementwise:
    def test_add_zeros_is_identity(self):
        tape = gc.Tape()
        x = np.array([[1.0, -2.0], [0.0, 5.0]])
        out = gc.add(tape.constant(x), tape.constant(np.zeros_like(x)))
        npt.assert_array_equal(out.value, x)

    @pytest.mark.parametrize("other", [(2, 1), (3,)])
    def test_add_rejects_broadcast(self, other):
        tape = gc.Tape()
        with pytest.raises(DimensionError):
            gc.add(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros(other)))


class TestAccumulate:
    """A node's grad may be handed on as-is; later sums must not write into it."""

    def test_add_of_a_node_with_itself(self):
        store = make_store(x=np.array([[1.0, -2.0], [3.0, 0.5]]))
        node = gc.Tape().params(store)["x"]
        doubled = gc.add(node, node)
        grads = gc.backward(_total(doubled))
        npt.assert_array_equal(grads["x"], np.full((2, 2), 2.0))
        npt.assert_array_equal(doubled.grad, np.ones((2, 2)))

    def test_concat_of_a_node_with_itself(self):
        x = np.array([[1.0, -2.0], [3.0, 0.5]])
        node = gc.Tape().params(make_store(x=x))["x"]
        joined = gc.concat_cols([node, node])
        grads = gc.backward(_total(_square(joined)))
        npt.assert_array_equal(grads["x"], 4.0 * x)
        npt.assert_array_equal(joined.grad, 2.0 * np.concatenate([x, x], axis=1))


class TestRows:
    def test_value_is_the_row_range(self):
        x = np.arange(12.0).reshape(4, 3)
        out = gc.rows(gc.Tape().constant(x), 1, 3)
        npt.assert_array_equal(out.value, x[1:3])

    def test_gradient_only_in_its_rows(self):
        x = np.random.default_rng(2).standard_normal((5, 3))
        node = gc.Tape().params(make_store(x=x))["x"]
        grads = gc.backward(_total(_square(gc.rows(node, 1, 3))))
        expected = np.zeros_like(x)
        expected[1:3] = 2.0 * x[1:3]
        npt.assert_array_equal(grads["x"], expected)

    def test_two_ranges_of_one_node_sum_their_gradients(self):
        # disjoint ranges fill their own rows; overlapping ones add
        x = np.random.default_rng(3).standard_normal((6, 2))
        node = gc.Tape().params(make_store(x=x))["x"]
        loss = gc.add(_total(gc.rows(node, 0, 4)), _total(_square(gc.rows(node, 2, 6))))
        expected = np.ones_like(x)
        expected[4:] = 0.0
        expected[2:] += 2.0 * x[2:]
        npt.assert_array_equal(gc.backward(loss)["x"], expected)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        store = make_store(h=rng.standard_normal((7, 4)), w=rng.standard_normal((4, 3)) / 2.0,
                           b=0.1 * rng.standard_normal(3))
        t_a, t_b = rng.standard_normal((3, 3)), rng.standard_normal((4, 3))
        weights = rng.uniform(0.1, 2.0, size=3)

        def loss_fn(tape, params):
            p = tape.params(params)
            out = gc.dense(p["h"], p["w"], p["b"], "silu")
            return gc.add(gc.mse_loss(gc.rows(out, 0, 3), t_a, weights=weights),
                          gc.mse_loss(gc.rows(out, 3, 7), t_b, weights=np.full(4, 0.5)))

        assert gc.grad_check(loss_fn, store, probes=60, rng=rng) < 1e-6

    @pytest.mark.parametrize("start, stop", [(-1, 2), (0, 5), (2, 2), (3, 1)])
    def test_bad_range_rejected(self, start, stop):
        node = gc.Tape().constant(np.zeros((4, 2)))
        with pytest.raises(DimensionError):
            gc.rows(node, start, stop)

    def test_scalar_rejected(self):
        with pytest.raises(DimensionError):
            gc.rows(gc.Tape().constant(1.0), 0, 1)


class TestTape:
    def test_wrapping_a_store_again_gives_the_same_leaves(self):
        store = make_store(a=np.ones(2), b=np.ones(3))
        tape = gc.Tape()
        first = tape.params(store)
        second = tape.params(store)
        assert all(first[name] is second[name] for name in ("a", "b"))
        assert tape.size == 2

    def test_dropped_leaf_is_wrapped_anew(self):
        store = make_store(a=np.array([2.0]), b=np.ones(3))
        tape = gc.Tape()
        tape.params(store)  # both leaves die at once, unused
        a = tape.params(store)["a"]
        grads = gc.backward(_total(_square(a)))
        npt.assert_array_equal(grads["a"], [4.0])
        npt.assert_array_equal(grads["b"], np.zeros(3))

    def test_two_stores_sharing_a_name_collide(self):
        tape = gc.Tape()
        tape.params(make_store(a=np.ones(1)))
        with pytest.raises(ContractError, match="collision"):
            tape.params(make_store(a=np.ones(1)))

    def test_inference_tape_records_no_graph(self):
        store = make_store(w=np.eye(2), b=np.ones(2))
        tape = gc.Tape(grad=False)
        p = tape.params(store)
        out = gc.dense(tape.constant([[1.0, -3.0]]), p["w"], p["b"], "relu")
        npt.assert_array_equal(out.value, [[2.0, 0.0]])
        assert out.inputs == [] and out._backward is None
        with pytest.raises(ContractError, match="grad=True"):
            gc.backward(_total(out))

    def test_operands_from_different_tapes_rejected(self):
        h = gc.Tape().constant(np.ones((1, 1)))
        other = gc.Tape()
        with pytest.raises(ContractError, match="different tapes"):
            gc.dense(h, other.constant([[1.0]]), other.constant([0.0]))


class TestInferenceWorkspace:
    """A rewound gradient-free tape reuses its buffers and gives a fresh tape's bits."""

    @staticmethod
    def _values(tape, parts, layers):
        """Copies of a column concat of ``parts`` and of each ``(w, b, kind)`` dense after it."""
        node = gc.concat_cols([tape.constant(p) for p in parts])
        values = [node.value.copy()]
        for w, b, kind in layers:
            node = gc.dense(node, tape.constant(w), tape.constant(b), kind)
            values.append(node.value.copy())
        return values

    def _check_passes(self, passes):
        """Run each ``(parts, layers)`` on one rewound tape and on a fresh gradient tape."""
        tape = gc.Tape(grad=False)
        with np.errstate(invalid="ignore", over="ignore"):
            for parts, layers in passes:
                tape.rewind()
                got = self._values(tape, parts, layers)
                expected = self._values(gc.Tape(), parts, layers)
                assert len(got) == len(expected)
                for value, ref in zip(got, expected):
                    _assert_same_bits(value, ref)
        return tape

    @staticmethod
    def _layers(rng, kind):
        return [(rng.standard_normal((5, 32)) / np.sqrt(5), rng.standard_normal(32), kind),
                (rng.standard_normal((32, 32)) / np.sqrt(32), rng.standard_normal(32), kind)]

    @pytest.mark.parametrize("kind", gc.DENSE_KINDS)
    @pytest.mark.parametrize("rows", [1, 64, 500])
    def test_reused_tape_matches_a_fresh_one(self, rows, kind):
        rng = np.random.default_rng(rows)
        layers = self._layers(rng, kind)
        passes = [([3.0 * rng.standard_normal((rows, 2)), rng.standard_normal((rows, 3))], layers)
                  for _ in range(3)]
        tape = self._check_passes(passes)
        # the concat and each layer's product; silu's scratch is one pair for both layers
        assert len(tape._slots) == 3
        assert list(tape._pairs) == ([(rows, 32)] if kind == "silu" else [])
        slots, pairs = list(tape._slots), dict(tape._pairs)
        tape.rewind()
        self._values(tape, passes[0][0], layers)
        assert all(a is b for a, b in zip(slots, tape._slots))
        assert all(tape._pairs[shape] is pair for shape, pair in pairs.items())

    def test_every_silu_layer_and_pass_shares_one_scratch_pair(self, monkeypatch):
        rng = np.random.default_rng(11)
        layers = [*self._layers(rng, "silu"),
                  (rng.standard_normal((32, 32)) / np.sqrt(32), rng.standard_normal(32), "silu")]
        passes = [([rng.standard_normal((500, 2)), rng.standard_normal((500, 3))], layers)
                  for _ in range(3)]
        scratch = []
        silu = gc._silu

        def recording(z, ex=None, sig=None, out=None):
            scratch.append((ex, sig))
            return silu(z, ex, sig, out=out)

        monkeypatch.setattr(gc, "_silu", recording)
        tape = self._check_passes(passes)  # the rewound tape's bits against fresh tapes'
        shared = [pair for pair in scratch if pair[0] is not None]
        # the fresh gradient tapes make their own buffers; the rewound tape, one pair
        assert len(shared) == len(scratch) // 2 == 3 * len(layers)
        ex, sig = tape._pairs[(500, 32)]
        assert ex is not sig
        assert all(pair[0] is ex and pair[1] is sig for pair in shared)

    def test_shape_change_between_passes(self):
        rng = np.random.default_rng(7)
        layers = self._layers(rng, "silu")
        passes = [([rng.standard_normal((rows, 2)), rng.standard_normal((rows, 3))], layers)
                  for rows in (500, 7, 500)]
        self._check_passes(passes)

    def test_tape_never_rewound_frees_each_layer(self):
        """Until it is rewound a gradient-free tape keeps no buffer of its own."""
        rng = np.random.default_rng(3)
        layer_bytes = 500 * 128 * 8
        tape = gc.Tape(grad=False)
        w = tape.constant(rng.standard_normal((128, 128)) / np.sqrt(128))
        b = tape.constant(rng.standard_normal(128))
        node = tape.constant(rng.standard_normal((500, 128)))
        tracemalloc.start()
        try:
            for _ in range(8):
                node = gc.dense(node, w, b, "silu")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape._slots is None
        # a layer's input, its product and silu's two scratch buffers; not all eight layers
        assert peak < 5 * layer_bytes

    @pytest.mark.parametrize("kind", gc.DENSE_KINDS)
    def test_edge_values(self, kind):
        rng = np.random.default_rng(5)
        edges = np.array([0.0, np.inf, 745.0, 800.0, 5e-324, 1e308])
        x = np.concatenate([edges, -edges, [np.nan]]).reshape(-1, 1)
        # a unit layer with bias -0.0 keeps every input's bits, -0.0 included
        through_input = ([x], [(np.array([[1.0]]), np.array([-0.0]), kind)])
        bias = np.concatenate([edges, -edges, [np.nan], 40.0 * rng.standard_normal(19)])
        through_bias = ([3.0 * rng.standard_normal((64, 8))],
                        [(rng.standard_normal((8, 32)), bias, kind)])
        self._check_passes([through_input, through_bias, through_input])


class TestMseLoss:
    def test_identical_inputs_zero(self):
        tape = gc.Tape()
        x = np.array([[0.3, -0.7], [1.1, 2.2]])
        loss = gc.mse_loss(tape.constant(x), x)
        assert float(loss.value) == 0.0

    def test_single_row(self):
        tape = gc.Tape()
        loss = gc.mse_loss(tape.constant([2.0]), np.array([0.0]), weights=np.array([1.0]))
        npt.assert_allclose(float(loss.value), 4.0)

    def test_zero_weight_row_contributes_nothing(self):
        tape = gc.Tape()
        pred = tape.constant([[5.0, 5.0], [1.0, 1.0]])
        target = np.zeros((2, 2))
        loss = gc.mse_loss(pred, target, weights=np.array([0.0, 1.0]))
        npt.assert_allclose(float(loss.value), 0.5 * (1.0 + 1.0) / 2 * 2 / 2)
        # only the second row: mean over rows of w_i * mean_features -> (0 + 1*1)/2
        npt.assert_allclose(float(loss.value), 0.5)

    def test_negative_weight_rejected(self):
        tape = gc.Tape()
        with pytest.raises(DomainError):
            gc.mse_loss(tape.constant([[1.0]]), np.array([[0.0]]), weights=np.array([-1.0]))

    def test_shape_mismatch(self):
        tape = gc.Tape()
        with pytest.raises(DimensionError):
            gc.mse_loss(tape.constant([[1.0]]), np.zeros((2, 1)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        tape = gc.Tape()
        loss = gc.softmax_cross_entropy(tape.constant(np.zeros((3, 4))), np.array([0, 1, 2]))
        npt.assert_allclose(float(loss.value), np.log(4.0))

    def test_label_out_of_range(self):
        tape = gc.Tape()
        with pytest.raises(DomainError):
            gc.softmax_cross_entropy(tape.constant(np.zeros((1, 3))), np.array([3]))

    @pytest.mark.parametrize("labels", [[1.5], np.array([True])], ids=["float", "bool"])
    def test_non_integer_label_rejected_not_truncated(self, labels):
        # both used to score label 1
        tape = gc.Tape()
        with pytest.raises(DomainError, match="integer"):
            gc.softmax_cross_entropy(tape.constant(np.zeros((1, 3))), labels)


class TestIndices:
    @pytest.mark.parametrize("values", [[0, 2], np.array([1], np.uint8), np.int64(2), 0,
                                        np.zeros(0, np.int32)])
    def test_integer_ids_in_range_pass_as_int64(self, values):
        ids = gc.indices(values, "ids", 0, 3)
        assert ids.dtype == np.int64
        npt.assert_array_equal(ids, values)

    @pytest.mark.parametrize("values", [[3], [-1], [1.0], [True], 1.5, [1, None]],
                             ids=["past_end", "negative", "float", "bool", "float_scalar",
                                  "object"])
    def test_bad_ids_rejected_naming_what(self, values):
        with pytest.raises(DomainError, match="class ids must be integer in \\[0, 3\\)"):
            gc.indices(values, "class ids", 0, 3)

    @pytest.mark.parametrize("values", [2, np.int32(7), 2 ** 40, [5, 2]])
    def test_counts_without_upper_bound_pass(self, values):
        npt.assert_array_equal(gc.indices(values, "count", 2), values)

    @pytest.mark.parametrize("values", [1, True, 2.0, np.float64(3.0), "3", None],
                             ids=["below", "bool", "float", "numpy_float", "str", "none"])
    def test_bad_counts_rejected_naming_what(self, values):
        with pytest.raises(DomainError, match="count must be integer >= 2, got"):
            gc.indices(values, "count", 2)

    @pytest.mark.parametrize("values", [np.uint64(2 ** 63), np.array([1, 2 ** 64 - 1], np.uint64)],
                             ids=["uint64_scalar", "uint64_array"])
    def test_unsigned_beyond_int64_rejected_naming_what(self, values):
        # astype(int64) used to wrap these to -2**63 and -1
        with pytest.raises(DomainError, match=r"^seed must be an integer below 2\*\*63, got "):
            gc.indices(values, "seed")

    def test_largest_int64_passes(self):
        npt.assert_array_equal(gc.indices(np.uint64(2 ** 63 - 1), "seed"), 2 ** 63 - 1)

    @pytest.mark.parametrize("steps", [-1, True, 2.5], ids=["negative", "bool", "float"])
    def test_fit_rejects_a_bad_step_count_before_any_step(self, steps):
        # a bool used to run one step
        calls = []
        with pytest.raises(DomainError, match="steps must be integer >= 0"):
            gc.fit(steps, 0.1, calls.append)
        assert calls == []


class TestInteger:
    @pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), np.array(2)])
    def test_one_integer_passes_as_a_python_int(self, value):
        out = gc.integer(value, "count", 1)
        assert type(out) is int and out == 2

    @pytest.mark.parametrize("value", [[2], (2,), np.array([2]), np.array([[2]])],
                             ids=["list", "tuple", "array", "rank2"])
    def test_list_or_array_rejected_naming_the_value(self, value):
        # a rank-1 count used to pass ``indices`` and fail later, or be read as its one entry
        with pytest.raises(DomainError, match=r"count must be a single integer, got \S*2"):
            gc.integer(value, "count", 1)

    @pytest.mark.parametrize("value", [1, True, 2.0, [], None],
                             ids=["below", "bool", "float", "empty", "none"])
    def test_bad_scalar_rejected_under_indices(self, value):
        with pytest.raises(DomainError, match="count must be integer >= 2, got"):
            gc.integer(value, "count", 2)

    @pytest.mark.parametrize("value, what", [(2 ** 63, "seed"), (2 ** 64 - 1, "steps")])
    def test_python_int_beyond_int64_rejected_naming_what(self, value, what):
        # used to return -2**63 for 2**63, and -1 for 2**64 - 1 despite low = 0
        with pytest.raises(DomainError, match=rf"^{what} must be an integer below 2\*\*63, got "):
            gc.integer(value, what)

    def test_fit_rejects_a_list_step_count_before_any_step(self):
        calls = []
        with pytest.raises(DomainError, match=r"steps must be a single integer, got \[2\]"):
            gc.fit([2], 0.1, calls.append)
        assert calls == []


class TestReal:
    @pytest.mark.parametrize("value", [True, np.bool_(False), [0.5], (0.5,), np.array([0.5]),
                                       "0.5", None, 0.5j, float("nan"), np.float32("nan")],
                             ids=["bool", "numpy_bool", "list", "tuple", "array", "str", "none",
                                  "complex", "nan", "float32_nan"])
    def test_non_real_or_nan_refused_naming_what(self, value):
        with pytest.raises(DomainError, match=r"rate: expected a real number in \[-inf, inf\], "):
            gc.real(value, "rate")

    @pytest.mark.parametrize("value", [np.array(0.5), np.array(2), 2, np.int64(2), np.uint8(2),
                                       np.float64(0.5), 0.5])
    def test_zero_d_array_int_or_float_returned_as_a_python_float(self, value):
        out = gc.real(value, "rate")
        assert type(out) is float and out == float(np.asarray(value))

    def test_float32_widened_exactly(self):
        out = gc.real(np.float32(0.1), "rate")
        assert type(out) is float and out == 0.10000000149011612
        assert np.float32(out) == np.float32(0.1)

    @pytest.mark.parametrize("bounds, interval, inside, outside", [
        (dict(low=0.0), "[0.0, inf]", [0.0, math.inf], [-5e-324, -math.inf]),
        (dict(above=0.0), "(0.0, inf]", [5e-324, math.inf], [0.0, -1.0]),
        (dict(high=1e-3), "[-inf, 0.001]", [1e-3, -math.inf], [0.0011, math.inf]),
        (dict(below=1.0), "[-inf, 1.0)", [np.nextafter(1.0, 0.0), -math.inf], [1.0, math.inf]),
        (dict(above=0.0, below=math.inf), "(0.0, inf)", [1e300], [0.0, math.inf, -math.inf]),
        (dict(low=0.0, below=1.0), "[0.0, 1.0)", [0.0, 0.5], [1.0, -0.1]),
        (dict(above=-math.inf, high=math.inf), "(-inf, inf]", [math.inf], [-math.inf]),
    ], ids=["closed_low", "open_low", "closed_high", "open_high", "open_both",
            "closed_open", "open_minus_inf"])
    def test_each_end_open_or_closed(self, bounds, interval, inside, outside):
        for value in inside:
            assert gc.real(value, "x", **bounds) == value
        for value in outside:
            with pytest.raises(DomainError, match=re.escape(f"x: expected a real number in "
                                                            f"{interval}, got {value!r}")):
                gc.real(value, "x", **bounds)


class TestPointSet:
    @pytest.mark.parametrize("values", [[[1, 2], [3, 4]], np.array([[1, 2]], np.uint8),
                                        np.array([[0.1, 2.0]], np.float32), np.zeros((0, 3))],
                             ids=["list", "uint8", "float32", "no_rows"])
    def test_integer_or_float_points_widened_to_float64(self, values):
        points = gc.point_set(values, "points", at_least=0)
        assert points.dtype == np.float64
        npt.assert_array_equal(points, np.asarray(values, dtype=np.float64))

    def test_float64_array_returned_without_a_copy(self):
        points = np.ones((4, 2))
        assert gc.point_set(points, "points", 2, 4) is points

    def test_any_width_of_at_least_one_without_d(self):
        assert gc.point_set(np.ones((2, 5)), "points").shape == (2, 5)
        with pytest.raises(DimensionError, match=r"^points must have shape \(n, d\), got \(2, 0\)"):
            gc.point_set(np.ones((2, 0)), "points")


class TestOneOf:
    @pytest.mark.parametrize("value", ["ring", np.str_("ring"), np.array("ring")])
    def test_str_forms_returned_as_a_python_str(self, value):
        out = gc.one_of(value, "geometry", "ring", "grid")
        assert type(out) is str and out == "ring"

    @pytest.mark.parametrize("value", ["hex", ["ring"], np.array(["ring"]), b"ring", None, 1],
                             ids=["other", "list", "array", "bytes", "none", "int"])
    def test_anything_else_refused_naming_what(self, value):
        with pytest.raises(DomainError, match=r"^geometry must be one of \('ring', 'grid'\), got "):
            gc.one_of(value, "geometry", "ring", "grid")


@dataclass(frozen=True)
class _Span(gc.Record):
    start: int = gc.rule(gc.integer, default=0)
    width: float = gc.rule(gc.real, above=0.0, what="span width", default=1.0)
    note: str = "free"

    def __post_init__(self):
        super().__post_init__()
        gc.integer(self.start, "start", 0, 10)


class TestRecord:
    def test_each_rule_field_holds_what_its_check_returns(self):
        span = _Span(np.array(3), np.float32(0.5), np.str_("x"))
        assert (type(span.start), type(span.width)) == (int, float)
        assert (span.start, span.width) == (3, 0.5)
        assert type(span.note) is np.str_  # a field without a rule is left as given
        assert span == _Span(3, 0.5, "x") and hash(span) == hash(_Span(3, 0.5, "x"))
        with pytest.raises(FrozenInstanceError):
            span.start = 4

    def test_replace_runs_the_rules_and_what_names_the_value(self):
        assert type(replace(_Span(), start=np.uint8(7)).start) is int
        with pytest.raises(DomainError, match=r"^span width: expected a real number in \(0\.0"):
            replace(_Span(), width=0.0)
        with pytest.raises(DomainError, match=r"^start must be integer >= 0"):
            _Span(start=-1)

    def test_rule_across_fields_runs_after_the_field_rules(self):
        with pytest.raises(DomainError, match=r"^start must be integer in \[0, 10\)"):
            _Span(start=np.int8(10))


class TestEmbedding:
    @pytest.mark.parametrize("ids", [[1.7], np.array([True]), [3], [-1]],
                             ids=["float", "bool", "past_end", "negative"])
    def test_bad_ids_rejected(self, ids):
        # float and bool ids used to look up row 1
        tape = gc.Tape()
        with pytest.raises(DomainError):
            gc.embedding(tape.constant(np.eye(3)), ids)


class TestBackward:
    def test_sum_gives_ones(self):
        store = make_store(p=np.array([1.0, 2.0, 3.0]))

        tape = gc.Tape()
        loss = _total(tape.params(store)["p"])
        grads = gc.backward(loss)
        npt.assert_array_equal(grads["p"], np.ones(3))

    def test_squared_norm(self):
        store = make_store(p=np.array([3.0]))
        tape = gc.Tape()
        p = tape.params(store)["p"]
        loss = _total(_square(p))
        npt.assert_allclose(gc.backward(loss)["p"], [6.0])

    def test_unreachable_param_gets_zeros(self):
        store = make_store(used=np.array([1.0]), unused=np.array([[1.0, 2.0]]))
        tape = gc.Tape()
        p = tape.params(store)
        grads = gc.backward(_total(p["used"]))
        npt.assert_array_equal(grads["unused"], np.zeros((1, 2)))

    def test_non_scalar_loss_rejected(self):
        tape = gc.Tape()
        node = tape.constant([1.0, 2.0])
        with pytest.raises(ContractError):
            gc.backward(node)

    def test_linearity_of_sum(self):
        # gradient of (loss1 + loss2) equals the sum of separate gradients
        rng = np.random.default_rng(7)
        store = make_store(w=rng.standard_normal((3, 2)), b=np.zeros(2))
        x = rng.standard_normal((4, 3))
        t1 = rng.standard_normal((4, 2))
        t2 = rng.standard_normal((4, 2))

        def loss1(tape, p):
            return gc.mse_loss(gc.dense(tape.constant(x), p["w"], p["b"]), t1)

        def loss2(tape, p):
            return gc.mse_loss(gc.dense(tape.constant(x), p["w"], p["b"], "silu"), t2)

        tape = gc.Tape()
        p = tape.params(store)
        g_sum = gc.backward(gc.add(loss1(tape, p), loss2(tape, p)))

        tape1 = gc.Tape()
        g1 = gc.backward(loss1(tape1, tape1.params(store)))
        tape2 = gc.Tape()
        g2 = gc.backward(loss2(tape2, tape2.params(store)))
        for name in ("w", "b"):
            npt.assert_allclose(g_sum[name], g1[name] + g2[name], atol=1e-12)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(3)
        store = make_store(w=rng.standard_normal((5, 5)), b=rng.standard_normal(5))
        x = rng.standard_normal((2, 5))

        def run():
            tape = gc.Tape()
            p = tape.params(store)
            h = gc.dense(tape.constant(x), p["w"], p["b"], "silu")
            loss = gc.mse_loss(h, np.zeros_like(x))
            return float(loss.value), gc.backward(loss)["w"].copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        npt.assert_array_equal(g1, g2)


def _random_mlp_loss(rng):
    """A random small network touching every op, plus its ParamStore.

    Weights use fan-in scaling like real models so activations stay in
    their responsive range, and relu preactivations are resampled away
    from the kink, where central differences are meaningless.
    """
    rows = int(rng.integers(1, 6))
    d_in = int(rng.integers(1, 5))
    d_hid = int(rng.integers(2, 7))
    d_out = int(rng.integers(1, 4))
    n_embed = int(rng.integers(2, 5))
    kind = gc.DENSE_KINDS[int(rng.integers(3))]
    fan_in = d_in + n_embed
    store = make_store(
        w1=rng.standard_normal((fan_in, d_hid)) / np.sqrt(fan_in),
        b1=0.1 * rng.standard_normal(d_hid),
        w2=rng.standard_normal((d_hid, d_out)) / np.sqrt(d_hid),
        b2=0.1 * rng.standard_normal(d_out),
        table=rng.standard_normal((n_embed, n_embed)),
    )
    ids = rng.integers(0, n_embed, size=rows)
    for _ in range(50):
        x = rng.standard_normal((rows, d_in))
        pre = np.concatenate([x, store["table"][ids]], axis=1) @ store["w1"] + store["b1"]
        if kind != "relu" or np.abs(pre).min() > 1e-3:
            break
    target = rng.standard_normal((rows, d_out))
    weights = rng.uniform(0.1, 2.0, size=rows)

    def loss_fn(tape, params):
        p = tape.params(params)
        emb = gc.embedding(p["table"], ids)
        h = gc.concat_cols([tape.constant(x), emb])
        h = gc.dense(h, p["w1"], p["b1"], kind)
        out = gc.dense(h, p["w2"], p["b2"])
        return gc.mse_loss(out, target, weights=weights)

    return loss_fn, store


def test_gradients_match_finite_differences_on_random_networks():
    """Analytic vs central-difference agreement across >= 100 random shapes."""
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        loss_fn, store = _random_mlp_loss(rng)
        err = gc.grad_check(loss_fn, store, epsilon=1e-5, probes=8, rng=rng)
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative error {worst}"


class TestGradCheck:
    def test_quadratic_near_exact(self):
        rng = np.random.default_rng(0)
        store = make_store(p=rng.standard_normal(6))

        def loss_fn(tape, params):
            return _total(_square(tape.params(params)["p"]))

        assert gc.grad_check(loss_fn, store, epsilon=1e-4, probes=12) < 1e-6

    def test_constant_loss_zero_error(self):
        store = make_store(p=np.array([1.0, 2.0]))

        def loss_fn(tape, params):
            tape.params(params)
            return _total(tape.constant([0.0]))

        assert gc.grad_check(loss_fn, store, probes=4) == 0.0

    def test_epsilon_domain(self):
        store = make_store(p=np.array([1.0]))
        with pytest.raises(DomainError):
            gc.grad_check(lambda t, p: _total(t.params(p)["p"]), store, epsilon=1e-2)

    @pytest.mark.parametrize("epsilon", [[1e-5], float("nan"), True], ids=["list", "nan", "bool"])
    def test_epsilon_not_one_real_rejected(self, epsilon):
        # a list used to raise a bare TypeError from the comparison
        store = make_store(p=np.array([1.0]))
        with pytest.raises(DomainError,
                           match=r"epsilon: expected a real number in \(0\.0, 0\.001\]"):
            gc.grad_check(lambda t, p: _total(t.params(p)["p"]), store, epsilon=epsilon)

    def test_non_finite_loss_raises(self):
        store = make_store(p=np.array([0.0]))

        def loss_fn(tape, params):
            node = tape.params(params)["p"]
            bad = gc.add(node, node)
            bad.value = np.asarray(np.nan)
            return bad

        with pytest.raises(NumericError):
            gc.grad_check(loss_fn, store, probes=2)


class TestSgd:
    @pytest.mark.parametrize("rate", [0.0, float("nan")])
    def test_non_positive_or_nan_learning_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            gc.SGD(learning_rate=rate)

    @pytest.mark.parametrize("rate", [float("inf"), float("-inf")])
    def test_infinite_learning_rate_rejected(self, rate):
        with pytest.raises(DomainError, match="learning_rate"):
            gc.SGD(learning_rate=rate)

    def test_one_step(self):
        store = make_store(p=np.array([1.0]))
        gc.sgd_step(store, {"p": np.array([1.0])}, learning_rate=1.0)
        npt.assert_array_equal(store["p"], [0.0])

    def test_zero_gradient_fixed_point(self):
        store = make_store(p=np.array([0.5, -0.5]))
        gc.sgd_step(store, {"p": np.zeros(2)}, learning_rate=0.3)
        npt.assert_array_equal(store["p"], [0.5, -0.5])

    def test_arithmetic(self):
        store = make_store(p=np.array([2.0]))
        gc.sgd_step(store, {"p": np.array([0.5])}, learning_rate=0.1)
        npt.assert_allclose(store["p"], [1.95])

    def test_non_finite_gradient_names_param(self):
        store = make_store(fragile=np.array([1.0]))
        with pytest.raises(NumericError, match="fragile"):
            gc.sgd_step(store, {"fragile": np.array([np.nan])}, learning_rate=0.1)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_non_finite_gradient_names_param_and_updates_nothing(self, momentum):
        store = make_store(first=np.ones((2, 2)), fragile=np.ones(3), last=np.ones(1))
        grads = {"first": np.ones((2, 2)), "fragile": np.array([np.inf, 0.0, np.nan]),
                 "last": np.ones(1)}
        with pytest.raises(NumericError, match="'fragile'"):
            gc.SGD(learning_rate=0.1, momentum=momentum).step(store, grads)
        npt.assert_array_equal(store.flat, np.ones(8))

    def test_momentum_accumulates(self):
        store = make_store(p=np.array([0.0]))
        opt = gc.SGD(learning_rate=1.0, momentum=0.5)
        opt.step(store, {"p": np.array([1.0])})   # v=1, p=-1
        opt.step(store, {"p": np.array([1.0])})   # v=1.5, p=-2.5
        npt.assert_allclose(store["p"], [-2.5])

    @pytest.mark.parametrize("m", [0.0, 0.9])
    def test_momentum_steps_bit_identical_to_reference_formula(self, m):
        rng = np.random.default_rng(7)
        start = {"w": rng.standard_normal((5, 3)), "b": rng.standard_normal(3)}
        grads = [{name: rng.standard_normal(a.shape) for name, a in start.items()}
                 for _ in range(3)]
        kept = [{name: g.copy() for name, g in step.items()} for step in grads]
        lr = 0.05
        store = make_store(**start)
        opt = gc.SGD(learning_rate=lr, momentum=m)
        expected = {name: a.copy() for name, a in start.items()}
        velocity: dict = {}
        for step in grads:
            opt.step(store, step)
            for name, g in step.items():
                v = velocity.get(name)
                velocity[name] = v = g if v is None else m * v + g
                expected[name] = expected[name] - lr * v
            for name in start:
                assert store[name].tobytes() == expected[name].tobytes()
        for step, copy in zip(grads, kept):
            for name in step:
                assert step[name].tobytes() == copy[name].tobytes()

    def test_zero_momentum_matches_plain(self):
        a = make_store(p=np.array([1.0, 2.0]))
        b = make_store(p=np.array([1.0, 2.0]))
        g = {"p": np.array([0.3, -0.1])}
        gc.SGD(learning_rate=0.2, momentum=0.0).step(a, g)
        gc.sgd_step(b, g, 0.2)
        npt.assert_array_equal(a["p"], b["p"])


class TestParamStore:
    def test_order_is_insertion_order(self):
        # the mapping's order, not sorted
        store = make_store(zz=np.zeros(1), aa=np.ones(1), mm=np.full(1, 2.0))
        assert store.names() == ["zz", "aa", "mm"]
        npt.assert_array_equal(store.flat, [0.0, 1.0, 2.0])

    def test_copy_is_deep(self):
        store = make_store(p=np.array([1.0]))
        dup = store.copy()
        dup["p"][0] = 99.0
        npt.assert_array_equal(store["p"], [1.0])
        dup.flat += 1.0
        npt.assert_array_equal(store["p"], [1.0])
        npt.assert_array_equal(dup["p"], [100.0])

    def test_parameters_are_views_of_one_buffer(self):
        a, b = np.arange(6.0).reshape(2, 3), np.array([6.0, 7.0])
        store = make_store(a=a, b=b, s=np.array(8.0))
        npt.assert_array_equal(store.flat, np.arange(9.0))
        assert store.flat.size == 9
        assert store["a"].shape == (2, 3) and store["s"].shape == ()
        store.flat *= 2.0
        npt.assert_array_equal(store["a"], 2.0 * a)
        npt.assert_array_equal(store["b"], 2.0 * b)
        a[0, 0] = -1.0  # the store copied its input
        assert store["a"][0, 0] == 0.0


class TestBlasThreads:
    def test_importing_gradcore_sets_openblas_to_one_thread(self):
        if gc.blas_threads() is None:
            pytest.skip("no OpenBLAS loaded")
        # OpenBLAS would start on two threads here, given two cores
        src = Path(gc.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", "import safemax_lab.gradcore as g; print(g.blas_threads())"],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "2"},
            capture_output=True, text=True, check=True).stdout
        assert out == "1\n"

    def test_without_openblas_reads_none_and_fit_runs(self, monkeypatch):
        monkeypatch.setattr(gc, "_openblas", lambda: None)
        assert gc.blas_threads() is None
        assert gc.fit(2, 0.1, lambda opt: gc.blas_threads()) == [None, None]
