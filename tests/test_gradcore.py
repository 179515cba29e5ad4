import numpy as np
import numpy.testing as npt
import pytest

from safemax_lab import gradcore as gc
from safemax_lab.errors import ContractError, DimensionError, DomainError, NumericError


def make_store(**arrays) -> gc.ParamStore:
    store = gc.ParamStore()
    for name, value in arrays.items():
        store.add(name, value)
    return store


class TestMatmul:
    def test_identity(self):
        m = np.array([[2.0, -1.0], [0.5, 3.0]])
        tape = gc.Tape()
        out = gc.matmul(tape.constant(np.eye(2)), tape.constant(m))
        npt.assert_array_equal(out.value, m)

    def test_hand_product(self):
        tape = gc.Tape()
        a = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        b = tape.constant([[1.0], [1.0]])
        npt.assert_array_equal(gc.matmul(a, b).value, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        tape = gc.Tape()
        a = tape.constant(np.zeros((2, 3)))
        b = tape.constant(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            gc.matmul(a, b)

    def test_backward_accumulates_to_both(self):
        store = make_store(a=np.array([[1.0, 2.0]]), b=np.array([[3.0], [4.0]]))
        tape = gc.Tape()
        p = tape.params(store)
        loss = gc.total(gc.matmul(p["a"], p["b"]))
        grads = gc.backward(loss)
        npt.assert_allclose(grads["a"], [[3.0, 4.0]])
        npt.assert_allclose(grads["b"], [[1.0], [2.0]])


class TestElementwise:
    def test_add_zeros_is_identity(self):
        tape = gc.Tape()
        x = np.array([[1.0, -2.0], [0.0, 5.0]])
        out = gc.add(tape.constant(x), tape.constant(np.zeros_like(x)))
        npt.assert_array_equal(out.value, x)

    def test_add_rejects_general_broadcast(self):
        tape = gc.Tape()
        with pytest.raises(DimensionError):
            gc.add(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 1))))

    def test_add_row_bias(self):
        tape = gc.Tape()
        out = gc.add(tape.constant(np.zeros((2, 3))), tape.constant([1.0, 2.0, 3.0]))
        npt.assert_array_equal(out.value, [[1, 2, 3], [1, 2, 3]])

    def test_relu_definition(self):
        tape = gc.Tape()
        out = gc.activation(tape.constant([-1.0, 2.0]), "relu")
        npt.assert_array_equal(out.value, [0.0, 2.0])

    def test_unknown_kind(self):
        tape = gc.Tape()
        with pytest.raises(DomainError):
            gc.activation(tape.constant([0.0]), "gelu")

    def test_silu_derivative_at_zero(self):
        # finite difference with h=1e-6 around 0 gives 0.5
        store = make_store(x=np.array([0.0]))

        def loss_fn(tape, params):
            return gc.total(gc.activation(tape.params(params)["x"], "silu"))

        tape = gc.Tape()
        grads = gc.backward(loss_fn(tape, store))
        h = 1e-6
        fd = (np.log(1 + np.exp(h)) * 0 + (h / (1 + np.exp(-h)) - (-h / (1 + np.exp(h)))) / (2 * h))
        npt.assert_allclose(grads["x"], [0.5], atol=1e-12)
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

    @staticmethod
    def _assert_same_bits(actual, expected):
        nan = np.isnan(expected)
        npt.assert_array_equal(np.isnan(actual), nan)
        npt.assert_array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))

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
        store = make_store(x=x)
        with np.errstate(invalid="ignore", over="ignore"):
            out = gc.activation(gc.Tape().params(store)["x"], "silu")
            grads = gc.backward(gc.total(out))
            value, slope = self._silu_reference(x)
        self._assert_same_bits(out.value, value)
        self._assert_same_bits(grads["x"], slope)
        assert np.isnan(out.value[np.isnan(x)]).all()

    def test_scale(self):
        store = make_store(x=np.array([2.0, -3.0]))
        tape = gc.Tape()
        loss = gc.total(gc.scale(tape.params(store)["x"], -1.5))
        npt.assert_allclose(loss.value, 1.5)
        npt.assert_allclose(gc.backward(loss)["x"], [-1.5, -1.5])


class TestAccumulate:
    """A node's grad may be handed on as-is; later sums must not write into it."""

    def test_add_of_a_node_with_itself(self):
        store = make_store(x=np.array([[1.0, -2.0], [3.0, 0.5]]))
        node = gc.Tape().params(store)["x"]
        doubled = gc.add(node, node)
        grads = gc.backward(gc.total(doubled))
        npt.assert_array_equal(grads["x"], np.full((2, 2), 2.0))
        npt.assert_array_equal(doubled.grad, np.ones((2, 2)))

    def test_concat_of_a_node_with_itself(self):
        x = np.array([[1.0, -2.0], [3.0, 0.5]])
        node = gc.Tape().params(make_store(x=x))["x"]
        joined = gc.concat_cols([node, node])
        grads = gc.backward(gc.total(gc.square(joined)))
        npt.assert_array_equal(grads["x"], 4.0 * x)
        npt.assert_array_equal(joined.grad, 2.0 * np.concatenate([x, x], axis=1))


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


class TestBackward:
    def test_sum_gives_ones(self):
        store = make_store(p=np.array([1.0, 2.0, 3.0]))

        tape = gc.Tape()
        loss = gc.total(tape.params(store)["p"])
        grads = gc.backward(loss)
        npt.assert_array_equal(grads["p"], np.ones(3))

    def test_squared_norm(self):
        store = make_store(p=np.array([3.0]))
        tape = gc.Tape()
        p = tape.params(store)["p"]
        loss = gc.total(gc.square(p))
        npt.assert_allclose(gc.backward(loss)["p"], [6.0])

    def test_unreachable_param_gets_zeros(self):
        store = make_store(used=np.array([1.0]), unused=np.array([[1.0, 2.0]]))
        tape = gc.Tape()
        p = tape.params(store)
        grads = gc.backward(gc.total(p["used"]))
        npt.assert_array_equal(grads["unused"], np.zeros((1, 2)))

    def test_non_scalar_loss_rejected(self):
        tape = gc.Tape()
        node = tape.constant([1.0, 2.0])
        with pytest.raises(ContractError):
            gc.backward(node)

    def test_linearity_of_sum(self):
        # gradient of (loss1 + loss2) equals the sum of separate gradients
        rng = np.random.default_rng(7)
        store = make_store(w=rng.standard_normal((3, 2)))
        x = rng.standard_normal((4, 3))
        t1 = rng.standard_normal((4, 2))
        t2 = rng.standard_normal((4, 2))

        def loss1(tape, p):
            return gc.mse_loss(gc.matmul(tape.constant(x), p["w"]), t1)

        def loss2(tape, p):
            return gc.mse_loss(gc.activation(gc.matmul(tape.constant(x), p["w"]), "silu"), t2)

        tape = gc.Tape()
        p = tape.params(store)
        g_sum = gc.backward(gc.add(loss1(tape, p), loss2(tape, p)))

        tape1 = gc.Tape()
        g1 = gc.backward(loss1(tape1, tape1.params(store)))
        tape2 = gc.Tape()
        g2 = gc.backward(loss2(tape2, tape2.params(store)))
        npt.assert_allclose(g_sum["w"], g1["w"] + g2["w"], atol=1e-12)

    def test_deterministic_replay(self):
        rng = np.random.default_rng(3)
        store = make_store(w=rng.standard_normal((5, 5)))
        x = rng.standard_normal((2, 5))

        def run():
            tape = gc.Tape()
            p = tape.params(store)
            h = gc.activation(gc.matmul(tape.constant(x), p["w"]), "silu")
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
    kind = ("relu", "silu")[int(rng.integers(2))]
    fan_in = d_in + n_embed
    store = make_store(
        w1=rng.standard_normal((fan_in, d_hid)) / np.sqrt(fan_in),
        b1=0.1 * rng.standard_normal(d_hid),
        w2=rng.standard_normal((d_hid, d_out)) / np.sqrt(d_hid),
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
        h = gc.activation(gc.add(gc.matmul(h, p["w1"]), p["b1"]), kind)
        out = gc.matmul(h, p["w2"])
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
            return gc.total(gc.square(tape.params(params)["p"]))

        assert gc.grad_check(loss_fn, store, epsilon=1e-4, probes=12) < 1e-6

    def test_constant_loss_zero_error(self):
        store = make_store(p=np.array([1.0, 2.0]))

        def loss_fn(tape, params):
            tape.params(params)
            return gc.total(tape.constant([0.0]))

        assert gc.grad_check(loss_fn, store, probes=4) == 0.0

    def test_epsilon_domain(self):
        store = make_store(p=np.array([1.0]))
        with pytest.raises(DomainError):
            gc.grad_check(lambda t, p: gc.total(t.params(p)["p"]), store, epsilon=1e-2)

    def test_non_finite_loss_raises(self):
        store = make_store(p=np.array([0.0]))

        def loss_fn(tape, params):
            node = tape.params(params)["p"]
            bad = gc.scale(node, 1.0)
            bad.value = np.asarray(np.nan)
            return bad

        with pytest.raises(NumericError):
            gc.grad_check(loss_fn, store, probes=2)


class TestSgd:
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

    def test_momentum_accumulates(self):
        store = make_store(p=np.array([0.0]))
        opt = gc.SGD(learning_rate=1.0, momentum=0.5)
        opt.step(store, {"p": np.array([1.0])})   # v=1, p=-1
        opt.step(store, {"p": np.array([1.0])})   # v=1.5, p=-2.5
        npt.assert_allclose(store["p"], [-2.5])

    def test_zero_momentum_matches_plain(self):
        a = make_store(p=np.array([1.0, 2.0]))
        b = make_store(p=np.array([1.0, 2.0]))
        g = {"p": np.array([0.3, -0.1])}
        gc.SGD(learning_rate=0.2, momentum=0.0).step(a, g)
        gc.sgd_step(b, g, 0.2)
        npt.assert_array_equal(a["p"], b["p"])


class TestParamStore:
    def test_names_are_unique(self):
        store = make_store(a=np.zeros(1))
        with pytest.raises(ContractError):
            store.add("a", np.zeros(2))

    def test_order_is_insertion_order(self):
        store = gc.ParamStore()
        for name in ("zz", "aa", "mm"):
            store.add(name, np.zeros(1))
        assert store.names() == ["zz", "aa", "mm"]

    def test_copy_is_deep(self):
        store = make_store(p=np.array([1.0]))
        dup = store.copy()
        dup["p"][0] = 99.0
        npt.assert_array_equal(store["p"], [1.0])
