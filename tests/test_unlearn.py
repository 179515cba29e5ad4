import gc as collector
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemax_lab import denoiser as dn
from safemax_lab import diffusion as df
from safemax_lab import gradcore as gc
from safemax_lab import unlearn as ul
from safemax_lab.errors import DomainError, NumericError
from safemax_lab.harness import DatasetSpec, generate_toy_dataset


needs_openblas = pytest.mark.skipif(gc.blas_threads() is None, reason="no OpenBLAS loaded")


@pytest.fixture(scope="module")
def schedule():
    return df.build_schedule(50, 1e-3, 0.2)


@pytest.fixture(scope="module")
def dataset():
    return generate_toy_dataset(DatasetSpec(4, 200, "ring", 0.35, 0))


def small_model(seed=0):
    return dn.init_model(2, 4, 16, 2, 8, 50, np.random.default_rng(seed))


def forget_batch(dataset, schedule, n=16, seed=0, c=0):
    return df.sample_latent_batch(dataset, schedule, n, np.random.default_rng(seed),
                                  classes=[c])


def prediction(model, batch, labels=None):
    """The denoiser's prediction for ``batch`` on a fresh tape, as a node."""
    tape = gc.Tape()
    return dn.denoiser_forward(tape, tape.params(model.params), model.arch, batch.x_t,
                               batch.labels if labels is None else labels, batch.t)


def base_config(**overrides):
    kwargs = dict(forget_class=0, lam=1.0, steps=3, learning_rate=0.01, batch_size=8, seed=0)
    kwargs.update(overrides)
    return ul.UnlearnConfig(**kwargs)


class TestPsi:
    def test_no_decay(self):
        for t in (0, 1, 50, 100):
            assert ul.psi(t, 100, 0.0) == 1.0

    def test_step_zero(self):
        for lam in (0.0, 0.5, 10.0):
            assert ul.psi(0, 100, lam) == 1.0

    @pytest.mark.filterwarnings("error")
    def test_infinite_lambda_is_the_limit(self):
        # lambda -> inf: all weight on t = 0; exp(-inf * 0) alone would give nan
        assert ul.psi(0, 100, float("inf")) == 1.0
        assert ul.psi(np.int64(7), 100, float("inf")) == 0.0
        npt.assert_array_equal(ul.psi([0, 1], 100, float("inf")), [1.0, 0.0])
        npt.assert_array_equal(ul.psi(np.arange(0, 101), 100, float("inf")),
                               np.r_[1.0, np.zeros(100)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1e3])
    def test_finite_lambda_is_the_plain_exponential(self, lam):
        t = np.arange(0, 101)
        npt.assert_array_equal(ul.psi(t, 100, lam), np.exp(-lam * t / 100.0))
        assert ul.psi(37, 100, lam) == float(np.exp(-lam * 37 / 100.0))

    def test_terminal_value(self):
        npt.assert_allclose(ul.psi(100, 100, 1.0), np.exp(-1.0))
        npt.assert_allclose(ul.psi(100, 100, 1.0), 0.367879, atol=1e-6)

    @pytest.mark.parametrize("lam", [-0.5, float("nan")])
    def test_negative_or_nan_lambda_rejected(self, lam):
        with pytest.raises(DomainError):
            ul.psi(1, 100, lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("T", [0, -1])
    def test_horizon_below_one_rejected(self, T):
        # T = 0 would divide by zero; it fails before any arithmetic
        with pytest.raises(DomainError, match="T must be >= 1"):
            ul.psi(0, T, 1.0)

    @given(st.integers(min_value=0, max_value=99),
           st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_decreasing_in_t(self, t, lam):
        assert ul.psi(t, 100, lam) > ul.psi(t + 1, 100, lam)

    @given(st.integers(min_value=1, max_value=100),
           st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_lambda(self, t, lam):
        assert ul.psi(t, 100, lam + 0.5) < ul.psi(t, 100, lam)

    def test_heavy_decay_kills_late_steps(self):
        # lambda = 1e3: rows past T/10 carry < 1e-4 of the loss mass
        T = 100
        t = np.arange(1, T + 1)
        w = ul.psi(t, T, 1000.0)
        late = w[t > T // 10].sum()
        assert late / w.sum() < 1e-4


class TestEpsTTarget:
    def test_is_one_standard_normal_draw_of_the_latent_shape(self, dataset, schedule):
        batch = forget_batch(dataset, schedule, n=32, seed=1)
        rng, plain = np.random.default_rng(0), np.random.default_rng(0)
        npt.assert_array_equal(ul.epsT_target(batch.x_t, rng), plain.standard_normal((32, 2)))
        assert rng.random() == plain.random()  # the stream advanced by exactly that draw

    def test_independent_uncorrelated_with_batch_noise(self, dataset, schedule):
        batch = forget_batch(dataset, schedule, n=100_000, seed=2)
        out = ul.epsT_target(batch.x_t, np.random.default_rng(3))
        for j in range(2):
            r = np.corrcoef(out[:, j], batch.eps[:, j])[0, 1]
            assert abs(r) < 0.02


class TestForgetLoss:
    def test_gradient_matches_finite_differences(self, dataset, schedule):
        model = small_model(3)
        batch = forget_batch(dataset, schedule, n=8, seed=9)
        target = ul.epsT_target(batch.x_t, np.random.default_rng(11))
        weights = ul.psi(batch.t, schedule.T, 1.0)

        def loss_fn(tape, params):
            pnodes = tape.params(params)
            pred = dn.denoiser_forward(tape, pnodes, model.arch,
                                       batch.x_t, batch.labels, batch.t)
            return gc.mse_loss(pred, target, weights=weights)

        err = gc.grad_check(loss_fn, model.params, epsilon=1e-5, probes=40,
                            rng=np.random.default_rng(1))
        assert err < 1e-4


class TestSafemaxStep:
    def test_returns_finite_losses(self, dataset, schedule):
        model = small_model(5)
        record = ul.safemax_step(model, dataset, schedule, base_config(),
                                 np.random.default_rng(0), gc.SGD(0.01, momentum=0.0))
        assert np.isfinite(record.forget_loss) and np.isfinite(record.retain_loss)
        assert 0.0 < record.psi_min <= record.psi_mean <= 1.0

    def test_missing_forget_class_rejected(self, schedule):
        ds = generate_toy_dataset(DatasetSpec(4, 50, "ring", 0.35, 2))
        model = small_model(5)
        with pytest.raises(DomainError):
            ul.safemax_step(model, ds, schedule, base_config(forget_class=7),
                            np.random.default_rng(0), gc.SGD(0.01, momentum=0.0))

    @staticmethod
    def _step(method, model, dataset, schedule, cfg, seed):
        opt = gc.SGD(cfg.learning_rate, momentum=0.0)
        if method == "safemax":
            return ul.safemax_step(model, dataset, schedule, cfg, np.random.default_rng(seed), opt)
        return ul.baseline_relabel_step(model, dataset, schedule, cfg, 2,
                                        np.random.default_rng(seed), opt)

    @staticmethod
    def _batches(method, dataset, schedule, cfg, rng):
        """The step's forget (or donor) and retain batches, drawn in its rng order."""
        source = 0 if method == "safemax" else 2
        f_batch = df.sample_latent_batch(dataset, schedule, cfg.batch_size, rng,
                                         classes=[source])
        r_batch = df.sample_latent_batch(dataset, schedule, cfg.batch_size, rng,
                                         classes=[1, 2, 3])
        return f_batch, r_batch

    @staticmethod
    def _forget_loss(method, pred, f_batch, schedule, cfg, rng):
        if method == "safemax":  # psi-weighted regression onto a fresh terminal-noise draw
            weights = ul.psi(f_batch.t, schedule.T, cfg.lam)
            return gc.mse_loss(pred, ul.epsT_target(f_batch.x_t, rng), weights=weights)
        return gc.mse_loss(pred, f_batch.eps)  # donor rows regress their own noise

    @pytest.mark.parametrize("method", ["safemax", "relabel"])
    def test_update_is_one_step_on_summed_objective(self, dataset, schedule, method):
        # the update equals one plain step on forget + retain, both read from one
        # forward over the forget rows followed by the retain rows
        cfg = base_config()
        model_a = small_model(6)
        model_b = model_a.copy()
        self._step(method, model_a, dataset, schedule, cfg, 33)

        rng = np.random.default_rng(33)
        f_batch, r_batch = self._batches(method, dataset, schedule, cfg, rng)
        n_f = f_batch.size
        # forget (or donor) rows are conditioned on the forget class
        labels = np.concatenate([np.full(n_f, cfg.forget_class), r_batch.labels])
        tape = gc.Tape()
        pred = dn.denoiser_forward(tape, tape.params(model_b.params), model_b.arch,
                                   np.concatenate([f_batch.x_t, r_batch.x_t]), labels,
                                   np.concatenate([f_batch.t, r_batch.t]))
        f_loss = self._forget_loss(method, gc.rows(pred, 0, n_f), f_batch, schedule, cfg, rng)
        r_loss = gc.mse_loss(gc.rows(pred, n_f, pred.shape[0]), r_batch.eps)
        grads = gc.backward(gc.add(f_loss, r_loss))
        gc.sgd_step(model_b.params, grads, cfg.learning_rate)
        for name, value in model_a.params.items():
            npt.assert_array_equal(value, model_b.params[name])

    @pytest.mark.parametrize("method", ["safemax", "relabel"])
    def test_update_matches_two_pass_objective(self, dataset, schedule, method):
        # a separate forward and loss per batch differs from the one-pass step only by
        # the summation order of the weight gradients
        cfg = base_config(batch_size=64)
        model_a = small_model(6)
        model_b = model_a.copy()
        self._step(method, model_a, dataset, schedule, cfg, 34)

        rng = np.random.default_rng(34)
        f_batch, r_batch = self._batches(method, dataset, schedule, cfg, rng)
        tape = gc.Tape()
        pnodes = tape.params(model_b.params)
        f_pred = dn.denoiser_forward(tape, pnodes, model_b.arch, f_batch.x_t,
                                     np.full(f_batch.size, cfg.forget_class), f_batch.t)
        r_pred = dn.denoiser_forward(tape, pnodes, model_b.arch, r_batch.x_t, r_batch.labels,
                                     r_batch.t)
        f_loss = self._forget_loss(method, f_pred, f_batch, schedule, cfg, rng)
        r_loss = gc.mse_loss(r_pred, r_batch.eps)
        grads = gc.backward(gc.add(f_loss, r_loss))
        gc.sgd_step(model_b.params, grads, cfg.learning_rate)
        for name, value in model_a.params.items():
            npt.assert_allclose(value, model_b.params[name], rtol=1e-12)

    @pytest.mark.parametrize("method", ["safemax", "relabel"])
    def test_logged_losses_equal_separate_batch_losses(self, dataset, schedule, method):
        cfg = base_config(batch_size=64)
        model = small_model(10)
        record = self._step(method, model.copy(), dataset, schedule, cfg, 35)

        rng = np.random.default_rng(35)
        f_batch, r_batch = self._batches(method, dataset, schedule, cfg, rng)
        f_pred = prediction(model, f_batch, labels=np.full(f_batch.size, cfg.forget_class))
        f_loss = self._forget_loss(method, f_pred, f_batch, schedule, cfg, rng)
        r_loss = gc.mse_loss(prediction(model, r_batch), r_batch.eps)
        npt.assert_allclose(record.forget_loss, float(f_loss.value), rtol=1e-12)
        npt.assert_allclose(record.retain_loss, float(r_loss.value), rtol=1e-12)


class TestGraphLifetime:
    def test_update_graph_dies_without_the_cyclic_collector(self, dataset, schedule,
                                                            monkeypatch):
        tapes = []

        def recording_tape(*args, **kwargs):
            tape = gc.Tape(*args, **kwargs)
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(dn, "Tape", recording_tape)  # the tape of ``dn.regress``
        collector_was_on = collector.isenabled()
        collector.disable()
        try:
            ul.safemax_step(small_model(1), dataset, schedule, base_config(),
                            np.random.default_rng(0), gc.SGD(0.01, momentum=0.9))
            assert len(tapes) == 1
            assert tapes[0]() is None
        finally:
            if collector_was_on:
                collector.enable()


class TestRunUnlearning:
    def test_zero_steps_leaves_model_unchanged(self, dataset, schedule):
        model = small_model(7)
        out, log = ul.run_unlearning(model, dataset, schedule, base_config(steps=0))
        assert log.records == []
        for name, value in out.params.items():
            npt.assert_array_equal(value, model.params[name])

    def test_does_not_mutate_input_model(self, dataset, schedule):
        model = small_model(7)
        before = {name: value.copy() for name, value in model.params.items()}
        ul.run_unlearning(model, dataset, schedule, base_config(steps=3))
        for name, value in model.params.items():
            npt.assert_array_equal(value, before[name])

    def test_same_seed_identical_logs(self, dataset, schedule):
        model = small_model(8)
        _, log_a = ul.run_unlearning(model, dataset, schedule, base_config(steps=5))
        _, log_b = ul.run_unlearning(model, dataset, schedule, base_config(steps=5))
        assert log_a.records == log_b.records

    def test_log_has_one_record_per_step(self, dataset, schedule):
        model = small_model(8)
        _, log = ul.run_unlearning(model, dataset, schedule, base_config(steps=4))
        assert [r.step for r in log.records] == [0, 1, 2, 3]
        rows = log.csv_rows()
        assert rows[0] == "step,forget_loss,retain_loss,psi_mean,psi_min"
        assert len(rows) == 5


class TestRelabelBaseline:
    def test_target_equal_to_forget_rejected(self, dataset, schedule):
        model = small_model(9)
        with pytest.raises(DomainError):
            ul.baseline_relabel_step(model, dataset, schedule, base_config(),
                                     target_class=0, rng=np.random.default_rng(0),
                                     optimizer=gc.SGD(0.01, momentum=0.0))

    def test_loss_non_negative(self, dataset, schedule):
        model = small_model(9)
        record = ul.baseline_relabel_step(model, dataset, schedule, base_config(),
                                          target_class=1, rng=np.random.default_rng(0),
                                          optimizer=gc.SGD(0.01, momentum=0.0))
        assert record.forget_loss >= 0.0
        assert record.retain_loss >= 0.0

    def test_logged_weights_are_exactly_one(self, dataset, schedule):
        # donor rows are unweighted: the decay columns read 1.0 on every step
        _, log = ul.run_relabel_unlearning(small_model(9), dataset, schedule,
                                           base_config(steps=3), target_class=2)
        assert [(r.psi_mean, r.psi_min) for r in log.records] == [(1.0, 1.0)] * 3
        assert all(row.endswith(",1.0,1.0") for row in log.csv_rows()[1:])

    def test_run_is_deterministic(self, dataset, schedule):
        model = small_model(9)
        _, log_a = ul.run_relabel_unlearning(model, dataset, schedule,
                                             base_config(steps=4), target_class=2)
        _, log_b = ul.run_relabel_unlearning(model, dataset, schedule,
                                             base_config(steps=4), target_class=2)
        assert log_a.records == log_b.records


class TestUnlearnConfig:
    @pytest.mark.parametrize("lam", [-1.0, float("nan")])
    def test_negative_or_nan_lambda_rejected(self, lam):
        with pytest.raises(DomainError):
            base_config(lam=lam)

    @pytest.mark.parametrize("rate", [0.0, float("nan")])
    def test_non_positive_or_nan_learning_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            base_config(learning_rate=rate)

    @pytest.mark.parametrize("rate", [float("inf"), float("-inf")])
    def test_infinite_learning_rate_rejected(self, rate):
        with pytest.raises(DomainError, match="finite"):
            base_config(learning_rate=rate)

    def test_infinite_lambda_accepted_with_zero_weights(self):
        assert base_config(lam=float("inf")).lam == float("inf")
        weights = ul.psi(np.arange(1, 51), 50, float("inf"))
        npt.assert_array_equal(weights, np.zeros(50))

    def test_zero_batch_rejected(self):
        with pytest.raises(DomainError):
            base_config(batch_size=0)

    @pytest.mark.parametrize("field, value", [("steps", -1), ("batch_size", 0),
                                              ("learning_rate", 0.0), ("seed", -1)])
    def test_is_a_train_config_with_its_checks(self, field, value):
        # the four shared fields are TrainConfig's, checked once with one message
        assert issubclass(ul.UnlearnConfig, dn.TrainConfig)
        assert isinstance(base_config(), dn.TrainConfig)
        shared = {**dict(steps=3, batch_size=8, learning_rate=0.01, seed=0), field: value}
        with pytest.raises(DomainError) as train_exc:
            dn.TrainConfig(**shared)
        with pytest.raises(DomainError) as unlearn_exc:
            ul.UnlearnConfig(forget_class=0, lam=1.0, **shared)
        assert str(unlearn_exc.value) == str(train_exc.value)


class TestBlasPin:
    @needs_openblas
    @pytest.mark.parametrize("runner, step_name", [
        (ul.run_unlearning, "safemax_step"),
        (lambda m, d, s, c: ul.run_relabel_unlearning(m, d, s, c, target_class=1),
         "baseline_relabel_step"),
    ], ids=["safemax", "relabel"])
    def test_steps_run_on_one_blas_thread_and_restore_the_count(self, dataset, schedule,
                                                               monkeypatch, runner,
                                                               step_name):
        seen = []
        step = getattr(ul, step_name)

        def probe(*args):
            seen.append(gc.blas_threads())
            if len(seen) == 5:
                raise NumericError("stop here")
            return step(*args)

        monkeypatch.setattr(ul, step_name, probe)
        before = gc.blas_threads()
        runner(small_model(4), dataset, schedule, base_config(steps=3))
        assert seen == [1, 1, 1]
        assert gc.blas_threads() == before
        with pytest.raises(NumericError, match="at step 1"):
            runner(small_model(4), dataset, schedule, base_config(steps=3))
        assert gc.blas_threads() == before

    @needs_openblas
    @pytest.mark.parametrize("method", list(ul.METHODS))
    def test_pinned_logs_bit_identical_to_default_threads(self, dataset, schedule,
                                                          monkeypatch, method):
        # the default width and batches, whose products OpenBLAS would split across threads
        model = dn.init_model(2, 4, 128, 3, 16, schedule.T, np.random.default_rng(0))
        config = base_config(steps=60, batch_size=64)

        def unlearn():
            out, log = ul.METHODS[method](model, dataset, schedule, config)
            return out.params.flat.tobytes(), log.csv_rows()

        pinned = unlearn()
        monkeypatch.setattr(gc, "_openblas", lambda: None)
        assert unlearn() == pinned
