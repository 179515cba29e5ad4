import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemax_lab import denoiser as dn
from safemax_lab import diffusion as df
from safemax_lab import gradcore as gc
from safemax_lab import unlearn as ul
from safemax_lab.errors import ContractError, DomainError
from safemax_lab.harness import generate_toy_dataset


@pytest.fixture(scope="module")
def schedule():
    return df.build_schedule(50, 1e-3, 0.2)


@pytest.fixture(scope="module")
def dataset():
    return generate_toy_dataset(4, 200, "ring", 0.35, seed=0)


def small_model(seed=0):
    return dn.init_model(2, 4, 16, 2, 8, 50, np.random.default_rng(seed))


def forget_batch(dataset, schedule, n=16, seed=0, c=0):
    return df.sample_latent_batch(dataset, schedule, n, np.random.default_rng(seed),
                                  classes=[c])


def base_config(**overrides):
    kwargs = dict(forget_class=0, lam=1.0, steps=3, learning_rate_forget=0.01,
                  learning_rate_retain=0.01, batch_size_forget=8, batch_size_retain=8,
                  epsT_mode="independent", seed=0)
    kwargs.update(overrides)
    return ul.UnlearnConfig(**kwargs)


class TestPsi:
    def test_no_decay(self):
        for t in (0, 1, 50, 100):
            assert ul.psi(t, 100, 0.0) == 1.0

    def test_step_zero(self):
        for lam in (0.0, 0.5, 10.0):
            assert ul.psi(0, 100, lam) == 1.0

    def test_terminal_value(self):
        npt.assert_allclose(ul.psi(100, 100, 1.0), np.exp(-1.0))
        npt.assert_allclose(ul.psi(100, 100, 1.0), 0.367879, atol=1e-6)

    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            ul.psi(1, 100, -0.5)

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
    def test_trajectory_at_terminal_step_recovers_eps(self, dataset, schedule):
        batch = forget_batch(dataset, schedule, n=32, seed=1)
        batch.t[:] = schedule.T
        abar_T = schedule.alpha_bar[-1]
        batch.x_t[:] = (np.sqrt(abar_T) * batch.x0
                        + np.sqrt(1 - abar_T) * batch.eps)
        out = ul.epsT_target(batch.x0, batch.x_t, batch.t, schedule, "trajectory",
                             np.random.default_rng(0))
        npt.assert_allclose(out, batch.eps, atol=1e-12)

    def test_independent_uncorrelated_with_batch_noise(self, dataset, schedule):
        batch = forget_batch(dataset, schedule, n=100_000, seed=2)
        out = ul.epsT_target(batch.x0, batch.x_t, batch.t, schedule, "independent",
                             np.random.default_rng(3))
        for j in range(2):
            r = np.corrcoef(out[:, j], batch.eps[:, j])[0, 1]
            assert abs(r) < 0.02

    def test_trajectory_output_is_standard_normal(self, dataset, schedule):
        batch = forget_batch(dataset, schedule, n=100_000, seed=4)
        out = ul.epsT_target(batch.x0, batch.x_t, batch.t, schedule, "trajectory",
                             np.random.default_rng(5))
        var = out.var(axis=0, ddof=1)
        se = np.sqrt(2.0 / (len(out) - 1))
        assert np.all(np.abs(var - 1.0) < 4 * se)
        assert np.all(np.abs(out.mean(axis=0)) < 0.02)

    def test_unknown_mode(self, dataset, schedule):
        batch = forget_batch(dataset, schedule)
        with pytest.raises(DomainError):
            ul.epsT_target(batch.x0, batch.x_t, batch.t, schedule, "exact",
                           np.random.default_rng(0))


class TestForgetLoss:
    def test_no_decay_reduces_to_plain_mse(self, dataset, schedule):
        model = small_model()
        batch = forget_batch(dataset, schedule, n=8, seed=7)
        loss_a, _ = ul.forget_loss(model, batch, schedule, 0.0, "independent",
                                   np.random.default_rng(42))
        target = ul.epsT_target(batch.x0, batch.x_t, batch.t, schedule, "independent",
                                np.random.default_rng(42))
        tape = gc.Tape()
        pnodes = tape.params(model.params)
        pred = dn.denoiser_forward(tape, pnodes, model.arch, batch.x_t, batch.labels, batch.t)
        loss_b = gc.mse_loss(pred, target)
        npt.assert_allclose(float(loss_a.value), float(loss_b.value), rtol=1e-12)

    def test_mixed_labels_rejected(self, dataset, schedule):
        model = small_model()
        batch = df.sample_latent_batch(dataset, schedule, 16, np.random.default_rng(1))
        assert len(np.unique(batch.labels)) > 1
        with pytest.raises(ContractError):
            ul.forget_loss(model, batch, schedule, 1.0, "independent",
                           np.random.default_rng(0))

    def test_gradient_matches_finite_differences(self, dataset, schedule):
        model = small_model(3)
        batch = forget_batch(dataset, schedule, n=8, seed=9)
        target = ul.epsT_target(batch.x0, batch.x_t, batch.t, schedule, "independent",
                                np.random.default_rng(11))
        weights = ul.psi(batch.t, schedule.T, 1.0)

        def loss_fn(tape, params):
            pnodes = tape.params(params)
            pred = dn.denoiser_forward(tape, pnodes, model.arch,
                                       batch.x_t, batch.labels, batch.t)
            return gc.mse_loss(pred, target, weights=weights)

        err = gc.grad_check(loss_fn, model.params, epsilon=1e-5, probes=40,
                            rng=np.random.default_rng(1))
        assert err < 1e-4


class TestRetainLoss:
    def test_matches_train_step_loss_formula(self, dataset, schedule):
        model = small_model(4)
        batch = df.sample_latent_batch(dataset, schedule, 16, np.random.default_rng(2),
                                       classes=[1, 2, 3])
        loss = ul.retain_loss(model, batch)
        tape = gc.Tape()
        pnodes = tape.params(model.params)
        pred = dn.denoiser_forward(tape, pnodes, model.arch, batch.x_t, batch.labels, batch.t)
        ref = gc.mse_loss(pred, batch.eps)
        npt.assert_allclose(float(loss.value), float(ref.value), rtol=1e-12)
        assert float(loss.value) >= 0.0

    def test_forget_rows_rejected(self, dataset, schedule):
        model = small_model(4)
        batch = forget_batch(dataset, schedule, c=0)
        with pytest.raises(ContractError):
            ul.retain_loss(model, batch, forget_class=0)


class TestSafemaxStep:
    def test_returns_finite_losses(self, dataset, schedule):
        model = small_model(5)
        record = ul.safemax_step(model, dataset, schedule, base_config(),
                                 np.random.default_rng(0), gc.SGD(0.01, momentum=0.0))
        assert np.isfinite(record.forget_loss) and np.isfinite(record.retain_loss)
        assert 0.0 < record.psi_min <= record.psi_mean <= 1.0

    def test_missing_forget_class_rejected(self, schedule):
        ds = generate_toy_dataset(4, 50, "ring", 0.35, seed=2)
        model = small_model(5)
        with pytest.raises(DomainError):
            ul.safemax_step(model, ds, schedule, base_config(forget_class=7),
                            np.random.default_rng(0), gc.SGD(0.01, momentum=0.0))

    @pytest.mark.parametrize("retain_rate", [0.01, 0.02], ids=["equal", "retain2x"])
    @pytest.mark.parametrize("method", ["safemax", "relabel"])
    def test_update_is_one_step_on_summed_objective(self, dataset, schedule, method,
                                                    retain_rate):
        # the update equals one plain step on forget + (lr_retain / lr_forget) * retain
        cfg = base_config(learning_rate_retain=retain_rate)
        model_a = small_model(6)
        model_b = model_a.copy()
        opt = gc.SGD(cfg.learning_rate_forget, momentum=0.0)
        if method == "safemax":
            ul.safemax_step(model_a, dataset, schedule, cfg, np.random.default_rng(33), opt)
        else:
            ul.baseline_relabel_step(model_a, dataset, schedule, cfg, 2,
                                     np.random.default_rng(33), opt)

        rng = np.random.default_rng(33)
        retained = [1, 2, 3]
        source = 0 if method == "safemax" else 2
        f_batch = df.sample_latent_batch(dataset, schedule, cfg.batch_size_forget, rng,
                                         classes=[source])
        r_batch = df.sample_latent_batch(dataset, schedule, cfg.batch_size_retain, rng,
                                         classes=retained)
        tape = gc.Tape()
        pnodes = tape.params(model_b.params)
        if method == "safemax":
            f_loss, _ = ul.forget_loss(model_b, f_batch, schedule, cfg.lam, cfg.epsT_mode, rng,
                                       tape=tape, pnodes=pnodes)
        else:
            # donor rows from the target class, conditioned on the forget class
            labels = np.full(f_batch.size, cfg.forget_class)
            pred = dn.denoiser_forward(tape, pnodes, model_b.arch, f_batch.x_t, labels, f_batch.t)
            f_loss = gc.mse_loss(pred, f_batch.eps)
        r_loss = ul.retain_loss(model_b, r_batch, tape=tape, pnodes=pnodes)
        if retain_rate == cfg.learning_rate_forget:
            objective = gc.add(f_loss, r_loss)
        else:
            objective = gc.add(f_loss, gc.scale(r_loss, 2.0))
        grads = gc.backward(objective)
        gc.sgd_step(model_b.params, grads, cfg.learning_rate_forget)
        for name, value in model_a.params.items():
            npt.assert_array_equal(value, model_b.params[name])


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

    def test_run_is_deterministic(self, dataset, schedule):
        model = small_model(9)
        _, log_a = ul.run_relabel_unlearning(model, dataset, schedule,
                                             base_config(steps=4), target_class=2)
        _, log_b = ul.run_relabel_unlearning(model, dataset, schedule,
                                             base_config(steps=4), target_class=2)
        assert log_a.records == log_b.records


class TestUnlearnConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(DomainError):
            base_config(lam=-1.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            base_config(epsT_mode="fresh")

    def test_zero_batch_rejected(self):
        with pytest.raises(DomainError):
            base_config(batch_size_forget=0)
