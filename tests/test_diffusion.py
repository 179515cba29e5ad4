from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import numpy.testing as npt
import pytest

from safemax_lab import diffusion as df
from safemax_lab.errors import DegenerateSampleError, DimensionError, DomainError
from safemax_lab.evaluation import frechet_distance
from safemax_lab.harness.datasets import DatasetSpec, generate_toy_dataset


@pytest.fixture(scope="module")
def toy_dataset():
    return generate_toy_dataset(DatasetSpec(4, 500, "ring", 0.35, 0))


class TestNoiseSchedule:
    def test_constant_beta_products(self):
        sched = df.NoiseSchedule(3, 0.5, 0.5)
        npt.assert_allclose(sched.alpha_bar, [0.5, 0.25, 0.125])

    def test_single_step(self):
        sched = df.NoiseSchedule(1, 0.5, 0.5)
        npt.assert_allclose(sched.alpha_bar, [0.5])

    def test_zero_beta_min_rejected(self):
        with pytest.raises(DomainError):
            df.NoiseSchedule(10, 0.0, 0.5)

    @pytest.mark.parametrize("T", [0, True, 10.0, 10_001], ids=["zero", "bool", "float", "long"])
    def test_bad_horizon_rejected(self, T):
        # a bool used to build a one-step schedule, and a horizon of 10**9 24 GB of tables
        with pytest.raises(DomainError, match=r"t must be integer in \[1, 10001\)"):
            df.NoiseSchedule(T, 0.1, 0.2)

    def test_alpha_bar_strictly_decreasing_and_matches_product(self):
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        npt.assert_allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta), rtol=1e-12)
        assert sched.alpha_bar[0] == sched.alpha[0]

    def test_default_range_at_thousand_steps_is_near_pure_noise(self):
        sched = df.NoiseSchedule(1000, 1e-4, 0.02)
        assert sched.alpha_bar[-1] < 1e-3

    def test_desk_default_is_near_pure_noise(self):
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        assert sched.alpha_bar[-1] < 1e-3

    @pytest.mark.parametrize("t, beta_min, beta_max", [(100, 1e-4, 0.2), (20, 1e-3, 0.2),
                                                       (3, 0.5, 0.5)])
    def test_tables_are_read_only_linspace_and_cumprod_bits(self, t, beta_min, beta_max):
        sched = df.NoiseSchedule(t, beta_min, beta_max)
        beta = np.linspace(beta_min, beta_max, t)
        for table, expected in ((sched.beta, beta), (sched.alpha, 1.0 - beta),
                                (sched.alpha_bar, np.cumprod(1.0 - beta))):
            assert table.tobytes() == expected.tobytes()
            with pytest.raises(ValueError):
                table[0] = 0.5

    def test_fields_are_the_three_header_values(self):
        sched = df.NoiseSchedule(t=np.int64(20), beta_min=1e-3, beta_max=0.2)
        assert asdict(sched) == {"t": 20, "beta_min": 1e-3, "beta_max": 0.2}
        assert sched == df.NoiseSchedule(20, 1e-3, 0.2)
        assert hash(sched) == hash(df.NoiseSchedule(20, 1e-3, 0.2))
        longer = replace(sched, t=30)
        assert (longer.t, longer.beta.size, longer.alpha_bar.size) == (30, 30, 30)
        with pytest.raises(FrozenInstanceError):
            sched.t = 30

    @pytest.mark.parametrize("t", [[10], np.array([10])], ids=["list", "array"])
    def test_list_horizon_rejected(self, t):
        with pytest.raises(DomainError, match="t must be a single integer"):
            df.NoiseSchedule(t, 0.1, 0.2)

    @pytest.mark.parametrize("beta_min, beta_max, name", [
        (np.array([0.1, 0.2]), 0.3, "beta_min"), (0.1, [0.2], "beta_max"),
        (float("nan"), 0.2, "beta_min"), (0.3, 0.2, "beta_max"), (0.1, 1.0, "beta_max")],
        ids=["array", "list", "nan", "below_beta_min", "one"])
    def test_bad_beta_bound_rejected_naming_it(self, beta_min, beta_max, name):
        # an array used to raise a bare ValueError from the comparison
        with pytest.raises(DomainError, match=f"{name}: expected a real number"):
            df.NoiseSchedule(10, beta_min, beta_max)

    def test_numpy_float_bounds_build_the_widened_floats_tables(self):
        # float32 bounds used to build float32 tables
        sched = df.NoiseSchedule(20, np.float32(1e-3), np.float32(0.2))
        plain = df.NoiseSchedule(20, float(np.float32(1e-3)), float(np.float32(0.2)))
        for name in ("beta", "alpha", "alpha_bar"):
            table = getattr(sched, name)
            assert table.dtype == np.float64
            assert table.tobytes() == getattr(plain, name).tobytes()


class TestLabeledDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        points = np.zeros((4, 2))
        points[1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            df.LabeledDataset(points=points, labels=[0, 0, 1, 1], K=2)

    @pytest.mark.parametrize("K", [0, 1, 2.0, True])
    def test_fewer_than_two_classes_or_non_integer_count_rejected(self, K):
        with pytest.raises(DomainError, match="K must be integer >= 2"):
            df.LabeledDataset(points=np.zeros((4, 2)), labels=[0, 0, 1, 1], K=K)

    def test_list_class_count_rejected(self):
        with pytest.raises(DomainError, match=r"K must be a single integer, got \[2\]"):
            df.LabeledDataset(points=np.zeros((4, 2)), labels=[0, 0, 1, 1], K=[2])

    @pytest.mark.parametrize("labels", [[0.5, 0.7, 1.2, 1.9], [0.0, 0.0, 1.0, 1.0],
                                        [False, False, True, True]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(DomainError, match="integer"):
            df.LabeledDataset(points=np.zeros((4, 2)), labels=labels, K=2)


class TestForwardSample:
    def setup_method(self):
        self.sched = df.NoiseSchedule(10, 0.1, 0.3)

    def test_zero_noise(self):
        x0 = np.array([[1.0, -2.0], [3.0, 0.5]])
        out = df._forward_sample_rows(x0, np.array([3, 7]), self.sched, np.zeros((2, 2)))
        npt.assert_allclose(out, np.sqrt(self.sched.alpha_bar[[2, 6]])[:, None] * x0)

    def test_zero_signal(self):
        eps = np.array([[0.5, 0.5]])
        out = df._forward_sample_rows(np.zeros((1, 2)), np.array([5]), self.sched, eps)
        npt.assert_allclose(out, np.sqrt(1 - self.sched.alpha_bar[4]) * eps)

    def test_quarter_alpha_bar_arithmetic(self):
        # abar = 0.25 -> 0.5 * x0 + sqrt(0.75) * eps
        sched = df.NoiseSchedule(2, 0.5, 0.5)
        out = df._forward_sample_rows(np.array([[2.0]]), np.array([2]), sched, np.array([[1.0]]))
        npt.assert_allclose(out, [[0.5 * 2.0 + np.sqrt(0.75)]], atol=1e-12)
        npt.assert_allclose(out, [[1.8660]], atol=1e-4)


class TestSampleLatentBatch:
    def test_moment_statistics(self, toy_dataset):
        # uniform steps and standard-normal noise at n = 1e5
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        rng = np.random.default_rng(123)
        n = 100_000
        batch = df.sample_latent_batch(toy_dataset, sched, n, rng)
        t_mean_expected = (sched.t + 1) / 2
        t_se = np.sqrt((sched.t ** 2 - 1) / 12 / n)
        assert abs(batch.t.mean() - t_mean_expected) < 3 * t_se
        eps_mean = batch.eps.mean(axis=0)
        assert np.all(np.abs(eps_mean) < 0.02)

    def test_single_row_batch(self, toy_dataset):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        batch = df.sample_latent_batch(toy_dataset, sched, 1, np.random.default_rng(0))
        assert batch.x_t.shape == (1, 2)
        assert len(batch.t) == 1

    def test_class_restriction(self, toy_dataset):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        batch = df.sample_latent_batch(toy_dataset, sched, 64, np.random.default_rng(0),
                                       classes=[1, 3])
        assert set(np.unique(batch.labels)) <= {1, 3}

    @staticmethod
    def _per_row_reference(dataset, schedule, batch_size, rng, classes=None):
        """The draw with one scalar row draw per row, over all rows or, with
        ``classes``, class first and then a row within it; then steps, then noise."""
        rows = np.empty(batch_size, dtype=np.int64)
        if classes is None:
            for i in range(batch_size):
                rows[i] = rng.integers(0, dataset.n)
        else:
            pools = [np.nonzero(dataset.labels == c)[0] for c in classes]
            picks = rng.integers(0, len(pools), size=batch_size)
            for i, p in enumerate(picks):
                rows[i] = pools[p][rng.integers(0, pools[p].size)]
        t = rng.integers(1, schedule.t + 1, size=batch_size)
        eps = rng.standard_normal((batch_size, dataset.d))
        abar = schedule.alpha_bar[t - 1][:, None]
        x0 = dataset.points[rows]
        return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps, dataset.labels[rows]

    @pytest.mark.parametrize("batch_size", [1, 64, 129])
    @pytest.mark.parametrize("classes", [[0], [1, 2, 3], [2, 0]])
    @pytest.mark.parametrize("uneven", [False, True])
    def test_class_restricted_stream_matches_per_row_draws(self, toy_dataset, classes,
                                                           batch_size, uneven):
        dataset = toy_dataset
        if uneven:
            counts = [3, 7, 2, 11]
            labels = np.repeat(np.arange(4), counts)
            points = np.random.default_rng(1).standard_normal((len(labels), 2))
            dataset = df.LabeledDataset(points=points, labels=labels, K=4)
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        batch = df.sample_latent_batch(dataset, sched, batch_size, rng, classes=classes)
        x_t, labels = self._per_row_reference(dataset, sched, batch_size, ref_rng, classes)
        assert batch.x_t.tobytes() == x_t.tobytes()
        assert batch.labels.tobytes() == labels.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("batch_size", [1, 129])
    def test_unrestricted_stream_matches_per_row_draws(self, toy_dataset, batch_size):
        sched = df.NoiseSchedule(50, 1e-3, 0.3)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        batch = df.sample_latent_batch(toy_dataset, sched, batch_size, rng)
        x_t, labels = self._per_row_reference(toy_dataset, sched, batch_size, ref_rng)
        assert batch.x_t.tobytes() == x_t.tobytes()
        assert batch.labels.tobytes() == labels.tobytes()
        assert rng.random() == ref_rng.random()

    def test_empty_class_rejected(self, toy_dataset):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        with pytest.raises(DomainError):
            df.sample_latent_batch(toy_dataset, sched, 8, np.random.default_rng(0),
                                   classes=[1, 9])

    @pytest.mark.parametrize("classes", [[1.5], [True], np.array([2.9])],
                             ids=["float", "bool", "float_array"])
    def test_bad_class_ids_rejected_before_any_draw(self, toy_dataset, classes):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            df.sample_latent_batch(toy_dataset, sched, 8, rng, classes=classes)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("c", [-1, 9, 1.0, True])
    def test_class_indices_rejects_bad_class_id(self, toy_dataset, c):
        with pytest.raises(DomainError):
            toy_dataset.class_indices(c)

    def test_class_indices_are_read_only_ascending_rows(self, toy_dataset):
        idx = toy_dataset.class_indices(2)
        npt.assert_array_equal(idx, np.nonzero(toy_dataset.labels == 2)[0])
        with pytest.raises(ValueError):
            idx[0] = 0

    def test_no_classes_rejected(self, toy_dataset):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        with pytest.raises(DomainError):
            df.sample_latent_batch(toy_dataset, sched, 8, np.random.default_rng(0), classes=[])

    @pytest.mark.parametrize("batch_size", [0, 2.5, True], ids=["zero", "float", "bool"])
    def test_bad_batch_size_rejected_before_any_draw(self, toy_dataset, batch_size):
        # a float used to reach numpy's draw as a bare TypeError
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="batch_size must be integer >= 1"):
            df.sample_latent_batch(toy_dataset, sched, batch_size, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_list_batch_size_rejected_before_any_draw(self, toy_dataset):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match=r"batch_size must be a single integer, got \[4\]"):
            df.sample_latent_batch(toy_dataset, df.NoiseSchedule(10, 0.1, 0.2), [4], rng)
        assert rng.random() == np.random.default_rng(0).random()


class TestForwardMoments:
    def test_mean_and_variance_match_closed_form(self):
        # three fixed (x0, t) pairs, n = 1e5 draws each
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        rng = np.random.default_rng(40)
        n = 100_000
        x0 = np.array([1.5, -2.0])
        for t in (1, 50, 100):
            abar = sched.alpha_bar[t - 1]
            eps = rng.standard_normal((n, 2))
            x_t = np.sqrt(abar) * x0 + np.sqrt(1 - abar) * eps
            mean_se = np.sqrt((1 - abar) / n)
            assert np.all(np.abs(x_t.mean(axis=0) - np.sqrt(abar) * x0) < 3 * mean_se)
            var = x_t.var(axis=0, ddof=1)
            var_se = (1 - abar) * np.sqrt(2.0 / (n - 1))
            assert np.all(np.abs(var - (1 - abar)) < 3 * var_se)


def _zero_eps(x_t, t):
    return np.zeros_like(x_t)


# Null margin of a Frechet distance: two independent n-row draws of N(m, v I_d) read
# 3.6 d v / n on average and at most 16.6 d v / n over 2,000 pairs at n = 5,000, d = 2.
FD_MARGIN = 20.0


class TestAncestralSample:
    def test_zero_predictor_stays_finite(self):
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        out = df.ancestral_sample(_zero_eps, 2, sched, 50, np.random.default_rng(0))
        assert out.shape == (50, 2)
        assert np.all(np.isfinite(out))

    def test_empty_request(self):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        rng = np.random.default_rng(0)
        out = df.ancestral_sample(_zero_eps, 2, sched, 0, rng)
        assert out.shape == (0, 2)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("n", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_bad_sample_count_rejected_before_any_draw(self, n):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="n must be integer >= 0"):
            df.ancestral_sample(_zero_eps, 2, sched, n, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_list_count_rejected_before_any_draw(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match=r"^n must be a single integer, got \[5\]"):
            df.ancestral_sample(_zero_eps, 2, df.NoiseSchedule(10, 0.1, 0.2), [5], rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_predictor_sees_every_step_once_in_reverse_on_the_current_latents(self):
        sched = df.NoiseSchedule(10, 0.1, 0.2)
        seen = []

        def recording(x_t, t):
            seen.append((t, x_t.copy()))
            return np.zeros_like(x_t)

        out = df.ancestral_sample(recording, 3, sched, 4, np.random.default_rng(0))
        assert [t for t, _ in seen] == list(range(10, 0, -1))
        assert seen[0][1].tobytes() == np.random.default_rng(0).standard_normal((4, 3)).tobytes()
        assert out.tobytes() == (seen[-1][1] / np.sqrt(sched.alpha[0])).tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_halting_predictor_keeps_the_chain_at_standard_normal(self, seed):
        """eps_hat = sqrt(1 - abar_t) x_t makes each step x <- sqrt(a_t) x + sqrt(beta_t) z,
        which maps N(0, I) to itself; the last, noise-free step leaves N(0, a_1 I)."""
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        n, d = 5000, 2
        out = df.ancestral_sample(lambda x_t, t: np.sqrt(1.0 - sched.alpha_bar[t - 1]) * x_t,
                                  d, sched, n, np.random.default_rng(seed))
        fresh = np.random.default_rng(100 + seed).standard_normal((n, d))
        assert frechet_distance(out, fresh) < FD_MARGIN * d / n
        assert np.all(np.abs(out.std(axis=0, ddof=1) - 1.0) < 4 * np.sqrt(1 / (2 * (n - 1))))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_class_denoiser_samples_its_class(self, seed):
        """For x_0 ~ N(mu, s^2 I), E[eps | x_t] = sqrt(1 - abar) (x_t - sqrt(abar) mu) /
        (abar s^2 + 1 - abar). The chain is then affine in its noise, so its output is exactly
        N(m, v I), with m and v pushed through each step below; sigma_t^2 = beta_t leaves v
        a little above s^2."""
        sched = df.NoiseSchedule(100, 1e-4, 0.2)
        n, d, mu, s = 5000, 2, np.array([4.0, 0.0]), 0.35

        def gain(t):  # eps_hat = gain(t) * (x_t - sqrt(abar_t) mu)
            abar = sched.alpha_bar[t - 1]
            return np.sqrt(1.0 - abar) / (abar * s * s + 1.0 - abar)

        m, v = np.zeros(d), 1.0
        for t in range(sched.t, 0, -1):
            a, abar = sched.alpha[t - 1], sched.alpha_bar[t - 1]
            shrink = (1.0 - a) / np.sqrt(1.0 - abar) * gain(t)
            m = ((1.0 - shrink) * m + shrink * np.sqrt(abar) * mu) / np.sqrt(a)
            v = (1.0 - shrink) ** 2 * v / a + (sched.beta[t - 1] if t > 1 else 0.0)
        assert np.all(np.abs(m - mu) < 1e-3) and s < np.sqrt(v) < 1.05 * s

        out = df.ancestral_sample(
            lambda x_t, t: gain(t) * (x_t - np.sqrt(sched.alpha_bar[t - 1]) * mu),
            d, sched, n, np.random.default_rng(seed))
        fresh = m + np.sqrt(v) * np.random.default_rng(100 + seed).standard_normal((n, d))
        assert frechet_distance(out, fresh) < FD_MARGIN * d * v / n
        std_se = np.sqrt(v / (2 * (n - 1)))
        assert np.all(np.abs(out.std(axis=0, ddof=1) - np.sqrt(v)) < 4 * std_se)


class TestLatentEntropyEstimate:
    def test_standard_normal_reference_value(self):
        # differential entropy of N(0, 1) is about 1.4189 nats
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((100_000, 1))
        est = df.latent_entropy_estimate(samples)
        assert abs(est - 1.4189) < 0.05

    def test_scaling_law_adds_d_log_two(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((5000, 3))
        base = df.latent_entropy_estimate(samples)
        scaled = df.latent_entropy_estimate(2.0 * samples)
        npt.assert_allclose(scaled - base, 3 * np.log(2.0), atol=1e-9)

    def test_identical_samples_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            df.latent_entropy_estimate(np.ones((10, 2)))

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            df.latent_entropy_estimate(np.zeros((2, 2)))


class TestInterclassDistance:
    def test_coincident_means(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((100, 2))
        groups = [base + 0.0, base * 1.0, base]
        assert df.interclass_distance(groups) == 0.0

    def test_three_four_five(self):
        a = np.zeros((10, 2))
        b = np.tile([3.0, 4.0], (10, 1))
        npt.assert_allclose(df.interclass_distance([a, b]), 5.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        groups = [rng.standard_normal((50, 2)) + mu for mu in ([0, 0], [2, 1], [-1, 3])]
        d0 = df.interclass_distance(groups)
        shifted = [g + np.array([10.0, -7.0]) for g in groups]
        npt.assert_allclose(df.interclass_distance(shifted), d0, atol=1e-12)

    def test_requires_two_classes(self):
        with pytest.raises(DomainError):
            df.interclass_distance([np.zeros((5, 2))])


@pytest.fixture(scope="module")
def trajectory():
    sched = df.NoiseSchedule(100, 1e-4, 0.2)
    ds = generate_toy_dataset(DatasetSpec(4, 1000, "ring", 0.35, 0))
    rng = np.random.default_rng(9)
    checkpoints = [1, 25, 50, 75, 100]
    n = 50_000
    per_class_entropy = {c: [] for c in range(4)}
    distances = []
    for t in checkpoints:
        latents = []
        for c in range(4):
            x0 = ds.points[ds.class_indices(c)]
            rows = x0[rng.integers(0, len(x0), size=n)]
            eps = rng.standard_normal((n, 2))
            x_t = df._forward_sample_rows(rows, np.full(n, t), sched, eps)
            latents.append(x_t)
            per_class_entropy[c].append(df.latent_entropy_estimate(x_t))
        distances.append(df.interclass_distance(latents))
    return per_class_entropy, distances


class TestLatentTrajectories:
    """Forward-diffusion diagnostics across checkpoints t in {1, T/4, T/2, 3T/4, T}."""

    def test_entropy_non_decreasing(self, trajectory):
        per_class_entropy, _ = trajectory
        for c, series in per_class_entropy.items():
            diffs = np.diff(series)
            assert np.all(diffs > -0.02), f"class {c} entropy series {series}"

    def test_interclass_distance_non_increasing_and_collapsing(self, trajectory):
        _, distances = trajectory
        tol = 0.05 * distances[0]
        assert np.all(np.diff(distances) < tol), distances
        assert distances[-1] < 0.2 * distances[0], distances
