import numpy as np
import numpy.testing as npt
import pytest

from safemax_lab import diffusion as df
from safemax_lab.errors import DegenerateSampleError, DimensionError, DomainError
from safemax_lab.harness import DatasetSpec, generate_toy_dataset


@pytest.fixture(scope="module")
def toy_dataset():
    return generate_toy_dataset(DatasetSpec(4, 500, "ring", 0.35, 0))


class TestBuildSchedule:
    def test_constant_beta_products(self):
        sched = df.build_schedule(3, 0.5, 0.5)
        npt.assert_allclose(sched.alpha_bar, [0.5, 0.25, 0.125])

    def test_single_step(self):
        sched = df.build_schedule(1, 0.5, 0.5)
        npt.assert_allclose(sched.alpha_bar, [0.5])

    def test_zero_beta_min_rejected(self):
        with pytest.raises(DomainError):
            df.build_schedule(10, 0.0, 0.5)

    def test_alpha_bar_strictly_decreasing_and_matches_product(self):
        sched = df.build_schedule(100, 1e-4, 0.2)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        npt.assert_allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta), rtol=1e-12)
        assert sched.alpha_bar[0] == sched.alpha[0]

    def test_default_range_at_thousand_steps_is_near_pure_noise(self):
        sched = df.build_schedule(1000, 1e-4, 0.02)
        assert sched.alpha_bar[-1] < 1e-3

    def test_desk_default_is_near_pure_noise(self):
        sched = df.build_schedule(100, 1e-4, 0.2)
        assert sched.alpha_bar[-1] < 1e-3


class TestLabeledDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        points = np.zeros((4, 2))
        points[1, 0] = bad
        with pytest.raises(DomainError, match="finite"):
            df.LabeledDataset(points=points, labels=[0, 0, 1, 1], K=2)

    @pytest.mark.parametrize("K", [0, 1])
    def test_fewer_than_two_classes_rejected(self, K):
        with pytest.raises(DomainError, match="K must be >= 2"):
            df.LabeledDataset(points=np.zeros((2 * K, 2)), labels=np.zeros(2 * K, np.int64), K=K)

    @pytest.mark.parametrize("labels", [[0.5, 0.7, 1.2, 1.9], [0.0, 0.0, 1.0, 1.0],
                                        [False, False, True, True]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(DomainError, match="integer"):
            df.LabeledDataset(points=np.zeros((4, 2)), labels=labels, K=2)


class TestForwardSample:
    def setup_method(self):
        self.sched = df.build_schedule(10, 0.1, 0.3)

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
        sched = df.build_schedule(2, 0.5, 0.5)
        out = df._forward_sample_rows(np.array([[2.0]]), np.array([2]), sched, np.array([[1.0]]))
        npt.assert_allclose(out, [[0.5 * 2.0 + np.sqrt(0.75)]], atol=1e-12)
        npt.assert_allclose(out, [[1.8660]], atol=1e-4)


class TestSampleLatentBatch:
    def test_moment_statistics(self, toy_dataset):
        # uniform steps and standard-normal noise at n = 1e5
        sched = df.build_schedule(100, 1e-4, 0.2)
        rng = np.random.default_rng(123)
        n = 100_000
        batch = df.sample_latent_batch(toy_dataset, sched, n, rng)
        t_mean_expected = (sched.T + 1) / 2
        t_se = np.sqrt((sched.T ** 2 - 1) / 12 / n)
        assert abs(batch.t.mean() - t_mean_expected) < 3 * t_se
        eps_mean = batch.eps.mean(axis=0)
        assert np.all(np.abs(eps_mean) < 0.02)

    def test_single_row_batch(self, toy_dataset):
        sched = df.build_schedule(10, 0.1, 0.2)
        batch = df.sample_latent_batch(toy_dataset, sched, 1, np.random.default_rng(0))
        assert batch.x_t.shape == (1, 2)
        assert batch.size == 1

    def test_class_restriction(self, toy_dataset):
        sched = df.build_schedule(10, 0.1, 0.2)
        batch = df.sample_latent_batch(toy_dataset, sched, 64, np.random.default_rng(0),
                                       classes=[1, 3])
        assert set(np.unique(batch.labels)) <= {1, 3}

    @staticmethod
    def _per_row_reference(dataset, schedule, batch_size, rng, classes):
        """Class-restricted draw with one scalar row draw per row."""
        pools = [dataset.class_indices(int(c)) for c in classes]
        picks = rng.integers(0, len(pools), size=batch_size)
        rows = np.empty(batch_size, dtype=np.int64)
        for i, p in enumerate(picks):
            rows[i] = pools[p][rng.integers(0, pools[p].size)]
        t = rng.integers(1, schedule.T + 1, size=batch_size)
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
        sched = df.build_schedule(10, 0.1, 0.2)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        batch = df.sample_latent_batch(dataset, sched, batch_size, rng, classes=classes)
        x_t, labels = self._per_row_reference(dataset, sched, batch_size, ref_rng, classes)
        assert batch.x_t.tobytes() == x_t.tobytes()
        assert batch.labels.tobytes() == labels.tobytes()
        assert rng.random() == ref_rng.random()

    def test_empty_class_rejected(self, toy_dataset):
        sched = df.build_schedule(10, 0.1, 0.2)
        with pytest.raises(DomainError):
            df.sample_latent_batch(toy_dataset, sched, 8, np.random.default_rng(0),
                                   classes=[1, 9])

    def test_no_classes_rejected(self, toy_dataset):
        sched = df.build_schedule(10, 0.1, 0.2)
        with pytest.raises(DomainError):
            df.sample_latent_batch(toy_dataset, sched, 8, np.random.default_rng(0), classes=[])

    def test_batch_size_zero_rejected(self, toy_dataset):
        sched = df.build_schedule(10, 0.1, 0.2)
        with pytest.raises(DomainError):
            df.sample_latent_batch(toy_dataset, sched, 0, np.random.default_rng(0))

    def test_forward_consistency(self, toy_dataset):
        # x_t must equal the affine recombination of its own x0 and eps
        sched = df.build_schedule(50, 1e-3, 0.3)
        batch = df.sample_latent_batch(toy_dataset, sched, 128, np.random.default_rng(5))
        abar = sched.alpha_bar[batch.t - 1][:, None]
        npt.assert_allclose(batch.x_t, np.sqrt(abar) * batch.x0
                            + np.sqrt(1 - abar) * batch.eps, atol=1e-12)


class TestForwardMoments:
    def test_mean_and_variance_match_closed_form(self):
        # three fixed (x0, t) pairs, n = 1e5 draws each
        sched = df.build_schedule(100, 1e-4, 0.2)
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


class _ZeroModel:
    """Stub noise predictor returning zeros; shaped like DenoiserModel."""

    class arch:
        d = 2
        K = 4


class TestAncestralSample:
    def test_zero_stub_model_stays_finite(self, monkeypatch):
        import safemax_lab.denoiser as dn
        monkeypatch.setattr(dn, "predict_eps",
                            lambda model, x, labels, t, tape: np.zeros_like(x))
        sched = df.build_schedule(100, 1e-4, 0.2)
        out = df.ancestral_sample(_ZeroModel(), 0, sched, 50, np.random.default_rng(0))
        assert out.shape == (50, 2)
        assert np.all(np.isfinite(out))

    def test_empty_request(self, monkeypatch):
        import safemax_lab.denoiser as dn
        monkeypatch.setattr(dn, "predict_eps",
                            lambda model, x, labels, t, tape: np.zeros_like(x))
        sched = df.build_schedule(10, 0.1, 0.2)
        out = df.ancestral_sample(_ZeroModel(), 1, sched, 0, np.random.default_rng(0))
        assert out.shape == (0, 2)

    def test_class_out_of_range(self):
        sched = df.build_schedule(10, 0.1, 0.2)
        with pytest.raises(DomainError):
            df.ancestral_sample(_ZeroModel(), 4, sched, 1, np.random.default_rng(0))

    @staticmethod
    def _reference_chain(model, c, schedule, n, rng):
        """The reverse chain with a fresh gradient-free tape for every forward pass."""
        from safemax_lab import denoiser as dn
        from safemax_lab import gradcore as gc

        x = rng.standard_normal((n, model.arch.d))
        labels = np.full(n, c, dtype=np.int64)
        for t in range(schedule.T, 0, -1):
            eps_hat = dn.predict_eps(model, x, labels, np.full(n, t, dtype=np.int64),
                                     gc.Tape(grad=False))
            a_t = schedule.alpha[t - 1]
            abar_t = schedule.alpha_bar[t - 1]
            x = (x - ((1.0 - a_t) / np.sqrt(1.0 - abar_t)) * eps_hat) / np.sqrt(a_t)
            if t > 1:
                x = x + np.sqrt(schedule.beta[t - 1]) * rng.standard_normal(x.shape)
        return x

    @pytest.mark.parametrize("n", [500, 7])
    def test_one_tape_per_chain_matches_the_reference_chain(self, monkeypatch, n):
        import safemax_lab.denoiser as dn

        model = dn.init_model(2, 4, 32, 2, 8, 20, np.random.default_rng(n))
        sched = df.build_schedule(20, 1e-3, 0.2)
        expected = [self._reference_chain(model, c, sched, n, np.random.default_rng(c))
                    for c in (0, 3)]
        tapes = []
        predict_eps = dn.predict_eps

        def recording(model, x, labels, t, tape):
            tapes.append(tape)
            return predict_eps(model, x, labels, t, tape)

        monkeypatch.setattr(dn, "predict_eps", recording)
        for c, reference in zip((0, 3), expected):
            got = df.ancestral_sample(model, c, sched, n, np.random.default_rng(c))
            assert got.tobytes() == reference.tobytes()
        chains = [tapes[:sched.T], tapes[sched.T:]]
        assert all(tape is chain[0] and not tape.grad for chain in chains for tape in chain)
        assert chains[0][0] is not chains[1][0]


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
    sched = df.build_schedule(100, 1e-4, 0.2)
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
