import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemax_lab import evaluation as ev
from safemax_lab import gradcore as gc
from safemax_lab.diffusion import LabeledDataset
from safemax_lab.errors import DomainError, EvaluatorQualityError, NumericError
from safemax_lab.harness import DatasetSpec, generate_toy_dataset


needs_openblas = pytest.mark.skipif(gc.blas_threads() is None, reason="no OpenBLAS loaded")


@pytest.fixture(scope="module")
def dataset():
    return generate_toy_dataset(DatasetSpec(4, 400, "ring", 0.35, 0))


@pytest.fixture(scope="module")
def classifier(dataset):
    return ev.train_classifier(dataset, hidden_width=32, steps=1200, lr=0.05, seed=3)


class TestTrainClassifier:
    def test_deterministic(self, dataset):
        a = ev.train_classifier(dataset, 16, 300, 0.05, seed=5)
        b = ev.train_classifier(dataset, 16, 300, 0.05, seed=5)
        for name, value in a.params.items():
            npt.assert_array_equal(value, b.params[name])

    def test_separable_blobs_reach_full_accuracy(self):
        ds = generate_toy_dataset(DatasetSpec(2, 300, "ring", 0.2, 1))
        clf = ev.train_classifier(ds, 16, 500, 0.05, seed=0)
        acc = np.mean(ev.classify(clf, ds.points) == ds.labels)
        assert acc == 1.0

    def test_probability_rows_sum_to_one(self, classifier, dataset):
        probs = ev.predict_proba(classifier, dataset.points[:100])
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)

    @needs_openblas
    def test_steps_run_on_one_blas_thread_and_the_gate_on_the_default(self, dataset,
                                                                      monkeypatch):
        seen = []
        logits = ev._classifier_logits

        def probe(tape, pnodes, x):
            seen.append((tape.grad, gc.blas_threads()))
            if len(seen) == 6:
                raise NumericError("stop here")
            return logits(tape, pnodes, x)

        monkeypatch.setattr(ev, "_classifier_logits", probe)
        before = gc.blas_threads()
        with pytest.raises(EvaluatorQualityError):  # three steps cannot pass the gate
            ev.train_classifier(dataset, 16, 3, 1e-5, seed=5)
        assert seen == [(True, 1)] * 3 + [(False, before)]
        assert gc.blas_threads() == before
        with pytest.raises(NumericError):
            ev.train_classifier(dataset, 16, 3, 1e-5, seed=5)
        assert gc.blas_threads() == before

    @pytest.mark.parametrize("steps, seed, match", [(1, -1, "seed"), (-1, 0, "steps")])
    def test_negative_seed_or_steps_rejected(self, dataset, steps, seed, match):
        # a negative step count used to train nothing and then fail the gate
        with pytest.raises(DomainError, match=f"{match} must be >= 0, got -1"):
            ev.train_classifier(dataset, 8, steps, 0.1, seed)

    def test_gate_with_negative_seed_rejected(self, classifier, dataset):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            ev.gate_classifier(classifier, dataset, -1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_overflowing_loss_names_its_step(self):
        ring = generate_toy_dataset(DatasetSpec(2, 50, "ring", 0.2, 1))
        ds = LabeledDataset(points=ring.points * 1e300, labels=ring.labels, K=2)  # logits overflow
        with pytest.raises(NumericError, match=r"non-finite classifier loss \(at step \d+\)$"):
            ev.train_classifier(ds, 8, 3, 0.05, seed=0)

    def test_gate_failure_raises(self):
        # one training step cannot reach the accuracy gate
        ds = generate_toy_dataset(DatasetSpec(4, 100, "ring", 0.35, 2))
        with pytest.raises(EvaluatorQualityError):
            ev.train_classifier(ds, 4, 1, 1e-5, seed=0)

    def test_classifier_gradients(self, dataset):
        # probe at random init, where the loss surface has healthy gradients
        clf = ev.init_classifier(dataset.d, dataset.K, 16, np.random.default_rng(12))
        points = dataset.points[:32]
        labels = dataset.labels[:32]

        def loss_fn(tape, params):
            return ev.classifier_loss_node(tape, ev.Classifier(params=params, arch=clf.arch),
                                           points, labels)

        err = gc.grad_check(loss_fn, clf.params, epsilon=1e-5, probes=40,
                            rng=np.random.default_rng(2))
        assert err < 1e-4


class TestUnlearningAccuracy:
    def test_none_classified_as_forget(self, classifier):
        # points deep inside class 2's cluster, scored against forget class 0
        pts = np.tile([-4.0, 0.0], (50, 1))
        assert ev.unlearning_accuracy(classifier, pts, 0) == 100.0

    def test_all_classified_as_forget(self, classifier):
        pts = np.tile([4.0, 0.0], (50, 1))
        assert ev.unlearning_accuracy(classifier, pts, 0) == 0.0

    def test_seventy_percent(self, classifier):
        pts = np.vstack([np.tile([4.0, 0.0], (3, 1)), np.tile([0.0, 4.0], (7, 1))])
        npt.assert_allclose(ev.unlearning_accuracy(classifier, pts, 0), 70.0)

    def test_empty_rejected(self, classifier):
        with pytest.raises(DomainError):
            ev.unlearning_accuracy(classifier, np.zeros((0, 2)), 0)

    def test_complements_accuracy_exactly(self, classifier, dataset):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((100, 2)) * 3.0
        ua = ev.unlearning_accuracy(classifier, pts, 1)
        acc_percent = 100.0 * np.mean(ev.classify(classifier, pts) == 1)
        assert ua + acc_percent == 100.0


class TestPredictionEntropy:
    def test_one_hot_is_zero(self):
        # saturated inputs give an effectively one-hot prediction
        ds = generate_toy_dataset(DatasetSpec(2, 200, "ring", 0.1, 3))
        clf = ev.train_classifier(ds, 16, 800, 0.1, seed=1)
        pts = np.tile([400.0, 0.0], (10, 1))
        assert ev.prediction_entropy(clf, pts) < 1e-12

    def test_bounded_by_log_k(self, classifier):
        rng = np.random.default_rng(4)
        for scale in (0.1, 1.0, 10.0):
            pts = scale * rng.standard_normal((200, 2))
            h = ev.prediction_entropy(classifier, pts)
            assert 0.0 <= h <= np.log(4) + 1e-12

    def test_uniform_reference_values(self):
        # direct check of the entropy formula the metric relies on
        p10 = np.full(10, 0.1)
        npt.assert_allclose(-np.sum(p10 * np.log(p10)), 2.302585, atol=1e-6)
        p2 = np.array([0.5, 0.5])
        npt.assert_allclose(-np.sum(p2 * np.log(p2)), 0.693147, atol=1e-6)


class TestFrechetDistance:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((500, 2))
        assert ev.frechet_distance(a, a.copy()) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((400, 2))
        b = rng.standard_normal((400, 2)) @ np.array([[1.5, 0.2], [0.0, 0.7]]) + 1.0
        npt.assert_allclose(ev.frechet_distance(a, b), ev.frechet_distance(b, a),
                            atol=1e-9)

    def test_equal_covariance_mean_shift(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((2000, 2))
        v = np.array([2.0, -1.0])
        got = ev.frechet_distance(base, base + v)
        npt.assert_allclose(got, float(v @ v), atol=1e-9)

    def test_one_dimensional_closed_form(self):
        rng = np.random.default_rng(8)
        a = 1.0 + 0.5 * rng.standard_normal((5000, 1))
        b = -0.5 + 2.0 * rng.standard_normal((5000, 1))
        mu_a, sd_a = a.mean(), a.std(ddof=1)
        mu_b, sd_b = b.mean(), b.std(ddof=1)
        expected = (mu_a - mu_b) ** 2 + (sd_a - sd_b) ** 2
        npt.assert_allclose(ev.frechet_distance(a, b), expected, rtol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            ev.frechet_distance(np.zeros((2, 2)), np.zeros((10, 2)))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_non_negative_on_random_gaussians(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((200, 2)) * rng.uniform(0.5, 2.0) + rng.normal(size=2)
        b = rng.standard_normal((200, 2)) * rng.uniform(0.5, 2.0) + rng.normal(size=2)
        assert ev.frechet_distance(a, b) >= 0.0


class TestFanoBound:
    def test_unit_entropy_gives_zero(self):
        assert ev.fano_bound(1.0, 16).pe_lower_bound == 0.0

    def test_saturating_entropy_gives_one(self):
        card = 16
        bound = ev.fano_bound(1.0 + np.log(card), card)
        npt.assert_allclose(bound.pe_lower_bound, 1.0, atol=1e-12)

    def test_arithmetic_case(self):
        npt.assert_allclose(ev.fano_bound(2.0, 16).pe_lower_bound, 1.0 / np.log(16),
                            atol=1e-9)
        npt.assert_allclose(ev.fano_bound(2.0, 16).pe_lower_bound, 0.3607, atol=1e-4)

    def test_cardinality_below_two_rejected(self):
        with pytest.raises(DomainError):
            ev.fano_bound(1.0, 1)

    @given(st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=2.0),
           st.integers(min_value=2, max_value=1000))
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_entropy_and_cardinality(self, h, dh, card):
        base = ev.fano_bound(h, card).pe_lower_bound
        assert ev.fano_bound(h + dh, card).pe_lower_bound >= base
        assert ev.fano_bound(h, card + 1).pe_lower_bound <= base
        assert 0.0 <= base <= 1.0


class TestReferenceEntropies:
    def test_uniform_minus_one_one(self):
        npt.assert_allclose(ev.differential_entropy_uniform(-1.0, 1.0), np.log(2.0),
                            atol=1e-12)
        npt.assert_allclose(ev.differential_entropy_uniform(-1.0, 1.0), 0.6931, atol=1e-4)

    def test_standard_gaussian(self):
        npt.assert_allclose(ev.differential_entropy_gaussian(1.0), 1.4189, atol=1e-4)

    def test_unit_uniform_is_zero(self):
        assert ev.differential_entropy_uniform(0.0, 1.0) == 0.0

    def test_invalid_ranges(self):
        with pytest.raises(DomainError):
            ev.differential_entropy_uniform(1.0, 1.0)
        with pytest.raises(DomainError):
            ev.differential_entropy_gaussian(0.0)


class TestEntropyLinkage:
    def test_noise_confuses_more_than_real_data(self, classifier, dataset):
        assert ev.entropy_linkage_holds(classifier, dataset, 0,
                                        np.random.default_rng(0))
