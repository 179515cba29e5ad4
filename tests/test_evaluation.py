import os
import re
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemax_lab import evaluation as ev
from safemax_lab import gradcore as gc
from safemax_lab.denoiser import class_predictor, init_model
from safemax_lab.diffusion import (LabeledDataset, NoiseSchedule, ancestral_sample,
                                   interclass_distance, latent_entropy_estimate)
from safemax_lab.errors import DimensionError, DomainError, EvaluatorQualityError, NumericError
from safemax_lab.harness.datasets import DatasetSpec, generate_toy_dataset
from safemax_lab.harness.plots import render_scatter


needs_openblas = pytest.mark.skipif(gc.blas_threads() is None, reason="no OpenBLAS loaded")


def class_chain(model, c, schedule, n, rng):
    """``n`` ancestral samples of class ``c`` through the model's class predictor."""
    return ancestral_sample(class_predictor(model, c), model.arch.d, schedule, n, rng)


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
    def test_steps_and_the_gate_run_with_blas_on_one_thread(self, dataset, monkeypatch):
        seen = []
        logits = ev._classifier_logits

        def probe(tape, pnodes, x):
            seen.append((tape.grad, gc.blas_threads()))
            if len(seen) == 6:
                raise NumericError("stop here")
            return logits(tape, pnodes, x)

        monkeypatch.setattr(ev, "_classifier_logits", probe)
        with pytest.raises(EvaluatorQualityError):  # three steps cannot pass the gate
            ev.train_classifier(dataset, 16, 3, 1e-5, seed=5)
        assert seen == [(True, 1)] * 3 + [(False, 1)]
        with pytest.raises(NumericError):
            ev.train_classifier(dataset, 16, 3, 1e-5, seed=5)

    @needs_openblas
    def test_pinned_gate_and_scores_bit_identical_to_default_threads(self, dataset,
                                                                    on_two_blas_threads):
        # the default classifier width over the gate's rows, the linkage check's 2,000 noise
        # rows and 500 samples a class: products OpenBLAS would split across threads
        clf = ev.init_classifier(2, 4, 64, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((2000, 2))
        samples = {c: rng.standard_normal((500, 2)) + c for c in range(4)}

        def products():
            report = ev.score_samples(clf, samples, dataset, 0)
            return (ev.predict_proba(clf, dataset.points).tobytes(),
                    ev.predict_proba(clf, noise).tobytes(), report.ua_percent,
                    report.mean_entropy_nats, report.frechet_per_class)

        assert products() == on_two_blas_threads(products)

    @pytest.mark.parametrize("steps, seed, match", [(1, -1, "seed"), (-1, 0, "steps")])
    def test_negative_seed_or_steps_rejected(self, dataset, steps, seed, match):
        # a negative step count used to train nothing and then fail the gate
        with pytest.raises(DomainError, match=f"{match} must be integer >= 0, got -1"):
            ev.train_classifier(dataset, 8, steps, 0.1, seed)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_integer_seed_rejected(self, dataset, seed):
        with pytest.raises(DomainError, match="seed must be integer >= 0"):
            ev.train_classifier(dataset, 8, 1, 0.1, seed)

    def test_list_seed_rejected(self, dataset):
        with pytest.raises(DomainError, match=r"seed must be a single integer, got \[3\]"):
            ev.train_classifier(dataset, 8, 1, 0.1, [3])

    def test_arch_holds_python_ints(self):
        # a checkpoint header records the arch as JSON integers
        clf = ev.init_classifier(np.int64(2), np.int32(4), np.int64(8), np.random.default_rng(0))
        assert [type(v) for v in vars(clf.arch).values()] == [int] * 3

    def test_draws_the_reference_layout_bit_for_bit(self):
        d, K, width = 2, 4, 64
        clf = ev.init_classifier(d, K, width, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        ref = {"layer0_w": rng.standard_normal((d, width)) / np.sqrt(d),
               "layer0_b": np.zeros(width),
               "layer1_w": rng.standard_normal((width, width)) / np.sqrt(width),
               "layer1_b": np.zeros(width),
               "head_w": rng.standard_normal((width, K)) / np.sqrt(width),
               "head_b": np.zeros(K)}
        assert clf.params.names() == list(ref)
        for name, value in ref.items():
            assert clf.params[name].tobytes() == value.tobytes(), name

    def test_gate_with_negative_seed_rejected(self, classifier, dataset):
        with pytest.raises(DomainError, match="seed must be integer >= 0"):
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

    @pytest.mark.parametrize("c_f", [7, -1, 1.0, True],
                             ids=["past_end", "negative", "float", "bool"])
    def test_bad_forget_class_rejected(self, classifier, dataset, c_f):
        # 7 and -1 used to score a perfect 100.0; 1.0 and True were scored as class 1
        pts = np.tile([4.0, 0.0], (50, 1))
        with pytest.raises(DomainError, match="forget class"):
            ev.unlearning_accuracy(classifier, pts, c_f)
        with pytest.raises(DomainError, match="forget class"):
            ev.score_samples(classifier, dict.fromkeys(range(dataset.K), pts), dataset, c_f)

    @pytest.mark.parametrize("c_f", [[0], np.array([0])], ids=["list", "array"])
    def test_list_forget_class_rejected(self, classifier, dataset, c_f):
        # score_samples used to fail on it as a bare TypeError (an unhashable dict key)
        pts = np.tile([4.0, 0.0], (50, 1))
        with pytest.raises(DomainError, match="forget class must be a single integer"):
            ev.unlearning_accuracy(classifier, pts, c_f)
        with pytest.raises(DomainError, match="forget class must be a single integer"):
            ev.score_samples(classifier, dict.fromkeys(range(dataset.K), pts), dataset, c_f)

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


# Every function that scores, fits or plots a point set: (id, argument named in the error,
# call with ``x`` in that argument's place, whether its width is fixed, least rows).
GOOD = np.random.default_rng(0).standard_normal((6, 2))
POINT_SET_SITES = [
    ("LabeledDataset", "points",
     lambda clf, x, out: LabeledDataset(points=x, labels=[0, 0, 0, 1, 1, 1], K=2), False, 1),
    ("predict_proba", "samples", lambda clf, x, out: ev.predict_proba(clf, x), True, 0),
    ("classify", "samples", lambda clf, x, out: ev.classify(clf, x), True, 0),
    ("unlearning_accuracy", "samples",
     lambda clf, x, out: ev.unlearning_accuracy(clf, x, 0), True, 1),
    ("prediction_entropy", "samples", lambda clf, x, out: ev.prediction_entropy(clf, x), True, 1),
    ("frechet_distance_a", "samples_a", lambda clf, x, out: ev.frechet_distance(x, GOOD), False, 3),
    ("frechet_distance_b", "samples_b", lambda clf, x, out: ev.frechet_distance(GOOD, x), True, 3),
    ("latent_entropy_estimate", "samples", lambda clf, x, out: latent_entropy_estimate(x), False, 3),
    ("interclass_distance", "latents_by_class[1]",
     lambda clf, x, out: interclass_distance([GOOD, x]), True, 1),
    ("render_scatter", "samples_by_class[0]",
     lambda clf, x, out: render_scatter({0: x}, out / "points.svg"), True, 0),
]
BAD_POINTS = [  # (id, the bad value from a site's least row count, error)
    ("nan", lambda rows: np.full((6, 2), np.nan), DomainError),
    ("inf", lambda rows: np.where(np.eye(6, 2) > 0, np.inf, GOOD), DomainError),
    ("minus_inf", lambda rows: np.where(np.eye(6, 2) > 0, -np.inf, GOOD), DomainError),
    ("bool", lambda rows: GOOD > 0.0, DomainError),
    ("str", lambda rows: GOOD.astype(str), DomainError),
    ("ragged", lambda rows: GOOD.tolist()[:5] + [[0.5]], DomainError),
    ("rank_1", lambda rows: GOOD.ravel(), DimensionError),
    ("rank_3", lambda rows: GOOD[:, :, None], DimensionError),
    ("wrong_width", lambda rows: np.hstack([GOOD, GOOD[:, :1]]), DimensionError),
    ("too_few_rows", lambda rows: GOOD[:rows - 1], DomainError),
]


@pytest.fixture(scope="module")
def untrained_classifier():
    return ev.init_classifier(2, 4, 8, np.random.default_rng(0))


class TestPointSet:
    @pytest.mark.parametrize("call", [pytest.param(call, id=site)
                                      for site, _, call, _, _ in POINT_SET_SITES])
    def test_valid_points_accepted(self, untrained_classifier, tmp_path, call):
        call(untrained_classifier, GOOD, tmp_path)

    @pytest.mark.parametrize("what, call, bad, error", [
        pytest.param(what, call, make(rows), error, id=f"{site}-{case}")
        for site, what, call, fixed_width, rows in POINT_SET_SITES
        for case, make, error in BAD_POINTS
        if (case != "wrong_width" or fixed_width) and (case != "too_few_rows" or rows > 0)])
    def test_bad_points_raise_the_rule_naming_the_argument(self, untrained_classifier, tmp_path,
                                                           what, call, bad, error):
        # NaN samples used to score 0.0 nats and UA 0 or 100 (classify put every NaN row in
        # class 0), and a fit nan; a bool array scored as 0/1; a str, ragged or mismatched
        # width reached numpy as a bare ValueError
        with pytest.raises(error, match="^" + re.escape(what) + " "):
            call(untrained_classifier, bad, tmp_path)
        assert not (tmp_path / "points.svg").exists()


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

    @pytest.mark.parametrize("card", [1, 16.0, True], ids=["one", "float", "bool"])
    def test_cardinality_not_an_integer_from_two_rejected(self, card):
        with pytest.raises(DomainError, match="cardinality must be integer >= 2"):
            ev.fano_bound(1.0, card)

    def test_list_cardinality_rejected(self):
        with pytest.raises(DomainError, match=r"cardinality must be a single integer, got \[16\]"):
            ev.fano_bound(1.0, [16])

    @pytest.mark.parametrize("h", [float("nan"), [1.5], -0.1], ids=["nan", "list", "negative"])
    def test_conditional_entropy_not_one_real_from_zero_rejected(self, h):
        # NaN used to give a NaN bound, a list to raise a bare TypeError
        with pytest.raises(DomainError,
                           match=r"h_cond_nats: expected a real number in \[0\.0, inf\]"):
            ev.fano_bound(h, 4)

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

    @pytest.mark.parametrize("sigma", [float("nan"), True, [1.0]], ids=["nan", "bool", "list"])
    def test_gaussian_sigma_not_one_real_rejected(self, sigma):
        # NaN used to give nan nats and True the entropy of sigma = 1
        with pytest.raises(DomainError, match=r"sigma: expected a real number in \(0\.0, inf\]"):
            ev.differential_entropy_gaussian(sigma)

    def test_list_uniform_bounds_rejected(self):
        # used to raise a bare TypeError from the comparison
        with pytest.raises(DomainError,
                           match=r"^a: expected a real number in \[-inf, inf\], got \[0\.0\]$"):
            ev.differential_entropy_uniform([0.0], [1.0])


class TestEntropyLinkage:
    def test_noise_confuses_more_than_real_data(self, classifier, dataset):
        assert ev.entropy_linkage_holds(classifier, dataset, 0,
                                        np.random.default_rng(0))


class TestSampleClasses:
    """The class chains run on a thread pool with the bits of sampling them in turn."""

    K, N = 4, 64

    @pytest.fixture(scope="class")
    def model(self):
        return init_model(2, self.K, 32, 2, 8, 20, np.random.default_rng(4))

    @pytest.fixture(scope="class")
    def schedule(self):
        return NoiseSchedule(20, 1e-3, 0.2)

    @pytest.fixture
    def chains(self, monkeypatch):
        """The thread and the BLAS thread count of each ``ancestral_sample`` call,
        recorded through the name ``evaluation`` binds."""
        calls = []

        def recording(*args):
            calls.append((threading.get_ident(), gc.blas_threads()))
            return ancestral_sample(*args)

        monkeypatch.setattr(ev, "ancestral_sample", recording)
        return calls

    def _check_bits_of_chains_in_turn(self, model, schedule, chains):
        rng, expected_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = ev.sample_classes(model, schedule, self.K, self.N, rng)
        expected = {c: class_chain(model, c, schedule, self.N, expected_rng)
                    for c in range(self.K)}
        assert list(got) == list(range(self.K))
        for c in range(self.K):
            assert got[c].tobytes() == expected[c].tobytes()
        assert rng.bit_generator.state == expected_rng.bit_generator.state
        assert rng.standard_normal(5).tobytes() == expected_rng.standard_normal(5).tobytes()
        assert len(chains) == self.K
        assert threading.get_ident() not in {thread for thread, _ in chains}

    def test_bits_and_generator_match_the_chains_in_turn(self, model, schedule, chains):
        self._check_bits_of_chains_in_turn(model, schedule, chains)

    def test_one_worker_gives_the_same_bits(self, model, schedule, chains, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self._check_bits_of_chains_in_turn(model, schedule, chains)
        assert len({thread for thread, _ in chains}) == 1

    def test_more_workers_than_cores_keep_the_bits(self, monkeypatch):
        """Eight chains on eight workers, switching threads every microsecond."""
        model = init_model(2, 8, 16, 2, 8, 10, np.random.default_rng(6))
        schedule = NoiseSchedule(10, 1e-3, 0.2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = ev.sample_classes(model, schedule, 8, 32, np.random.default_rng(1))
        finally:
            sys.setswitchinterval(interval)
        rng = np.random.default_rng(1)
        for c in range(8):
            assert got[c].tobytes() == class_chain(model, c, schedule, 32, rng).tobytes()

    @needs_openblas
    def test_chains_run_with_blas_on_one_thread(self, model, schedule, chains):
        ev.sample_classes(model, schedule, self.K, self.N, np.random.default_rng(0))
        assert [blas for _, blas in chains] == [1] * self.K

    @pytest.fixture(scope="class")
    def overflowing(self, model):
        """The model with class 2's embedding so large that its chain overflows."""
        bad = model.copy()
        bad.params["class_embed"][2] = 1e308
        return bad

    def test_overflowing_chain_raises_numeric_error_naming_its_step(self, overflowing, schedule):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as direct:
                rng = np.random.default_rng(0)
                for c in range(self.K):
                    class_chain(overflowing, c, schedule, self.N, rng)
            with pytest.raises(NumericError, match=r"reverse step t=\d+") as pooled:
                ev.sample_classes(overflowing, schedule, self.K, self.N,
                                  np.random.default_rng(0))
        assert str(pooled.value) == str(direct.value)

    def test_chains_keep_the_callers_numpy_error_state(self, overflowing, schedule):
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                class_chain(overflowing, 2, schedule, self.N, np.random.default_rng(0))
            with pytest.raises(FloatingPointError, match="overflow"):
                ev.sample_classes(overflowing, schedule, self.K, self.N,
                                  np.random.default_rng(0))

    def test_a_class_the_model_lacks_raises_the_class_rule(self, model, schedule):
        with pytest.raises(DomainError, match=r"class must be integer in \[0, 4\)"):
            ev.sample_classes(model, schedule, self.K + 1, self.N, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, 2.5, True], ids=["zero", "float", "bool"])
    def test_rejects_a_bad_sample_count_before_any_draw(self, model, schedule, n):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match="n_samples must be integer >= 1"):
            ev.sample_classes(model, schedule, self.K, n, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_rejects_a_list_sample_count_before_any_draw(self, model, schedule):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError, match=r"n_samples must be a single integer, got \[5\]"):
            ev.sample_classes(model, schedule, self.K, [5], rng)
        assert rng.random() == np.random.default_rng(0).random()
