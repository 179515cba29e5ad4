import gc as collector
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from safemax_lab import denoiser as dn
from safemax_lab import diffusion as df
from safemax_lab import gradcore as gc
from safemax_lab.errors import ContractError, DimensionError, DomainError, NumericError
from safemax_lab.harness import DatasetSpec, generate_toy_dataset


needs_openblas = pytest.mark.skipif(gc.blas_threads() is None, reason="no OpenBLAS loaded")


def small_model(seed=0, d=2, K=4, width=16, depth=2, embed=8, T=20):
    return dn.init_model(d, K, width, depth, embed, T, np.random.default_rng(seed))


def fresh_eps(model, x, labels, t):
    """predict_eps on a tape of its own."""
    return dn.predict_eps(model, x, labels, t, gc.Tape(grad=False))


@pytest.fixture(scope="module")
def schedule():
    return df.build_schedule(20, 1e-3, 0.2)


@pytest.fixture(scope="module")
def dataset():
    return generate_toy_dataset(DatasetSpec(4, 200, "ring", 0.35, 0))


class TestInitModel:
    def test_same_seed_bit_identical(self):
        a, b = small_model(7), small_model(7)
        assert a.params.names() == b.params.names()
        for name, value in a.params.items():
            npt.assert_array_equal(value, b.params[name])

    def test_output_head_shape(self):
        model = small_model(d=2, K=4)
        assert model.params["head_w"].shape[1] == 2
        assert model.params["head_b"].shape == (2,)

    def test_parameter_count_closed_form(self):
        d, K, width, depth, embed = 3, 5, 16, 3, 8
        model = dn.init_model(d, K, width, depth, embed, 10, np.random.default_rng(0))
        concat = d + 2 * embed
        expected = (K * embed                      # class table
                    + embed * embed + embed        # time projection
                    + concat * width + width       # first hidden layer
                    + (depth - 1) * (width * width + width)
                    + width * d + d)               # output head
        assert model.params.flat.size == expected

    def test_rejects_single_class(self):
        with pytest.raises(DomainError):
            small_model(K=1)

    def test_rejects_odd_embed(self):
        with pytest.raises(DomainError):
            small_model(embed=7)


class TestTimestepEmbedding:
    def test_bounded_by_one(self):
        assert np.all(np.abs(dn._timestep_embedding_table(9999, 12)) <= 1.0)

    def test_zero_step_alternates(self):
        emb = dn._timestep_embedding_table(1, 8)[0]
        npt.assert_array_equal(emb, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_all_steps_distinct(self):
        rows = dn._timestep_embedding_table(100, 16)[1:]
        # pairwise distinct up to T=100
        dists = np.linalg.norm(rows[:, None] - rows[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 1e-6

    def test_cached_table_rows_match_single_steps(self):
        table = dn._timestep_embedding_table(100, 16)
        assert table is dn._timestep_embedding_table(100, 16)
        assert table.shape == (101, 16) and not table.flags.writeable
        freqs = np.exp(-np.log(10000.0) * np.arange(8) / 8)
        for t in range(101):
            expected = np.empty(16)
            expected[0::2], expected[1::2] = np.sin(t * freqs), np.cos(t * freqs)
            assert table[t].tobytes() == expected.tobytes()


class TestPredictEps:
    def test_deterministic(self, schedule):
        model = small_model(3)
        x = np.random.default_rng(0).standard_normal((4, 2))
        labels = np.array([0, 1, 2, 3])
        t = np.array([1, 5, 10, 20])
        a = fresh_eps(model, x, labels, t)
        b = fresh_eps(model, x, labels, t)
        npt.assert_array_equal(a, b)

    def test_same_bits_as_the_training_forward(self):
        model = small_model(3)
        rng = np.random.default_rng(2)
        x = 3.0 * rng.standard_normal((64, 2))
        labels = rng.integers(0, 4, size=64)
        t = rng.integers(1, 21, size=64)
        tape = gc.Tape()
        trained = dn.denoiser_forward(tape, tape.params(model.params), model.arch, x, labels, t)
        assert fresh_eps(model, x, labels, t).tobytes() == trained.value.tobytes()

    def test_reused_tape_gives_a_fresh_tape_bits(self):
        model = small_model(3)
        rng = np.random.default_rng(4)
        tape = gc.Tape(grad=False)
        kept = []
        for rows in (500, 7, 500):
            x = 3.0 * rng.standard_normal((rows, 2))
            labels = rng.integers(0, 4, size=rows)
            t = rng.integers(1, 21, size=rows)
            out = dn.predict_eps(model, x, labels, t, tape)
            assert out.tobytes() == fresh_eps(model, x, labels, t).tobytes()
            kept.append((out, out.copy()))
        # every result is the caller's own; later calls leave it intact
        assert all(out.tobytes() == copy.tobytes() for out, copy in kept)

    def test_gradient_tape_rejected(self):
        model = small_model(0)
        with pytest.raises(ContractError, match="grad=False"):
            dn.predict_eps(model, np.zeros((1, 2)), np.array([0]), np.array([1]), gc.Tape())

    def test_reused_tape_allocates_no_layer(self):
        """At 500 rows a reused tape's second call peaks below one hidden layer's buffer."""
        model = small_model(1, width=128, depth=3, embed=16, T=100)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((500, 2))
        labels = rng.integers(0, 4, size=500)
        t = rng.integers(1, 101, size=500)
        layer_bytes = 500 * 128 * 8
        tape = gc.Tape(grad=False)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                dn.predict_eps(model, x, labels, t, tape)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        first_peak, second_peak = peaks
        # the first call builds the workspace, so the trace does see layer buffers
        assert second_peak < layer_bytes < first_peak

    def test_class_conditioning_changes_output(self):
        model = small_model(4)
        x = np.zeros((1, 2))
        t = np.array([3])
        out0 = fresh_eps(model, x, np.array([0]), t)
        out1 = fresh_eps(model, x, np.array([1]), t)
        assert np.linalg.norm(out0 - out1) > 0

    def test_rows_are_independent(self):
        model = small_model(5)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2))
        labels = np.array([1, 2])
        t = np.array([4, 9])
        full = fresh_eps(model, x, labels, t)
        first = fresh_eps(model, x[:1], labels[:1], t[:1])
        # same row through different batch shapes: equal up to BLAS summation order
        npt.assert_allclose(full[0], first[0], rtol=1e-12, atol=1e-14)

    def test_label_out_of_range(self):
        model = small_model(0)
        with pytest.raises(DomainError):
            fresh_eps(model, np.zeros((1, 2)), np.array([4]), np.array([1]))

    def test_step_out_of_range(self):
        model = small_model(0)
        with pytest.raises(DomainError):
            fresh_eps(model, np.zeros((1, 2)), np.array([0]), np.array([21]))

    def test_wrong_feature_count(self):
        model = small_model(0)
        with pytest.raises(DimensionError):
            fresh_eps(model, np.zeros((1, 3)), np.array([0]), np.array([1]))

    @pytest.mark.parametrize("labels, t", [
        (np.zeros(2, int), np.array([1.7, 2.2])),  # would truncate to steps 1 and 2
        (np.array([0.0, 1.0]), np.array([1, 2])),
        (np.zeros(2, int), np.array([True, True])),
    ], ids=["float_steps", "float_labels", "bool_steps"])
    def test_non_integer_labels_or_steps_rejected(self, labels, t):
        with pytest.raises(DomainError, match="integer"):
            fresh_eps(small_model(0), np.zeros((2, 2)), labels, t)


class TestTrainStep:
    def test_loss_non_negative(self, dataset, schedule):
        model = small_model(1)
        batch = df.sample_latent_batch(dataset, schedule, 16, np.random.default_rng(0))
        assert dn.train_step(model, batch, gc.SGD(0.01, momentum=0.0)) >= 0.0

    def test_gradient_matches_finite_differences(self, dataset, schedule):
        model = small_model(2)
        batch = df.sample_latent_batch(dataset, schedule, 8, np.random.default_rng(3))

        def loss_fn(tape, params):
            pnodes = tape.params(params)
            pred = dn.denoiser_forward(tape, pnodes, model.arch,
                                       batch.x_t, batch.labels, batch.t)
            return gc.mse_loss(pred, batch.eps)

        err = gc.grad_check(loss_fn, model.params, epsilon=1e-5, probes=40,
                            rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_overfits_single_batch(self, dataset, schedule):
        # repeated steps on one fixed batch drive the loss below 1e-3
        model = small_model(6, width=32, depth=2)
        batch = df.sample_latent_batch(dataset, schedule, 16, np.random.default_rng(4))
        opt = gc.SGD(0.02, momentum=0.9)
        loss = np.inf
        for _ in range(2000):
            loss = dn.train_step(model, batch, opt)
            if loss < 1e-3:
                break
        assert loss < 1e-3, f"stuck at {loss}"


class TestGraphLifetime:
    def test_step_and_inference_graphs_die_without_the_cyclic_collector(
            self, dataset, schedule, monkeypatch):
        tapes = []

        def recording_tape(*args, **kwargs):
            tape = gc.Tape(*args, **kwargs)
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(dn, "Tape", recording_tape)
        model = small_model(1)
        batch = df.sample_latent_batch(dataset, schedule, 16, np.random.default_rng(0))
        collector_was_on = collector.isenabled()
        collector.disable()
        try:
            dn.train_step(model, batch, gc.SGD(0.01, momentum=0.9))
            dn.predict_eps(model, batch.x_t, batch.labels, batch.t,
                           recording_tape(grad=False))
            assert len(tapes) == 2
            assert [ref() for ref in tapes] == [None, None]
        finally:
            if collector_was_on:
                collector.enable()


class TestTrain:
    @pytest.mark.parametrize("rate", [0.0, -0.01, float("nan")])
    def test_non_positive_or_nan_learning_rate_rejected(self, rate):
        with pytest.raises(DomainError):
            dn.TrainConfig(steps=1, batch_size=8, learning_rate=rate, seed=0)

    @pytest.mark.parametrize("rate", [float("inf"), float("-inf")])
    def test_infinite_learning_rate_rejected(self, rate):
        with pytest.raises(DomainError, match="learning_rate"):
            dn.TrainConfig(steps=1, batch_size=8, learning_rate=rate, seed=0)

    def test_negative_seed_rejected(self):
        # numpy would reject it only at the first draw, with a bare ValueError
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            dn.TrainConfig(steps=1, batch_size=4, learning_rate=0.1, seed=-1)

    @needs_openblas
    def test_steps_run_on_one_blas_thread_and_restore_the_count(self, dataset, schedule,
                                                               monkeypatch):
        seen = []
        step = dn.train_step

        def probe(*args):
            seen.append(gc.blas_threads())
            if len(seen) == 5:
                raise NumericError("stop here")
            return step(*args)

        monkeypatch.setattr(dn, "train_step", probe)
        before = gc.blas_threads()
        cfg = dn.TrainConfig(steps=3, batch_size=8, learning_rate=0.01, seed=0)
        dn.train(small_model(3), dataset, schedule, cfg)
        assert seen == [1, 1, 1]
        assert gc.blas_threads() == before
        with pytest.raises(NumericError, match="at step 1"):
            dn.train(small_model(3), dataset, schedule, cfg)
        assert gc.blas_threads() == before

    @needs_openblas
    def test_pinned_pretrain_bit_identical_to_default_threads(self, dataset, schedule,
                                                              monkeypatch):
        # the default width and batch, whose products OpenBLAS would split across threads
        cfg = dn.TrainConfig(steps=300, batch_size=128, learning_rate=0.02, seed=1)

        def pretrain():
            model = dn.init_model(2, 4, 128, 3, 16, schedule.T, np.random.default_rng(0))
            _, losses = dn.train(model, dataset, schedule, cfg)
            return model.params.flat.tobytes(), losses

        pinned = pretrain()
        monkeypatch.setattr(gc, "_openblas", lambda: None)
        assert pretrain() == pinned

    def test_zero_steps_is_identity(self, dataset, schedule):
        model = small_model(8)
        before = {name: value.copy() for name, value in model.params.items()}
        _, trace = dn.train(model, dataset, schedule,
                            dn.TrainConfig(steps=0, batch_size=8, learning_rate=0.01, seed=0))
        assert trace == []
        for name, value in model.params.items():
            npt.assert_array_equal(value, before[name])

    def test_same_seed_identical_trace(self, dataset, schedule):
        cfg = dn.TrainConfig(steps=30, batch_size=16, learning_rate=0.01, seed=11)
        _, trace_a = dn.train(small_model(9), dataset, schedule, cfg)
        _, trace_b = dn.train(small_model(9), dataset, schedule, cfg)
        assert trace_a == trace_b

    def test_loss_decreases(self, dataset, schedule):
        cfg = dn.TrainConfig(steps=800, batch_size=32, learning_rate=0.02, seed=1)
        _, trace = dn.train(small_model(10, width=32), dataset, schedule, cfg)
        head = np.mean(trace[:80])
        tail = np.mean(trace[-80:])
        assert tail < head

    def test_class_count_mismatch_rejected(self, schedule):
        ds = generate_toy_dataset(DatasetSpec(3, 50, "ring", 0.3, 1))
        with pytest.raises(DomainError):
            dn.train(small_model(0, K=4), ds, schedule,
                     dn.TrainConfig(steps=1, batch_size=4, learning_rate=0.01, seed=0))


@pytest.fixture(scope="module")
def trained_two_class():
    ds = generate_toy_dataset(DatasetSpec(2, 600, "ring", 0.3, 5))
    sched = df.build_schedule(30, 1e-3, 0.3)
    model = dn.init_model(2, 2, 32, 2, 8, 30, np.random.default_rng(0))
    dn.train(model, ds, sched,
             dn.TrainConfig(steps=4000, batch_size=64, learning_rate=0.02, seed=0))
    return model, ds, sched


class TestTrainedGeneration:
    def test_sample_mean_tracks_data_mean(self, trained_two_class):
        model, ds, sched = trained_two_class
        n = 2000
        for c in range(2):
            samples = df.ancestral_sample(model, c, sched, n, np.random.default_rng(9))
            data_mean = ds.points[ds.class_indices(c)].mean(axis=0)
            assert np.all(np.abs(samples.mean(axis=0) - data_mean) < 0.1)

    def test_class_conditioning_is_live(self, trained_two_class):
        # conditioned sample means separate far beyond Monte Carlo noise
        model, ds, sched = trained_two_class
        n = 2000
        means, ses = [], []
        for c in range(2):
            samples = df.ancestral_sample(model, c, sched, n, np.random.default_rng(9))
            means.append(samples.mean(axis=0))
            ses.append(np.linalg.norm(samples.std(axis=0, ddof=1)) / np.sqrt(n))
        distance = np.linalg.norm(means[0] - means[1])
        assert distance > 10 * max(ses), (distance, ses)
