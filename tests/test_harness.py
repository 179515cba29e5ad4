import hashlib
import json
import logging
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemax_lab import denoiser as dn
from safemax_lab import evaluation as ev
from safemax_lab import gradcore as gc
from safemax_lab import unlearn as ul
from safemax_lab.errors import (CheckpointIntegrityError, CheckpointVersionError,
                                ConfigError, DegenerateSampleError, DimensionError, DomainError,
                                NumericError, StageError)
from safemax_lab.harness import checkpoints as ck
from safemax_lab.harness import config as cf
from safemax_lab.harness import experiment as ex
from safemax_lab.harness.datasets import DatasetSpec, class_means, generate_toy_dataset
from safemax_lab.harness.plots import render_scatter


needs_openblas = pytest.mark.skipif(gc.blas_threads() is None, reason="no OpenBLAS loaded")


class TestGenerateToyDataset:
    def test_ring_means_at_cardinal_angles(self):
        means = class_means(DatasetSpec(4, geometry="ring"))
        npt.assert_allclose(means, [[4, 0], [0, 4], [-4, 0], [0, -4]], atol=1e-12)

    def test_sample_means_near_class_means(self):
        n = 2000
        ds = generate_toy_dataset(DatasetSpec(4, n, "ring", 0.35, 0))
        means = class_means(DatasetSpec(4, geometry="ring"))
        for c in range(4):
            pts = ds.points[ds.class_indices(c)]
            bound = 3 * 0.35 / np.sqrt(n)
            assert np.all(np.abs(pts.mean(axis=0) - means[c]) < bound)

    def test_same_seed_identical(self):
        a = generate_toy_dataset(DatasetSpec(3, 50, "grid", 0.2, 9))
        b = generate_toy_dataset(DatasetSpec(3, 50, "grid", 0.2, 9))
        npt.assert_array_equal(a.points, b.points)
        npt.assert_array_equal(a.labels, b.labels)

    def test_narrow_numpy_seed_builds_the_python_seeds_world(self):
        # an np.int8 seed used to overflow at seed + HELDOUT_SEED_OFFSET
        cfg = cf.default_config()
        plain, narrow = (ex.build_world(replace(cfg, dataset=replace(cfg.dataset, seed=seed)))
                         for seed in (5, np.int8(5)))
        for a, b in zip(plain[:2], narrow[:2]):
            npt.assert_array_equal(a.points, b.points)

    def test_default_world_points_are_golden(self):
        # Pins the draw order of the training set and of the held-out set, which
        # is the same spec at seed + HELDOUT_SEED_OFFSET.
        train_ds, held_ds, _ = ex.build_world(cf.default_config())
        assert hashlib.sha256(train_ds.points.tobytes()).hexdigest() == (
            "627fb72370befdabfd22ebbd43dfe81507e5e7b4c903b8d5216118ccf0917eaa")
        assert hashlib.sha256(held_ds.points.tobytes()).hexdigest() == (
            "63601f5abad98c6a3dd2808d32a7936d4e74ff2f6fbd3807ab332f4e288388fd")


# one value per config key that its section rejects
OUT_OF_RANGE = {
    "dataset.k": 1, "dataset.n_per_class": 1, "dataset.geometry": "spiral",
    "dataset.noise_scale": 0.0, "dataset.seed": -1,
    "schedule.t": 0, "schedule.beta_min": 0.0, "schedule.beta_max": 1.0,
    "model.hidden_width": 0, "model.hidden_depth": 0, "model.embed_dim": 7,
    "pretrain.steps": -1, "pretrain.batch_size": 0, "pretrain.learning_rate": 0.0,
    "pretrain.seed": -1,
    "unlearn.forget_class": 4, "unlearn.lambda": -1.0, "unlearn.steps": -1,
    "unlearn.learning_rate": 0.0, "unlearn.batch_size": 0, "unlearn.seed": -1,
    "eval.n_samples": 2, "eval.classifier_hidden_width": 0, "eval.classifier_steps": 0,
    "eval.classifier_learning_rate": 0.0, "eval.classifier_seed": -1, "eval.seed": -1,
}


def _section_field(key: str) -> tuple[str, str]:
    section, field = key.split(".")
    return section, "lam" if key == "unlearn.lambda" else field


DEFAULTS = {key: getattr(getattr(cf.default_config(), _section_field(key)[0]),
                         _section_field(key)[1]) for key in OUT_OF_RANGE}
INTEGER_KEYS = [key for key, value in DEFAULTS.items() if type(value) is int]
FLOAT_KEYS = [key for key, value in DEFAULTS.items() if type(value) is float]


class TestConfig:
    def test_empty_text_gives_defaults(self):
        assert cf.parse_config("") == cf.default_config()

    def test_comments_and_blanks_ignored(self):
        cfg = cf.parse_config("# a comment\n\ndataset.k = 6  # trailing\n")
        assert cfg.dataset.k == 6

    def test_negative_lambda_names_key(self):
        with pytest.raises(ConfigError, match="unlearn.lambda"):
            cf.parse_config("unlearn.lambda = -1")

    @pytest.mark.parametrize("key", ["dataset.noise_scale", "pretrain.learning_rate",
                                     "unlearn.learning_rate",
                                     "eval.classifier_learning_rate"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_rate_or_scale_names_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            cf.parse_config(f"{key} = {value}")

    def test_infinite_lambda_accepted(self):
        assert cf.parse_config("unlearn.lambda = inf").unlearn.lam == float("inf")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cf.parse_config("dataset.radius = 2")

    @pytest.mark.parametrize("key", ["unlearn.epst_mode", "unlearn.learning_rate_forget",
                                     "unlearn.learning_rate_retain", "unlearn.batch_size_forget",
                                     "unlearn.batch_size_retain"])
    def test_retired_epst_mode_key_rejected(self, key):
        # the forget target is chosen by the method alone, and one rate and one batch
        # size serve both batches; old configs drop these lines
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            cf.parse_config(f"{key} = 1")

    @pytest.mark.parametrize("output_dir", ["runs/try#2", "runs/a\nb", "runs/a\r", " runs"])
    def test_output_dir_the_text_cannot_hold_rejected_at_render(self, output_dir):
        # the parser cuts '#' comments, splits lines and strips edges, so such a
        # config.txt would read back naming another directory
        with pytest.raises(ConfigError, match="output.dir"):
            cf.render_config(replace(cf.default_config(), output_dir=output_dir))

    def test_eval_samples_below_three_name_key(self):
        # a Frechet fit in d = 2 needs d + 1 points per class
        for n in (0, 1, 2):
            with pytest.raises(ConfigError, match="eval.n_samples"):
                cf.parse_config(f"eval.n_samples = {n}")
        assert cf.parse_config("eval.n_samples = 3").eval.n_samples == 3

    def test_seed_beyond_int64_rejected_naming_the_key(self):
        # used to build a config whose seed was -2**63, which `train` ended in a numpy traceback
        with pytest.raises(ConfigError, match=r"^dataset\.seed: seed must be an integer below 2\*\*63"):
            cf.parse_config("dataset.seed = 9223372036854775808")

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        blocks = readme.split("```ini\n")[1:]
        assert len(blocks) == 1
        cfg = cf.parse_config(blocks[0].split("```", 1)[0])
        assert cfg.output_dir == "runs/demo"

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="dataset.k"):
            cf.parse_config("dataset.k = ring")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cf.parse_config("dataset.k = 4\ndataset.k = 5")

    def test_schedule_longer_than_its_bound_rejected(self):
        assert cf.parse_config("schedule.t = 10000").schedule.t == 10_000
        with pytest.raises(ConfigError, match=r"^schedule\.t: t must be integer in \[1, 10001\)"):
            cf.parse_config("schedule.t = 10001")

    def test_forget_class_bound_check(self):
        with pytest.raises(ConfigError, match="unlearn.forget_class"):
            cf.parse_config("dataset.k = 3\nunlearn.forget_class = 3")

    @pytest.mark.parametrize("key", [line.split(" = ")[0] for line in
                                     cf.render_config(cf.default_config()).splitlines()
                                     if not line.startswith("output.")])
    def test_out_of_range_value_rejected_by_its_section(self, key):
        # the section dataclasses hold the checks, so the text and the Python API agree
        value = OUT_OF_RANGE[key]
        with pytest.raises(ConfigError, match=re.escape(key)):
            cf.parse_config(f"{key} = {value}")
        section, field = _section_field(key)
        cfg = cf.default_config()
        with pytest.raises(DomainError):
            replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})

    @pytest.mark.parametrize("value", [1.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_non_integer_count_rejected_by_its_section(self, key, value):
        # a bool used to run as 1, a float to reach numpy as a bare TypeError or to pass
        section, field = _section_field(key)
        cfg = cf.default_config()
        with pytest.raises(DomainError, match=f"{field}.* must be integer"):
            replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})

    @pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: np.array([v])],
                             ids=["list", "array"])
    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_list_count_rejected_by_its_section(self, key, wrap):
        # a one-entry list used to pass its section and fail once a run read it
        section, field = _section_field(key)
        cfg = cf.default_config()
        value = wrap(DEFAULTS[key])
        with pytest.raises(DomainError, match=rf"{field} must be a single integer, got \S*\["):
            replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})

    @pytest.mark.parametrize("value", [[0.1], np.array([0.05]), True, None, "0.1"],
                             ids=["list", "array", "bool", "none", "str"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_bad_float_rejected_by_its_section(self, key, value):
        # a one-entry array used to pass EvalSpec, a bool TrainConfig and UnlearnConfig, and
        # the others to raise a bare TypeError or ValueError from a comparison
        section, field = _section_field(key)
        cfg = cf.default_config()
        name = key.split(".")[1]
        with pytest.raises(DomainError, match=f"{name}: expected a real number in "):
            replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})

    @pytest.mark.parametrize("wrap", [lambda v: np.array(v)[()], np.array],
                             ids=["scalar", "0-d"])
    @pytest.mark.parametrize("key", [key for key in cf._KEYS if key != "output.dir"])
    def test_numpy_value_held_as_its_python_value(self, key, wrap):
        # a section used to keep the numpy value it was given: a 0-d array passed the checks,
        # then broke a run and made the section unhashable
        section, field = _section_field(key)
        base = getattr(cf.default_config(), section)
        built = replace(base, **{field: wrap(DEFAULTS[key])})
        held = getattr(built, field)
        assert type(held) is type(DEFAULTS[key]) and held == DEFAULTS[key]
        assert built == base and hash(built) == hash(base)

    def test_numpy_floats_render_as_python_floats(self):
        # numpy 2 reprs np.float64(1.0) as "np.float64(1.0)", which the parser rejects
        base = cf.default_config()
        sections = {}
        for key in FLOAT_KEYS:
            section, field = _section_field(key)
            sections.setdefault(section, {})[field] = np.float64(DEFAULTS[key])
        cfg = replace(base, **{section: replace(getattr(base, section), **fields)
                               for section, fields in sections.items()})
        assert cf.render_config(cfg) == cf.render_config(base)
        for sha in (cf.config_sha256, cf.pretrain_sha256, cf.classifier_sha256):
            assert sha(cfg) == sha(base)
        assert cf.parse_config(cf.render_config(cfg)) == base

    def test_non_str_output_dir_rejected(self, tmp_path):
        # a Path used to pass, then fail in render_config with a bare AttributeError
        with pytest.raises(DomainError, match="output.dir"):
            replace(cf.default_config(), output_dir=tmp_path / "run")

    def test_keys_of_one_section_are_checked_together(self):
        # beta_min = 0.3 exceeds only the default beta_max
        with pytest.raises(ConfigError, match="schedule.beta_min"):
            cf.parse_config("schedule.beta_min = 0.3")
        cfg = cf.parse_config("schedule.beta_min = 0.3\nschedule.beta_max = 0.5")
        assert (cfg.schedule.beta_min, cfg.schedule.beta_max) == (0.3, 0.5)

    def test_round_trip_default(self):
        cfg = cf.default_config()
        assert cf.parse_config(cf.render_config(cfg)) == cfg

    def test_shipped_default_file_is_the_rendered_defaults(self):
        text = (Path(__file__).resolve().parent.parent / "configs" / "default.cfg").read_text(
            encoding="utf-8")
        assert cf.parse_config(text) == cf.default_config()
        key_lines = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert key_lines == cf.render_config(cf.default_config()).splitlines()

    @pytest.mark.parametrize("line", [line for line in
                                      cf.render_config(cf.default_config()).splitlines()
                                      if line.startswith("unlearn.")],
                             ids=lambda line: line.split(" = ")[0])
    def test_unlearn_keys_leave_model_and_classifier_hashes(self, line):
        # the pretrained model and the classifier are cached under their own hashes, so a
        # run directory keeps both when only unlearning changes
        key, value = line.split(" = ")
        bumped = str(int(value) + 1) if value.isdigit() else repr(float(value) + 1.0)
        base, changed = cf.default_config(), cf.parse_config(f"{key} = {bumped}")
        assert changed.unlearn != base.unlearn
        assert cf.pretrain_sha256(changed) == cf.pretrain_sha256(base)
        assert cf.classifier_sha256(changed) == cf.classifier_sha256(base)
        assert cf.config_sha256(changed) != cf.config_sha256(base)

    @given(st.integers(min_value=2, max_value=9),
           st.floats(min_value=1e-6, max_value=0.5),
           st.floats(min_value=0.0, max_value=250.0),
           st.sampled_from(["ring", "grid"]),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_configs(self, k, noise, lam, geometry, seed):
        cfg = cf.default_config()
        cfg = replace(cfg,
                      dataset=replace(cfg.dataset, k=k, noise_scale=noise,
                                      geometry=geometry, seed=seed),
                      unlearn=replace(cfg.unlearn, lam=lam, forget_class=k - 1))
        rendered = cf.render_config(cfg)
        assert cf.parse_config(rendered) == cfg
        assert cf.render_config(cf.parse_config(rendered)) == rendered


def _dummy_checkpoint():
    rng = np.random.default_rng(0)
    return ck.Checkpoint(
        arch={"d": 2, "K": 4, "hidden_width": 8, "hidden_depth": 2,
              "embed_dim": 4, "T": 10},
        schedule={"t": 10, "beta_min": 0.01, "beta_max": 0.2},
        params={"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)},
        provenance={"config_sha256": "abc", "seed": 1, "steps": 5},
    )


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "model.ckpt"
        original = _dummy_checkpoint()
        ck.save_checkpoint(path, original)
        loaded = ck.load_checkpoint(path)
        assert loaded.arch == original.arch
        assert loaded.provenance == original.provenance
        for name, value in original.params.items():
            npt.assert_array_equal(loaded.params[name], value)
            assert loaded.params[name].tobytes() == value.tobytes()

    def test_file_bytes_are_golden(self, tmp_path):
        # A layout change must bump FORMAT_VERSION, and then this digest too.
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, _dummy_checkpoint())
        assert ck.FORMAT_VERSION == 2
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "58797bd5ade3431c1a838da71dff38758f25e824662dd4658b4b85111bfe1eff")

    def test_wrong_version_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        with monkeypatch.context() as m:
            m.setattr(ck, "FORMAT_VERSION", 99)
            ck.save_checkpoint(path, _dummy_checkpoint())
        with pytest.raises(CheckpointVersionError):
            ck.load_checkpoint(path)

    def test_truncation_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, _dummy_checkpoint())
        blob = path.read_bytes()
        cut = len(blob) * 2 // 3
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointIntegrityError):
            ck.load_checkpoint(path)

    def test_corrupt_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, _dummy_checkpoint())
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointIntegrityError):
            ck.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"definitely not a checkpoint" * 4)
        with pytest.raises(CheckpointIntegrityError):
            ck.load_checkpoint(path)

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, _dummy_checkpoint())
        before = path.read_bytes()
        changed = _dummy_checkpoint()
        changed.provenance["steps"] = 6

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ck.os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            ck.save_checkpoint(path, changed)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    @pytest.mark.parametrize("write", [
        lambda path: ck.write_atomic(path, "new text\n"),
        lambda path: render_scatter({0: np.zeros((3, 2))}, path),
        lambda path: ex.write_metrics_csv(path, cf.default_config(), ["row"]),
    ], ids=["write_atomic", "render_scatter", "write_metrics_csv"])
    def test_failed_text_write_keeps_the_old_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact.txt"
        path.write_bytes(b"old contents\n")

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(ck.os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            write(path)
        assert path.read_bytes() == b"old contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_write_atomic_writes_text_as_utf8(self, tmp_path):
        path = tmp_path / "a.txt"
        ck.write_atomic(path, "λ = 1\n")
        assert path.read_bytes() == "λ = 1\n".encode("utf-8")
        ck.write_atomic(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    @pytest.mark.parametrize("corrupt", [
        lambda h: h.pop("params"),
        lambda h: h.pop("provenance"),
        lambda h: h["params"][0].pop("shape"),
        lambda h: h["params"][0].update(shape=[3, -2]),
        lambda h: h["params"][0].update(shape=[3.0, 2]),
        lambda h: h["params"][1].update(name=7),
        lambda h: h["params"][1].update(name="w"),
        lambda h: h["params"].append("w"),
        lambda h: h["params"][0].update(shape=[2**32, 2**32]),
        lambda h: h["params"][0].update(shape=[2**62, 4]),
        lambda h: h["params"][0].update(shape=[0, 2**62]),
        lambda h: h["params"][0].update(shape=[0, 2**64]),
        lambda h: h["params"][0].update(shape=[1] * 65),
    ], ids=["no_params", "no_provenance", "no_shape", "negative_dim",
            "float_dim", "name_not_str", "duplicate_name", "entry_not_object",
            "shape_2e32_by_2e32", "shape_2e62_by_4", "shape_0_by_2e62", "shape_0_by_2e64",
            "rank_65"])
    def test_checksummed_malformed_header_raises_integrity_error(self, tmp_path, corrupt):
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, _dummy_checkpoint())
        _rewrite_header(path, corrupt)
        with pytest.raises(CheckpointIntegrityError):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize("depth, named", [(500, "header is not a JSON object"),
                                              (5000, "unreadable header")])
    def test_deeply_nested_header_raises_integrity_error(self, tmp_path, depth, named):
        # 5,000 deep used to raise RecursionError
        path = tmp_path / "deep.ckpt"
        path.write_bytes(_deep_header(depth))
        with pytest.raises(CheckpointIntegrityError, match=named):
            ck.load_checkpoint(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_byte_flip_or_truncation_raises_a_checkpoint_error(self, saved_checkpoint, data):
        path, blob = saved_checkpoint
        if data.draw(st.booleans(), label="flip"):
            damaged = bytearray(blob)
            damaged[data.draw(st.integers(0, len(blob) - 1), label="index")] ^= data.draw(
                st.integers(1, 255), label="mask")
        else:
            damaged = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        path.write_bytes(bytes(damaged))
        with pytest.raises((CheckpointIntegrityError, CheckpointVersionError)):
            ck.load_checkpoint(path)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """A path to overwrite and the bytes of a valid checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    ck.save_checkpoint(path, _dummy_checkpoint())
    return path, path.read_bytes()


def _rewrite_header(path, edit) -> None:
    """Apply ``edit`` to a checkpoint's JSON header and re-sign the file with a valid checksum."""
    import struct

    payload = path.read_bytes()[:-32]
    start = len(ck.MAGIC) + 4
    (header_len,) = struct.unpack("<Q", payload[start:start + 8])
    header = json.loads(payload[start + 8:start + 8 + header_len])
    edit(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = (payload[:start] + struct.pack("<Q", len(header_bytes)) + header_bytes
               + payload[start + 8 + header_len:])
    path.write_bytes(payload + hashlib.sha256(payload).digest())


def _deep_header(depth: int = 5000) -> bytes:
    """A checksummed checkpoint of no parameters whose header nests ``depth`` JSON lists."""
    import struct

    header = b"[" * depth + b"]" * depth
    payload = (ck.MAGIC + struct.pack("<I", ck.FORMAT_VERSION) + struct.pack("<Q", len(header))
               + header)
    return payload + hashlib.sha256(payload).digest()


class TestModelFromCheckpoint:
    @staticmethod
    def _saved_model(tmp_path, edit=None):
        model = dn.init_model(2, 4, 8, 2, 4, 10, np.random.default_rng(0))
        ckpt = ck.Checkpoint(dict(model.params.items()),
                             arch={"d": 2, "K": 4, "hidden_width": 8, "hidden_depth": 2,
                                   "embed_dim": 4, "T": 10},
                             schedule={"t": 10, "beta_min": 0.01, "beta_max": 0.2})
        if edit is not None:
            edit(ckpt)
        ck.save_checkpoint(tmp_path / "model.ckpt", ckpt)
        return model, ck.load_checkpoint(tmp_path / "model.ckpt")

    def test_round_trip(self, tmp_path):
        model, ckpt = self._saved_model(tmp_path)
        loaded, schedule = ex.model_from_checkpoint(ckpt)
        assert loaded.params.names() == model.params.names()
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()
        assert schedule.t == 10

    def test_parameters_stored_in_reverse_restore_in_layout_order(self, tmp_path):
        model, ckpt = self._saved_model(
            tmp_path, lambda c: setattr(c, "params", dict(reversed(c.params.items()))))
        assert list(ckpt.params) == model.params.names()[::-1]
        loaded, _ = ex.model_from_checkpoint(ckpt)
        assert loaded.params.names() == model.params.names()
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    def test_restored_model_owns_its_parameters(self, tmp_path):
        model, ckpt = self._saved_model(tmp_path)
        loaded, _ = ex.model_from_checkpoint(ckpt)
        for value in ckpt.params.values():
            value[...] = 7.0
        assert loaded.params.flat.tobytes() == model.params.flat.tobytes()

    @pytest.mark.parametrize("width", [10**12, 2048])
    def test_declared_width_is_refused_before_any_array_of_its_size(self, tmp_path, width):
        # the 10**12 width used to raise MemoryError: Unable to allocate 72.8 TiB; a width
        # malloc grants used to be allocated and drawn before the shape check
        _, ckpt = self._saved_model(tmp_path, lambda c: c.arch.update(hidden_width=width))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointIntegrityError) as exc:
                ex.model_from_checkpoint(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "'layer1_w': (8, 8)" in str(exc.value)
        assert f"'layer1_w': ({width}, {width})" in str(exc.value)

    @pytest.mark.parametrize("edit", [
        lambda c: c.params.update(head_b=np.zeros(3)),
        lambda c: c.params.update(extra=np.zeros(1)),
        lambda c: c.params.pop("time_b"),
        lambda c: c.params.update(renamed=c.params.pop("layer0_w")),
        lambda c: c.arch.update(hidden_width=9),
        lambda c: c.arch.pop("K"),
        lambda c: c.arch.update(embed_dim="wide"),
        lambda c: c.schedule.pop("beta_max"),
        lambda c: c.schedule.update(t=5),
        lambda c: c.arch.update(T=True),
        lambda c: c.arch.update(K="4"),
        lambda c: c.arch.update(hidden_depth=2.5),
        lambda c: c.schedule.update(beta_min="0.01", beta_max="0.2"),
        lambda c: c.schedule.update(beta_max=True),
        lambda c: c.schedule.update(extra=1),
        lambda c: c.schedule.update(t=10.0),
        lambda c: c.schedule.update(beta_min=0.3),
        lambda c: c.schedule.update(t=[10]),
        lambda c: c.schedule.update(t=None),
        lambda c: c.schedule.update(t=True),
        lambda c: c.schedule.update(beta_min=None),
        lambda c: c.arch.update(hidden_width=[8]),
        # used to raise MemoryError: Unable to allocate 7.28 TiB for the schedule's tables
        lambda c: c.arch.update(T=10**12) or c.schedule.update(t=10**12),
    ], ids=["wrong_shape", "extra_name", "missing_name", "renamed", "arch_width",
            "arch_missing_key", "arch_not_int", "schedule_missing_key", "schedule_t_5",
            "arch_T_true", "arch_K_str", "arch_depth_float", "schedule_betas_str",
            "schedule_beta_bool", "schedule_extra_key", "schedule_t_float",
            "schedule_betas_reversed", "schedule_t_list", "schedule_t_none",
            "schedule_t_true", "schedule_beta_none", "arch_width_list", "schedule_t_1e12"])
    def test_mismatch_raises_integrity_error(self, tmp_path, edit):
        _, ckpt = self._saved_model(tmp_path, edit)
        with pytest.raises(CheckpointIntegrityError):
            ex.model_from_checkpoint(ckpt)

    def test_schedule_longer_than_its_bound_refused_before_any_table(self, tmp_path):
        # malloc would grant a t of 10**9: 24 GB of schedule tables, then a 128 GB step
        # embedding table at the first forward
        _, ckpt = self._saved_model(
            tmp_path, lambda c: c.arch.update(T=10**9) or c.schedule.update(t=10**9))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointIntegrityError,
                               match="^checkpoint has no usable schedule: .*10001"):
                ex.model_from_checkpoint(ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("edit", [lambda c: c.schedule.update(t=[10]),
                                      lambda c: c.arch.update(hidden_width=[8])],
                             ids=["schedule", "arch"])
    def test_list_header_value_fails_the_integer_rule(self, tmp_path, edit):
        # the reader's own JSON-type checks used to refuse both; the integer rule now does
        _, ckpt = self._saved_model(tmp_path, edit)
        with pytest.raises(CheckpointIntegrityError, match="single integer") as exc:
            ex.model_from_checkpoint(ckpt)
        assert isinstance(exc.value.__cause__, DomainError)

    @pytest.mark.parametrize("damage", ["params", "header"])
    def test_ensure_pretrained_rebuilds_a_mismatched_checkpoint(self, tmp_path, damage):
        cfg = tiny_config(tmp_path)
        train_ds, _, schedule = ex.build_world(cfg)
        model = ex.ensure_pretrained(cfg, tmp_path, train_ds, schedule)
        path = tmp_path / "pretrained.ckpt"
        clean = path.read_bytes()
        if damage == "params":
            ckpt = ck.load_checkpoint(path)
            ckpt.params["head_b"] = np.zeros(5)
            ck.save_checkpoint(path, ckpt)
        else:
            _rewrite_header(path, lambda h: h["params"][0].pop("shape"))
        with pytest.raises(CheckpointIntegrityError):
            ex.model_from_checkpoint(ck.load_checkpoint(path))
        rebuilt = ex.ensure_pretrained(cfg, tmp_path, train_ds, schedule)
        assert rebuilt.params.flat.tobytes() == model.params.flat.tobytes()
        assert path.read_bytes() == clean

    def test_reusing_is_logged_only_for_an_accepted_checkpoint(self, tmp_path, caplog):
        # a cached header the reader refused used to log "reusing" before "rebuilding"
        cfg = tiny_config(tmp_path)
        train_ds, _, schedule = ex.build_world(cfg)
        ex.ensure_pretrained(cfg, tmp_path, train_ds, schedule)
        path = tmp_path / "pretrained.ckpt"
        caplog.set_level(logging.INFO, logger=ex.__name__)
        ex.ensure_pretrained(cfg, tmp_path, train_ds, schedule)
        assert f"reusing {path}" in caplog.text
        caplog.clear()
        ckpt = ck.load_checkpoint(path)
        ckpt.schedule["t"] = float(ckpt.schedule["t"])
        ck.save_checkpoint(path, ckpt)
        ex.ensure_pretrained(cfg, tmp_path, train_ds, schedule)
        assert f"reusing {path}" not in caplog.text and f"{path} is unreadable" in caplog.text

    def test_numpy_int_width_round_trips(self, tmp_path):
        # the fresh checkpoint's arch used to hold the np.int64, which its own check refused
        cfg = tiny_config(tmp_path)
        np_cfg = replace(cfg, model=replace(cfg.model, hidden_width=np.int64(16)))
        models = []
        for name, config in (("plain", cfg), ("numpy", np_cfg), ("numpy", np_cfg)):
            (tmp_path / name).mkdir(exist_ok=True)
            train_ds, _, schedule = ex.build_world(config)
            models.append(ex.ensure_pretrained(config, tmp_path / name, train_ds, schedule))
        assert [type(m.arch.hidden_width) for m in models] == [int] * 3
        assert len({m.params.flat.tobytes() for m in models}) == 1
        assert (tmp_path / "plain" / "pretrained.ckpt").read_bytes() == (
            tmp_path / "numpy" / "pretrained.ckpt").read_bytes()


class TestRenderScatter:
    def test_identical_input_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = {c: rng.standard_normal((30, 2)) for c in range(3)}
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_scatter(samples, a)
        render_scatter(samples, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_classes_still_valid_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        render_scatter({}, path)
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    def test_four_classes_four_legend_entries(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "four.svg"
        render_scatter({c: rng.standard_normal((5, 2)) for c in range(4)}, path)
        text = path.read_text()
        assert text.count("class ") == 4

    def test_nine_classes_nine_legend_colours(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "nine.svg"
        render_scatter({c: rng.standard_normal((5, 2)) for c in range(9)}, path)
        colours = re.findall(r'fill="(#[0-9a-f]{6})" class="legend"', path.read_text())
        assert len(colours) == len(set(colours)) == 9

    def test_finite_points_off_the_axes_dropped_and_no_rows_allowed(self, tmp_path):
        path = tmp_path / "edges.svg"
        render_scatter({0: np.zeros((0, 2)), 1: [[8.5, 0.0], [0.0, -9.0], [8.0, -8.0]]}, path)
        text = path.read_text()
        assert text.count("<circle") == 1 and text.count("class ") == 2

    def test_non_planar_rejected(self, tmp_path):
        with pytest.raises(DimensionError):
            render_scatter({0: np.zeros((5, 3))}, tmp_path / "bad.svg")


def tiny_config(tmp_path, **unlearn_overrides) -> cf.ExperimentConfig:
    cfg = cf.default_config()
    unlearn = replace(cfg.unlearn, steps=10, **unlearn_overrides)
    return replace(
        cfg,
        dataset=replace(cfg.dataset, n_per_class=150),
        schedule=replace(cfg.schedule, t=20),
        model=replace(cfg.model, hidden_width=16, hidden_depth=2, embed_dim=8),
        pretrain=replace(cfg.pretrain, steps=150, batch_size=32),
        unlearn=unlearn,
        eval=replace(cfg.eval, n_samples=40, classifier_hidden_width=16,
                     classifier_steps=500),
        output_dir=str(tmp_path / "run"),
    )


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every call to ``owner.name`` while still running it."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_predictions(monkeypatch) -> list:
    """Record the step of every noise prediction of every chain ``evaluation`` samples."""
    steps = []
    chain = ev.ancestral_sample

    def counting(eps_hat, *args):
        return chain(lambda x_t, t: steps.append(t) or eps_hat(x_t, t), *args)

    monkeypatch.setattr(ev, "ancestral_sample", counting)
    return steps


RUN_ARTIFACTS = ("config.txt", "metrics.csv", "report.json", "unlearn_log.csv",
                 "samples_pretrained.svg", "samples_unlearned.svg", "pretrained.ckpt",
                 "unlearned.ckpt", "classifier.ckpt", "samples_pretrained.ckpt")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.5
        return self.now


class TestRunExperiment:
    def test_pipeline_produces_all_artifacts(self, tmp_path, monkeypatch):
        calls = count_predictions(monkeypatch)
        cfg = tiny_config(tmp_path)
        result = ex.run_experiment(cfg, clock=FakeClock())
        # one reverse chain per class per evaluated model; the plots reuse them
        assert len(calls) == 2 * cfg.dataset.k * cfg.schedule.t
        out = result.outdir
        for name in RUN_ARTIFACTS:
            assert (out / name).exists(), name
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("phase,seed,lambda,steps,ua_percent,mean_entropy_nats,"
                          "frechet_mean,frechet_c0,frechet_c1,frechet_c2,frechet_c3,"
                          "rte_seconds")
        assert header.split(",")[4:7] == list(ev.SUMMARY)
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("pretrained,") and rows[1].startswith("safemax,")
        # forget-class distance cell is empty
        assert rows[0].split(",")[7] == ""
        assert result.rte_seconds == 0.5
        report = json.loads((out / "report.json").read_text())
        for phase in ("pretrained", "unlearned"):
            assert set(report[phase]) == {*ev.SUMMARY, "frechet_per_class", "rte_seconds",
                                          "steps_executed"}
        # the harness, not the evaluator, supplies the run's time and step count
        assert (report["pretrained"]["rte_seconds"], report["pretrained"]["steps_executed"]) \
            == (0.0, 0)
        assert (report["unlearned"]["rte_seconds"], report["unlearned"]["steps_executed"]) \
            == (0.5, cfg.unlearn.steps)

    def test_env_json_records_versions_and_blas_threads(self, tmp_path):
        out = ex.run_experiment(tiny_config(tmp_path), clock=FakeClock()).outdir
        env = json.loads((out / "env.json").read_text())
        assert sorted(env) == ["blas", "blas_threads", "numpy", "python"]
        assert env["numpy"] == np.__version__
        assert env["blas_threads"] == (None if gc.blas_threads() is None else 1)

    @needs_openblas
    def test_every_product_of_a_run_sees_blas_on_one_thread(self, tmp_path, monkeypatch):
        # the classifier gate, the linkage check and the scoring used to run on the default count
        seen = {"training step": set(), "predict_proba": set(), "predict_eps": set()}
        fit, proba, chain = gc.fit, ev.predict_proba, ev.ancestral_sample

        def record(what):
            seen[what].add(gc.blas_threads())

        def fitting(steps, learning_rate, step):
            return fit(steps, learning_rate, lambda opt: record("training step") or step(opt))

        def predicting(*args):
            record("predict_proba")
            return proba(*args)

        def sampling(eps_hat, *args):
            return chain(lambda x_t, t: record("predict_eps") or eps_hat(x_t, t), *args)

        monkeypatch.setattr(gc, "fit", fitting)
        monkeypatch.setattr(ev, "predict_proba", predicting)
        monkeypatch.setattr(ev, "ancestral_sample", sampling)
        ex.run_experiment(tiny_config(tmp_path), clock=FakeClock())
        assert seen == {"training step": {1}, "predict_proba": {1}, "predict_eps": {1}}

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = replace(tiny_config(tmp_path / "b"), output_dir=str(tmp_path / "b" / "run"))
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)
        ra = ex.run_experiment(cfg_a, clock=FakeClock())
        rb = ex.run_experiment(cfg_b, clock=FakeClock())
        for name in ("metrics.csv", "report.json", "samples_pretrained.svg",
                     "samples_unlearned.svg", "unlearn_log.csv"):
            a_bytes = (ra.outdir / name).read_bytes()
            b_bytes = (rb.outdir / name).read_bytes()
            assert a_bytes == b_bytes, f"{name} differs between reruns"

    def test_numpy_integers_write_the_python_ints_bytes(self, tmp_path):
        # an np.int64 seed or step count used to crash save_checkpoint's JSON header
        def as_numpy(spec, *names):
            return replace(spec, **{name: np.int64(getattr(spec, name)) for name in names})

        runs = {}
        for name in ("plain", "numpy"):
            (tmp_path / name).mkdir()
            cfg = tiny_config(tmp_path / name)
            if name == "numpy":
                cfg = replace(cfg, schedule=as_numpy(cfg.schedule, "t"),
                              pretrain=as_numpy(cfg.pretrain, "seed", "steps"),
                              unlearn=as_numpy(cfg.unlearn, "seed", "steps"),
                              eval=as_numpy(cfg.eval, "seed", "n_samples"))
            runs[name] = ex.run_experiment(cfg, clock=FakeClock()).outdir
        for name in RUN_ARTIFACTS[1:]:  # config.txt names its own output.dir
            assert (runs["plain"] / name).read_bytes() == (runs["numpy"] / name).read_bytes(), name

    def test_zero_dim_arrays_write_the_python_values_bytes(self, tmp_path):
        # a 0-d seed used to fail in pretraining, a 0-d decay rate at the report
        runs = {}
        for name, kind in (("plain", lambda v: v), ("numpy", np.array)):
            (tmp_path / name).mkdir()
            cfg = tiny_config(tmp_path / name, lam=kind(0.5))
            cfg = replace(cfg, pretrain=replace(cfg.pretrain, seed=kind(1)))
            runs[name] = ex.run_experiment(cfg, clock=FakeClock()).outdir
        for name in RUN_ARTIFACTS[1:]:  # config.txt names its own output.dir
            assert (runs["plain"] / name).read_bytes() == (runs["numpy"] / name).read_bytes(), name

    def test_numpy_floats_write_the_widened_floats_bytes(self, tmp_path):
        # an np.float32 rate or bound used to crash the first JSON write
        runs = {}
        for name, kind in (("plain", lambda v: float(np.float32(v))), ("numpy", np.float32)):
            (tmp_path / name).mkdir()
            cfg = tiny_config(tmp_path / name)
            sections = {}
            for key in FLOAT_KEYS:
                section, field = _section_field(key)
                value = getattr(getattr(cfg, section), field)
                sections.setdefault(section, {})[field] = kind(value)
            cfg = replace(cfg, **{section: replace(getattr(cfg, section), **fields)
                                  for section, fields in sections.items()})
            runs[name] = ex.run_experiment(cfg, clock=FakeClock()).outdir
        for name in RUN_ARTIFACTS[1:]:  # config.txt names its own output.dir
            assert (runs["plain"] / name).read_bytes() == (runs["numpy"] / name).read_bytes(), name
        keys = [[line for line in (out / "config.txt").read_text().splitlines()
                 if not line.startswith("output.")] for out in runs.values()]
        assert keys[0] == keys[1]

    def test_missing_parent_raises_path_error(self, tmp_path):
        cfg = replace(tiny_config(tmp_path), output_dir=str(tmp_path / "no" / "such" / "dir"))
        with pytest.raises(FileNotFoundError):
            ex.run_experiment(cfg, clock=FakeClock())

    def test_output_dir_the_text_cannot_hold_creates_nothing(self, tmp_path):
        cfg = replace(tiny_config(tmp_path), output_dir=str(tmp_path / "try#2"))
        with pytest.raises(ConfigError, match="output.dir"):
            ex.run_experiment(cfg, clock=FakeClock())
        assert not (tmp_path / "try#2").exists()

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ex.OUTPUT_ROOT_ENV, str(tmp_path / "root"))
        cfg = replace(tiny_config(tmp_path), output_dir="nested")
        (tmp_path / "root").mkdir()
        result = ex.run_experiment(cfg, clock=FakeClock())
        assert result.outdir == tmp_path / "root" / "nested"

    def test_stage_failure_recorded(self, tmp_path):
        cfg = tiny_config(tmp_path)
        # classifier gate cannot pass with one step at a tiny rate
        cfg = replace(cfg, eval=replace(cfg.eval, classifier_steps=1,
                                        classifier_learning_rate=1e-9))
        with pytest.raises(StageError) as err:
            ex.run_experiment(cfg, clock=FakeClock())
        assert err.value.stage == "classifier"
        status = json.loads((Path(cfg.output_dir) / "status.json").read_text())
        assert status["stage"] == "classifier"
        assert not (Path(cfg.output_dir) / "classifier.ckpt").exists()

    def test_successful_rerun_drops_the_old_failure_record(self, tmp_path):
        cfg = tiny_config(tmp_path)
        failing = replace(cfg, eval=replace(cfg.eval, classifier_steps=1,
                                            classifier_learning_rate=1e-9))
        with pytest.raises(StageError):
            ex.run_experiment(failing, clock=FakeClock())
        status = Path(cfg.output_dir) / "status.json"
        assert status.exists()
        result = ex.run_experiment(cfg, clock=FakeClock())
        assert (result.outdir / "report.json").exists()
        assert not status.exists()

    def test_rerun_after_a_crash_in_unlearning_matches_a_clean_run(self, tmp_path,
                                                                   monkeypatch):
        cfg = replace(tiny_config(tmp_path), output_dir="run")
        monkeypatch.setenv(ex.OUTPUT_ROOT_ENV, str(tmp_path / "clean"))
        (tmp_path / "clean").mkdir()
        out = ex.run_experiment(cfg, clock=FakeClock()).outdir
        clean = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}

        monkeypatch.setenv(ex.OUTPUT_ROOT_ENV, str(tmp_path / "crashed"))
        (tmp_path / "crashed").mkdir()
        out = tmp_path / "crashed" / "run"
        step = ul.safemax_step
        steps = []

        def dies_midway(*args):
            steps.append(1)
            if len(steps) == 10:
                raise RuntimeError("killed")
            return step(*args)

        with monkeypatch.context() as patch:
            patch.setattr(ul, "safemax_step", dies_midway)
            with pytest.raises(StageError) as err:
                ex.run_experiment(cfg, clock=FakeClock())
        assert err.value.stage == "unlearn"
        assert json.loads((out / "status.json").read_text())["stage"] == "unlearn"
        assert not (out / "unlearned.ckpt").exists()

        train_calls = count_calls(monkeypatch, dn, "train")
        ex.run_experiment(cfg, clock=FakeClock())
        assert train_calls == []
        assert not (out / "status.json").exists()
        for name in RUN_ARTIFACTS:
            assert (out / name).read_bytes() == clean[name], name

    def test_second_run_reuses_classifier_and_pretrained_samples(self, tmp_path, monkeypatch):
        eps_calls = count_predictions(monkeypatch)
        clf_calls = count_calls(monkeypatch, ex, "train_classifier")
        linkage_calls = count_calls(monkeypatch, ex, "entropy_linkage_holds")
        shared = tmp_path / "shared"
        shared.mkdir()
        cfg = tiny_config(tmp_path)
        chains = cfg.dataset.k * cfg.schedule.t
        first = ex.run_experiment(replace(cfg, output_dir=str(tmp_path / "first")),
                                  clock=FakeClock(), pretrained_dir=shared)
        assert (len(eps_calls), len(clf_calls)) == (2 * chains, 1)
        del eps_calls[:], clf_calls[:]
        second = ex.run_experiment(replace(cfg, output_dir=str(tmp_path / "second")),
                                   clock=FakeClock(), pretrained_dir=shared)
        # only the unlearned model is sampled; the classifier is loaded
        assert (len(eps_calls), len(clf_calls)) == (chains, 0)
        assert len(linkage_calls) == 2
        for name in ("metrics.csv", "report.json", "samples_pretrained.svg",
                     "samples_unlearned.svg", "unlearn_log.csv", "unlearned.ckpt"):
            assert (first.outdir / name).read_bytes() == (second.outdir / name).read_bytes(), name

    def test_each_cache_is_invalidated_only_by_its_own_keys(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        ex.run_experiment(cfg, clock=FakeClock())
        eps_calls = count_predictions(monkeypatch)
        clf_calls = count_calls(monkeypatch, ex, "train_classifier")
        chains = cfg.dataset.k * cfg.schedule.t
        cfg = replace(cfg, eval=replace(cfg.eval, seed=cfg.eval.seed + 1))
        ex.run_experiment(cfg, clock=FakeClock())
        assert (len(eps_calls), len(clf_calls)) == (2 * chains, 0)
        del eps_calls[:], clf_calls[:]
        cfg = replace(cfg, eval=replace(cfg.eval, classifier_steps=cfg.eval.classifier_steps + 1))
        ex.run_experiment(cfg, clock=FakeClock())
        assert (len(eps_calls), len(clf_calls)) == (chains, 1)

    def test_cached_classifier_is_gated_again(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = ex.run_experiment(cfg, clock=FakeClock()).outdir
        cached = ck.load_checkpoint(out / "classifier.ckpt")
        cached.params["head_w"] = np.zeros_like(cached.params["head_w"])
        ck.save_checkpoint(out / "classifier.ckpt", cached)
        with pytest.raises(StageError) as err:
            ex.run_experiment(cfg, clock=FakeClock())
        assert err.value.stage == "classifier"

    def test_failed_scoring_caches_no_samples(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)

        def failing(*args):
            raise DegenerateSampleError("too few samples for a Frechet fit")

        monkeypatch.setattr(ex, "score_samples", failing)
        with pytest.raises(StageError) as err:
            ex.run_experiment(cfg, clock=FakeClock())
        assert err.value.stage == "evaluate_pretrained"
        assert not (Path(cfg.output_dir) / "samples_pretrained.ckpt").exists()

    def test_corrupt_caches_are_rebuilt_byte_identically(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = ex.run_experiment(cfg, clock=FakeClock()).outdir
        clean = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}
        pretrained = out / "pretrained.ckpt"
        pretrained.write_bytes(clean["pretrained.ckpt"][:len(clean["pretrained.ckpt"]) // 2])
        flipped = bytearray(clean["classifier.ckpt"])
        flipped[len(flipped) // 2] ^= 0x01
        (out / "classifier.ckpt").write_bytes(bytes(flipped))
        ex.run_experiment(cfg, clock=FakeClock())
        for name in RUN_ARTIFACTS:
            assert (out / name).read_bytes() == clean[name], name

    def test_checksummed_caches_that_do_not_fit_are_rebuilt(self, tmp_path):
        cfg = tiny_config(tmp_path)
        out = ex.run_experiment(cfg, clock=FakeClock()).outdir
        clean = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}
        for name, edit in (("pretrained.ckpt", lambda p: p.update(head_b=np.zeros(3))),
                           ("classifier.ckpt", lambda p: p.pop("head_b")),
                           ("samples_pretrained.ckpt", lambda p: p.pop("class1"))):
            cached = ck.load_checkpoint(out / name)
            edit(cached.params)
            ck.save_checkpoint(out / name, cached)
        ex.run_experiment(cfg, clock=FakeClock())
        for name in RUN_ARTIFACTS:
            assert (out / name).read_bytes() == clean[name], name

    def test_cached_header_of_an_absurd_width_is_rebuilt(self, tmp_path):
        # each used to fail its stage with MemoryError: Unable to allocate ... TiB
        cfg = tiny_config(tmp_path)
        out = ex.run_experiment(cfg, clock=FakeClock()).outdir
        clean = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}
        for cached_name in ("pretrained.ckpt", "classifier.ckpt"):
            cached = ck.load_checkpoint(out / cached_name)
            cached.arch["hidden_width"] = 10**12
            ck.save_checkpoint(out / cached_name, cached)
            ex.run_experiment(cfg, clock=FakeClock())
            for name in RUN_ARTIFACTS:
                assert (out / name).read_bytes() == clean[name], (cached_name, name)

    @pytest.mark.parametrize("damage", ["deep_header", "huge_schedule"])
    def test_cached_pretrained_checkpoint_that_cannot_be_restored_is_rebuilt(self, tmp_path,
                                                                             damage):
        # each used to fail stage 'pretrain' (RecursionError, MemoryError)
        cfg = tiny_config(tmp_path)
        out = ex.run_experiment(cfg, clock=FakeClock()).outdir
        clean = {name: (out / name).read_bytes() for name in RUN_ARTIFACTS}
        path = out / "pretrained.ckpt"
        if damage == "deep_header":
            path.write_bytes(_deep_header())
        else:
            cached = ck.load_checkpoint(path)
            cached.arch["T"] = cached.schedule["t"] = 10**12
            ck.save_checkpoint(path, cached)
        ex.run_experiment(cfg, clock=FakeClock())
        for name in RUN_ARTIFACTS:
            assert (out / name).read_bytes() == clean[name], name

    def test_relabel_method(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = ex.run_experiment(cfg, method="relabel", clock=FakeClock())
        rows = (result.outdir / "metrics.csv").read_text().splitlines()[1:]
        assert rows[1].startswith("relabel,")

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ex.run_experiment(tiny_config(tmp_path), method="fisher")


class TestSweep:
    def test_offset_seeds_shifts_exactly_the_five_seeds(self):
        base = cf.default_config()
        before, after = (dict(line.split(" = ") for line in cf.render_config(cfg).splitlines())
                         for cfg in (base, ex.offset_seeds(base, 3)))
        seeds = {"dataset.seed", "pretrain.seed", "unlearn.seed", "eval.classifier_seed",
                 "eval.seed"}
        assert {key for key in before if before[key] != after[key]} == seeds
        assert all(int(after[key]) == int(before[key]) + 3 for key in seeds)

    def test_offset_of_a_narrow_numpy_seed_is_exact(self):
        # an np.uint8 seed of 255 used to wrap to 1 under a RuntimeWarning
        cfg = cf.default_config()
        cfg = replace(cfg, eval=replace(cfg.eval, seed=np.uint8(255)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ex.offset_seeds(cfg, 2).eval.seed == 257

    def test_single_value_matches_single_run(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = ex.sweep(cfg, [1.0], members=1, clock=FakeClock())
        lines = path.read_text().splitlines()
        assert lines[0] == "value,seed,status,ua_percent,mean_entropy_nats,frechet_mean,rte_seconds"
        assert lines[0].split(",")[3:6] == list(ev.SUMMARY)
        data = [l for l in lines[1:] if l]
        assert len(data) == 2  # one run row + one median row
        run_row, median_row = data
        assert run_row.split(",")[2] == "ok"
        assert median_row.split(",")[1] == "median"
        assert run_row.split(",")[3] == median_row.split(",")[3]

    def test_stage_failure_gives_failed_rows_and_no_median(self, tmp_path):
        cfg = tiny_config(tmp_path)
        # classifier gate cannot pass with one step at a tiny rate
        cfg = replace(cfg, eval=replace(cfg.eval, classifier_steps=1,
                                        classifier_learning_rate=1e-9))
        path = ex.sweep(cfg, [1.0], members=2, clock=FakeClock())
        data = path.read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in data] == ["failed:classifier", "failed:classifier"]

    def test_unlearn_failure_names_its_stage_and_spares_other_values(self, tmp_path,
                                                                      monkeypatch):
        runner = ul.METHODS["safemax"]

        def diverging(model, dataset, schedule, config):
            if config.lam == 2.0:
                raise NumericError("non-finite unlearning objective")
            return runner(model, dataset, schedule, config)

        cfg = tiny_config(tmp_path)
        clean = ex.sweep(cfg, [1.0], members=1, clock=FakeClock()).read_text().splitlines()
        monkeypatch.setitem(ul.METHODS, "safemax", diverging)
        rows = ex.sweep(cfg, [1.0, 2.0], members=1, clock=FakeClock()).read_text().splitlines()
        assert [row.split(",")[:3] for row in rows[1:]] == [
            ["1.0", "2", "ok"], ["2.0", "2", "failed:unlearn"], ["1.0", "median", "ok"]]
        assert rows[1] == clean[1] and rows[3] == clean[2]
        assert rows[2] == "2.0,2,failed:unlearn,,,,"

    def test_duplicate_values_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ex.sweep(tiny_config(tmp_path), [1.0, 1.0])

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ex.sweep(tiny_config(tmp_path), [])

    def test_bad_value_propagates(self, tmp_path):
        with pytest.raises(DomainError, match="lambda"):
            ex.sweep(tiny_config(tmp_path), [-1.0])

    def test_bad_value_rejected_before_any_run(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(DomainError, match="lambda"):
            ex.sweep(cfg, [1.0, -1.0], members=1)
        assert not (Path(cfg.output_dir) / "sweep_lambda" / "member0").exists()
        assert list(tmp_path.rglob("*.ckpt")) == []

    @pytest.mark.parametrize("value", [True, [0.5], "abc"], ids=["bool", "list", "str"])
    def test_value_not_one_real_rejected_before_any_directory(self, tmp_path, value):
        # a bool used to run lambda = 1.0, a list or a str to raise a bare TypeError or ValueError
        cfg = tiny_config(tmp_path)
        with pytest.raises(DomainError, match="lambda: expected a real number"):
            ex.sweep(cfg, [value], members=1)
        assert not Path(cfg.output_dir).exists()

    def test_numpy_float_value_writes_the_python_floats_table(self, tmp_path):
        tables = {}
        for name, value in (("plain", 0.5), ("numpy", np.float32(0.5))):
            (tmp_path / name).mkdir()
            path = ex.sweep(tiny_config(tmp_path / name), [value], members=1, clock=FakeClock())
            assert [p.name for p in (path.parent / "member0").iterdir() if p.is_dir()] == [
                "value_0.5"]
            tables[name] = path.read_bytes()
        assert tables["plain"] == tables["numpy"]

    @pytest.mark.parametrize("members", [0, 1.5, True], ids=["zero", "float", "bool"])
    def test_bad_member_count_rejected_before_any_run(self, tmp_path, members):
        # a bool used to run one member, a float to fail in range() with a bare TypeError
        cfg = tiny_config(tmp_path)
        with pytest.raises(DomainError, match="members must be integer >= 1"):
            ex.sweep(cfg, [1.0], members=members)
        assert not Path(cfg.output_dir).exists()

    def test_list_member_count_rejected_before_any_run(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(DomainError, match=r"members must be a single integer, got \[1\]"):
            ex.sweep(cfg, [1.0], members=[1])
        assert not Path(cfg.output_dir).exists()

    def test_members_train_one_classifier_each(self, tmp_path, monkeypatch):
        clf_calls = count_calls(monkeypatch, ex, "train_classifier")
        ex.sweep(tiny_config(tmp_path), [0.0, 1.0], members=2, clock=FakeClock())
        assert len(clf_calls) == 2


class TestCli:
    def test_sample_command(self, tmp_path, capsys):
        from safemax_lab.harness.cli import main
        cfg = tiny_config(tmp_path)
        ex.run_experiment(cfg, clock=FakeClock())
        out_svg = tmp_path / "samples.svg"
        rc = main(["sample", str(Path(cfg.output_dir) / "pretrained.ckpt"),
                   "--class", "1", "--n", "20", "--out", str(out_svg)])
        assert rc == 0
        assert out_svg.exists()
        # a class the checkpoint's K = 4 does not have is a bad value: exit 2, no SVG
        bad_svg = tmp_path / "never.svg"
        assert main(["sample", str(Path(cfg.output_dir) / "pretrained.ckpt"),
                     "--class", "4", "--out", str(bad_svg)]) == 2
        assert "class must be integer in [0, 4)" in capsys.readouterr().err
        assert not bad_svg.exists()

    def test_report_command(self, tmp_path, capsys):
        from safemax_lab.harness.cli import main
        cfg = tiny_config(tmp_path)
        ex.run_experiment(cfg, clock=FakeClock())
        rc = main(["report", str(cfg.output_dir)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "pretrained" in captured.out and "unlearned" in captured.out

    def test_unlearn_command(self, tmp_path, capsys):
        from safemax_lab.harness.cli import build_parser, main
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(cf.render_config(tiny_config(tmp_path)), encoding="utf-8")
        assert main(["unlearn", str(cfg_path), "--method", "relabel"]) == 0
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        method = next(a for a in commands.choices["unlearn"]._actions if a.dest == "method")
        assert tuple(method.choices) == tuple(ul.METHODS)
        out = capsys.readouterr().out
        assert "method=relabel" in out
        rows = [line.split() for line in out.splitlines()]
        assert [[*ev.SUMMARY, "rte_seconds"]] == [row for row in rows if row[0] == ev.SUMMARY[0]]
        assert [len(row) for row in rows if row[0] in ("pretrained", "unlearned")] == [
            len(ev.SUMMARY) + 2] * 2
        # `report` prints the same table from the report.json that `unlearn` wrote
        assert main(["report", str(tiny_config(tmp_path).output_dir)]) == 0
        assert capsys.readouterr().out in out
        # the pipeline's reports are printed by `unlearn` and kept in report.json
        with pytest.raises(SystemExit) as err:
            main(["evaluate", str(cfg_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize("content", [b"unlearn.lambda = -3\n", b"\xff",
                                         b"dataset.geometry = caf\xe9\n"],
                             ids=["negative_lambda", "not_utf8_ff", "not_utf8_e9"])
    def test_config_error_exit_code(self, tmp_path, capsys, content):
        from safemax_lab.harness.cli import main
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(content)
        for args in (["train"], ["unlearn"], ["sweep", "--lambda", "1"]):
            assert main([args[0], str(bad), *args[1:]]) == 2
            self._assert_one_error_line(capsys, "config error: ")

    def _assert_one_error_line(self, capsys, named):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and named in captured.err

    def test_failed_stage_exits_1(self, tmp_path, capsys):
        # one classifier step cannot pass the 98% held-out gate
        from safemax_lab.harness.cli import main
        cfg = tiny_config(tmp_path)
        cfg = replace(cfg, eval=replace(cfg.eval, classifier_steps=1))
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(cf.render_config(cfg), encoding="utf-8")
        assert main(["unlearn", str(cfg_path)]) == 1
        self._assert_one_error_line(capsys, "StageError: stage 'classifier' failed")

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        from safemax_lab.harness.cli import main
        assert main(["train", str(tmp_path / "missing.cfg")]) == 1
        self._assert_one_error_line(capsys, "missing.cfg")

    def test_sample_on_missing_checkpoint_exits_1(self, tmp_path, capsys):
        from safemax_lab.harness.cli import main
        out_svg = tmp_path / "samples.svg"
        assert main(["sample", str(tmp_path / "missing.ckpt"), "--class", "0",
                     "--out", str(out_svg)]) == 1
        self._assert_one_error_line(capsys, "missing.ckpt")
        assert not out_svg.exists()

    @pytest.mark.parametrize("damage, named", [
        ("flip", "CheckpointIntegrityError"), ("version", "CheckpointVersionError"),
        ("wide", "CheckpointIntegrityError: parameters"),
        ("deep", "CheckpointIntegrityError: unreadable header"),
        ("long", "CheckpointIntegrityError: checkpoint has no usable schedule"),
    ], ids=["corrupt", "wrong_version", "absurd_width", "deep_header", "huge_schedule"])
    def test_sample_on_unloadable_checkpoint_exits_1(self, tmp_path, capsys, monkeypatch,
                                                     damage, named):
        # the absurd width and the huge schedule used to end in a MemoryError traceback,
        # the deep header in a RecursionError one
        from safemax_lab.harness.cli import main
        path = tmp_path / "model.ckpt"
        ckpt = _dummy_checkpoint()
        if damage == "wide":
            ckpt.arch["hidden_width"] = 10**12
        with monkeypatch.context() as m:
            if damage == "version":
                m.setattr(ck, "FORMAT_VERSION", 99)
            ck.save_checkpoint(path, ckpt)
        if damage == "flip":
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        elif damage == "deep":
            path.write_bytes(_deep_header())
        elif damage == "long":
            TestModelFromCheckpoint._saved_model(
                tmp_path, lambda c: c.arch.update(T=10**12) or c.schedule.update(t=10**12))
        out_svg = tmp_path / "samples.svg"
        assert main(["sample", str(path), "--class", "0", "--out", str(out_svg)]) == 1
        self._assert_one_error_line(capsys, named)
        assert not out_svg.exists()

    def test_sample_of_no_rows_writes_an_svg(self, tmp_path, capsys):
        from safemax_lab.harness.cli import main
        TestModelFromCheckpoint._saved_model(tmp_path)
        out_svg = tmp_path / "empty.svg"
        assert main(["sample", str(tmp_path / "model.ckpt"), "--class", "3", "--n", "0",
                     "--out", str(out_svg)]) == 0
        assert "wrote 0 samples of class 3" in capsys.readouterr().out
        assert out_svg.read_text().startswith("<svg")

    def test_sample_that_overflows_exits_1_naming_its_step(self, tmp_path, capsys):
        # used to end in a NumericError traceback
        from safemax_lab.harness.cli import main
        TestModelFromCheckpoint._saved_model(
            tmp_path, lambda c: c.params["class_embed"].__setitem__(0, 1e308))
        out_svg = tmp_path / "samples.svg"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["sample", str(tmp_path / "model.ckpt"), "--class", "0",
                       "--out", str(out_svg)])
        assert rc == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert re.fullmatch(r"NumericError: non-finite latent at reverse step t=\d+", last)
        assert not out_svg.exists()

    def test_train_whose_loss_overflows_exits_1_naming_the_stage(self, tmp_path, capsys):
        # used to end in a NumericError traceback; `unlearn` already exited 1
        from safemax_lab.harness.cli import main
        cfg = tiny_config(tmp_path)
        cfg = replace(cfg, pretrain=replace(cfg.pretrain, learning_rate=1e6))
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(cf.render_config(cfg), encoding="utf-8")
        for command in ("train", "unlearn"):
            with np.errstate(over="ignore", invalid="ignore"):
                assert main([command, str(cfg_path)]) == 1
            last = capsys.readouterr().err.splitlines()[-1]
            assert last == ("StageError: stage 'pretrain' failed: "
                            "non-finite training loss (at step 2)"), command
            assert not (Path(cfg.output_dir) / "pretrained.ckpt").exists()
            status = json.loads((Path(cfg.output_dir) / "status.json").read_text())
            assert status["stage"] == "pretrain"
        # a train that succeeds clears the failure record
        cfg_path.write_text(cf.render_config(tiny_config(tmp_path)), encoding="utf-8")
        assert main(["train", str(cfg_path)]) == 0
        assert not (Path(cfg.output_dir) / "status.json").exists()

    def test_output_dir_without_parent_exits_1(self, tmp_path, capsys):
        from safemax_lab.harness.cli import main
        cfg = replace(tiny_config(tmp_path), output_dir=str(tmp_path / "no" / "run"))
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(cf.render_config(cfg), encoding="utf-8")
        assert main(["unlearn", str(cfg_path)]) == 1
        self._assert_one_error_line(capsys, str(tmp_path / "no"))
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("args, named", [
        (["unlearn", "--lambda", "nan"], "lambda"),
        (["sweep", "--lambda", "nan"], "lambda"),
        (["sweep", "--lambda", "1", "--members", "0"], "members"),
        (["sweep", "--lambda", "abc"], "--lambda"),
        (["sample", "--class", "0", "--out", "never.svg", "--seed", "-1"], "seed"),
    ], ids=["unlearn_nan", "sweep_nan", "sweep_no_members", "sweep_not_a_number",
            "sample_negative_seed"])
    def test_bad_value_exits_2_before_any_run(self, tmp_path, capsys, args, named):
        from safemax_lab.harness.cli import main
        cfg = tiny_config(tmp_path)
        cfg_path = tmp_path / "tiny.cfg"
        cfg_path.write_text(cf.render_config(cfg), encoding="utf-8")
        assert main([args[0], str(cfg_path), *args[1:]]) == 2
        assert named in capsys.readouterr().err
        assert not Path(cfg.output_dir).exists()

    @pytest.mark.parametrize("text", ["{not json", '{"method": "safemax"}', "[1, 2]"],
                             ids=["not_json", "no_reports", "not_an_object"])
    def test_unreadable_report_exits_1(self, tmp_path, capsys, text):
        from safemax_lab.harness.cli import main
        (tmp_path / "report.json").write_text(text, encoding="utf-8")
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "report.json" in captured.err and captured.out == ""
