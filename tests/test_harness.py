import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemax_lab import denoiser as dn
from safemax_lab import unlearn as ul
from safemax_lab.errors import (CheckpointIntegrityError, CheckpointVersionError,
                                ConfigError, DimensionError, DomainError, StageError)
from safemax_lab.harness import checkpoints as ck
from safemax_lab.harness import config as cf
from safemax_lab.harness import experiment as ex
from safemax_lab.harness.datasets import class_means, generate_toy_dataset
from safemax_lab.harness.plots import render_scatter


class TestGenerateToyDataset:
    def test_ring_means_at_cardinal_angles(self):
        means = class_means(4, "ring")
        npt.assert_allclose(means, [[4, 0], [0, 4], [-4, 0], [0, -4]], atol=1e-12)

    def test_sample_means_near_class_means(self):
        n = 2000
        ds = generate_toy_dataset(4, n, "ring", 0.35, seed=0)
        means = class_means(4, "ring")
        for c in range(4):
            pts = ds.points[ds.class_indices(c)]
            bound = 3 * 0.35 / np.sqrt(n)
            assert np.all(np.abs(pts.mean(axis=0) - means[c]) < bound)

    def test_same_seed_identical(self):
        a = generate_toy_dataset(3, 50, "grid", 0.2, seed=9)
        b = generate_toy_dataset(3, 50, "grid", 0.2, seed=9)
        npt.assert_array_equal(a.points, b.points)
        npt.assert_array_equal(a.labels, b.labels)

    def test_unknown_geometry(self):
        with pytest.raises(ConfigError):
            generate_toy_dataset(4, 10, "spiral", 0.2, seed=0)

    def test_bad_sizes(self):
        with pytest.raises(DomainError):
            generate_toy_dataset(1, 10, "ring", 0.2, seed=0)
        with pytest.raises(DomainError):
            generate_toy_dataset(4, 1, "ring", 0.2, seed=0)
        with pytest.raises(DomainError):
            generate_toy_dataset(4, 10, "ring", 0.0, seed=0)


class TestConfig:
    def test_empty_text_gives_defaults(self):
        assert cf.parse_config("") == cf.default_config()

    def test_comments_and_blanks_ignored(self):
        cfg = cf.parse_config("# a comment\n\ndataset.k = 6  # trailing\n")
        assert cfg.dataset.k == 6

    def test_negative_lambda_names_key(self):
        with pytest.raises(ConfigError, match="unlearn.lambda"):
            cf.parse_config("unlearn.lambda = -1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cf.parse_config("dataset.radius = 2")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="dataset.k"):
            cf.parse_config("dataset.k = ring")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cf.parse_config("dataset.k = 4\ndataset.k = 5")

    def test_forget_class_bound_check(self):
        with pytest.raises(ConfigError, match="unlearn.forget_class"):
            cf.parse_config("dataset.k = 3\nunlearn.forget_class = 3")

    def test_round_trip_default(self):
        cfg = cf.default_config()
        assert cf.parse_config(cf.render_config(cfg)) == cfg

    @given(st.integers(min_value=2, max_value=9),
           st.floats(min_value=1e-6, max_value=0.5),
           st.floats(min_value=0.0, max_value=250.0),
           st.sampled_from(["ring", "grid"]),
           st.sampled_from(["independent", "trajectory"]),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_configs(self, k, noise, lam, geometry, mode, seed):
        cfg = cf.default_config()
        cfg = replace(cfg,
                      dataset=replace(cfg.dataset, k=k, noise_scale=noise,
                                      geometry=geometry, seed=seed),
                      unlearn=replace(cfg.unlearn, lam=lam, epsT_mode=mode,
                                      forget_class=k - 1))
        rendered = cf.render_config(cfg)
        assert cf.parse_config(rendered) == cfg
        assert cf.render_config(cf.parse_config(rendered)) == rendered


def _dummy_checkpoint():
    rng = np.random.default_rng(0)
    return ck.Checkpoint(
        format_version=ck.FORMAT_VERSION,
        arch={"d": 2, "K": 4, "hidden_width": 8, "hidden_depth": 2,
              "embed_dim": 4, "T": 10},
        schedule={"t": 10, "beta_min": 0.01, "beta_max": 0.2},
        beta=np.linspace(0.01, 0.2, 10),
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
        npt.assert_array_equal(loaded.beta, original.beta)
        for name, value in original.params.items():
            npt.assert_array_equal(loaded.params[name], value)
            assert loaded.params[name].tobytes() == value.tobytes()

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        bad = _dummy_checkpoint()
        bad.format_version = 99
        ck.save_checkpoint(path, bad)
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


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.5
        return self.now


class TestRunExperiment:
    def test_pipeline_produces_all_artifacts(self, tmp_path, monkeypatch):
        calls = []
        predict_eps = dn.predict_eps

        def counting_predict_eps(*args):
            calls.append(args)
            return predict_eps(*args)

        monkeypatch.setattr(dn, "predict_eps", counting_predict_eps)
        cfg = tiny_config(tmp_path)
        result = ex.run_experiment(cfg, clock=FakeClock())
        # one reverse chain per class per evaluated model; the plots reuse them
        assert len(calls) == 2 * cfg.dataset.k * cfg.schedule.t
        out = result.outdir
        for name in ("config.txt", "pretrained.ckpt", "unlearned.ckpt", "metrics.csv",
                     "report.json", "unlearn_log.csv", "samples_pretrained.svg",
                     "samples_unlearned.svg"):
            assert (out / name).exists(), name
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == ("phase,seed,lambda,steps,ua_percent,mean_entropy_nats,"
                          "frechet_mean,frechet_c0,frechet_c1,frechet_c2,frechet_c3,"
                          "rte_seconds")
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("pretrained,") and rows[1].startswith("safemax,")
        # forget-class distance cell is empty
        assert rows[0].split(",")[7] == ""
        assert result.rte_seconds == 0.5

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

    def test_missing_parent_raises_path_error(self, tmp_path):
        cfg = replace(tiny_config(tmp_path), output_dir=str(tmp_path / "no" / "such" / "dir"))
        with pytest.raises(FileNotFoundError):
            ex.run_experiment(cfg, clock=FakeClock())

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

    def test_relabel_method(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = ex.run_experiment(cfg, method="relabel", clock=FakeClock())
        rows = (result.outdir / "metrics.csv").read_text().splitlines()[1:]
        assert rows[1].startswith("relabel,")

    def test_unknown_method_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ex.run_experiment(tiny_config(tmp_path), method="fisher")


class TestSweep:
    def test_single_value_matches_single_run(self, tmp_path):
        cfg = tiny_config(tmp_path)
        path = ex.sweep(cfg, [1.0], members=1, clock=FakeClock())
        lines = path.read_text().splitlines()
        assert lines[0] == "value,seed,status,ua_percent,mean_entropy_nats,frechet_mean,rte_seconds"
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
        assert [row.split(",")[2] for row in data] == ["failed", "failed"]

    def test_duplicate_values_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ex.sweep(tiny_config(tmp_path), [1.0, 1.0])

    def test_empty_values_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ex.sweep(tiny_config(tmp_path), [])

    def test_bad_value_propagates(self, tmp_path):
        with pytest.raises(DomainError, match="lambda"):
            ex.sweep(tiny_config(tmp_path), [-1.0])


class TestCli:
    def test_sample_command(self, tmp_path):
        from safemax_lab.harness.cli import main
        cfg = tiny_config(tmp_path)
        ex.run_experiment(cfg, clock=FakeClock())
        out_svg = tmp_path / "samples.svg"
        rc = main(["sample", str(Path(cfg.output_dir) / "pretrained.ckpt"),
                   "--class", "1", "--n", "20", "--out", str(out_svg)])
        assert rc == 0
        assert out_svg.exists()

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
        assert "pretrained: UA=" in out and "unlearned:  UA=" in out
        # the pipeline's reports are printed by `unlearn` and kept in report.json
        with pytest.raises(SystemExit) as err:
            main(["evaluate", str(cfg_path)])
        assert err.value.code == 2

    def test_config_error_exit_code(self, tmp_path):
        from safemax_lab.harness.cli import main
        bad = tmp_path / "bad.cfg"
        bad.write_text("unlearn.lambda = -3\n")
        assert main(["train", str(bad)]) == 2
