"""The traced benchmark run patches lab functions by name; keep those names bound.

``perfbench/tracer.py`` wraps the lab's public functions from outside. A
refactor that drops or renames one of them, or that calls a step function
through a reference taken before the tracer patched it, should fail here
rather than only in a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from safemax_lab import denoiser as dn
from safemax_lab import diffusion as df
from safemax_lab import gradcore as gc
from safemax_lab import unlearn as ul
from safemax_lab.harness.datasets import DatasetSpec, generate_toy_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def _bindings() -> dict:
    """Every attribute of every loaded lab module, plus the ``SGD`` class dict."""
    snap = {(name, attr): value
            for name, module in list(sys.modules.items())
            if name.startswith("safemax_lab") and module is not None
            for attr, value in vars(module).items()}
    snap.update({("SGD", attr): value for attr, value in vars(gc.SGD).items()})
    return snap


def test_install_then_uninstall_restores_every_binding(tracer_module):
    import safemax_lab.harness.experiment  # noqa: F401  (the tracer loads it too)
    before = _bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for _, mod_name, attr in tracer_module.SPANS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                patched = vars(getattr(owner, cls_name))[meth]
                assert patched is not before[(cls_name, meth)], attr
            else:
                assert getattr(owner, attr) is not before[(mod_name, attr)], attr
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def _run_both_directly(model, dataset, schedule, config):
    ul.run_unlearning(model, dataset, schedule, config)
    ul.run_relabel_unlearning(model, dataset, schedule, config, 1)


def _run_both_through_table(model, dataset, schedule, config):
    ul.METHODS["safemax"](model, dataset, schedule, config)
    ul.METHODS["relabel"](model, dataset, schedule, config)  # target (0 + 1) % 4


@pytest.mark.parametrize("run_both", [_run_both_directly, _run_both_through_table],
                         ids=["direct", "method_table"])
def test_loops_call_the_patched_step_functions(tracer_module, run_both):
    schedule = df.NoiseSchedule(20, 1e-3, 0.2)
    dataset = generate_toy_dataset(DatasetSpec(4, 50, "ring", 0.35, 0))
    model = dn.init_model(2, 4, 8, 1, 4, 20, np.random.default_rng(0))
    config = ul.UnlearnConfig(forget_class=0, lam=1.0, steps=2, learning_rate=0.01,
                              batch_size=4, seed=0)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        run_both(model, dataset, schedule, config)
        dn.train(model.copy(), dataset, schedule, dn.TrainConfig(3, 4, 0.01, 0))
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["unlearn.run_unlearning"] == 1
    assert calls["unlearn.run_relabel_unlearning"] == 1
    assert calls["unlearn.step"] == 4
    assert calls["unlearn.psi"] == 2  # once per safemax step
    assert calls["unlearn.epsT_target"] == 2  # once per safemax step
    assert calls["denoiser.train_step"] == 3
    assert calls["gradcore.optimizer"] == 7
