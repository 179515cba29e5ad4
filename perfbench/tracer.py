"""Span tracing around the lab's public functions, installed from outside.

The lab's modules bind each other's functions with ``from`` imports, so a
function is patched under every name that binds it in any loaded
``safemax_lab`` module. Each call becomes one span (name, start, end,
parent). Spans live in flat in-memory arrays until ``write`` saves them.

Every public ``gradcore`` function that returns a tape ``Node`` is an op.
Its span is named after ``node.op``, so a new op shows up without an edit
here, and its backward closure is wrapped into a ``<op>.bwd`` span that
runs as a child of ``gradcore.backward``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute); ``Class.method`` patches a method.
# Two functions may share one span name.
SPANS = [
    ("gradcore.backward", "safemax_lab.gradcore", "backward"),
    ("gradcore.optimizer", "safemax_lab.gradcore", "SGD.step"),
    ("gradcore.optimizer", "safemax_lab.gradcore", "sgd_step"),
    ("diffusion.sample_latent_batch", "safemax_lab.diffusion", "sample_latent_batch"),
    ("diffusion.ancestral_sample", "safemax_lab.diffusion", "ancestral_sample"),
    ("denoiser.denoiser_forward", "safemax_lab.denoiser", "denoiser_forward"),
    ("denoiser.predict_eps", "safemax_lab.denoiser", "predict_eps"),
    ("denoiser.train_step", "safemax_lab.denoiser", "train_step"),
    ("denoiser.train", "safemax_lab.denoiser", "train"),
    ("unlearn.step", "safemax_lab.unlearn", "safemax_step"),
    ("unlearn.step", "safemax_lab.unlearn", "baseline_relabel_step"),
    ("unlearn.epsT_target", "safemax_lab.unlearn", "epsT_target"),
    ("unlearn.psi", "safemax_lab.unlearn", "psi"),
    ("unlearn.run_unlearning", "safemax_lab.unlearn", "run_unlearning"),
    ("unlearn.run_relabel_unlearning", "safemax_lab.unlearn", "run_relabel_unlearning"),
    ("evaluation.train_classifier", "safemax_lab.evaluation", "train_classifier"),
    ("evaluation.predict_proba", "safemax_lab.evaluation", "predict_proba"),
    ("evaluation.frechet_distance", "safemax_lab.evaluation", "frechet_distance"),
    ("evaluation.evaluate", "safemax_lab.evaluation", "evaluate"),
    ("harness.build_world", "safemax_lab.harness.experiment", "build_world"),
    ("harness.ensure_pretrained", "safemax_lab.harness.experiment", "ensure_pretrained"),
    ("harness.load_checkpoint", "safemax_lab.harness.checkpoints", "load_checkpoint"),
    ("harness.save_checkpoint", "safemax_lab.harness.checkpoints", "save_checkpoint"),
    ("harness.render_scatter", "safemax_lab.harness.plots", "render_scatter"),
    ("harness.run_experiment", "safemax_lab.harness.experiment", "run_experiment"),
]


class Tracer:
    """Records nested spans and exact counters while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name[idx] = name_id

    def _span(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def _op(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open()
            name = f"gradcore.{fn.__name__}"
            try:
                node = fn(*args, **kwargs)
                name = f"gradcore.{node.op}"
                flops = 0
                if node.op == "matmul":
                    (m, k), n = args[0].value.shape, args[1].value.shape[1]
                    flops = 2 * m * k * n
                    self.counters["gradcore.matmul.flops"] += flops
                if node._backward is not None:
                    node._backward = self._backward_span(f"{name}.bwd", node._backward, 2 * flops)
                return node
            finally:
                self._close(idx, name)
        return wrapper

    def _backward_span(self, name: str, closure, flops: int):
        def timed(g):
            idx = self._open()
            try:
                closure(g)
            finally:
                self._close(idx, name)
            if flops:
                self.counters["gradcore.matmul.flops"] += flops
        return timed

    # -- counters fed from call arguments -----------------------------------

    def _count_tape(self, args, kwargs, result):
        loss = args[0] if args else kwargs["loss"]
        self.counters["gradcore.backward.tape_nodes"] += loss.tape.size

    def _count_rows(self, args, kwargs, result):
        self.counters["diffusion.ancestral_sample.rows"] += len(result)

    def _count_bytes(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counters["harness.save_checkpoint.bytes"] += os.path.getsize(path)

    # -- installation --------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind ``original`` under every name any lab module gives it."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("safemax_lab") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import safemax_lab.harness.experiment  # noqa: F401  (loads every lab module)
        from safemax_lab import gradcore

        for attr, fn in list(vars(gradcore).items()):
            if (inspect.isfunction(fn) and fn.__module__ == gradcore.__name__
                    and not attr.startswith("_")
                    and inspect.signature(fn).return_annotation in ("Node", gradcore.Node)):
                self._patch_everywhere(fn, self._op(fn))

        hooks = {"gradcore.backward": self._count_tape,
                 "diffusion.ancestral_sample": self._count_rows,
                 "harness.save_checkpoint": self._count_bytes}
        for name, mod_name, attr in SPANS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._span(name, original))
                continue
            original = getattr(owner, attr)
            self._patch_everywhere(original, self._span(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total duration and self time.

        Spans nest strictly (one thread, synchronous calls), so the part of
        a span covered by its children is the sum of their durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def covered_s(self) -> float:
        """Wall time inside any span: the summed duration of the outermost spans."""
        a = self.arrays()
        outermost = a["parent"] < 0
        return float((a["end"][outermost] - a["start"][outermost]).sum())

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=object).astype(str), **self.arrays())
