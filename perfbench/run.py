"""Benchmark of the lab: three workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One closed-loop caller repeats identical passes of one workload for
``--seconds`` (at least MIN_PASSES). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` first repeats untraced passes for a third of the
time, then installs the span wrappers of ``tracer.py`` and reports the
per-layer metrics of the traced passes, each per pass. ``--workload all``
runs every workload both ways in child processes.

Every metric is printed by name with its unit, then the checks, then one
JSON line: ``correct``, ``attempted`` and ``failed`` count checks, and
``metrics`` holds the metrics ``BENCHMARK.json`` lists for the trace mode.
The exit code is 1 when a check fails or the lab's sources are missing.
Details, the environment and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

if not (ROOT / "src" / "safemax_lab").is_dir():
    sys.exit(f"perfbench: no lab sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Check  # noqa: E402

WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
MIN_PASSES = 3
SETUP_REPEATS = 7

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "train_steps_per_s": "1/s", "pretrain_loss": "mse"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_per_step") or name == "trace.passes":
        return "count"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_share"):
        return "share"
    return "s"


# -- statistics ---------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples beyond it."""
    n = len(values)
    for q in (99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, statistics.quantiles(values, n=1000, method="inclusive")[int(q * 10) - 1]
    return None


def describe(values: list[float]) -> str:
    text = f"median {statistics.median(values):.6g}, n={len(values)}"
    t = tail(values)
    return text + (f", p{t[0]:g} {t[1]:.6g}" if t else ", no percentile has 10 samples beyond it")


# -- environment ----------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the loaded BLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


# -- measurement --------------------------------------------------------------------

def measure(workload, seconds: float, min_passes: int, checks: list) -> list[dict] | None:
    """Closed loop: one pass after another until the time is up.

    A pass that raises is a failed check and ends the loop; then the
    result is None.
    """
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < min_passes or time.perf_counter() < deadline:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = workload.run()
        except Exception as exc:  # the run goes on to report the failure
            traceback.print_exc()
            checks.append(Check(f"pass {len(records)} completes", False,
                                f"{type(exc).__name__}: {exc}"))
            return None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        records.append({"wall_s": wall, "cpu_s": cpu, "pass": workload.inspect(out)})
    return records


def time_setup(workload: str, seed: int, workdir: Path) -> tuple[list[float], bool]:
    samples, ok = [], True
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up to 50 ms.
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed), str(workdir)])
        samples.append(time.perf_counter() - start)
        ok = ok and proc.returncode == 0
    return samples, ok


def layer_metrics(summary: dict, counters: dict, passes: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, s in summary.items():
        if name.endswith(".bwd"):
            continue
        out[f"{name}.calls"] = s["calls"] / passes
        if name.startswith("gradcore.") and name not in ("gradcore.backward", "gradcore.optimizer"):
            out[f"{name}.fwd_self_s"] = s["self_s"] / passes
            out[f"{name}.bwd_s"] = summary.get(f"{name}.bwd", {"total_s": 0.0})["total_s"] / passes
        else:
            out[f"{name}.self_s"] = s["self_s"] / passes
    backward_calls = summary.get("gradcore.backward", {"calls": 0})["calls"]
    if backward_calls:
        out["gradcore.tape_nodes_per_step"] = counters["gradcore.backward.tape_nodes"] / backward_calls
    out["gradcore.matmul.flops"] = counters.get("gradcore.matmul.flops", 0.0) / passes
    out["harness.save_checkpoint.bytes"] = counters.get("harness.save_checkpoint.bytes", 0.0) / passes
    sampling = summary.get("diffusion.ancestral_sample")
    if sampling:
        out["diffusion.ancestral_sample.rows_per_s"] = (
            counters["diffusion.ancestral_sample.rows"] / sampling["total_s"])
    return out


def run_workload(args, checks: list) -> dict:
    """Set up, time set-up, and measure; returns the raw samples."""
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "pretrain":
            pretrain_losses = None
        else:
            pretrain_losses = workloads.make_checkpoint(args.seed, workdir)
        setup_samples, probes_ok = time_setup(args.workload, args.seed, workdir)
        checks.append(Check("setup probes exit 0", probes_ok))
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up()
        if not args.trace:
            return {"setup": setup_samples, "pretrain_losses": pretrain_losses,
                    "untraced": [], "records": measure(workload, args.seconds, MIN_PASSES, checks)}
        untraced = measure(workload, args.seconds / 3.0, 1, checks)
        records, tracer = None, Tracer()
        if untraced is not None:
            tracer.install()
            try:
                records = measure(workload, args.seconds * 2.0 / 3.0, 1, checks)
            finally:
                tracer.uninstall()
        return {"setup": setup_samples, "pretrain_losses": pretrain_losses,
                "untraced": untraced or [], "records": records, "tracer": tracer}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_passes(raw: dict, checks: list) -> float | None:
    """Per-pass checks and the repeat check; returns ``pretrain_loss``."""
    passes = [r["pass"] for r in raw["untraced"] + (raw["records"] or [])]
    for i, p in enumerate(passes):
        checks.extend(p.checks)
        if i:
            checks.append(Check(f"pass {i} repeats pass 0 exactly",
                                p.fingerprint == passes[0].fingerprint))
    if raw["pretrain_losses"] is not None:
        loss = workloads.window_loss(raw["pretrain_losses"])
    elif passes:
        loss = passes[0].values["pretrain_loss"]
    else:
        return None
    ref, spread = workloads.PRETRAIN_LOSS_REFERENCE, workloads.PRETRAIN_LOSS_SPREAD
    checks.append(Check("pretrain_loss within reference +- across-seed spread",
                        math.isfinite(loss) and abs(loss - ref) <= spread,
                        f"{loss:.6f} vs {ref} +- {spread}"))
    return loss


def run_one(args) -> int:
    env = environment()
    checks: list = []
    raw = run_workload(args, checks)
    pretrain_loss = check_passes(raw, checks)
    records = raw["records"] or []

    timings = {"setup_s": raw["setup"],
               "wall_s": [r["wall_s"] for r in records],
               "cpu_s": [r["cpu_s"] for r in records],
               "train_steps_per_s": [r["pass"].steps / r["pass"].train_s for r in records]}
    timings = {name: v for name, v in timings.items() if v}
    metrics = {name: statistics.median(v) for name, v in timings.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if pretrain_loss is not None:
        metrics["pretrain_loss"] = pretrain_loss
    units = dict(E2E_UNITS)
    if args.trace and records:
        tracer = raw["tracer"]
        summary = tracer.summary()
        walls = timings["wall_s"]
        metrics = layer_metrics(summary, tracer.counters, len(records))
        metrics["trace.passes"] = len(records)
        metrics["trace.overhead_s"] = (statistics.median(walls)
                                       - statistics.median(r["wall_s"] for r in raw["untraced"]))
        metrics["trace.unattributed_share"] = 1.0 - tracer.covered_s() / sum(walls)
        units = {name: layer_unit(name) for name in metrics}
        tracer.write(OUT / f"{args.workload}.trace.npz")

    values: dict[str, list[float]] = {}
    for r in raw["untraced"] + records:
        for key, v in r["pass"].values.items():
            values.setdefault(key, []).append(v)
    failed = sum(not c.ok for c in checks)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in sorted(metrics):
        value = metrics[name]
        shown = f"{int(value):>16d}" if float(value).is_integer() else f"{value:>16.6g}"
        line = f"{name:48s} {shown} {units[name]}"
        if name in timings and not args.trace:
            line += f"   ({describe(timings[name])})"
        print(line)
    print(f"{'train_steps_per_s windows':48s} {len(timings.get('train_steps_per_s', [])):>16d} count")
    for key, v in sorted(values.items()):
        print(f"{key:48s} {statistics.median(v):>16.6g}   (median over {len(v)} passes)")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}" + (f" [{c.detail}]" if c.detail else ""))
    print(f"{'failed_share':48s} {failed / len(checks):>16.6g} share "
          f"({failed} of {len(checks)} checks failed)")

    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = {}
    for m in listed["per_layer" if args.trace else "end_to_end"]:
        if units.get(m["name"], m["unit"]) != m["unit"]:
            raise SystemExit(f"unit of {m['name']} is {units[m['name']]}, "
                             f"BENCHMARK.json says {m['unit']}")
        # A layer the workload never reaches reports zero.
        result[m["name"]] = {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": int(args.trace), "environment": env, "metrics": metrics, "units": units,
              "timings": timings, "values": values,
              "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks]}
    (OUT / f"{args.workload}-trace{int(args.trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": result}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    worst = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            code = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)]).returncode
            print(f"# {name} trace={trace}: exit {code}", flush=True)
            worst = max(worst, code)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
