"""Command-line entry points for the lab."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .. import unlearn
from ..diffusion import ancestral_sample
from ..errors import CheckpointIntegrityError, CheckpointVersionError, ConfigError, DomainError
from .checkpoints import load_checkpoint
from .config import ExperimentConfig, default_config, parse_config
from .experiment import (build_world, ensure_pretrained, model_from_checkpoint,
                         resolve_outdir, run_experiment, sweep, _ensure_dir)
from .plots import render_scatter


def _load_config(path: str) -> ExperimentConfig:
    if path == "-":
        return default_config()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    outdir = _ensure_dir(resolve_outdir(config))
    train_ds, _, schedule = build_world(config)
    ensure_pretrained(config, outdir, train_ds, schedule)
    print(f"pretrained checkpoint ready at {outdir / 'pretrained.ckpt'}")
    return 0


def _cmd_unlearn(args) -> int:
    config = _load_config(args.config)
    result = run_experiment(config, method=args.method, lam=args.lam)
    print(f"method={result.method} lambda={result.lam}")
    print(f"  pretrained: UA={result.pre_report.ua_percent:.2f}% "
          f"H={result.pre_report.mean_entropy_nats:.4f} "
          f"FD={result.pre_report.frechet_mean:.4f}")
    print(f"  unlearned:  UA={result.post_report.ua_percent:.2f}% "
          f"H={result.post_report.mean_entropy_nats:.4f} "
          f"FD={result.post_report.frechet_mean:.4f} "
          f"RTE={result.rte_seconds:.2f}s")
    print(f"artifacts in {result.outdir}")
    return 0


def _cmd_sample(args) -> int:
    model, schedule = model_from_checkpoint(load_checkpoint(args.checkpoint))
    rng = np.random.default_rng(args.seed)
    samples = ancestral_sample(model, args.class_id, schedule, args.n, rng)
    render_scatter({args.class_id: samples}, args.out,
                   title=f"class {args.class_id} samples")
    print(f"wrote {args.n} samples of class {args.class_id} to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    try:
        values = [float(v) for v in args.lam.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--lambda: cannot parse {args.lam!r} as numbers") from None
    path = sweep(config, values, members=args.members)
    print(f"sweep table at {path}")
    print(path.read_text(encoding="utf-8"))
    return 0


def _cmd_report(args) -> int:
    report_path = Path(args.dir) / "report.json"
    if not report_path.exists():
        print(f"no report.json under {args.dir}", file=sys.stderr)
        return 1
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        lines = [f"method={report['method']} lambda={report['lambda']} seed={report['seed']}",
                 f"{'':14s}{'UA %':>10s}{'H (nats)':>12s}{'FD mean':>10s}{'RTE s':>10s}"]
        for name in ("pretrained", "unlearned"):
            r = report[name]
            lines.append(f"{name:14s}{r['ua_percent']:>10.2f}{r['mean_entropy_nats']:>12.4f}"
                         f"{r['frechet_mean']:>10.4f}{r['rte_seconds']:>10.2f}")
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not a run's report
        print(f"unreadable report.json under {args.dir}: {exc!r}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="safemax-lab",
                                     description="toy diffusion unlearning lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="pretrain the denoiser and save a checkpoint")
    p.add_argument("config")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("unlearn", help="run the full pipeline with one unlearning method")
    p.add_argument("config")
    p.add_argument("--method", choices=tuple(unlearn.METHODS),
                   default=next(iter(unlearn.METHODS)))
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the decay rate")
    p.set_defaults(func=_cmd_unlearn)

    p = sub.add_parser("sample", help="draw samples from a checkpoint into an SVG")
    p.add_argument("checkpoint")
    p.add_argument("--class", dest="class_id", type=int, required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sweep", help="sweep the decay rate over shared seeds")
    p.add_argument("config")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated values, e.g. 0,1,50,100")
    p.add_argument("--members", type=int, default=3)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 2
    except (OSError, CheckpointIntegrityError, CheckpointVersionError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
