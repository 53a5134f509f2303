"""Command-line entry point: fleet generation, preprocessing, training,
evaluation, depth sweeps, ablations, hyperparameter search, weight export.

Commands: ``gen, preprocess, train, eval, sweep-noi, ablate, hyperopt,
export-weights``. Every run writes exactly one ``run_manifest.json`` next to
its outputs recording the effective configuration, named sub-seeds, input
paths, wall clock, the numeric environment (python, numpy, scipy and BLAS
versions, BLAS thread variables, stream threads) and a sha256 per artifact,
so identical inputs and seed reproduce identical checksums.

Config precedence: CLI flags > ``--config`` JSON file > the field defaults
of ``FpnnConfig`` and ``TrainConfig``. A config file may set ``noi``,
``alpha``, ``head_hidden``, ``detach`` and the ``TrainConfig`` fields but
``seed``; any other key is rejected by name. Only ``_train_configs`` turns
settings into configs, in every command, so ``hyperopt``'s
``best_config.json`` is a valid ``--config`` file. ``sweep-noi`` rejects
unit counts outside ``0..MAX_NOI`` and windows outside
``VALID_INPUT_CYCLES`` while parsing its arguments. All randomness flows
from one ``--seed`` through fixed named offsets (split +1, init +2,
shuffle +3, bayesian search +4). ``FPNN_LOG`` selects error|info|debug
logging.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import platform
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import BLAS_THREAD_VARS, __version__
from .datagen import generate_fleet
from .dataset import load_canonical_dataset
from .hyperopt import bayes_optimize, default_search_space
from .io import sha256_file
from .model import MAX_NOI, STREAMS, DetachFlags, FpnnConfig, build_model, export_block_weights
from .preprocess import (
    VALID_INPUT_CYCLES,
    holdout_by_battery,
    load_sample_archive,
    preprocess_fleet,
    save_sample_archive,
)
from .training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    noi_sweep,
    run_sweep_window,
    save_checkpoint,
    train,
)

log = logging.getLogger("fpnn")

SEED_OFFSETS = {"split": 1, "init": 2, "shuffle": 3, "bo": 4}

SWEEP_HEADER = ["dataset", "blocks", "mape", "mae", "rmse"]
ABLATE_HEADER = ["dataset", "detach", "mape", "mae", "rmse"]
ABLATE_ROWS = ["Initial layers", "3D conv", "Residual", "A branch", "No detach"]
ABLATE_FLAGS = {
    "Initial layers": DetachFlags(initial_layers=True),
    "3D conv": DetachFlags(conv3d=True),
    "Residual": DetachFlags(residual=True),
    "A branch": DetachFlags(diff_branch=True),
    "No detach": DetachFlags(),
}
TRIALS_HEADER = ["trial", "point_json", "objective", "status"]
MANIFEST_FILENAME = "run_manifest.json"

# What every training command records: settings at the configs' field defaults
MODEL_KEYS = ("noi", "alpha")
TRAIN_DEFAULTS = {**{k: getattr(FpnnConfig, k) for k in MODEL_KEYS},
                  **{f.name: f.default for f in fields(TrainConfig) if f.name != "seed"}}
CONFIG_KEYS = {*TRAIN_DEFAULTS, "head_hidden", "detach"}


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("FPNN_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr, force=True)


def _sub_seeds(seed: int) -> dict[str, int]:
    return {name: seed + off for name, off in SEED_OFFSETS.items()}


def _fmt_metric(value: float) -> str:
    return "NaN" if (value is None or math.isnan(value)) else f"{value:.4f}"


def _numeric_environment() -> dict:
    """Versions, BLAS library and thread settings the numbers came from."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "stream_threads": len(STREAMS),
    }


def write_manifest(args, config: dict, inputs: list[str]) -> Path:
    """Write the run's single run_manifest.json into ``args.out``, hashing
    every other file there. The wall clock runs from ``args.started``, which
    :func:`main` stamps before the command starts its work."""
    out_dir = Path(args.out)
    outputs = {str(path.relative_to(out_dir)): sha256_file(path)
               for path in sorted(out_dir.rglob("*"))
               if path.is_file() and path.name != MANIFEST_FILENAME}
    doc = {
        "command": args.command,
        "config": config,
        "seed": args.seed,
        "sub_seeds": _sub_seeds(args.seed),
        "inputs": inputs,
        "outputs": outputs,
        "wall_clock_s": round(time.perf_counter() - args.started, 3),
        "version": __version__,
        "environment": _numeric_environment(),
    }
    path = out_dir / MANIFEST_FILENAME
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def _merge_config(args) -> dict:
    """Flags > ``--config`` file > ``TRAIN_DEFAULTS``; a file key outside
    ``CONFIG_KEYS`` is an error."""
    merged = dict(TRAIN_DEFAULTS)
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {', '.join(unknown)} "
                             f"(known: {', '.join(sorted(CONFIG_KEYS))})")
        merged.update(doc)
    merged.update({k: v for k in TRAIN_DEFAULTS if (v := getattr(args, k, None)) is not None})
    return merged


def _train_configs(settings: dict, seed: int, grid_side: int) -> tuple[FpnnConfig, TrainConfig]:
    """The one place settings become configs: the model through
    ``FpnnConfig.from_dict``, training with each value cast to its
    default's type, seeded with the init and shuffle sub-seeds."""
    seeds = _sub_seeds(seed)
    model_config = FpnnConfig.from_dict({**settings, "grid_side": grid_side,
                                         "seed": seeds["init"]})
    train_config = TrainConfig(**{k: type(v)(settings[k]) for k, v in TRAIN_DEFAULTS.items()
                                  if k not in MODEL_KEYS}, seed=seeds["shuffle"])
    return model_config, train_config


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(out: Path, report) -> None:
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    _write_csv(out / "residuals.csv", ["index", "residual"],
               ([i, repr(float(r))] for i, r in enumerate(report.residuals)))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    out = _out_dir(args)
    records = generate_fleet(args.n, seed=args.seed,
                             life_range=(args.life_min, args.life_max), out_dir=out)
    lives = sorted(r.life for r in records)
    print(f"generated {len(records)} batteries -> {out}")
    print(f"life cycles: min {lives[0]}, median {lives[len(lives) // 2]}, max {lives[-1]}")
    write_manifest(args, {"n": args.n, "life_range": [args.life_min, args.life_max]}, inputs=[])
    return 0


def cmd_preprocess(args) -> int:
    out = _out_dir(args)
    records = load_canonical_dataset(args.data)
    if not records:
        raise ValueError(f"no batteries found under {args.data}")
    seeds = _sub_seeds(args.seed)
    train_set, test_set, scaler, (train_ids, test_ids) = preprocess_fleet(
        records, args.cycles, grid_side=args.grid, seed=seeds["split"]
    )
    save_sample_archive(out, {"train": train_set, "test": test_set}, scaler,
                        args.cycles, args.grid, args.seed)
    print(f"preprocessed {len(records)} batteries: "
          f"{len(train_set)} train / {len(test_set)} test samples -> {out}")
    write_manifest(args, {"cycles": args.cycles, "grid": args.grid,
                          "train_batteries": len(train_ids), "test_batteries": len(test_ids)},
                   inputs=[str(args.data)])
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    effective = _merge_config(args)
    splits, _, manifest_doc = load_sample_archive(args.data)
    if "train" not in splits:
        raise ValueError(f"archive {args.data} has no train split")
    grid_side = int(manifest_doc["grid_side"])
    model_config, train_config = _train_configs(effective, args.seed, grid_side)

    seeds = _sub_seeds(args.seed)
    fit_set, val_set = holdout_by_battery(splits["train"], 0.2, seeds["split"])
    log.info("training on %d samples, validating on %d", len(fit_set), len(val_set))
    params = build_model(model_config)
    best, history = train(params, fit_set, val_set, train_config)
    save_checkpoint(best, out / "checkpoint.fpt")
    _write_csv(out / "history.csv", ["epoch", "train_loss", "val_mape"],
               ([r.epoch, repr(r.train_loss), repr(r.val_mape)] for r in history))

    eval_split = "test" if "test" in splits else "train"
    report = evaluate(best, splits[eval_split])
    _write_report(out, report)
    print(f"trained {len(history)} epochs; {eval_split} MAPE {report.mape:.2f}%, "
          f"MAE {report.mae:.1f}, RMSE {report.rmse:.1f} -> {out}")
    write_manifest(args, {**effective, "grid_side": grid_side, "eval_split": eval_split},
                   inputs=[str(args.data)])
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    params = load_checkpoint(args.checkpoint)
    splits, _, _ = load_sample_archive(args.data)
    if args.split not in splits:
        raise ValueError(f"archive has no {args.split!r} split")
    report = evaluate(params, splits[args.split])
    _write_report(out, report)
    print(f"{args.split} MAPE {report.mape:.2f}%, MAE {report.mae:.1f}, "
          f"RMSE {report.rmse:.1f} -> {out}")
    write_manifest(args, {"split": args.split, "checkpoint": str(args.checkpoint)},
                   inputs=[str(args.checkpoint), str(args.data)])
    return 0


def _metric_row(first, second, cell) -> list:
    return [first, second, _fmt_metric(cell.mape), _fmt_metric(cell.mae), _fmt_metric(cell.rmse)]


def cmd_sweep_noi(args) -> int:
    out = _out_dir(args)
    effective = _merge_config(args)
    records = load_canonical_dataset(args.data)
    model_config, train_config = _train_configs(effective, args.seed, args.grid)
    cells = noi_sweep(records, args.cycles, args.nois, args.grid, train_config, args.seed,
                      jobs=args.jobs, model_config=model_config)
    _write_csv(out / "sweep.csv", SWEEP_HEADER,
               (_metric_row(c.n_input_cycles, c.noi, c) for c in cells))
    for c in cells:
        print(f"cycles {c.n_input_cycles} blocks {c.noi}: MAPE {_fmt_metric(c.mape)}")
    write_manifest(args, {**effective, "cycles": args.cycles, "noi": args.nois,
                          "grid": args.grid, "cell_seeds": [c.seed for c in cells]},
                   inputs=[str(args.data)])
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    effective = _merge_config(args)
    records = load_canonical_dataset(args.data)
    model_config, train_config = _train_configs(effective, args.seed, args.grid)
    cells = run_sweep_window(
        records, args.cycles,
        [replace(model_config, seed=args.seed + 1000 * i, detach=ABLATE_FLAGS[label])
         for i, label in enumerate(ABLATE_ROWS)],
        train_config,
    )
    for label, cell in zip(ABLATE_ROWS, cells):
        print(f"{label}: MAPE {_fmt_metric(cell.mape)}"
              + (f" ({cell.error})" if cell.error else ""))
    _write_csv(out / "ablate.csv", ABLATE_HEADER,
               (_metric_row(args.cycles, label, c) for label, c in zip(ABLATE_ROWS, cells)))
    write_manifest(args, {**effective, "cycles": args.cycles, "grid": args.grid,
                          "rows": ABLATE_ROWS, "cell_seeds": [c.seed for c in cells]},
                   inputs=[str(args.data)])
    return 0


def cmd_hyperopt(args) -> int:
    out = _out_dir(args)
    records = load_canonical_dataset(args.data)
    seeds = _sub_seeds(args.seed)
    space = default_search_space()
    train_set, _, _, _ = preprocess_fleet(records, args.cycles, grid_side=args.grid,
                                          seed=seeds["split"])
    fit_set, val_set = holdout_by_battery(train_set, 0.2, seeds["split"])

    def configs(point: dict) -> tuple[FpnnConfig, TrainConfig]:
        settings = {**point, "epochs": args.epochs, "patience": args.patience}
        return _train_configs(settings, args.seed, args.grid)

    def objective(point: dict) -> float:
        model_config, train_config = configs(point)
        best, _ = train(build_model(model_config), fit_set, val_set, train_config)
        return evaluate(best, val_set).mape

    best_trial, trials = bayes_optimize(objective, space, args.budget, seeds["bo"])
    _write_csv(out / "trials.csv", TRIALS_HEADER,
               ([i, json.dumps(t.point, sort_keys=True), _fmt_metric(t.objective), t.status]
                for i, t in enumerate(trials)))
    model_config, train_config = configs(best_trial.point)
    best_config = {k: getattr(model_config if k in MODEL_KEYS else train_config, k)
                   for k in TRAIN_DEFAULTS}
    (out / "best_config.json").write_text(json.dumps(best_config, indent=2, sort_keys=True))
    print(f"best validation MAPE {best_trial.objective:.2f}% at {best_trial.point}")
    write_manifest(args, {"budget": args.budget, "cycles": args.cycles, "grid": args.grid,
                          "epochs": args.epochs},
                   inputs=[str(args.data)])
    return 0


def cmd_export_weights(args) -> int:
    out = _out_dir(args)
    params = load_checkpoint(args.checkpoint)
    matrices = export_block_weights(params, args.block, args.stream)
    for name, mat in matrices.items():
        _write_csv(out / f"{name}.csv", [f"in_{j}" for j in range(mat.shape[1])],
                   ([repr(float(v)) for v in row] for row in mat))
    print(f"exported {len(matrices)} weight matrices for block {args.block} "
          f"({args.stream} stream) -> {out}")
    write_manifest(args, {"block": args.block, "stream": args.stream,
                          "matrices": sorted(matrices)},
                   inputs=[str(args.checkpoint)])
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _input_windows(text: str) -> list[int]:
    windows = _parse_int_list(text)
    if not windows or any(c not in VALID_INPUT_CYCLES for c in windows):
        raise argparse.ArgumentTypeError(
            f"input windows must be in {VALID_INPUT_CYCLES}, got {text!r}")
    return windows


def _unit_counts(text: str) -> list[int]:
    """'0-2' -> [0, 1, 2]; '1,3' -> [1, 3]; '2' -> [2]."""
    lo, dash, hi = text.partition("-")
    nois = list(range(int(lo), int(hi) + 1)) if dash else _parse_int_list(text)
    if not nois or any(not 0 <= n <= MAX_NOI for n in nois):
        raise argparse.ArgumentTypeError(f"unit counts must lie in 0..{MAX_NOI}, got {text!r}")
    return nois


def _add_train_flags(p: argparse.ArgumentParser, include_noi: bool = True) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    if include_noi:
        p.add_argument("--noi", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--patience", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpnn",
        description="Early battery-life prediction with a flexible parallel CNN",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic battery fleet")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--life-min", type=int, default=150)
    p.add_argument("--life-max", type=int, default=1200)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("preprocess", help="build sample archives from a fleet")
    p.add_argument("--data", required=True)
    p.add_argument("--cycles", type=int, required=True, choices=VALID_INPUT_CYCLES)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on a sample archive")
    p.add_argument("--data", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an archive split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-noi", help="grid over input windows and unit counts")
    p.add_argument("--data", required=True)
    p.add_argument("--cycles", type=_input_windows, default="10,20,30,40",
                   help="comma-separated input windows (e.g. 10,20)")
    p.add_argument("--noi", dest="nois", type=_unit_counts, default="0-4",
                   help="unit-count range (e.g. 0-2 or 1,3)")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, one input window each; every worker "
                        "runs two threads, one per stream")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_train_flags(p, include_noi=False)
    p.set_defaults(func=cmd_sweep_noi)

    p = sub.add_parser("ablate", help="detach one component at a time")
    p.add_argument("--data", required=True)
    p.add_argument("--cycles", type=int, default=10, choices=VALID_INPUT_CYCLES)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("hyperopt", help="bayesian search over hyperparameters")
    p.add_argument("--data", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--cycles", type=int, default=10, choices=VALID_INPUT_CYCLES)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hyperopt)

    p = sub.add_parser("export-weights", help="dump inception-unit kernels to CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--stream", default="raw", choices=["raw", "diff"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_weights)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen" and args.n < 2:
        parser.error("--n must be at least 2")
    if args.command == "hyperopt" and args.budget < 4:
        parser.error("--budget must be at least 4")
    args.started = time.perf_counter()
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
