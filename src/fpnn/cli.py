"""Command-line entry point: fleet generation, preprocessing, training,
evaluation, depth sweeps, ablations, hyperparameter search, weight export.

Commands: ``gen, preprocess, train, eval, sweep-noi, ablate, hyperopt,
export-weights``. Every run writes exactly one ``run_manifest.json`` next to
its outputs recording the effective configuration, named sub-seeds, input
paths, wall clock, the numeric environment (python, numpy, scipy and BLAS
versions, BLAS thread variables, stream threads) and a sha256 per artifact,
so identical inputs and seed reproduce identical checksums.

Config precedence: CLI flags > ``--config`` JSON file > built-in defaults.
All randomness flows from one ``--seed`` through fixed named offsets
(split +1, init +2, shuffle +3, bayesian search +4). ``FPNN_LOG`` selects
error|info|debug logging.
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
from pathlib import Path

import numpy as np
import scipy

from . import BLAS_THREAD_VARS, __version__
from .datagen import generate_fleet
from .dataset import load_canonical_dataset
from .hyperopt import bayes_optimize, default_search_space
from .io import sha256_file
from .model import STREAMS, DetachFlags, FpnnConfig, build_model, export_block_weights
from .preprocess import (
    VALID_INPUT_CYCLES,
    holdout_by_battery,
    load_sample_archive,
    preprocess_fleet,
    save_sample_archive,
)
from .training import (
    SweepCell,
    TrainConfig,
    evaluate,
    load_checkpoint,
    noi_sweep,
    run_sweep_window,
    save_checkpoint,
    save_history,
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

TRAIN_DEFAULTS = {
    "noi": 1,
    "alpha": 0.01,
    "epochs": 300,
    "batch_size": 16,
    "learning_rate": 1e-3,
    "weight_decay": 1e-5,
    "patience": 30,
}


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


class Manifest:
    """Collects run metadata and writes the single run_manifest.json.

    The wall clock runs from ``args.started``, which :func:`main` stamps
    before the command starts its work.
    """

    def __init__(self, args, config: dict, inputs: list[str]):
        self.command = args.command
        self.out_dir = Path(args.out)
        self.config = config
        self.seed = args.seed
        self.inputs = inputs
        self.started = args.started

    FILENAME = "run_manifest.json"

    def write(self) -> Path:
        outputs = {}
        for path in sorted(self.out_dir.rglob("*")):
            if path.is_file() and path.name != self.FILENAME:
                outputs[str(path.relative_to(self.out_dir))] = sha256_file(path)
        doc = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "sub_seeds": _sub_seeds(self.seed),
            "inputs": self.inputs,
            "outputs": outputs,
            "wall_clock_s": round(time.perf_counter() - self.started, 3),
            "version": __version__,
            "environment": _numeric_environment(),
        }
        path = self.out_dir / self.FILENAME
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return path


def _merge_config(defaults: dict, config_file: str | None, flags: dict) -> dict:
    """flags > config file > defaults; unknown file keys are kept verbatim."""
    merged = dict(defaults)
    if config_file:
        merged.update(json.loads(Path(config_file).read_text()))
    merged.update({k: v for k, v in flags.items() if v is not None})
    return merged


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
    Manifest(args, {"n": args.n, "life_range": [args.life_min, args.life_max]}, inputs=[]).write()
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
    Manifest(args, {"cycles": args.cycles, "grid": args.grid,
                    "train_batteries": len(train_ids), "test_batteries": len(test_ids)},
             inputs=[str(args.data)]).write()
    return 0


def _train_configs(effective: dict, seed: int, grid_side: int) -> tuple[FpnnConfig, TrainConfig]:
    seeds = _sub_seeds(seed)
    detach = DetachFlags(**effective.get("detach", {}))
    model_config = FpnnConfig(
        noi=int(effective["noi"]),
        grid_side=grid_side,
        alpha=float(effective["alpha"]),
        head_hidden=tuple(effective.get("head_hidden", (64,))),
        detach=detach,
        seed=seeds["init"],
    )
    train_config = TrainConfig(
        epochs=int(effective["epochs"]),
        batch_size=int(effective["batch_size"]),
        learning_rate=float(effective["learning_rate"]),
        weight_decay=float(effective["weight_decay"]),
        patience=int(effective["patience"]),
        seed=seeds["shuffle"],
    )
    return model_config, train_config


def _write_report(out: Path, report, prefix: str = "report") -> None:
    (out / f"{prefix}.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    with open(out / "residuals.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "residual"])
        for i, r in enumerate(report.residuals):
            writer.writerow([i, repr(float(r))])


def cmd_train(args) -> int:
    out = _out_dir(args)
    splits, _, manifest_doc = load_sample_archive(args.data)
    if "train" not in splits:
        raise ValueError(f"archive {args.data} has no train split")
    flags = {k: getattr(args, k, None) for k in TRAIN_DEFAULTS}
    effective = _merge_config(TRAIN_DEFAULTS, args.config, flags)
    grid_side = int(manifest_doc["grid_side"])
    model_config, train_config = _train_configs(effective, args.seed, grid_side)

    seeds = _sub_seeds(args.seed)
    fit_set, val_set = holdout_by_battery(splits["train"], 0.2, seeds["split"])
    log.info("training on %d samples, validating on %d", len(fit_set), len(val_set))
    params = build_model(model_config)
    best, history = train(params, fit_set, val_set, train_config)
    save_checkpoint(best, out / "checkpoint.fpt")
    save_history(out / "history.csv", history)

    eval_split = "test" if "test" in splits else "train"
    report = evaluate(best, splits[eval_split])
    _write_report(out, report)
    print(f"trained {len(history)} epochs; {eval_split} MAPE {report.mape:.2f}%, "
          f"MAE {report.mae:.1f}, RMSE {report.rmse:.1f} -> {out}")
    Manifest(args, {**effective, "grid_side": grid_side, "eval_split": eval_split},
             inputs=[str(args.data)]).write()
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
    Manifest(args, {"split": args.split, "checkpoint": str(args.checkpoint)},
             inputs=[str(args.checkpoint), str(args.data)]).write()
    return 0


def _write_sweep_csv(path: Path, cells: list[SweepCell]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        for c in cells:
            writer.writerow([c.n_input_cycles, c.noi, _fmt_metric(c.mape),
                             _fmt_metric(c.mae), _fmt_metric(c.rmse)])


def cmd_sweep_noi(args) -> int:
    out = _out_dir(args)
    records = load_canonical_dataset(args.data)
    cycles = _parse_int_list(args.cycles)
    for c in cycles:
        if c not in VALID_INPUT_CYCLES:
            raise ValueError(f"cycles values must be in {VALID_INPUT_CYCLES}, got {c}")
    nois = _parse_int_range(args.noi)
    flags = {k: getattr(args, k, None) for k in TRAIN_DEFAULTS if k != "noi"}
    effective = _merge_config(TRAIN_DEFAULTS, args.config, flags)
    effective["noi"] = 0  # placeholder; the grid supplies per-cell values
    _, train_config = _train_configs(effective, args.seed, args.grid)
    cells = noi_sweep(records, cycles, nois, args.grid, train_config, args.seed,
                      jobs=args.jobs)
    _write_sweep_csv(out / "sweep.csv", cells)
    for c in cells:
        print(f"cycles {c.n_input_cycles} blocks {c.noi}: MAPE {_fmt_metric(c.mape)}")
    Manifest(args, {**effective, "cycles": cycles, "noi": nois, "grid": args.grid,
                    "cell_seeds": [c.seed for c in cells]},
             inputs=[str(args.data)]).write()
    return 0


def cmd_ablate(args) -> int:
    out = _out_dir(args)
    records = load_canonical_dataset(args.data)
    flags = {k: getattr(args, k, None) for k in TRAIN_DEFAULTS}
    effective = _merge_config(TRAIN_DEFAULTS, args.config, flags)
    _, train_config = _train_configs(effective, args.seed, args.grid)
    cells = run_sweep_window(
        records, args.cycles,
        [(int(effective["noi"]), args.seed + 1000 * i, ABLATE_FLAGS[label])
         for i, label in enumerate(ABLATE_ROWS)],
        args.grid, train_config,
    )
    rows = list(zip(ABLATE_ROWS, cells))
    for label, cell in rows:
        print(f"{label}: MAPE {_fmt_metric(cell.mape)}"
              + (f" ({cell.error})" if cell.error else ""))
    with open(out / "ablate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ABLATE_HEADER)
        for label, cell in rows:
            writer.writerow([args.cycles, label, _fmt_metric(cell.mape),
                             _fmt_metric(cell.mae), _fmt_metric(cell.rmse)])
    Manifest(args, {**effective, "cycles": args.cycles, "grid": args.grid, "rows": ABLATE_ROWS,
                    "cell_seeds": [c.seed for c in cells]},
             inputs=[str(args.data)]).write()
    return 0


def cmd_hyperopt(args) -> int:
    out = _out_dir(args)
    records = load_canonical_dataset(args.data)
    seeds = _sub_seeds(args.seed)
    space = default_search_space()
    train_set, _, _, _ = preprocess_fleet(records, args.cycles, grid_side=args.grid,
                                          seed=seeds["split"])
    fit_set, val_set = holdout_by_battery(train_set, 0.2, seeds["split"])

    def objective(point: dict) -> float:
        config = FpnnConfig(noi=int(point["noi"]), grid_side=args.grid,
                            alpha=float(point["alpha"]), seed=seeds["init"])
        tc = TrainConfig(
            epochs=args.epochs, batch_size=int(point["batch_size"]),
            learning_rate=float(point["learning_rate"]),
            weight_decay=float(point["weight_decay"]),
            patience=args.patience, seed=seeds["shuffle"],
        )
        best, _ = train(build_model(config), fit_set, val_set, tc)
        return evaluate(best, val_set).mape

    best_trial, trials = bayes_optimize(objective, space, args.budget, seeds["bo"])
    with open(out / "trials.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIALS_HEADER)
        for i, t in enumerate(trials):
            writer.writerow([i, json.dumps(t.point, sort_keys=True),
                             _fmt_metric(t.objective), t.status])
    best_config = {
        "noi": int(best_trial.point["noi"]),
        "alpha": float(best_trial.point["alpha"]),
        "learning_rate": float(best_trial.point["learning_rate"]),
        "batch_size": int(best_trial.point["batch_size"]),
        "weight_decay": float(best_trial.point["weight_decay"]),
        "epochs": args.epochs,
        "patience": args.patience,
    }
    (out / "best_config.json").write_text(json.dumps(best_config, indent=2, sort_keys=True))
    print(f"best validation MAPE {best_trial.objective:.2f}% at {best_trial.point}")
    Manifest(args, {"budget": args.budget, "cycles": args.cycles, "grid": args.grid,
                    "epochs": args.epochs},
             inputs=[str(args.data)]).write()
    return 0


def cmd_export_weights(args) -> int:
    out = _out_dir(args)
    params = load_checkpoint(args.checkpoint)
    matrices = export_block_weights(params, args.block, args.stream)
    for name, mat in matrices.items():
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"in_{j}" for j in range(mat.shape[1])])
            for row in mat:
                writer.writerow([repr(float(v)) for v in row])
    print(f"exported {len(matrices)} weight matrices for block {args.block} "
          f"({args.stream} stream) -> {out}")
    Manifest(args, {"block": args.block, "stream": args.stream, "matrices": sorted(matrices)},
             inputs=[str(args.checkpoint)]).write()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",") if x != ""]


def _parse_int_range(text: str) -> list[int]:
    """'0-2' -> [0, 1, 2]; '1,3' -> [1, 3]; '2' -> [2]."""
    text = str(text)
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return _parse_int_list(text)


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
    p.add_argument("--cycles", default="10,20,30,40",
                   help="comma-separated input windows (e.g. 10,20)")
    p.add_argument("--noi", default="0-4", help="unit-count range (e.g. 0-2 or 1,3)")
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
