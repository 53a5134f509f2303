"""Command-line entry point: fleet generation, preprocessing, training,
evaluation, depth sweeps, ablations, hyperparameter search, weight export.

Commands: ``gen, preprocess, train, eval, sweep-noi, ablate, hyperopt,
export-weights``. :func:`main` is the one runner: it makes the out dir, runs
``cmd_*(args, out)``, which writes the artifacts, then writes the single
``run_manifest.json``; a failing command exits 1 with one ``error:`` line
and no manifest. The manifest's ``config`` is every parsed argument but
``--out``, ``--seed`` and the input files, plus the dict the command
returns: for ``train``, ``sweep-noi`` and ``ablate`` every field of the
configs built but their seeds and a field set per cell (``sweep-noi`` has
``nois``, ``ablate`` ``rows``, both ``cell_seeds``). ``inputs`` lists the
``--checkpoint``, ``--data`` and ``--config`` paths given. It also records
the sub-seeds, wall clock, numeric environment (python and numpy versions,
BLAS library, BLAS thread variables, stream threads) and a sha256 per
artifact, so identical inputs and seed reproduce identical checksums.

Config precedence: CLI flags > ``--config`` JSON file > the field defaults
of ``FpnnConfig`` and ``TrainConfig``. A config file may set ``noi``,
``alpha``, ``head_hidden``, ``detach`` and the ``TrainConfig`` fields but
``seed``, and not the field a command sets per cell: ``sweep-noi`` rejects
``noi`` and ``ablate`` rejects ``detach``. An unknown or per-cell key, a
value of the wrong kind or a value out of range is rejected by name, with
the file's name, and every command builds its configs before it reads any
data. Only ``_train_configs`` turns settings into configs, and it reads
every value by ``io.json_value``, the rule a checkpoint's config is read
by: a file value is rejected exactly when the same value in a checkpoint
is, and a whole float such as ``"epochs": 2.0`` builds what ``2`` does.
So ``hyperopt``'s ``best_config.json`` is a valid ``--config`` file. Counts,
grids and windows out of range are rejected while parsing, among them
``gen --life-min``/``--life-max`` below 1 and ``hyperopt --epochs`` below 1
or ``--patience`` below 0 (a life min above the max fails naming the range,
before any fleet is made). All randomness flows from one ``--seed`` through
fixed named offsets (split +1, init +2, shuffle +3, bayesian search +4):
every command splits a fleet with the split sub-seed, and in ``sweep-noi``
and ``ablate`` each cell's seed drives its init, holdout and shuffle. A
failed cell or trial keeps its exception type in its CSV row, and its
traceback goes to a WARNING record. ``FPNN_LOG`` selects
error|warning|info|debug; ``warning`` shows those tracebacks without the
INFO records, and any other value fails the command before it runs.
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
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .datagen import DEFAULT_LIFE_RANGE, generate_fleet
from .dataset import load_canonical_dataset
from .hyperopt import bayes_optimize, default_search_space
from .io import json_value, read_json_object, sha256_file
from .model import MAX_NOI, STREAMS, DetachFlags, FpnnConfig, build_model, export_block_weights
from .preprocess import (
    DEFAULT_GRID_SIDE,
    VALID_INPUT_CYCLES,
    HOLDOUT_FRACTION,
    holdout_by_battery,
    load_sample_archive,
    preprocess_fleet,
    save_sample_archive,
)
from .training import (
    TrainConfig,
    cell_seed,
    evaluate,
    load_checkpoint,
    noi_sweep,
    run_sweep_window,
    save_checkpoint,
    train,
)

log = logging.getLogger("fpnn")

SEED_OFFSETS = {"split": 1, "init": 2, "shuffle": 3, "bo": 4}

SWEEP_HEADER = ["dataset", "blocks", "mape", "mae", "rmse", "error"]
ABLATE_HEADER = ["dataset", "detach", "mape", "mae", "rmse", "error"]
ABLATE_FLAGS = {  # row label -> the component that row detaches
    "Initial layers": DetachFlags(initial_layers=True),
    "3D conv": DetachFlags(conv3d=True),
    "Residual": DetachFlags(residual=True),
    "A branch": DetachFlags(diff_branch=True),
    "No detach": DetachFlags(),
}
TRIALS_HEADER = ["trial", "point_json", "objective", "message", "status"]
MANIFEST_FILENAME = "run_manifest.json"
INPUT_ARGS = ("checkpoint", "data", "config")  # the manifest's inputs, not its config

# What every training command records: settings at the configs' field defaults
MODEL_KEYS = ("noi", "alpha")
TRAIN_DEFAULTS = {**{k: getattr(FpnnConfig, k) for k in MODEL_KEYS},
                  **{f.name: f.default for f in fields(TrainConfig) if f.name != "seed"}}
CONFIG_KEYS = {*TRAIN_DEFAULTS, "head_hidden", "detach"}
PER_CELL_KEYS = {"sweep-noi": "noi", "ablate": "detach"}  # command -> the field it sets per cell


def _setup_logging() -> None:
    """Log at ``FPNN_LOG``'s level; any other value raises ValueError."""
    levels = {"error": logging.ERROR, "warning": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    name = os.environ.get("FPNN_LOG", "error")
    if name.lower() not in levels:
        raise ValueError(f"FPNN_LOG={name!r} is not one of {', '.join(levels)}")
    logging.basicConfig(level=levels[name.lower()], format="%(levelname)s %(name)s: %(message)s",
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
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "stream_threads": len(STREAMS),
    }


def write_manifest(args, recorded: dict, started: float) -> None:
    """Write the run's single run_manifest.json into ``args.out``, hashing
    every other file there; ``recorded`` updates the parsed arguments in
    ``config``, and the wall clock runs from ``started``."""
    out_dir = Path(args.out)
    outputs = {str(path.relative_to(out_dir)): sha256_file(path)
               for path in sorted(out_dir.rglob("*"))
               if path.is_file() and path.name != MANIFEST_FILENAME}
    unrecorded = {"command", "func", "out", "seed", *INPUT_ARGS}
    doc = {
        "command": args.command,
        "config": {**{k: v for k, v in vars(args).items() if k not in unrecorded},
                   **recorded},
        "seed": args.seed,
        "sub_seeds": _sub_seeds(args.seed),
        "inputs": [str(path) for k in INPUT_ARGS if (path := getattr(args, k, None))],
        "outputs": outputs,
        "wall_clock_s": round(time.perf_counter() - started, 3),
        "version": __version__,
        "environment": _numeric_environment(),
    }
    (out_dir / MANIFEST_FILENAME).write_text(json.dumps(doc, indent=2, sort_keys=True))


def _merge_config(args) -> dict:
    """Flags > ``--config`` file > ``TRAIN_DEFAULTS``. A file that is not a
    JSON object, a file key outside ``CONFIG_KEYS`` or the command's
    ``PER_CELL_KEYS`` key, or a file value that ``_train_configs`` rejects
    (of the wrong kind or out of range) is an error naming the file."""
    merged = dict(TRAIN_DEFAULTS)
    if args.config:
        doc = read_json_object(args.config, error=ValueError)
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {', '.join(unknown)} "
                             f"(known: {', '.join(sorted(CONFIG_KEYS))})")
        per_cell = PER_CELL_KEYS.get(args.command)
        if per_cell in doc:
            raise ValueError(f"{args.config}: {args.command} sets {per_cell} per cell, "
                             "so a config file may not set it")
        merged.update(doc)
        try:  # the kinds and ranges the configs check
            _train_configs(merged, args.seed, FpnnConfig.grid_side)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    merged.update({k: v for k in TRAIN_DEFAULTS if (v := getattr(args, k, None)) is not None})
    return merged


def _train_configs(settings: dict, seed: int, grid_side: int) -> tuple[FpnnConfig, TrainConfig]:
    """The one place settings become configs, each value read by
    ``io.json_value`` (the model's through ``FpnnConfig.from_dict``), seeded
    with the init and shuffle sub-seeds."""
    seeds = _sub_seeds(seed)
    model_config = FpnnConfig.from_dict({**settings, "grid_side": grid_side,
                                         "seed": seeds["init"]})
    train_config = json_value({k: settings[k] for k in TRAIN_DEFAULTS if k not in MODEL_KEYS},
                              TrainConfig(seed=seeds["shuffle"]), "config", ValueError)
    return model_config, train_config


def _built_fields(*configs, per_cell: str | None = None) -> dict:
    """The fields of the configs a command built but their seeds (in
    ``sub_seeds``) and ``per_cell``, a field the command sets per cell."""
    return {k: v for c in configs for k, v in asdict(c).items() if k not in ("seed", per_cell)}


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(out: Path, report) -> None:
    (out / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    _write_csv(out / "residuals.csv", ["index", "residual"],
               ([i, repr(float(r))] for i, r in enumerate(report.residuals)))


# ---------------------------------------------------------------------------
# commands: each returns what its manifest records beyond the parsed arguments
# ---------------------------------------------------------------------------

def cmd_gen(args, out: Path) -> dict:
    records = generate_fleet(args.n, seed=args.seed,
                             life_range=(args.life_min, args.life_max), out_dir=out)
    lives = sorted(r.life for r in records)
    print(f"generated {len(records)} batteries -> {out}")
    print(f"life cycles: min {lives[0]}, median {lives[len(lives) // 2]}, max {lives[-1]}")
    return {}


def cmd_preprocess(args, out: Path) -> dict:
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
    return {"train_batteries": len(train_ids), "test_batteries": len(test_ids)}


def cmd_train(args, out: Path) -> dict:
    model_config, train_config = _train_configs(_merge_config(args), args.seed,
                                                FpnnConfig.grid_side)
    splits, _, manifest_doc = load_sample_archive(args.data)
    if "train" not in splits:
        raise ValueError(f"archive {args.data} has no train split")
    model_config = replace(model_config, grid_side=int(manifest_doc["grid_side"]))

    seeds = _sub_seeds(args.seed)
    fit_set, val_set = holdout_by_battery(splits["train"], HOLDOUT_FRACTION, seeds["split"])
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
    return {**_built_fields(model_config, train_config), "eval_split": eval_split}


def cmd_eval(args, out: Path) -> dict:
    params = load_checkpoint(args.checkpoint)
    splits, _, manifest = load_sample_archive(args.data)
    if params.config.grid_side != manifest["grid_side"]:
        raise ValueError(f"checkpoint {args.checkpoint} has grid_side {params.config.grid_side}, "
                         f"but archive {args.data} has grid_side {manifest['grid_side']}")
    if args.split not in splits:
        raise ValueError(f"archive has no {args.split!r} split")
    report = evaluate(params, splits[args.split])
    _write_report(out, report)
    print(f"{args.split} MAPE {report.mape:.2f}%, MAE {report.mae:.1f}, "
          f"RMSE {report.rmse:.1f} -> {out}")
    return {}


def _metric_row(first, second, cell) -> list:
    return [first, second, *map(_fmt_metric, (cell.mape, cell.mae, cell.rmse)), cell.error]


def cmd_sweep_noi(args, out: Path) -> dict:
    model_config, train_config = _train_configs(_merge_config(args), args.seed, args.grid)
    records = load_canonical_dataset(args.data)
    split = replace(train_config, seed=_sub_seeds(args.seed)["split"])  # each cell reseeds the rest
    cells = noi_sweep(records, args.cycles, args.nois, args.grid, split, args.seed,
                      jobs=args.jobs, model_config=model_config)
    _write_csv(out / "sweep.csv", SWEEP_HEADER,
               (_metric_row(c.n_input_cycles, c.noi, c) for c in cells))
    for c in cells:
        print(f"cycles {c.n_input_cycles} blocks {c.noi}: MAPE {_fmt_metric(c.mape)}")
    return {**_built_fields(model_config, train_config, per_cell=PER_CELL_KEYS[args.command]),
            "cell_seeds": [c.seed for c in cells]}


def cmd_ablate(args, out: Path) -> dict:
    model_config, train_config = _train_configs(_merge_config(args), args.seed, args.grid)
    records = load_canonical_dataset(args.data)
    cells = run_sweep_window(
        records, args.cycles,
        [replace(model_config, seed=cell_seed(args.seed, i), detach=flags)
         for i, flags in enumerate(ABLATE_FLAGS.values())],
        replace(train_config, seed=_sub_seeds(args.seed)["split"]),  # each cell reseeds the rest
    )
    for label, cell in zip(ABLATE_FLAGS, cells):
        print(f"{label}: MAPE {_fmt_metric(cell.mape)}"
              + (f" ({cell.error})" if cell.error else ""))
    _write_csv(out / "ablate.csv", ABLATE_HEADER,
               (_metric_row(args.cycles, label, c) for label, c in zip(ABLATE_FLAGS, cells)))
    return {**_built_fields(model_config, train_config, per_cell=PER_CELL_KEYS[args.command]),
            "rows": list(ABLATE_FLAGS), "cell_seeds": [c.seed for c in cells]}


def cmd_hyperopt(args, out: Path) -> dict:
    records = load_canonical_dataset(args.data)
    seeds = _sub_seeds(args.seed)
    space = default_search_space()
    train_set, _, _, _ = preprocess_fleet(records, args.cycles, grid_side=args.grid,
                                          seed=seeds["split"])
    fit_set, val_set = holdout_by_battery(train_set, HOLDOUT_FRACTION, seeds["split"])

    def configs(point: dict) -> tuple[FpnnConfig, TrainConfig]:
        settings = {**point, "epochs": args.epochs, "patience": args.patience}
        return _train_configs(settings, args.seed, args.grid)

    def objective(point: dict) -> float:  # validation MAPE of the params train returns
        model_config, train_config = configs(point)
        _, history = train(build_model(model_config), fit_set, val_set, train_config)
        return min(r.val_mape for r in history)

    best_trial, trials = bayes_optimize(objective, space, args.budget, seeds["bo"])
    _write_csv(out / "trials.csv", TRIALS_HEADER,
               ([i, json.dumps(t.point, sort_keys=True), _fmt_metric(t.objective), t.message,
                 t.status] for i, t in enumerate(trials)))
    model_config, train_config = configs(best_trial.point)
    best_config = {k: getattr(model_config if k in MODEL_KEYS else train_config, k)
                   for k in TRAIN_DEFAULTS}
    (out / "best_config.json").write_text(json.dumps(best_config, indent=2, sort_keys=True))
    print(f"best validation MAPE {best_trial.objective:.2f}% at {best_trial.point}")
    return {}


def cmd_export_weights(args, out: Path) -> dict:
    params = load_checkpoint(args.checkpoint)
    matrices = export_block_weights(params, args.block, args.stream)
    for name, mat in matrices.items():
        _write_csv(out / f"{name}.csv", [f"in_{j}" for j in range(mat.shape[1])],
                   ([repr(float(v)) for v in row] for row in mat))
    print(f"exported {len(matrices)} weight matrices for block {args.block} "
          f"({args.stream} stream) -> {out}")
    return {"matrices": sorted(matrices)}


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


def _at_least(low: int):
    """An argparse type: an int no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


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
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out", required=True)
    grid_flag = argparse.ArgumentParser(add_help=False)  # the four commands that preprocess
    grid_flag.add_argument("--grid", type=_at_least(2), default=DEFAULT_GRID_SIDE)

    def command(name: str, func, summary: str, data: bool = True,
                grid: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[shared, grid_flag] if grid else [shared], help=summary)
        p.set_defaults(func=func)
        if data:
            p.add_argument("--data", required=True)
        return p

    p = command("gen", cmd_gen, "generate a synthetic battery fleet", data=False)
    p.add_argument("--n", type=_at_least(2), required=True)
    p.add_argument("--life-min", type=_at_least(1), default=DEFAULT_LIFE_RANGE[0])
    p.add_argument("--life-max", type=_at_least(1), default=DEFAULT_LIFE_RANGE[1])

    p = command("preprocess", cmd_preprocess, "build sample archives from a fleet", grid=True)
    p.add_argument("--cycles", type=int, required=True, choices=VALID_INPUT_CYCLES)

    _add_train_flags(command("train", cmd_train, "train a model on a sample archive"))

    p = command("eval", cmd_eval, "evaluate a checkpoint on an archive split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test")

    p = command("sweep-noi", cmd_sweep_noi, "grid over input windows and unit counts", grid=True)
    p.add_argument("--cycles", type=_input_windows, default="10,20,30,40",
                   help="comma-separated input windows (e.g. 10,20)")
    p.add_argument("--noi", dest="nois", type=_unit_counts, default="0-4",
                   help="unit-count range (e.g. 0-2 or 1,3)")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="worker processes, one input window each; every worker "
                        "runs two threads, one per stream")
    _add_train_flags(p, include_noi=False)

    p = command("ablate", cmd_ablate, "detach one component at a time", grid=True)
    p.add_argument("--cycles", type=int, default=10, choices=VALID_INPUT_CYCLES)
    _add_train_flags(p)

    p = command("hyperopt", cmd_hyperopt, "bayesian search over hyperparameters", grid=True)
    p.add_argument("--budget", type=_at_least(4), required=True)
    p.add_argument("--cycles", type=int, default=10, choices=VALID_INPUT_CYCLES)
    p.add_argument("--epochs", type=_at_least(1), default=60)
    p.add_argument("--patience", type=_at_least(0), default=10)

    p = command("export-weights", cmd_export_weights, "dump inception-unit kernels to CSV",
                data=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--stream", default="raw", choices=["raw", "diff"])
    return parser


def main(argv=None) -> int:
    """Parse ``argv``, set up logging, make the out dir, run the command,
    write its manifest."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _setup_logging()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(args, args.func(args, out), started)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
