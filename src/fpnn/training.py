"""Deterministic training loop, evaluation metrics, and checkpoints.

Loss is mean squared error on raw cycle labels (labels are never scaled).
Optimization is Adam with optional L2 weight decay added to the gradient.
The loop shuffles with a seeded generator, tracks validation MAPE each
epoch, keeps the best-validation parameter snapshot, and stops early after
``patience`` non-improving epochs. A sweep cell is a full ``FpnnConfig``:
the depth sweep and the ablation preprocess each input window once and
train and score one model per cell config on the same loop.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import io as tio
from .errors import CheckpointError, NonFiniteError, ShapeError, TrainingError
from .model import (
    FpnnConfig,
    FpnnParams,
    bn_name,
    build_model,
    conv_layout,
    fpnn_backward,
    fpnn_forward,
    smallest_bn_side,
)
from .ops import BnState
from .preprocess import HOLDOUT_FRACTION, SampleSet, holdout_by_battery, preprocess_fleet

log = logging.getLogger(__name__)
CHECKPOINT_KIND = "fpnn-checkpoint"
CHECKPOINT_VERSION = 1
# Samples per eval-mode forward pass, which runs every conv -> batchnorm ->
# Leaky ReLU unit as one folded conv: the chunk bounds evaluate's peak memory.
EVAL_CHUNK = 64

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 300
    batch_size: int = 16
    learning_rate: float = 1e-3
    weight_decay: float = 1e-5
    patience: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ValueError("epochs and learning_rate must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batchnorm needs real batches)")
        if self.weight_decay < 0 or self.patience < 0:
            raise ValueError("weight_decay and patience must be nonnegative")


# ---------------------------------------------------------------------------
# loss and metrics
# ---------------------------------------------------------------------------

def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient 2*(pred - target)/N."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"pred {pred.shape} and target {target.shape} differ")
    resid = pred - target
    return float((resid**2).mean()), 2.0 * resid / resid.size


def compute_metrics(y: np.ndarray, yhat: np.ndarray) -> tuple[float, float, float]:
    """(MAPE %, MAE, RMSE): percentage error, absolute error, and root mean
    square error over paired actual/predicted values."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("y and yhat must be equal-length nonempty vectors")
    if np.any(y == 0):
        raise ValueError("MAPE undefined: actual value of 0 present")
    err = y - yhat
    mape = 100.0 * float(np.mean(np.abs(err / y)))
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    return mape, mae, rmse


@dataclass
class EvalReport:
    """Evaluation metrics plus the per-sample and per-battery breakdown."""

    mape: float  # percent
    mae: float  # cycles
    rmse: float  # cycles
    residuals: np.ndarray  # yhat - y per sample
    per_battery: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "mape_percent": self.mape,
            "mae_cycles": self.mae,
            "rmse_cycles": self.rmse,
            "residuals": self.residuals.tolist(),
            "per_battery": self.per_battery,
        }


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def initial(cls, tensors: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(x) for k, x in tensors.items()},
            v={k: np.zeros_like(x) for k, x in tensors.items()},
        )


def adam_step(
    tensors: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new tensors and state.

    Weight decay (when nonzero) is classic L2: decay * param is added to the
    gradient before the moment updates.
    """
    if set(tensors) != set(grads) or set(tensors) != set(state.m):
        raise ValueError("params, grads and optimizer state must share keys")
    t = state.t + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_tensors, new_m, new_v = {}, {}, {}
    for k, x in tensors.items():
        g = grads[k]
        if g.shape != x.shape:
            raise ValueError(f"grad shape mismatch for {k}: {g.shape} vs {x.shape}")
        if config.weight_decay:
            g = g + config.weight_decay * x
        m = b1 * state.m[k] + (1 - b1) * g
        v = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_tensors[k] = x - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[k] = m
        new_v[k] = v
    return new_tensors, AdamState(new_m, new_v, t)


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------

def _forward_in_chunks(params: FpnnParams, samples: SampleSet) -> np.ndarray:
    preds = []
    for lo in range(0, len(samples), EVAL_CHUNK):
        batch = (samples.raw[lo : lo + EVAL_CHUNK], samples.diff[lo : lo + EVAL_CHUNK])
        preds.append(fpnn_forward(batch, params, mode="eval"))
    return np.concatenate(preds)


def evaluate(params: FpnnParams, samples: SampleSet) -> EvalReport:
    """Eval-mode predictions with MAPE/MAE/RMSE and per-battery MAE."""
    if len(samples) == 0:
        raise ValueError("cannot evaluate on an empty sample set")
    yhat = _forward_in_chunks(params, samples)
    y = samples.labels
    mape, mae, rmse = compute_metrics(y, yhat)
    per_battery: dict[str, dict[str, float]] = {}
    for bid in sorted(set(samples.battery_ids)):
        idx = [i for i, b in enumerate(samples.battery_ids) if b == bid]
        abs_err = np.abs(yhat[idx] - y[idx])
        per_battery[bid] = {
            "mae": float(abs_err.mean()),
            "n_samples": len(idx),
            "life": float(y[idx[0]]),
        }
    return EvalReport(mape, mae, rmse, residuals=yhat - y, per_battery=per_battery)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mape: float


def train(
    params: FpnnParams,
    train_samples: SampleSet,
    val_samples: SampleSet,
    config: TrainConfig,
) -> tuple[FpnnParams, list[EpochRecord]]:
    """Run the training loop; returns (best-validation params, history).

    Each epoch shuffles with the config seed, runs minibatch forward/
    backward/Adam, then scores validation MAPE in eval mode. The best-
    validation snapshot is returned; training stops once validation has
    not improved for more than ``patience`` consecutive epochs.

    A split whose last minibatch would hold one sample is rejected before
    the first step when a batchnorm runs at 1x1 (``smallest_bn_side``).
    It is not merged into the minibatch before it: that would also change
    the batches at grids where a one-sample minibatch trains fine.
    """
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise TrainingError("train and validation splits must be nonempty")
    n, model = len(train_samples), params.config
    if (n - 1) % config.batch_size == 0 and smallest_bn_side(model) == 1:
        raise TrainingError(
            f"a train split of {n} samples at batch size {config.batch_size} ends in a "
            f"one-sample minibatch, and at grid {model.grid_side} with noi {model.noi} a "
            "batchnorm runs at 1x1: its train-mode statistics would rest on one value "
            "per channel; choose another batch size"
        )
    rng = np.random.default_rng(config.seed)
    work = params.copy()
    opt = AdamState.initial(work.tensors)
    history: list[EpochRecord] = []
    best_mape = math.inf
    best_params = work.copy()
    stale = 0

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_samples))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            batch = (train_samples.raw[idx], train_samples.diff[idx])
            target = train_samples.labels[idx]
            where = f"epoch {epoch}, batch {n_batches} (samples {lo}..{lo + len(idx) - 1})"
            try:
                preds, bn_states, cache = fpnn_forward(batch, work, mode="train", want_cache=True)
                loss, pred_grad = mse_loss(preds, target)
                if not math.isfinite(loss):
                    raise TrainingError(f"non-finite loss at {where}")
                grads = fpnn_backward(work, cache, pred_grad)
                # else the step's forward cache lives through the next forward pass
                del preds, cache, pred_grad
            except (NonFiniteError, ShapeError) as exc:
                raise TrainingError(f"{exc} at {where}") from exc
            work.bn_states = bn_states
            work.tensors, opt = adam_step(work.tensors, grads, opt, config)
            epoch_loss += loss * len(idx)
            n_batches += 1
        epoch_loss /= len(order)

        val_report = evaluate(work, val_samples)
        history.append(EpochRecord(epoch, epoch_loss, val_report.mape))
        if val_report.mape < best_mape:
            best_mape = val_report.mape
            best_params = work.copy()
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return best_params, history


# ---------------------------------------------------------------------------
# depth sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepCell:
    """One cell of a depth sweep or ablation: its input window, unit count
    and seed, and its test metrics (NaN, with the error, if it failed)."""

    n_input_cycles: int
    noi: int
    seed: int
    mape: float = float("nan")
    mae: float = float("nan")
    rmse: float = float("nan")
    error: str = ""


def run_sweep_cell(train_set: SampleSet, test_set: SampleSet, n_input_cycles: int,
                   model_config: FpnnConfig, train_config: TrainConfig) -> SweepCell:
    """Train the model ``model_config`` describes on its window's
    preprocessed splits and score it on the test split; failures land in
    the cell, they never propagate.

    The cell's seed is ``model_config.seed``: it initialises the model,
    holds out the validation batteries and shuffles the batches.
    """
    seed = model_config.seed
    cell = SweepCell(n_input_cycles, model_config.noi, seed)
    try:
        fit_set, val_set = holdout_by_battery(train_set, HOLDOUT_FRACTION, seed)
        best, _ = train(build_model(model_config), fit_set, val_set,
                        replace(train_config, seed=seed))
        report = evaluate(best, test_set)
        cell.mape, cell.mae, cell.rmse = report.mape, report.mae, report.rmse
    except Exception as exc:  # noqa: BLE001 - recorded as a NaN row
        cell.error = f"{type(exc).__name__}: {exc}"
        log.warning("failed: %s", cell, exc_info=True)
    return cell


def run_sweep_window(records, n_input_cycles: int, model_configs: list[FpnnConfig],
                     train_config: TrainConfig) -> list[SweepCell]:
    """Preprocess one input window once, at the grid side its cells'
    configs share, then train and score one cell per config on the result.

    The fleet is split with ``train_config.seed``, the split seed: each
    cell replaces it with its own seed. If preprocessing fails, every cell
    of the window becomes a NaN row carrying the error.
    """
    grid_sides = {config.grid_side for config in model_configs}
    if len(grid_sides) != 1:
        raise ValueError(f"a window's cells need one grid side, got {sorted(grid_sides)}")
    try:
        train_set, test_set, _, _ = preprocess_fleet(
            records, n_input_cycles, grid_side=grid_sides.pop(), seed=train_config.seed
        )
    except Exception as exc:  # noqa: BLE001 - recorded as NaN rows
        error = f"{type(exc).__name__}: {exc}"
        cells = [SweepCell(n_input_cycles, c.noi, c.seed, error=error) for c in model_configs]
        for cell in cells:
            log.warning("failed: %s", cell, exc_info=True)
        return cells
    return [run_sweep_cell(train_set, test_set, n_input_cycles, c, train_config)
            for c in model_configs]


def cell_seed(seed: int, index: int) -> int:
    """The seed of a sweep's or an ablation's cell ``index`` (0-based, in
    the order the cells are returned) under the base ``seed``."""
    return seed + 1000 * index


def noi_sweep(records, cycles_values, noi_values, grid_side: int, train_config: TrainConfig,
              seed: int, jobs: int = 1, *,
              model_config: FpnnConfig = FpnnConfig()) -> list[SweepCell]:
    """Grid of (input window, unit count) cells, returned window-major.
    Each cell is ``model_config`` with its ``noi``, ``grid_side`` and seed
    (``cell_seed`` of the base seed and the cell's index) replaced. Each
    window runs through ``run_sweep_window``, which splits the fleet with
    ``train_config.seed``, the split seed; with ``jobs`` > 1 the windows run
    in worker processes, which receive the records once per window."""
    windows = list(cycles_values)
    if not windows or not noi_values:
        raise ValueError("empty sweep grid")
    configs = [[replace(model_config, noi=noi, grid_side=grid_side,
                        seed=cell_seed(seed, w * len(noi_values) + j))
                for j, noi in enumerate(noi_values)]
               for w in range(len(windows))]
    run = partial(run_sweep_window, records, train_config=train_config)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(windows))) as pool:
            rows = list(pool.map(run, windows, configs))
    else:
        rows = list(map(run, windows, configs))
    return [cell for row in rows for cell in row]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params: FpnnParams, path: str | Path) -> None:
    """Config echo plus every tensor and batchnorm state, checksummed."""
    tensors = dict(params.tensors)
    for name, state in params.bn_states.items():
        tensors[f"{name}.running_mean"] = state.mean
        tensors[f"{name}.running_var"] = state.var
    meta = {
        "kind": CHECKPOINT_KIND,
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
    }
    tio.write_tensors(path, tensors, meta)


def load_checkpoint(path: str | Path) -> FpnnParams:
    """Read a checkpoint and check it against ``build_model`` of its config:
    every tensor and batchnorm state by name and shape, nothing extra. An older
    checkpoint's conv bias ``{conv}.b`` folds into its running mean (``- b``)."""
    meta, tensors = tio.read_tensors(path)
    if meta.get("kind") != CHECKPOINT_KIND:
        raise CheckpointError(f"{path}: not a model checkpoint")
    if meta.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {meta.get('checkpoint_version')} "
            f"incompatible with {CHECKPOINT_VERSION}"
        )
    tio.require_keys(meta, ("config",), f"{path}: meta", CheckpointError)
    try:
        config = FpnnConfig.from_dict(meta["config"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    expected = build_model(config)
    shapes = {name: t.shape for name, t in expected.tensors.items()}
    for name, state in expected.bn_states.items():
        shapes[f"{name}.running_mean"] = state.mean.shape
        shapes[f"{name}.running_var"] = state.var.shape
    folds = {f"{n}.b": f"{bn_name(n)}.running_mean" for n in conv_layout(config)
             if f"{n}.b" in tensors and bn_name(n) in expected.bn_states}
    for name, shape in {**shapes, **{b: shapes[m] for b, m in folds.items()}}.items():
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, "
                f"the config needs {shape}"
            )
    for name in tensors:
        if name not in shapes and name not in folds:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
    for bias, mean in folds.items():
        tensors[mean] = tensors[mean] - tensors.pop(bias)
    bn_states = {name: BnState(tensors.pop(f"{name}.running_mean"),
                               tensors.pop(f"{name}.running_var"))
                 for name in expected.bn_states}  # build order
    return FpnnParams(config, tensors, bn_states)
