"""Turn charge-cycle curves into video-like sample tensors.

Pipeline per battery: cleaning per cycle (a Hampel outlier filter, then
Savitzky-Golay smoothing, each over the three channels stacked in one
call), linear resampling of each cycle onto a G*G capacity-grid image,
then sample assembly by indexing that frame stack: each
anchor cycle gives 4 raw frames (first cycle + the three most recent) and a
differential twin stream (each recent frame minus the first-cycle frame).
Samples live in one :class:`SampleSet` of stacked arrays from assembly to
archive; the per-battery sets of a split are concatenated, and per-channel
min-max scaling to [-1, 1] is fitted on the training set only and applied
to each split in one call. Labels stay in cycles, unscaled.

The train/test split is by battery (94:30 for the canonical 124-battery
fleet, the same proportion otherwise) so no battery leaks across the split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import BatteryRecord, CycleCurve
from .errors import DataValidationError
from . import io as tio

N_CHANNELS = 3  # voltage, current, temperature, in this order
SAMPLE_DEPTH = 4  # first cycle + three most recent
VALID_INPUT_CYCLES = (10, 20, 30, 40)
DEFAULT_GRID_SIDE = 32

CANONICAL_TRAIN = 94
CANONICAL_TEST = 30
HOLDOUT_FRACTION = 0.2  # share of a train split's batteries held out for validation

HAMPEL_WINDOW = 11
HAMPEL_SIGMAS = 3.0
SG_WINDOW = 9
SG_POLYORDER = 3

_MAD_SCALE = 1.4826  # MAD -> sigma for Gaussian data


@dataclass
class SampleSet:
    """Samples stacked into contiguous arrays, one row per (battery, anchor)."""

    raw: np.ndarray  # [N, 3, 4, G, G]
    diff: np.ndarray  # [N, 3, 3, G, G]
    labels: np.ndarray  # [N], life in cycles
    battery_ids: list[str]
    anchor_cycles: np.ndarray  # [N], latest cycle used

    def __len__(self) -> int:
        return self.raw.shape[0]

    def subset(self, idx) -> "SampleSet":
        idx = np.asarray(idx, dtype=int)
        return SampleSet(
            raw=self.raw[idx],
            diff=self.diff[idx],
            labels=self.labels[idx],
            battery_ids=[self.battery_ids[i] for i in idx],
            anchor_cycles=self.anchor_cycles[idx],
        )


# ---------------------------------------------------------------------------
# series cleaning
# ---------------------------------------------------------------------------

def hampel_filter(series: np.ndarray) -> np.ndarray:
    """Replace rolling-median outliers along the last axis of ``[..., points]``.

    A point deviating from its window median by more than
    HAMPEL_SIGMAS * 1.4826 * MAD is replaced with that median. The window
    spans ``HAMPEL_WINDOW // 2`` points on each side. Full windows are taken
    in one sliding-window pass; the positions within that many points of
    either end use windows truncated to the available points, filtered in
    mirrored pairs (positions i and n-1-i have truncated windows of equal
    length).
    """
    x = np.asarray(series, dtype=float)
    n = x.shape[-1] if x.ndim else 0
    if n < 3:
        raise ValueError(f"hampel_filter needs at least 3 points, got {n}")
    half = HAMPEL_WINDOW // 2
    thresh = HAMPEL_SIGMAS * _MAD_SCALE
    out = x.copy()

    def replace_outliers(positions, windows):
        centre = x[..., positions]
        med = np.median(windows, axis=-1)
        mad = np.median(np.abs(windows - med[..., None]), axis=-1)
        out[..., positions] = np.where(np.abs(centre - med) > thresh * mad, med, centre)

    if n > 2 * half:
        replace_outliers(slice(half, n - half), sliding_window_view(x, 2 * half + 1, axis=-1))
    for i in range(min(half, (n + 1) // 2)):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        replace_outliers([i, n - 1 - i], np.stack([x[..., lo:hi], x[..., n - hi : n - lo]], axis=-2))
    return out


# Savitzky-Golay smoothing weights in convolution order: the least-squares
# solution of the flipped Vandermonde grid against the unit vector e0.
_SG_COEFFS = np.linalg.lstsq(
    np.arange(SG_WINDOW // 2, -(SG_WINDOW // 2) - 1, -1, dtype=float)
    ** np.arange(SG_POLYORDER + 1)[:, None],
    np.eye(SG_POLYORDER + 1)[0], rcond=None)[0]


def savitzky_golay(series: np.ndarray) -> np.ndarray:
    """Least-squares polynomial smoothing along the last axis of ``[..., points]``.

    Each interior point takes the center value of its window's polynomial
    fit (window SG_WINDOW = 9, order SG_POLYORDER = 3); the first and last
    ``window // 2`` points are evaluated from the polynomial fitted to the
    nearest full window. This is ``scipy.signal.savgol_filter(x, 9, 3,
    mode="interp")`` on each 1-D series, bitwise, because it repeats
    scipy's arithmetic:

    - the weights ``c`` are scipy's ``savgol_coeffs``: ``lstsq`` of the
      flipped Vandermonde grid against e0 (``_SG_COEFFS``);
    - an interior point is ``x[i]*c[h]``, then ``+ (x[i-j] + x[i+j]) * c[h+j]``
      for ``j = h..1``, outermost pair first, with ``h = window // 2``: the
      summation order ``ndimage.convolve1d`` uses on weights symmetric to
      within machine epsilon;
    - each edge is ``np.polyval(np.polyfit(arange(window), w, polyorder), t)``
      over its own 1-D window ``w``. Fitting the stacked series' windows in
      one ``polyfit`` would round differently, so the edges are fitted per
      series.
    """
    x = np.asarray(series, dtype=float)
    window, polyorder, c = SG_WINDOW, SG_POLYORDER, _SG_COEFFS
    n = x.shape[-1] if x.ndim else x.size
    if n < window:
        raise ValueError(f"series length {n} shorter than window {window}")
    half = window // 2
    out = np.empty(x.shape)
    interior = x[..., half : n - half] * c[half]
    for j in range(half, 0, -1):
        interior += (x[..., half - j : n - half - j] + x[..., half + j : n - half + j]) * c[half + j]
    out[..., half : n - half] = interior
    t = np.arange(window, dtype=float)
    for row, smoothed in zip(x.reshape(-1, n), out.reshape(-1, n)):
        smoothed[:half] = np.polyval(np.polyfit(t, row[:window], polyorder), t[:half])
        smoothed[n - half :] = np.polyval(np.polyfit(t, row[n - window :], polyorder), t[window - half :])
    return out


# ---------------------------------------------------------------------------
# frame construction
# ---------------------------------------------------------------------------

def resample_to_grid(curve: CycleCurve, grid_side: int) -> np.ndarray:
    """Interpolate V/I/T onto G*G cell-center points over [0, Q_max] and
    reshape row-major into a [3, G, G] frame.

    Sample points sit at cell centers ((i + 0.5)/G^2 * Q_max), so G=1 probes
    the grid center. Queries outside the recorded capacity range hold the
    endpoint values.
    """
    if grid_side < 1:
        raise ValueError("grid_side must be positive")
    q = np.asarray(curve.charged_capacity, dtype=float)
    if q.size < 2:
        raise DataValidationError(
            f"battery cycle {curve.cycle_index}: need >= 2 points to interpolate"
        )
    n = grid_side * grid_side
    q_max = q[-1]
    grid = (np.arange(n) + 0.5) * (q_max / n)
    frame = np.empty((N_CHANNELS, grid_side, grid_side))
    for ch, series in enumerate((curve.voltage, curve.current, curve.temperature)):
        frame[ch] = np.interp(grid, q, np.asarray(series, dtype=float)).reshape(grid_side, grid_side)
    return frame


def cycle_frame(curve: CycleCurve, grid_side: int, smooth: bool = True) -> np.ndarray:
    """Clean one cycle's channels and resample to a [3, G, G] frame.

    The Hampel filter and then Savitzky-Golay smoothing run on the three
    channels stacked.
    """
    if not smooth:
        return resample_to_grid(curve, grid_side)
    channels = np.stack([curve.voltage, curve.current, curve.temperature])
    v, i, t = savitzky_golay(hampel_filter(channels))
    cleaned = CycleCurve(
        cycle_index=curve.cycle_index,
        charged_capacity=curve.charged_capacity,
        voltage=v,
        current=i,
        temperature=t,
    )
    return resample_to_grid(cleaned, grid_side)


def assemble_samples(
    battery: BatteryRecord,
    n_input_cycles: int,
    grid_side: int = DEFAULT_GRID_SIDE,
    smooth: bool = True,
) -> SampleSet:
    """Build the battery's unscaled samples from its first n_input_cycles.

    One sample per anchor cycle t in [4, n_input_cycles]: raw frames are
    cycles (1, t-2, t-1, t); the diff stream is frames (t-2, t-1, t) minus
    the cycle-1 frame (the first frame's self-difference is identically
    zero and excluded).
    """
    if n_input_cycles not in VALID_INPUT_CYCLES:
        raise ValueError(f"n_input_cycles must be one of {VALID_INPUT_CYCLES}")
    if len(battery.cycles) < n_input_cycles:
        raise DataValidationError(
            f"battery {battery.battery_id!r} has {len(battery.cycles)} cycles, "
            f"needs >= {n_input_cycles}"
        )
    frames = np.stack(
        [cycle_frame(battery.cycles[i], grid_side, smooth) for i in range(n_input_cycles)]
    )  # [n, 3, G, G], index i = cycle i+1
    anchors = np.arange(SAMPLE_DEPTH, n_input_cycles + 1)
    # frame indices of cycles (1, t-2, t-1, t) for each anchor t
    idx = np.stack([np.zeros_like(anchors), anchors - 3, anchors - 2, anchors - 1], axis=1)
    raw = np.ascontiguousarray(frames[idx].transpose(0, 2, 1, 3, 4))  # [A, 3, 4, G, G]
    return SampleSet(
        raw=raw,
        diff=raw[:, :, 1:] - raw[:, :, :1],  # [A, 3, 3, G, G]
        labels=np.full(len(anchors), float(battery.life)),
        battery_ids=[battery.battery_id] * len(anchors),
        anchor_cycles=anchors,
    )


def _concatenate(sets: list[SampleSet]) -> SampleSet:
    """One SampleSet holding ``sets`` in order."""
    return SampleSet(
        raw=np.concatenate([s.raw for s in sets]),
        diff=np.concatenate([s.diff for s in sets]),
        labels=np.concatenate([s.labels for s in sets]),
        battery_ids=[b for s in sets for b in s.battery_ids],
        anchor_cycles=np.concatenate([s.anchor_cycles for s in sets]),
    )


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

@dataclass
class ScalerParams:
    """Per-channel min/max for each stream, fit on the training set only."""

    raw_min: np.ndarray  # [3]
    raw_max: np.ndarray
    diff_min: np.ndarray
    diff_max: np.ndarray

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerParams":
        return cls(*(np.asarray(d[f.name], dtype=float) for f in fields(cls)))


def fit_scaler(train: SampleSet) -> ScalerParams:
    """Channel-wise min/max over all training samples, per stream."""
    if len(train) == 0:
        raise ValueError("cannot fit a scaler on zero samples")
    reduce_axes = (0, 2, 3, 4)
    params = ScalerParams(
        raw_min=train.raw.min(axis=reduce_axes),
        raw_max=train.raw.max(axis=reduce_axes),
        diff_min=train.diff.min(axis=reduce_axes),
        diff_max=train.diff.max(axis=reduce_axes),
    )
    for name, lo, hi in (("raw", params.raw_min, params.raw_max),
                         ("diff", params.diff_min, params.diff_max)):
        degenerate = np.flatnonzero(hi <= lo)
        if degenerate.size:
            raise ValueError(f"degenerate {name} channel(s) {degenerate.tolist()}: max == min")
    return params


def _scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    shape = (1, N_CHANNELS) + (1,) * (x.ndim - 2)  # x is [N, 3, D, G, G]
    lo, hi = lo.reshape(shape), hi.reshape(shape)
    return 2.0 * (x - lo) / (hi - lo) - 1.0


def apply_scaler(samples: SampleSet, params: ScalerParams) -> SampleSet:
    """Map each channel to [-1, 1] using train-set extrema; labels are
    untouched. Test samples may exceed [-1, 1]."""
    return replace(samples, raw=_scale(samples.raw, params.raw_min, params.raw_max),
                   diff=_scale(samples.diff, params.diff_min, params.diff_max))


# ---------------------------------------------------------------------------
# split + pipeline
# ---------------------------------------------------------------------------

def split_train_test(batteries: list[BatteryRecord], seed: int) -> tuple[list[str], list[str]]:
    """Deterministic battery-level split in the canonical 94:124 proportion,
    rounded (94:30 for 124 batteries), each side keeping at least one."""
    ids = [b.battery_id for b in batteries]
    if len(ids) < 2:
        raise ValueError(f"need at least 2 batteries to split, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise DataValidationError("duplicate battery ids in dataset")
    n_train = round(len(ids) * CANONICAL_TRAIN / (CANONICAL_TRAIN + CANONICAL_TEST))
    n_train = min(max(n_train, 1), len(ids) - 1)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    return shuffled[:n_train], shuffled[n_train:]


def holdout_by_battery(samples: SampleSet, val_fraction: float, seed: int) -> tuple[SampleSet, SampleSet]:
    """Split a SampleSet into (fit, holdout) by battery, never by sample."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    ids = sorted(set(samples.battery_ids))
    if len(ids) < 2:
        raise ValueError("need at least 2 batteries to hold one out")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_val = min(max(int(round(len(ids) * val_fraction)), 1), len(ids) - 1)
    val_ids = {ids[i] for i in order[:n_val]}
    val_idx = [i for i, b in enumerate(samples.battery_ids) if b in val_ids]
    fit_idx = [i for i, b in enumerate(samples.battery_ids) if b not in val_ids]
    return samples.subset(fit_idx), samples.subset(val_idx)


def preprocess_fleet(
    records: list[BatteryRecord],
    n_input_cycles: int,
    grid_side: int = DEFAULT_GRID_SIDE,
    seed: int = 0,
    smooth: bool = True,
) -> tuple[SampleSet, SampleSet, ScalerParams, tuple[list[str], list[str]]]:
    """Full pipeline: split, assemble, fit scaler on train, scale both."""
    train_ids, test_ids = split_train_test(records, seed)
    by_id = {r.battery_id: r for r in records}
    train, test = (
        _concatenate([assemble_samples(by_id[bid], n_input_cycles, grid_side, smooth)
                      for bid in ids])
        for ids in (train_ids, test_ids)
    )
    scaler = fit_scaler(train)
    return apply_scaler(train, scaler), apply_scaler(test, scaler), scaler, (train_ids, test_ids)


# ---------------------------------------------------------------------------
# sample archives
# ---------------------------------------------------------------------------

def save_sample_archive(
    out_dir: str | Path,
    splits: dict[str, SampleSet],
    scaler: ScalerParams,
    n_input_cycles: int,
    grid_side: int,
    seed: int,
) -> Path:
    """Write one tensor file per split plus a JSON manifest listing samples."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"format_version": 1, "n_input_cycles": n_input_cycles, "grid_side": grid_side,
                "seed": seed, "scaler": scaler.to_dict(), "splits": {}}
    for name, ss in splits.items():
        fname = f"{name}.fpt"
        tio.write_tensors(
            out / fname,
            {"raw": ss.raw, "diff": ss.diff, "labels": ss.labels,
             "anchor_cycles": ss.anchor_cycles.astype(float)},
            meta={"split": name, "n_samples": len(ss)},
        )
        manifest["splits"][name] = {
            "file": fname,
            "n_samples": len(ss),
            "battery_ids": sorted(set(ss.battery_ids)),
            "samples": [{"battery_id": b, "anchor_cycle": int(a), "label": float(y)}
                        for b, a, y in zip(ss.battery_ids, ss.anchor_cycles, ss.labels)],
        }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return out


def load_sample_archive(path: str | Path) -> tuple[dict[str, SampleSet], ScalerParams, dict]:
    """Inverse of save_sample_archive; returns (splits, scaler, manifest).

    A manifest that is not a JSON object, or lacks a key the archive needs,
    is an error naming the manifest and the key. Each split's tensor shapes
    must match the manifest's sample count, the length of its sample list
    and its grid side.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise DataValidationError(f"{root}: missing manifest.json")
    manifest = tio.read_json_object(manifest_path, ("grid_side", "splits", "scaler"))
    tio.require_keys(manifest["scaler"], [f.name for f in fields(ScalerParams)],
                     f"{manifest_path}: scaler")
    g = manifest["grid_side"]
    splits = {}
    for name, info in manifest["splits"].items():
        tio.require_keys(info, ("file", "n_samples", "samples"), f"{manifest_path}: split {name!r}")
        _, tensors = tio.read_tensors(root / info["file"])
        n = info["n_samples"]
        want = {"raw": (n, N_CHANNELS, SAMPLE_DEPTH, g, g),
                "diff": (n, N_CHANNELS, SAMPLE_DEPTH - 1, g, g),
                "labels": (n,), "anchor_cycles": (n,)}
        got = {k: getattr(tensors.get(k), "shape", None) for k in want}
        if got != want or len(info["samples"]) != n:
            raise DataValidationError(
                f"{root / info['file']}: split {name!r} does not match manifest.json "
                f"({n} samples, {len(info['samples'])} listed, grid side {g}): shapes {got}")
        splits[name] = SampleSet(
            raw=tensors["raw"],
            diff=tensors["diff"],
            labels=tensors["labels"],
            battery_ids=[s["battery_id"] for s in info["samples"]],
            anchor_cycles=tensors["anchor_cycles"].astype(int),
        )
    scaler = ScalerParams.from_dict(manifest["scaler"])
    return splits, scaler, manifest
