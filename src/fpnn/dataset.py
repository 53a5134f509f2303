"""Battery cycle data types and the canonical on-disk dataset layout.

A dataset directory holds one subdirectory per battery:

    <root>/<battery_id>/meta.json    battery_id, life, nominal_capacity_ah,
                                     charge_policy
    <root>/<battery_id>/cycles.csv   header: cycle,charge_q_ah,voltage_v,
                                     current_a,temperature_c
                                     rows grouped by ascending cycle, then
                                     ascending charge_q_ah

``cycles.csv`` is parsed in one ``np.loadtxt`` call. A cycle's rows must be
contiguous, and a row that does not parse is reported by its line number.

The life label is supplied by the data source (cycle where discharge
capacity falls to 80% of the 1.1 Ah nominal); it is never recomputed here.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataValidationError
from .io import read_json_object

NOMINAL_CAPACITY_AH = 1.1

MIN_CURVE_POINTS = 16

CYCLES_CSV_HEADER = ["cycle", "charge_q_ah", "voltage_v", "current_a", "temperature_c"]
_SERIES = ("charged_capacity", "voltage", "current", "temperature")  # a CycleCurve's arrays


@dataclass
class CycleCurve:
    """Charge-phase V/I/T series for one cycle, indexed by charged capacity."""

    cycle_index: int
    charged_capacity: np.ndarray  # Ah, strictly increasing
    voltage: np.ndarray  # V
    current: np.ndarray  # A
    temperature: np.ndarray  # degC

    def __post_init__(self):
        for name in _SERIES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    def validate(self, battery_id: str = "?") -> None:
        where = f"battery {battery_id!r} cycle {self.cycle_index}"
        if self.cycle_index < 1:
            raise DataValidationError(f"{where}: cycle index must be positive")
        n = len(self.charged_capacity)
        for name in _SERIES:
            series = getattr(self, name)
            if len(series) != n:
                raise DataValidationError(f"{where}: {name} length != capacity length")
            if not np.isfinite(series).all():
                raise DataValidationError(f"{where}: {name} has non-finite values")
        if n < MIN_CURVE_POINTS:
            raise DataValidationError(f"{where}: needs >= {MIN_CURVE_POINTS} points, got {n}")
        if not np.all(np.diff(self.charged_capacity) > 0):
            raise DataValidationError(f"{where}: charged_capacity must be strictly increasing")


@dataclass
class BatteryRecord:
    """All charge cycles of one battery plus its life label in cycles."""

    battery_id: str
    cycles: list[CycleCurve]
    life: int
    charge_policy: str = ""
    nominal_capacity_ah: float = NOMINAL_CAPACITY_AH

    def validate(self) -> None:
        if self.life < 1:
            raise DataValidationError(f"battery {self.battery_id!r}: life must be positive")
        if not self.cycles:
            raise DataValidationError(f"battery {self.battery_id!r}: no cycles")
        indices = [c.cycle_index for c in self.cycles]
        if indices[0] != 1 or any(b <= a for a, b in zip(indices, indices[1:])):
            raise DataValidationError(
                f"battery {self.battery_id!r}: cycle indices must strictly increase from 1"
            )
        for curve in self.cycles:
            curve.validate(self.battery_id)


def save_battery(record: BatteryRecord, root: str | Path) -> Path:
    """Write one battery in the canonical layout; returns its directory."""
    record.validate()
    bdir = Path(root) / record.battery_id
    bdir.mkdir(parents=True, exist_ok=True)
    meta = {
        "battery_id": record.battery_id,
        "life": int(record.life),
        "nominal_capacity_ah": record.nominal_capacity_ah,
        "charge_policy": record.charge_policy,
    }
    (bdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    with open(bdir / "cycles.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CYCLES_CSV_HEADER)
        for curve in record.cycles:
            for q, v, i, t in zip(
                curve.charged_capacity, curve.voltage, curve.current, curve.temperature
            ):
                writer.writerow(
                    [curve.cycle_index, repr(float(q)), repr(float(v)), repr(float(i)), repr(float(t))]
                )
    return bdir


# One cycles.csv row: the cycle number, read by int() (numpy's own int parse
# reads "1.5" as 1, with only a DeprecationWarning, on some releases), then
# charge_q_ah, voltage_v, current_a and temperature_c; fields past the fifth
# are ignored.
_ROW_DTYPE = np.dtype([("cycle", np.int64), ("values", np.float64, (4,))])


def _read_rows(lines) -> np.ndarray:
    return np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                      usecols=range(len(CYCLES_CSV_HEADER)), converters={0: int}, ndmin=1)


def _parse_cycle_rows(body: str, battery: str) -> np.ndarray:
    """The rows after the header, parsed in one call. An empty body has no
    rows; a row that does not parse is named by its line number."""
    if not body.strip():
        return np.empty(0, dtype=_ROW_DTYPE)
    try:
        return _read_rows(io.StringIO(body))
    except ValueError:
        pass
    # the first line that does not parse alone is the one at fault
    for lineno, line in enumerate(body.split("\n"), start=2):
        try:
            if line:
                _read_rows([line])
        except ValueError as exc:
            raise DataValidationError(f"battery {battery!r}: bad row {lineno} in cycles.csv") from exc
    raise DataValidationError(f"battery {battery!r}: bad rows in cycles.csv")


def _meta_number(meta: dict, key: str, bdir: Path, default=None, whole=False) -> float:
    """meta.json's ``key`` (``default`` when it is absent), which must be a
    finite JSON number, a whole one with ``whole``; anything else is an
    error naming the battery dir and the key."""
    value = meta.get(key, default)
    if (type(value) not in (int, float) or not math.isfinite(value)
            or (whole and value != int(value))):
        raise DataValidationError(
            f"battery dir {bdir.name!r}: meta.json {key!r} must be a "
            f"{'whole ' if whole else ''}number, got {json.dumps(value)}")
    return value


def _load_battery_dir(bdir: Path) -> BatteryRecord:
    meta_path = bdir / "meta.json"
    if not meta_path.exists():
        raise DataValidationError(f"battery dir {bdir.name!r}: missing meta.json")
    meta = read_json_object(meta_path, ("battery_id", "life"))
    life = int(_meta_number(meta, "life", bdir, whole=True))
    capacity = float(_meta_number(meta, "nominal_capacity_ah", bdir, NOMINAL_CAPACITY_AH))
    csv_path = bdir / "cycles.csv"
    if not csv_path.exists():
        raise DataValidationError(f"battery dir {bdir.name!r}: missing cycles.csv")

    battery = meta["battery_id"]
    header, _, body = csv_path.read_text().partition("\n")
    header = header.split(",")
    if header != CYCLES_CSV_HEADER:
        raise DataValidationError(f"battery {battery!r}: bad cycles.csv header {header}")
    rows = _parse_cycle_rows(body, battery)
    index = rows["cycle"]
    starts = np.flatnonzero(index[1:] != index[:-1]) + 1
    cycle_ids = [int(c) for c in index[np.r_[0, starts]]] if index.size else []
    if len(set(cycle_ids)) != len(cycle_ids):
        repeated = next(c for i, c in enumerate(cycle_ids) if c in cycle_ids[:i])
        raise DataValidationError(
            f"battery {battery!r}: rows of cycle {repeated} in cycles.csv are not contiguous"
        )
    values = np.ascontiguousarray(rows["values"])  # [rows, 4], as one array per cycle was
    cycles = [
        CycleCurve(cycle_index=cyc, charged_capacity=block[:, 0], voltage=block[:, 1],
                   current=block[:, 2], temperature=block[:, 3])
        for cyc, block in zip(cycle_ids, np.split(values, starts))
    ]
    record = BatteryRecord(
        battery_id=str(meta["battery_id"]),
        cycles=cycles,
        life=life,
        charge_policy=str(meta.get("charge_policy", "")),
        nominal_capacity_ah=capacity,
    )
    record.validate()
    return record


def load_canonical_dataset(path: str | Path) -> list[BatteryRecord]:
    """Load every battery directory under ``path``, sorted by name.

    Raises DataValidationError naming the offending battery/cycle on any
    invariant violation. An empty directory yields an empty list.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataValidationError(f"dataset directory {root} does not exist")
    return [_load_battery_dir(bdir) for bdir in sorted(p for p in root.iterdir() if p.is_dir())]


def save_canonical_dataset(records: list[BatteryRecord], root: str | Path) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for record in records:
        save_battery(record, root)
    return root
