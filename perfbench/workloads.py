"""The four workloads: what one call does, and how its output is checked.

Each workload reads its inputs in ``setup()`` and then serves a closed loop
of ``call(i)`` with one client, through fpnn's public API. Outputs are
compared with references recorded at the commit that defined the benchmark;
see README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from pathlib import Path

import numpy as np

import fpnn
from fpnn.preprocess import holdout_by_battery

import settings

# Tolerance for float outputs against the references: far above the 1e-11
# relative drift a changed BLAS summation order gives, far below any change
# to the arithmetic itself.
RTOL = 1e-6
ATOL = 1e-6


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


class Workload:
    """One workload at one size and seed variant.

    ``items_per_call`` counts what ``items_per_s`` measures; ``ops_per_call``
    counts the operations reported as attempted and failed.
    """

    name = ""
    item = ""
    op = ""

    def __init__(self, size: str, variant: int, input_dir: Path, reference):
        self.cfg = settings.SIZES[size][self.name]
        self.size = size
        self.seeds = settings.sub_seeds(variant)
        self.input_dir = input_dir
        self.reference = reference
        self.items_per_call = 0
        self.ops_per_call = 0

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def reference_outputs(self):
        """The outputs recorded as this variant's reference."""
        raise NotImplementedError

    def failed_ops(self, i: int, out) -> int:
        """Operations of call ``i`` whose output misses the reference."""
        raise NotImplementedError

    def summary(self, out) -> dict:
        """Outputs worth printing with the result."""
        return {}

    def probe_model(self):
        """(params, batch size) for the per-layer probe: the train workload's
        net and batch, unless the workload runs a model of its own."""
        cfg = settings.SIZES[self.size]["train"]
        model = fpnn.build_model(fpnn.FpnnConfig(noi=cfg["noi"], grid_side=cfg["grid"],
                                                 seed=self.seeds["init"]))
        return model, cfg["batch"]

    def close(self) -> None:
        pass


class Preprocess(Workload):
    """preprocess_fleet at the 40-cycle window, then archive write and read."""

    name = "preprocess"
    item = "batteries"
    op = "battery"

    def setup(self):
        self.records = fpnn.load_canonical_dataset(self.input_dir / "fleet")
        self.archive = settings.WORK / "run" / f"archive-{os.getpid()}"
        self.items_per_call = self.ops_per_call = len(self.records)

    def call(self, i):
        cfg = self.cfg
        train_set, test_set, scaler, _ = fpnn.preprocess_fleet(
            self.records, cfg["cycles"], grid_side=cfg["grid"], seed=self.seeds["split"])
        splits = {"train": train_set, "test": test_set}
        fpnn.save_sample_archive(self.archive, splits, scaler, cfg["cycles"], cfg["grid"],
                                 self.seeds["split"])
        loaded, loaded_scaler, _ = fpnn.load_sample_archive(self.archive)
        return splits, scaler, loaded, loaded_scaler

    def _digest(self) -> str:
        h = hashlib.sha256()
        for path in sorted(self.archive.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def _round_trips(self, out) -> bool:
        splits, scaler, loaded, loaded_scaler = out
        if set(loaded) != set(splits) or loaded_scaler.to_dict() != scaler.to_dict():
            return False
        return all(
            np.array_equal(ss.raw, got.raw) and np.array_equal(ss.diff, got.diff)
            and np.array_equal(ss.labels, got.labels)
            and np.array_equal(ss.anchor_cycles, got.anchor_cycles)
            and ss.battery_ids == got.battery_ids
            for ss, got in ((splits[k], loaded[k]) for k in splits)
        )

    def reference_outputs(self):
        out = self.call(0)
        if not self._round_trips(out):
            raise RuntimeError("archive does not round-trip")
        return {"archive_sha256": self._digest()}

    def failed_ops(self, i, out):
        ok = (self.reference is not None and self._round_trips(out)
              and self._digest() == self.reference["archive_sha256"])
        return 0 if ok else self.ops_per_call

    def close(self):
        shutil.rmtree(self.archive, ignore_errors=True)


class Train(Workload):
    """train() on the paper's default net; every epoch runs."""

    name = "train"
    item = "samples"
    op = "step"

    def setup(self):
        cfg = self.cfg
        splits, _, _ = fpnn.load_sample_archive(self.input_dir / "archive")
        self.fit, self.val = holdout_by_battery(splits["train"], 0.2, self.seeds["split"])
        self.params = fpnn.build_model(fpnn.FpnnConfig(noi=cfg["noi"], grid_side=cfg["grid"],
                                                       seed=self.seeds["init"]))
        self.train_config = fpnn.TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch"],
                                             patience=cfg["epochs"], seed=self.seeds["shuffle"])
        self.items_per_call = cfg["epochs"] * len(self.fit)
        self.ops_per_call = cfg["epochs"] * math.ceil(len(self.fit) / cfg["batch"])

    def call(self, i):
        _, history = fpnn.train(self.params, self.fit, self.val, self.train_config)
        return history

    def reference_outputs(self):
        history = self.call(0)
        return {"epochs": len(history), "train_loss_final": history[-1].train_loss}

    def failed_ops(self, i, history):
        ok = (self.reference is not None and len(history) == self.reference["epochs"]
              and _close(history[-1].train_loss, self.reference["train_loss_final"]))
        return 0 if ok else self.ops_per_call

    def summary(self, history):
        return {"train_loss_final": history[-1].train_loss,
                "train_loss_final_over_mean_label_sq":
                    history[-1].train_loss / float(np.mean(self.fit.labels ** 2)),
                "fit_samples": len(self.fit), "val_samples": len(self.val)}

    def probe_model(self):
        return self.params, self.cfg["batch"]


class Predict(Workload):
    """Closed loop of requests: evaluate() on one held-out battery's samples."""

    name = "predict"
    item = "samples"
    op = "request"

    def setup(self):
        splits, _, _ = fpnn.load_sample_archive(self.input_dir / "archive")
        self.params = fpnn.load_checkpoint(self.input_dir / "checkpoint.fpt")
        test = splits["test"]
        self.battery_ids = sorted(set(test.battery_ids))
        self.requests = [
            test.subset([j for j, b in enumerate(test.battery_ids) if b == bid])
            for bid in self.battery_ids
        ]
        sizes = {len(r) for r in self.requests}
        if len(sizes) != 1:
            raise RuntimeError(f"requests differ in size: {sorted(sizes)}")
        self.items_per_call = sizes.pop()
        self.ops_per_call = 1

    def call(self, i):
        k = i % len(self.requests)
        report = fpnn.evaluate(self.params, self.requests[k])
        return k, report

    @staticmethod
    def predictions(report, samples) -> np.ndarray:
        return report.residuals + samples.labels

    def reference_outputs(self):
        return {
            bid: self.predictions(self.call(k)[1], self.requests[k]).tolist()
            for k, bid in enumerate(self.battery_ids)
        }

    def failed_ops(self, i, out):
        k, report = out
        if self.reference is None:
            return 1
        want = np.asarray(self.reference[self.battery_ids[k]])
        got = self.predictions(report, self.requests[k])
        return 0 if np.allclose(got, want, rtol=RTOL, atol=ATOL) else 1

    def summary(self, out):
        return {"test_batteries": len(self.requests), "noi": self.params.config.noi}

    def probe_model(self):
        return self.params, self.items_per_call


class Sweep(Workload):
    """noi_sweep over windows x unit counts, one epoch per cell, jobs=1."""

    name = "sweep"
    item = "cells"
    op = "cell"

    def setup(self):
        cfg = self.cfg
        self.records = fpnn.load_canonical_dataset(self.input_dir / "fleet")
        # Same configs as `fpnn sweep-noi`: the shuffle sub-seed goes in the
        # train config, and noi_sweep gets the base seed.
        self.train_config = fpnn.TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch"],
                                             patience=cfg["epochs"], seed=self.seeds["shuffle"])
        self.items_per_call = self.ops_per_call = len(cfg["cycles"]) * len(cfg["nois"])

    def call(self, i):
        cfg = self.cfg
        return fpnn.noi_sweep(self.records, cfg["cycles"], cfg["nois"], cfg["grid"],
                              self.train_config, self.seeds["fleet"], jobs=1)

    @staticmethod
    def _key(cell) -> str:
        return f"{cell.n_input_cycles}x{cell.noi}"

    def reference_outputs(self):
        cells = self.call(0)
        errors = [c.error for c in cells if c.error]
        if errors:
            raise RuntimeError(f"sweep cells failed: {errors}")
        return {self._key(c): c.mape for c in cells}

    def failed_ops(self, i, cells):
        if self.reference is None:
            return len(cells)
        return sum(1 for c in cells
                   if c.error or not _close(c.mape, self.reference[self._key(c)]))

    def summary(self, cells):
        return {"sweep_test_mape_pct": float(np.mean([c.mape for c in cells])),
                "cells": {self._key(c): c.mape for c in cells}}

    def probe_model(self):
        cfg = self.cfg
        model = fpnn.build_model(fpnn.FpnnConfig(noi=max(cfg["nois"]), grid_side=cfg["grid"],
                                                 seed=self.seeds["init"]))
        return model, cfg["batch"]


WORKLOADS = {w.name: w for w in (Preprocess, Train, Predict, Sweep)}
