"""Sizes, seeds and paths shared by the benchmark's scripts.

This module imports nothing heavy, so an entry script can pin the BLAS
thread count before numpy is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOADS = ("preprocess", "train", "predict", "sweep")

# The workload seed picks one of N_VARIANTS input sets (seed mod N_VARIANTS),
# and every variant has recorded reference outputs in references.json, so each
# run's outputs are checked whatever seed it is given.
N_VARIANTS = 32

# One BLAS thread on every commit: steadier than two on a shared 2-core box.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Named sub-seeds, with the same offsets the fpnn CLI uses.
SEED_OFFSETS = {"fleet": 0, "split": 1, "init": 2, "shuffle": 3}

# "full" is what BENCHMARK.json runs; "tiny" is for the smoke test.
SIZES = {
    "full": {
        "preprocess": {"batteries": 6, "cycles": 40, "grid": 32},
        "train": {"batteries": 10, "cycles": 10, "grid": 32, "noi": 1,
                  "epochs": 2, "batch": 16},
        "predict": {"batteries": 12, "cycles": 10, "grid": 32, "noi": 4,
                    "ckpt_epochs": 1, "batch": 16, "min_requests": 100},
        "sweep": {"batteries": 4, "cycles": [10, 20], "nois": [0, 2], "grid": 32,
                  "epochs": 1, "batch": 16},
    },
    "tiny": {
        "preprocess": {"batteries": 3, "cycles": 10, "grid": 8},
        "train": {"batteries": 6, "cycles": 10, "grid": 8, "noi": 1,
                  "epochs": 2, "batch": 4},
        "predict": {"batteries": 6, "cycles": 10, "grid": 8, "noi": 4,
                    "ckpt_epochs": 1, "batch": 4, "min_requests": 1},
        "sweep": {"batteries": 4, "cycles": [10, 20], "nois": [0, 2], "grid": 8,
                  "epochs": 1, "batch": 4},
    },
}


def variant_of(seed: int) -> int:
    return seed % N_VARIANTS


def sub_seeds(variant: int) -> dict[str, int]:
    return {name: variant + off for name, off in SEED_OFFSETS.items()}


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_fpnn():
    """Import fpnn from this checkout's src/, never from an installed copy."""
    if not (SRC / "fpnn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fpnn package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpnn

    if Path(fpnn.__file__).resolve().parent != SRC / "fpnn":
        raise SystemExit(f"perfbench: imported fpnn from {fpnn.__file__}, not {SRC}")
    return fpnn
