"""Early battery-life prediction with a flexible parallel CNN.

A numpy library covering the full stack: synthetic fleet generation,
charge-curve preprocessing into video-like tensors, a dual-stream network
with a configurable number of inception units and hand-written backward
passes, a deterministic training loop with the standard regression
metrics, and Gaussian-process Bayesian hyperparameter search.

BLAS threads: the network runs its two streams on two threads of its own
(see :mod:`fpnn.model`), so a BLAS thread pool per stream would compete
with the other stream for the cores. Importing ``fpnn`` therefore sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
``"1"`` where they are unset; a value already in the environment wins. The
BLAS library reads them when numpy is first imported, so this takes effect
only when ``fpnn`` is imported before numpy. Worker processes inherit it.
When numpy came first and none of the variables is set, the BLAS library
already runs its own default thread count, and the import emits a
``RuntimeWarning`` saying so.
"""

import os
import sys
import warnings

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in BLAS_THREAD_VARS):
    warnings.warn(
        f"numpy was imported before fpnn with {', '.join(BLAS_THREAD_VARS)} unset, so the "
        "BLAS library already runs its default thread count and fpnn's default of one "
        "BLAS thread per stream cannot take effect; import fpnn before numpy, or set "
        "these variables",
        RuntimeWarning, stacklevel=2,
    )
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .dataset import BatteryRecord, CycleCurve, load_canonical_dataset, save_canonical_dataset
from .datagen import SynthPolicy, generate_battery, generate_fleet
from .hyperopt import (
    Dimension,
    GpSurrogate,
    SearchSpace,
    Trial,
    bayes_optimize,
    default_search_space,
    gp_fit,
    gp_predict,
)
from .model import (
    DetachFlags,
    FpnnConfig,
    FpnnParams,
    build_model,
    export_block_weights,
    fpnn_backward,
    fpnn_forward,
)
from .preprocess import (
    SampleSet,
    ScalerParams,
    apply_scaler,
    assemble_samples,
    fit_scaler,
    hampel_filter,
    load_sample_archive,
    preprocess_fleet,
    resample_to_grid,
    save_sample_archive,
    savitzky_golay,
    split_train_test,
)
from .training import (
    EvalReport,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    load_checkpoint,
    mse_loss,
    noi_sweep,
    save_checkpoint,
    train,
)

__all__ = [
    "__version__",
    "BatteryRecord", "CycleCurve", "load_canonical_dataset", "save_canonical_dataset",
    "SynthPolicy", "generate_battery", "generate_fleet",
    "Dimension", "GpSurrogate", "SearchSpace", "Trial", "bayes_optimize",
    "default_search_space", "gp_fit", "gp_predict",
    "DetachFlags", "FpnnConfig", "FpnnParams", "build_model", "export_block_weights",
    "fpnn_backward", "fpnn_forward",
    "SampleSet", "ScalerParams", "apply_scaler", "assemble_samples",
    "fit_scaler", "hampel_filter", "load_sample_archive", "preprocess_fleet",
    "resample_to_grid", "save_sample_archive", "savitzky_golay", "split_train_test",
    "EvalReport", "TrainConfig", "adam_step", "compute_metrics", "evaluate",
    "load_checkpoint", "mse_loss", "noi_sweep", "save_checkpoint", "train",
]
