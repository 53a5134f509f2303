"""Generate and cache one workload's inputs for one size and seed variant.

The inputs are files, and the program under test receives only those: a
canonical fleet directory (preprocess, sweep), a sample archive (train,
predict) and a checkpoint made by a short train() so its batchnorm
statistics are real (predict). Generation runs in a child process, so the
measuring process's peak RSS does not include it:

    python3 perfbench/inputs.py <workload> <size> <variant> <out_dir>
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import settings

GENERATE_TIMEOUT_S = 600


def input_dir(workload: str, size: str, variant: int) -> Path:
    return settings.WORK / "inputs" / size / f"v{variant}" / workload


def ensure(workload: str, size: str, variant: int) -> Path:
    """Return the cached input directory, generating it first if needed."""
    out = input_dir(workload, size, variant)
    if (out / "DONE").is_file():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), workload, size, str(variant), str(tmp)],
        check=True, timeout=GENERATE_TIMEOUT_S,
    )
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    return out


def generate(workload: str, size: str, variant: int, out: Path) -> None:
    from fpnn.datagen import generate_fleet
    from fpnn.model import FpnnConfig, build_model
    from fpnn.preprocess import holdout_by_battery, preprocess_fleet, save_sample_archive
    from fpnn.training import TrainConfig, save_checkpoint, train

    cfg = settings.SIZES[size][workload]
    seeds = settings.sub_seeds(variant)
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("preprocess", "sweep"):
        generate_fleet(cfg["batteries"], seed=seeds["fleet"], out_dir=out / "fleet")
    else:
        records = generate_fleet(cfg["batteries"], seed=seeds["fleet"])
        train_set, test_set, scaler, _ = preprocess_fleet(
            records, cfg["cycles"], grid_side=cfg["grid"], seed=seeds["split"])
        save_sample_archive(out / "archive", {"train": train_set, "test": test_set},
                            scaler, cfg["cycles"], cfg["grid"], seeds["split"])
        if workload == "predict":
            fit, val = holdout_by_battery(train_set, 0.2, seeds["split"])
            model = build_model(FpnnConfig(noi=cfg["noi"], grid_side=cfg["grid"],
                                           seed=seeds["init"]))
            best, _ = train(model, fit, val, TrainConfig(
                epochs=cfg["ckpt_epochs"], batch_size=cfg["batch"],
                patience=cfg["ckpt_epochs"], seed=seeds["shuffle"]))
            save_checkpoint(best, out / "checkpoint.fpt")
    (out / "DONE").write_text("ok\n")


if __name__ == "__main__":
    settings.pin_blas_threads()
    settings.import_fpnn()
    name, size_name, variant_arg, out_arg = sys.argv[1:5]
    generate(name, size_name, int(variant_arg), Path(out_arg))
