"""The benchmark's per-layer probe still runs against this package.

``perfbench/probe.py`` reaches into ``fpnn.model``, ``fpnn.ops`` and
``fpnn.training`` by name, and the suite under ``tests/`` would not notice
a change that breaks it. The probe is loaded from its source text, so
nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

import numpy as np

from fpnn import model as M

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "probe.py"


def load_probe() -> types.ModuleType:
    module = types.ModuleType("perfbench_probe")
    module.__file__ = str(PROBE)
    exec(compile(PROBE.read_text(), str(PROBE), "exec"), module.__dict__)
    return module


def test_probe_returns_every_row():
    probe = load_probe()
    params = M.build_model(M.FpnnConfig(noi=1, grid_side=8, seed=0))
    rows = probe.probe(params, batch=2, seed=0)
    conv_rows = {f"ops.conv.{name}.{d}_ms" for name in probe.CONV_LAYERS for d in ("fwd", "bwd")}
    conv_rows |= {"ops.conv.total.gflop", "ops.conv.cols_mib", "ops.conv.total.gflops_per_s"}
    assert set(rows) == conv_rows | {"training.step_peak_traced_mib", "model.conv_share"}
    assert all(np.isfinite(v) and v > 0 for v in rows.values())
