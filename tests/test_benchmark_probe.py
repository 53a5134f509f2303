"""The benchmark's per-layer probe and its tracer still run against this
package.

``perfbench/probe.py`` reaches into ``fpnn.model``, ``fpnn.ops`` and
``fpnn.training`` by name, and ``perfbench/tracer.py`` binds the arguments
of the functions it wraps by their parameter names (``mode``,
``want_cache``, ``smooth``, ``path``); the suite under ``tests/`` would not
otherwise notice a change that breaks either. Both are loaded from their
source text, so nothing is written under ``perfbench/``.
"""

import types
from pathlib import Path

import numpy as np

from fpnn import model as M
from fpnn import preprocess as pp
from fpnn import training as T
from fpnn.datagen import generate_fleet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_source(name: str) -> types.ModuleType:
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_probe_returns_every_row():
    probe = load_source("probe")
    params = M.build_model(M.FpnnConfig(noi=1, grid_side=8, seed=0))
    rows = probe.probe(params, batch=2, seed=0)
    conv_rows = {f"ops.conv.{name}.{d}_ms" for name in probe.CONV_LAYERS for d in ("fwd", "bwd")}
    conv_rows |= {"ops.conv.total.gflop", "ops.conv.cols_mib", "ops.conv.total.gflops_per_s"}
    assert set(rows) == conv_rows | {"training.step_peak_traced_mib", "model.conv_share"}
    assert all(np.isfinite(v) and v > 0 for v in rows.values())


def test_tracer_records_the_spans_it_binds_arguments_for(tmp_path):
    """A cached train forward, an eval forward, a fleet preprocess and a
    checkpoint round trip, run through the tracer's wrappers, record their
    spans, with the values the tracer measures from their bound arguments."""
    tracer = load_source("tracer").Tracer("tier1")
    config = M.FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=0)
    params = M.build_model(config)
    rng = np.random.default_rng(0)
    batch = (rng.standard_normal((2, 3, config.sample_depth, 8, 8)),
             rng.standard_normal((2, 3, config.sample_depth - 1, 8, 8)))
    records = generate_fleet(3, seed=1, life_range=(200, 400))
    forward = M.fpnn_forward
    with tracer.install():
        M.fpnn_forward(batch, params, mode="train", want_cache=True)
        M.fpnn_forward(batch, params, mode="eval")
        pp.preprocess_fleet(records, 10, grid_side=8, seed=0)
        T.save_checkpoint(params, tmp_path / "model.fpt")
        T.load_checkpoint(tmp_path / "model.fpt")
    assert M.fpnn_forward is forward
    values = {}
    for span in tracer.spans:
        values.setdefault(span["name"], []).append(span["value"])
    assert values["model.fpnn_forward.train"][0] > 0  # the cache's bytes
    assert values["model.fpnn_forward.eval"] == [None]
    assert values["preprocess.preprocess_fleet"] == [
        [[r.battery_id for r in records], 10, 8, 0, True]]
    size = (tmp_path / "model.fpt").stat().st_size
    assert values["io.write_tensors"] == values["io.read_tensors"] == [size]
