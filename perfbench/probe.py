"""Per-layer probe: each convolution of the train config, timed alone, and
one train step under tracemalloc.

The model reaches its convolutions through private functions, so the conv
rows call the ``fpnn.ops`` convolutions directly, with the specs
``conv_layout`` gives and the weights of the workload's model, on inputs of
the shape each layer sees in the network. Forward rows time the public
``conv2d_forward``/``conv3d_forward``. Backward rows time ``_conv_backward``
with the im2col matrix of the forward pass, as a train step does; the public
``conv*_backward`` would rebuild that matrix.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

import fpnn.model as M
import fpnn.ops as O
import fpnn.training as T

MIB = 1 << 20

# The 20 convolutions of the train config (noi=1): per stream the 3D front
# end, the 7x7 stem and the eight convs of one inception unit.
CONV_LAYERS = tuple(
    f"{stream}.{layer}"
    for stream in ("raw", "diff")
    for layer in ("front.conv3d", "init.conv", "block0.b1.conv", "block0.b2.reduce",
                  "block0.b2.conv", "block0.b3.reduce", "block0.b3.conv1",
                  "block0.b3.conv2", "block0.b4.conv", "block0.proj")
)


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _input_extents(config: M.FpnnConfig, name: str, spec: O.ConvSpec) -> tuple[int, ...]:
    """Spatial extents of the input this conv sees in the network."""
    g = config.grid_side
    stream, stage = name.split(".")[:2]
    if stage == "front":
        return (config.stream_depth(stream), g, g)
    if stage == "init":
        return (g, g)
    stem = M.conv_layout(config)[f"{stream}.init.conv"].out_extents((g, g))
    return tuple((e + 2 - 3) // 2 + 1 for e in stem)  # 3x3 max pool, stride 2, pad 1


def conv_rows(params: M.FpnnParams, batch: int, rng: np.random.Generator, reps: int = 3) -> dict:
    """Rows for CONV_LAYERS; totals over every conv of the model's config."""
    config = params.config
    specs = M.conv_layout(config)
    rows = {}
    gflop = cols_bytes = busy_s = 0.0
    for name, spec in specs.items():
        x = rng.standard_normal((batch, spec.in_channels, *_input_extents(config, name, spec)))
        w = params.tensors[f"{name}.w"]
        b = params.tensors.get(f"{name}.b", np.zeros(spec.out_channels))
        fwd = O.conv3d_forward if spec.ndim == 3 else O.conv2d_forward
        out, cols = O._conv_forward(x, w, b, spec, return_cols=True)
        g = rng.standard_normal(out.shape)
        fwd_s = _median_s(lambda: fwd(x, w, b, spec), reps)
        bwd_s = _median_s(lambda: O._conv_backward(x, w, spec, g, cols=cols), reps)
        if name in CONV_LAYERS:
            rows[f"ops.conv.{name}.fwd_ms"] = 1e3 * fwd_s
            rows[f"ops.conv.{name}.bwd_ms"] = 1e3 * bwd_s
        out_points = batch * int(np.prod(out.shape[2:]))
        window = spec.in_channels * int(np.prod(spec.kernel))
        # forward GEMM 2*M*K*N; backward does two of the same size (dW, dX)
        gflop += 3 * 2.0 * out_points * window * spec.out_channels / 1e9
        cols_bytes += out_points * window * 8  # float64 im2col matrix
        busy_s += fwd_s + bwd_s
    rows["ops.conv.total.gflop"] = gflop
    rows["ops.conv.cols_mib"] = cols_bytes / MIB
    rows["ops.conv.total.gflops_per_s"] = gflop / busy_s
    rows["_conv_busy_s"] = busy_s
    return rows


def _random_batch(config: M.FpnnConfig, batch: int, rng: np.random.Generator):
    g = config.grid_side
    raw = rng.uniform(-1, 1, (batch, 3, config.sample_depth, g, g))
    diff = rng.uniform(-1, 1, (batch, 3, config.sample_depth - 1, g, g))
    labels = rng.uniform(150, 1200, batch)
    return (raw, diff), labels


def step_rows(params: M.FpnnParams, batch: int, rng: np.random.Generator, reps: int = 3) -> dict:
    """Forward/backward times of a train step, and its tracemalloc peak."""
    x, labels = _random_batch(params.config, batch, rng)
    cache = {}

    def forward():
        cache["out"] = M.fpnn_forward(x, params, mode="train", want_cache=True)

    def backward():
        _, grad = T.mse_loss(cache["out"][0], labels)
        M.fpnn_backward(params, cache["out"][2], grad)

    forward()
    fwd_s = _median_s(forward, reps)
    bwd_s = _median_s(backward, reps)
    cache.clear()

    opt = T.AdamState.initial(params.tensors)
    config = T.TrainConfig()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        preds, _, step_cache = M.fpnn_forward(x, params, mode="train", want_cache=True)
        _, grad = T.mse_loss(preds, labels)
        grads = M.fpnn_backward(params, step_cache, grad)
        T.adam_step(params.tensors, grads, opt, config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"_step_s": fwd_s + bwd_s, "training.step_peak_traced_mib": peak / MIB}


def probe(params: M.FpnnParams, batch: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = conv_rows(params, batch, rng)
    rows.update(step_rows(params, batch, rng))
    rows["model.conv_share"] = rows.pop("_conv_busy_s") / rows.pop("_step_s")
    return rows
