"""The flexible parallel network: a dual-stream CNN over video-like battery
samples with a configurable number of four-branch inception units.

Per stream: a 3D conv front end (64 channels, kernel depth = stream depth,
spatial 3x3, pad (0,1,1)) collapses the frame axis, then batchnorm + Leaky
ReLU. The stack that follows starts with "initial layers" (7x7/64 conv,
stride 2, pad 3 -> batchnorm -> Leaky ReLU -> 3x3 max pool, stride 2,
pad 1) and applies ``noi`` inception units, each concatenating four branches
(1x1/16; 1x1/16 -> 3x3/24; 1x1/16 -> 3x3/24 -> 3x3/24; 3x3 avg pool ->
3x3/24) into 88 channels with a 1x1-projected residual connection. Stream
outputs are globally average-pooled, concatenated, and regressed to a
single life value (in cycles) by a small linear head.

Every forward pass has a hand-written backward composed from the layer
primitives in :mod:`fpnn.ops`; there is no autograd tape. Detach flags
prune subgraphs for ablation studies: ``initial_layers`` skips the 7x7 +
max-pool stage, ``conv3d`` replaces the 3D front end with depth-averaging
plus a 1x1 conv (keeping downstream shapes legal), ``residual`` removes
the projected skip connections, and ``diff_branch`` drops the differential
stream entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .ops import (
    BnState,
    ConvSpec,
    _conv_forward,
    _conv_saved_backward,
    avg_pool2d,
    batchnorm2d_backward,
    batchnorm2d_forward,
    check_finite,
    concat_channels_backward,
    global_avg_pool,
    global_avg_pool_backward,
    leaky_relu_backward,
    leaky_relu_forward,
    linear_backward,
    linear_forward,
    max_pool2d,
    pad_spatial,
    pool2d_backward,
    unpad_spatial_grad,
)

FRONT_CHANNELS = 64
INIT_CHANNELS = 64
BRANCH_NARROW = 16  # 1x1 branch width and 1x1 reduction width
BRANCH_WIDE = 24  # 3x3 conv widths
BLOCK_CHANNELS = BRANCH_NARROW + 3 * BRANCH_WIDE  # 88
MAX_NOI = 8


@dataclass(frozen=True)
class DetachFlags:
    """Ablation switches; each removes one architectural component."""

    initial_layers: bool = False
    conv3d: bool = False
    residual: bool = False
    diff_branch: bool = False


@dataclass(frozen=True)
class FpnnConfig:
    """Architecture hyperparameters; fully determines the parameter set."""

    noi: int = 1
    grid_side: int = 32
    sample_depth: int = 4
    alpha: float = 0.01
    head_hidden: tuple[int, ...] = (64,)
    detach: DetachFlags = field(default_factory=DetachFlags)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.noi <= MAX_NOI:
            raise ValueError(f"noi must lie in [0, {MAX_NOI}], got {self.noi}")
        if self.grid_side < 2:
            raise ValueError("grid_side must be >= 2")
        if self.sample_depth < 2:
            raise ValueError("sample_depth must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.head_hidden or any(h < 1 for h in self.head_hidden):
            raise ValueError("head_hidden must be nonempty positive widths")

    def streams(self) -> tuple[str, ...]:
        return ("raw",) if self.detach.diff_branch else ("raw", "diff")

    def stream_depth(self, stream: str) -> int:
        return self.sample_depth if stream == "raw" else self.sample_depth - 1

    def stream_out_channels(self) -> int:
        return INIT_CHANNELS if self.noi == 0 else BLOCK_CHANNELS

    def head_widths(self) -> tuple[int, ...]:
        in_width = self.stream_out_channels() * len(self.streams())
        return (in_width, *self.head_hidden, 1)

    def to_dict(self) -> dict:
        return {
            "noi": self.noi,
            "grid_side": self.grid_side,
            "sample_depth": self.sample_depth,
            "alpha": self.alpha,
            "head_hidden": list(self.head_hidden),
            "detach": {
                "initial_layers": self.detach.initial_layers,
                "conv3d": self.detach.conv3d,
                "residual": self.detach.residual,
                "diff_branch": self.detach.diff_branch,
            },
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FpnnConfig":
        return cls(
            noi=int(d["noi"]),
            grid_side=int(d["grid_side"]),
            sample_depth=int(d.get("sample_depth", 4)),
            alpha=float(d["alpha"]),
            head_hidden=tuple(int(h) for h in d.get("head_hidden", (64,))),
            detach=DetachFlags(**d.get("detach", {})),
            seed=int(d.get("seed", 0)),
        )


@dataclass
class FpnnParams:
    """Learnable tensors plus batchnorm running statistics, keyed by layer
    path (e.g. ``raw.block0.b2.conv.w``). Insertion order is the build
    order, which makes same-config parameter sets directly comparable."""

    config: FpnnConfig
    tensors: dict[str, np.ndarray]
    bn_states: dict[str, BnState]

    def n_parameters(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def copy(self) -> "FpnnParams":
        return FpnnParams(
            self.config,
            {k: v.copy() for k, v in self.tensors.items()},
            {k: v.copy() for k, v in self.bn_states.items()},
        )


# ---------------------------------------------------------------------------
# layout: every conv spec in the network, derived from the config
# ---------------------------------------------------------------------------

def _block_in_channels(block_index: int) -> int:
    return INIT_CHANNELS if block_index == 0 else BLOCK_CHANNELS


def conv_layout(config: FpnnConfig) -> dict[str, ConvSpec]:
    """Name -> ConvSpec for every convolution the config instantiates."""
    specs: dict[str, ConvSpec] = {}

    def conv2(name, c_in, c_out, k, stride=1, pad=None):
        if pad is None:
            pad = (k - 1) // 2
        specs[name] = ConvSpec((k, k), (stride, stride), (pad, pad), c_in, c_out)

    for s in config.streams():
        depth = config.stream_depth(s)
        if config.detach.conv3d:
            conv2(f"{s}.front.proj", 3, FRONT_CHANNELS, 1)
        else:
            specs[f"{s}.front.conv3d"] = ConvSpec(
                (depth, 3, 3), (1, 1, 1), (0, 1, 1), 3, FRONT_CHANNELS
            )
        if not config.detach.initial_layers:
            conv2(f"{s}.init.conv", FRONT_CHANNELS, INIT_CHANNELS, 7, stride=2, pad=3)
        for i in range(config.noi):
            c_in = _block_in_channels(i)
            p = f"{s}.block{i}"
            conv2(f"{p}.b1.conv", c_in, BRANCH_NARROW, 1)
            conv2(f"{p}.b2.reduce", c_in, BRANCH_NARROW, 1)
            conv2(f"{p}.b2.conv", BRANCH_NARROW, BRANCH_WIDE, 3)
            conv2(f"{p}.b3.reduce", c_in, BRANCH_NARROW, 1)
            conv2(f"{p}.b3.conv1", BRANCH_NARROW, BRANCH_WIDE, 3)
            conv2(f"{p}.b3.conv2", BRANCH_WIDE, BRANCH_WIDE, 3)
            conv2(f"{p}.b4.conv", c_in, BRANCH_WIDE, 3)
            if not config.detach.residual:
                conv2(f"{p}.proj", c_in, BLOCK_CHANNELS, 1)
    return specs


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def build_model(config: FpnnConfig) -> FpnnParams:
    """Initialize parameters from the config's seed.

    Conv/linear weights are Kaiming-uniform with the gain adjusted for the
    Leaky ReLU slope; biases start at zero, batchnorm at scale 1 / shift 0.
    """
    rng = np.random.default_rng(config.seed)
    gain = math.sqrt(2.0 / (1.0 + config.alpha**2))
    tensors: dict[str, np.ndarray] = {}
    states: dict[str, BnState] = {}

    def kaiming(shape, fan_in):
        bound = gain * math.sqrt(3.0 / fan_in)
        return rng.uniform(-bound, bound, shape)

    def add_conv(name, spec, bias=True):
        fan_in = spec.in_channels * int(np.prod(spec.kernel))
        tensors[f"{name}.w"] = kaiming(spec.weight_shape(), fan_in)
        if bias:
            tensors[f"{name}.b"] = np.zeros(spec.out_channels)

    def add_bn(name, channels):
        tensors[f"{name}.scale"] = np.ones(channels)
        tensors[f"{name}.shift"] = np.zeros(channels)
        states[name] = BnState.initial(channels)

    specs = conv_layout(config)
    for s in config.streams():
        front = f"{s}.front.proj" if config.detach.conv3d else f"{s}.front.conv3d"
        add_conv(front, specs[front])
        add_bn(f"{s}.front.bn", FRONT_CHANNELS)
        if not config.detach.initial_layers:
            add_conv(f"{s}.init.conv", specs[f"{s}.init.conv"])
            add_bn(f"{s}.init.conv.bn", INIT_CHANNELS)
        for i in range(config.noi):
            p = f"{s}.block{i}"
            for layer, c_out in (
                ("b1.conv", BRANCH_NARROW),
                ("b2.reduce", BRANCH_NARROW),
                ("b2.conv", BRANCH_WIDE),
                ("b3.reduce", BRANCH_NARROW),
                ("b3.conv1", BRANCH_WIDE),
                ("b3.conv2", BRANCH_WIDE),
                ("b4.conv", BRANCH_WIDE),
            ):
                add_conv(f"{p}.{layer}", specs[f"{p}.{layer}"])
                add_bn(f"{p}.{layer}.bn", c_out)
            if not config.detach.residual:
                add_conv(f"{p}.proj", specs[f"{p}.proj"], bias=False)

    widths = config.head_widths()
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        tensors[f"head.fc{i}.w"] = kaiming((w_in, w_out), w_in)
        tensors[f"head.fc{i}.b"] = np.zeros(w_out)
    return FpnnParams(config, tensors, states)


# ---------------------------------------------------------------------------
# conv -> batchnorm -> leaky relu composite
# ---------------------------------------------------------------------------

def _cba_forward(x, params, name, spec, mode, new_states):
    w = params.tensors[f"{name}.w"]
    b = params.tensors[f"{name}.b"]
    z, xpad = _conv_forward(x, w, b, spec, return_cols=True)
    bn = f"{name}.bn"
    z2, state, bn_cache = batchnorm2d_forward(
        z, params.tensors[f"{bn}.scale"], params.tensors[f"{bn}.shift"],
        params.bn_states[bn], mode,
    )
    new_states[bn] = state
    out = leaky_relu_forward(z2, params.config.alpha)
    cache = {"name": name, "spec": spec, "xpad": xpad,
             "bn_cache": bn_cache, "act_in": z2}
    return out, cache


def _cba_backward(gout, params, cache, grads):
    name, spec = cache["name"], cache["spec"]
    g = leaky_relu_backward(cache["act_in"], params.config.alpha, gout)
    bn_g = batchnorm2d_backward(cache["bn_cache"], g)
    bn = f"{name}.bn"
    grads[f"{bn}.scale"] = bn_g.param_grads["scale"]
    grads[f"{bn}.shift"] = bn_g.param_grads["shift"]
    conv_g = _conv_saved_backward(cache["xpad"], params.tensors[f"{name}.w"], spec,
                                  bn_g.input_grad)
    grads[f"{name}.w"] = conv_g.param_grads["weights"]
    grads[f"{name}.b"] = conv_g.param_grads["bias"]
    return conv_g.input_grad


# ---------------------------------------------------------------------------
# inception unit
# ---------------------------------------------------------------------------

def _block_forward(x, params, specs, prefix, mode, new_states):
    """Four branches concatenated to 88 channels, plus the projected skip."""
    cfg = params.config
    b1, c1 = _cba_forward(x, params, f"{prefix}.b1.conv", specs[f"{prefix}.b1.conv"], mode, new_states)
    r2, c2r = _cba_forward(x, params, f"{prefix}.b2.reduce", specs[f"{prefix}.b2.reduce"], mode, new_states)
    b2, c2c = _cba_forward(r2, params, f"{prefix}.b2.conv", specs[f"{prefix}.b2.conv"], mode, new_states)
    r3, c3r = _cba_forward(x, params, f"{prefix}.b3.reduce", specs[f"{prefix}.b3.reduce"], mode, new_states)
    m3, c3a = _cba_forward(r3, params, f"{prefix}.b3.conv1", specs[f"{prefix}.b3.conv1"], mode, new_states)
    b3, c3b = _cba_forward(m3, params, f"{prefix}.b3.conv2", specs[f"{prefix}.b3.conv2"], mode, new_states)
    xp = pad_spatial(x, 1)
    pooled = avg_pool2d(xp, (3, 3), 1)  # stride 1 + pad 1 preserves H x W
    b4, c4 = _cba_forward(pooled, params, f"{prefix}.b4.conv", specs[f"{prefix}.b4.conv"], mode, new_states)
    out = np.concatenate([b1, b2, b3, b4], axis=1)
    cache = {"prefix": prefix, "xp": xp,
             "b1": c1, "b2": (c2r, c2c), "b3": (c3r, c3a, c3b), "b4": c4}
    if not cfg.detach.residual:
        proj = params.tensors[f"{prefix}.proj.w"]
        skip, proj_xpad = _conv_forward(x, proj, np.zeros(proj.shape[0]),
                                        specs[f"{prefix}.proj"], return_cols=True)
        out = out + skip
        cache["proj_xpad"] = proj_xpad
    check_finite("inception block", out)
    return out, cache


def _block_backward(gout, params, specs, cache, grads):
    cfg = params.config
    prefix = cache["prefix"]
    sizes = [BRANCH_NARROW, BRANCH_WIDE, BRANCH_WIDE, BRANCH_WIDE]
    g1, g2, g3, g4 = concat_channels_backward(gout, sizes)

    gx = _cba_backward(g1, params, cache["b1"], grads)
    c2r, c2c = cache["b2"]
    gx = gx + _cba_backward(_cba_backward(g2, params, c2c, grads), params, c2r, grads)
    c3r, c3a, c3b = cache["b3"]
    g = _cba_backward(g3, params, c3b, grads)
    g = _cba_backward(g, params, c3a, grads)
    gx = gx + _cba_backward(g, params, c3r, grads)
    g_pool_out = _cba_backward(g4, params, cache["b4"], grads)
    g_padded = pool2d_backward(cache["xp"], (3, 3), 1, g_pool_out, "avg")
    gx = gx + unpad_spatial_grad(g_padded, 1)

    if not cfg.detach.residual:
        proj = params.tensors[f"{prefix}.proj.w"]
        pg = _conv_saved_backward(cache["proj_xpad"], proj, specs[f"{prefix}.proj"], gout)
        grads[f"{prefix}.proj.w"] = pg.param_grads["weights"]
        gx = gx + pg.input_grad
    return gx


# ---------------------------------------------------------------------------
# stream: front end + initial layers + blocks
# ---------------------------------------------------------------------------

def _stream_forward(x5, params, specs, stream, mode, new_states):
    cfg = params.config
    depth = cfg.stream_depth(stream)
    n = x5.shape[0]
    if x5.shape[1:] != (3, depth, cfg.grid_side, cfg.grid_side):
        raise ShapeError(
            f"{stream} stream expects [N, 3, {depth}, {cfg.grid_side}, {cfg.grid_side}], "
            f"got {x5.shape}"
        )
    cache = {"stream": stream, "input_shape": x5.shape}

    if cfg.detach.conv3d:
        x4 = x5.mean(axis=2)
        name = f"{stream}.front.proj"
        z, xpad = _conv_forward(x4, params.tensors[f"{name}.w"], params.tensors[f"{name}.b"],
                                specs[name], return_cols=True)
        cache["front"] = {"kind": "proj", "xpad": xpad}
    else:
        name = f"{stream}.front.conv3d"
        z5, xpad = _conv_forward(x5, params.tensors[f"{name}.w"], params.tensors[f"{name}.b"],
                                 specs[name], return_cols=True)
        z = z5[:, :, 0]  # kernel depth spans all frames, so D' == 1
        cache["front"] = {"kind": "conv3d", "xpad": xpad}

    bn = f"{stream}.front.bn"
    z2, st, bn_cache = batchnorm2d_forward(
        z, params.tensors[f"{bn}.scale"], params.tensors[f"{bn}.shift"],
        params.bn_states[bn], mode,
    )
    new_states[bn] = st
    h = leaky_relu_forward(z2, cfg.alpha)
    cache["front"]["bn_cache"] = bn_cache
    cache["front"]["act_in"] = z2

    if not cfg.detach.initial_layers:
        h, init_cba = _cba_forward(h, params, f"{stream}.init.conv",
                                   specs[f"{stream}.init.conv"], mode, new_states)
        hp = pad_spatial(h, 1)
        pooled = max_pool2d(hp, (3, 3), 2)
        cache["init"] = {"cba": init_cba, "padded": hp, "pooled_shape": pooled.shape}
        h = pooled
    else:
        cache["init"] = None

    block_caches = []
    for i in range(cfg.noi):
        h, bc = _block_forward(h, params, specs, f"{stream}.block{i}", mode, new_states)
        block_caches.append(bc)
    cache["blocks"] = block_caches
    return h, cache


def _stream_backward(gout, params, specs, cache, grads):
    cfg = params.config
    stream = cache["stream"]
    g = gout
    for bc in reversed(cache["blocks"]):
        g = _block_backward(g, params, specs, bc, grads)

    if cache["init"] is not None:
        hp = cache["init"]["padded"]
        g_padded = pool2d_backward(hp, (3, 3), 2, g, "max")
        g = unpad_spatial_grad(g_padded, 1)
        g = _cba_backward(g, params, cache["init"]["cba"], grads)

    g = leaky_relu_backward(cache["front"]["act_in"], cfg.alpha, g)
    bn = f"{stream}.front.bn"
    bn_g = batchnorm2d_backward(cache["front"]["bn_cache"], g)
    grads[f"{bn}.scale"] = bn_g.param_grads["scale"]
    grads[f"{bn}.shift"] = bn_g.param_grads["shift"]
    g = bn_g.input_grad

    front = cache["front"]
    if front["kind"] == "proj":
        name = f"{stream}.front.proj"
        cg = _conv_saved_backward(front["xpad"], params.tensors[f"{name}.w"], specs[name], g)
        grads[f"{name}.w"] = cg.param_grads["weights"]
        grads[f"{name}.b"] = cg.param_grads["bias"]
        depth = cfg.stream_depth(stream)
        g_in = np.repeat(cg.input_grad[:, :, None], depth, axis=2) / depth
    else:
        name = f"{stream}.front.conv3d"
        cg = _conv_saved_backward(front["xpad"], params.tensors[f"{name}.w"], specs[name],
                                  g[:, :, None])
        grads[f"{name}.w"] = cg.param_grads["weights"]
        grads[f"{name}.b"] = cg.param_grads["bias"]
        g_in = cg.input_grad
    return g_in


# ---------------------------------------------------------------------------
# full network
# ---------------------------------------------------------------------------

def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray | None]:
    if isinstance(batch, tuple):
        raw, diff = batch
    else:
        raw, diff = batch.raw, batch.diff
    return np.asarray(raw, dtype=float), None if diff is None else np.asarray(diff, dtype=float)


def fpnn_forward(batch, params: FpnnParams, mode: str = "eval", want_cache: bool = False):
    """Predict life (in cycles) for a batch of samples.

    ``batch`` is a SampleSet or a (raw, diff) array tuple with shapes
    [N, 3, D, G, G] and [N, 3, D-1, G, G]. Returns predictions of shape
    [N]; with ``want_cache`` also returns the updated batchnorm states and
    the cache consumed by :func:`fpnn_backward`.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = params.config
    specs = conv_layout(cfg)
    raw, diff = _batch_arrays(batch)
    new_states: dict[str, BnState] = dict(params.bn_states)
    cache = {"streams": {}, "gap_shapes": {}, "head": {}}

    feats = []
    for stream in cfg.streams():
        x5 = raw if stream == "raw" else diff
        if x5 is None:
            raise ShapeError("diff stream required but batch has no diff tensor")
        h, sc = _stream_forward(x5, params, specs, stream, mode, new_states)
        cache["streams"][stream] = sc
        cache["gap_shapes"][stream] = h.shape
        feats.append(global_avg_pool(h))
    h = np.concatenate(feats, axis=1)

    widths = cfg.head_widths()
    fc_caches = []
    for i in range(len(widths) - 1):
        w = params.tensors[f"head.fc{i}.w"]
        b = params.tensors[f"head.fc{i}.b"]
        z = linear_forward(h, w, b)
        last = i == len(widths) - 2
        fc_caches.append({"x": h, "z": z, "last": last})
        h = z if last else leaky_relu_forward(z, cfg.alpha)
    cache["head"]["fcs"] = fc_caches
    preds = h[:, 0]
    check_finite("fpnn predictions", preds)
    if want_cache:
        return preds, new_states, cache
    return preds


def fpnn_backward(params: FpnnParams, cache, pred_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of every learnable tensor, given d(loss)/d(preds)."""
    cfg = params.config
    specs = conv_layout(cfg)
    grads: dict[str, np.ndarray] = {}

    g = np.asarray(pred_grad, dtype=float)[:, None]
    for i, fc in reversed(list(enumerate(cache["head"]["fcs"]))):
        if not fc["last"]:
            g = leaky_relu_backward(fc["z"], cfg.alpha, g)
        lg = linear_backward(fc["x"], params.tensors[f"head.fc{i}.w"], g)
        grads[f"head.fc{i}.w"] = lg.param_grads["weights"]
        grads[f"head.fc{i}.b"] = lg.param_grads["bias"]
        g = lg.input_grad

    offset = 0
    for stream in cfg.streams():
        c = cfg.stream_out_channels()
        g_feat = g[:, offset : offset + c]
        offset += c
        g_map = global_avg_pool_backward(cache["gap_shapes"][stream], g_feat)
        _stream_backward(g_map, params, specs, cache["streams"][stream], grads)

    for name, tensor in params.tensors.items():
        if name not in grads:
            grads[name] = np.zeros_like(tensor)
    return grads


# ---------------------------------------------------------------------------
# standalone inception-unit surface (used by tests and inspection)
# ---------------------------------------------------------------------------

def inception_block_forward(x, params: FpnnParams, stream: str, block_index: int,
                            mode: str = "eval"):
    """Run one inception unit on [C,H,W] or [N,C,H,W]; returns [.., 88, H, W]."""
    cfg = params.config
    if block_index < 0 or block_index >= cfg.noi:
        raise ValueError(f"block index {block_index} out of range for noi={cfg.noi}")
    if stream not in cfg.streams():
        raise ValueError(f"stream {stream!r} not present in this model")
    squeeze = x.ndim == 3
    xb = x[None] if squeeze else x
    out, _ = _block_forward(xb, params, conv_layout(cfg), f"{stream}.block{block_index}",
                            mode, {})
    return out[0] if squeeze else out


BLOCK_EXPORT_LAYERS = {
    "branch1x1_conv": "b1.conv",
    "branch3x3_reduce": "b2.reduce",
    "branch3x3_conv": "b2.conv",
    "branch3x3stack_reduce": "b3.reduce",
    "branch3x3stack_conv1": "b3.conv1",
    "branch3x3stack_conv2": "b3.conv2",
    "branch_pool_conv": "b4.conv",
    "residual_proj": "proj",
}


def export_block_weights(params: FpnnParams, block_index: int, stream: str = "raw") -> dict[str, np.ndarray]:
    """Flatten one unit's kernels to plot-ready 2D matrices.

    Each matrix is out_channel x (in_channel * kh * kw). The full
    architecture yields eight named matrices; a residual-detached model
    omits ``residual_proj``.
    """
    cfg = params.config
    if block_index < 0 or block_index >= cfg.noi:
        raise ValueError(f"block index {block_index} out of range for noi={cfg.noi}")
    if stream not in cfg.streams():
        raise ValueError(f"stream {stream!r} not present in this model")
    prefix = f"{stream}.block{block_index}"
    out = {}
    for public, layer in BLOCK_EXPORT_LAYERS.items():
        key = f"{prefix}.{layer}.w"
        if key not in params.tensors:
            continue  # residual detached
        kernel = params.tensors[key]
        out[public] = kernel.reshape(kernel.shape[0], -1).copy()
    return out


def import_block_weights(params: FpnnParams, block_index: int, stream: str,
                         matrices: dict[str, np.ndarray]) -> FpnnParams:
    """Inverse of export_block_weights; returns updated parameters."""
    new = params.copy()
    prefix = f"{stream}.block{block_index}"
    for public, layer in BLOCK_EXPORT_LAYERS.items():
        if public not in matrices:
            continue
        key = f"{prefix}.{layer}.w"
        if key not in new.tensors:
            raise ValueError(f"model has no tensor {key}")
        new.tensors[key] = np.asarray(matrices[public], dtype=float).reshape(
            new.tensors[key].shape
        )
    return new
