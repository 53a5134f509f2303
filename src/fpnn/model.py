"""The flexible parallel network: a dual-stream CNN over video-like battery
samples with a configurable number of four-branch inception units.

A sample's geometry (``N_CHANNELS`` series over ``SAMPLE_DEPTH`` frames of
a G x G grid) is the archive format's, imported from :mod:`fpnn.preprocess`.
Per stream: a 3D conv front end (64 channels, kernel depth = stream depth,
spatial 3x3, pad (0,1,1)) collapses the frame axis, then batchnorm + Leaky
ReLU. The stack that follows starts with "initial layers" (7x7/64 conv,
stride 2, pad 3 -> batchnorm -> Leaky ReLU -> 3x3 max pool, stride 2,
pad 1) and applies ``noi`` inception units. A unit concatenates the four
conv chains of the table ``_BRANCHES`` (the last one reads a 3x3 average
pool of the unit input) into 88 channels, with a 1x1-projected residual
connection. Stream outputs are globally average-pooled, concatenated, and
regressed to a single life value (in cycles) by a small linear head.

:func:`conv_layout` is the one description of the network: every conv the
config instantiates, by name, in build order. :func:`build_model` walks it;
each conv gets a weight and, except the residual projections
(``*.block{i}.proj``), the batchnorm after it, but no bias (a train-mode
batchnorm cancels one: Ioffe & Szegedy 2015, arXiv:1502.03167). Every such
conv, the 3D front end included, runs in one conv -> batchnorm -> Leaky ReLU
unit (``_cba_forward``/``_cba_backward``). ``_BRANCHES`` is the one
statement of the inception unit: ``conv_layout``, the unit's forward and
backward, ``BLOCK_CHANNELS`` and the exported weight names all walk it.

Activations are channels-last, ``[N, H, W, C]``, from each stream's input
to its global pool: ``_stream_forward`` folds the frames into channels
once, no layer after it moves an activation between layouts, and branch
outputs concatenate on the last axis. Every forward pass has a hand-written
backward composed from the batched layer primitives in :mod:`fpnn.ops`,
whose ``(input_grad, *param_grads)`` tuples are unpacked straight into the
gradient dict; there is no autograd tape. A cache holds only the ``saved``
values the ops' forwards returned, plus the names that key the gradients,
and each backward call passes an op its ``saved`` and the output gradient
alone. One rule, ``_rebuilt``, replaces a saved value: a conv that reads
the output of a conv -> batchnorm -> Leaky ReLU unit (the stem, a chain's
later convs, and block0's convs when the initial layers are detached)
saves in that output's place a stand-in that rebuilds each sample block of
it, bitwise, from the unit's batchnorm cache, so no cache holds such an
output. The walk has one train/eval switch, the dict of new batchnorm
states, which is None in eval mode. A train forward always builds its
cache (``want_cache`` only decides whether the caller gets it). Only a
train forward runs a batchnorm: in eval mode a batchnorm with running
statistics is a fixed per-channel affine, so each unit runs as one conv
whose weights and bias fold it in (``ops.bn_fold``), then the Leaky ReLU
alone (``ops.leaky_relu``), with no mask. An eval forward has no backward
and keeps no cache: each layer's saved values die with the layer, so it
holds one layer's temporaries at a time. Detach flags prune the layout
for ablation studies: ``initial_layers`` skips the 7x7 + max-pool stage,
``conv3d`` replaces the 3D front end with depth-averaging plus a 1x1 conv
(keeping downstream shapes legal), ``residual`` removes the projected
skip connections, and ``diff_branch`` drops the differential stream
entirely.

The two streams share no tensor until their global pools are concatenated,
so :func:`fpnn_forward` and :func:`fpnn_backward` run them at the same time
(``_map_streams``): the differential stream on a worker thread, the raw
stream in the calling thread. numpy releases the GIL inside BLAS calls and
ufunc loops, so the two stems and batchnorm passes overlap on two cores.
A forward's streams write their batchnorm states into one dict that holds
every key from the start, each stream only its own keys; a backward's
streams write their gradients into one dict each, merged in stream order.
So predictions, states and gradients (key order included) are bitwise
those of running the streams one after the other: no arithmetic is shared
or reordered across streams.
The worker thread lives for one call only, so no thread is alive when a
caller forks worker processes.
"""

from __future__ import annotations

import contextvars
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import NonFiniteError, ShapeError
from .io import json_value, require_keys
from .ops import (
    BnState,
    ConvSpec,
    RebuiltActivation,
    avg_pool2d,
    batchnorm2d_backward,
    batchnorm2d_forward,
    bn_fold,
    channels_last,
    check_finite,
    conv_backward,
    conv_forward,
    global_avg_pool,
    global_avg_pool_backward,
    leaky_relu,
    leaky_relu_backward,
    leaky_relu_forward,
    linear_backward,
    linear_forward,
    max_pool2d,
    pool2d_backward,
)
from .preprocess import DEFAULT_GRID_SIDE, N_CHANNELS, SAMPLE_DEPTH

FRONT_CHANNELS = 64
INIT_CHANNELS = 64
MAX_NOI = 8
_STEM = ConvSpec((7, 7), (2, 2), (3, 3), FRONT_CHANNELS, INIT_CHANNELS)  # the one strided conv
_STEM_POOL = (3, 2, 1)  # window, stride, pad of the max pool after the stem

# The inception unit, one row per conv: (layer, exported name, out channels,
# square kernel), branch by branch in concatenation order. A chain's first
# conv reads the unit input (the last chain through a 3x3 average pool of
# it), each later conv the previous conv's output.
_BRANCHES = (
    (("b1.conv", "branch1x1_conv", 16, 1),),
    (("b2.reduce", "branch3x3_reduce", 16, 1), ("b2.conv", "branch3x3_conv", 24, 3)),
    (("b3.reduce", "branch3x3stack_reduce", 16, 1), ("b3.conv1", "branch3x3stack_conv1", 24, 3),
     ("b3.conv2", "branch3x3stack_conv2", 24, 3)),
    (("b4.conv", "branch_pool_conv", 24, 3),),
)
BLOCK_CHANNELS = sum(chain[-1][2] for chain in _BRANCHES)  # 88
_BRANCH_SPLITS = np.cumsum([chain[-1][2] for chain in _BRANCHES])[:-1]  # in the unit output
STREAMS = ("raw", "diff")  # one thread each in a forward or backward pass


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

    sample_depth: ClassVar[int] = SAMPLE_DEPTH  # the archive format's; the bench probe reads it
    noi: int = 1
    grid_side: int = DEFAULT_GRID_SIDE
    alpha: float = 0.01
    head_hidden: tuple[int, ...] = (64,)
    detach: DetachFlags = field(default_factory=DetachFlags)
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.noi <= MAX_NOI:
            raise ValueError(f"noi must lie in [0, {MAX_NOI}], got {self.noi}")
        if self.grid_side < 2:
            raise ValueError("grid_side must be >= 2")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.head_hidden or any(h < 1 for h in self.head_hidden):
            raise ValueError("head_hidden must be nonempty positive widths")

    def streams(self) -> tuple[str, ...]:
        return STREAMS[:1] if self.detach.diff_branch else STREAMS

    def stream_depth(self, stream: str) -> int:
        return SAMPLE_DEPTH if stream == "raw" else SAMPLE_DEPTH - 1

    def stream_out_channels(self) -> int:
        return INIT_CHANNELS if self.noi == 0 else BLOCK_CHANNELS

    def head_widths(self) -> tuple[int, ...]:
        in_width = self.stream_out_channels() * len(self.streams())
        return (in_width, *self.head_hidden, 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FpnnConfig":
        """Inverse of :meth:`to_dict`, each field read by ``io.json_value``.
        ``noi``, ``grid_side`` and ``alpha`` are required, a missing optional
        key takes its field default, and keys that are not fields (an older
        checkpoint's ``sample_depth``) are ignored. A value of the wrong kind
        (``noi: 1.7``, ``head_hidden: "64"``, ``detach: {"residual": 1}``), a
        missing required key or a ``d`` that is not an object raises
        ValueError naming the key."""
        names = {f.name for f in fields(cls)}
        d = {k: v for k, v in d.items() if k in names} if isinstance(d, dict) else d
        config = json_value(d, cls(), "config", ValueError)
        require_keys(d, ("noi", "grid_side", "alpha"), "config", ValueError)
        return config


@dataclass
class FpnnParams:
    """Learnable tensors plus batchnorm running statistics, keyed by layer
    path (e.g. ``raw.block0.b2.conv.w``). Insertion order is the build
    order, which makes same-config parameter sets directly comparable."""

    config: FpnnConfig
    tensors: dict[str, np.ndarray]
    bn_states: dict[str, BnState]

    def copy(self) -> "FpnnParams":
        return FpnnParams(
            self.config,
            {k: v.copy() for k, v in self.tensors.items()},
            {k: v.copy() for k, v in self.bn_states.items()},
        )


# ---------------------------------------------------------------------------
# layout: every conv spec in the network, derived from the config
# ---------------------------------------------------------------------------

def conv_layout(config: FpnnConfig) -> dict[str, ConvSpec]:
    """Name -> ConvSpec for every convolution the config instantiates. Only
    the 7x7 stem strides; every other conv keeps its input's grid."""
    specs: dict[str, ConvSpec] = {}

    def conv2(name, c_in, c_out, k):  # stride 1, "same" padding
        specs[name] = ConvSpec((k, k), (1, 1), ((k - 1) // 2,) * 2, c_in, c_out)

    for s in config.streams():
        depth = config.stream_depth(s)
        if config.detach.conv3d:
            conv2(f"{s}.front.proj", N_CHANNELS, FRONT_CHANNELS, 1)
        else:
            specs[f"{s}.front.conv3d"] = ConvSpec(
                (depth, 3, 3), (1, 1, 1), (0, 1, 1), N_CHANNELS, FRONT_CHANNELS
            )
        if not config.detach.initial_layers:
            specs[f"{s}.init.conv"] = _STEM
        for i in range(config.noi):
            c_in = INIT_CHANNELS if i == 0 else BLOCK_CHANNELS
            p = f"{s}.block{i}"
            for chain in _BRANCHES:
                width = c_in
                for layer, _, c_out, k in chain:
                    conv2(f"{p}.{layer}", width, c_out, k)
                    width = c_out
            if not config.detach.residual:
                conv2(f"{p}.proj", c_in, BLOCK_CHANNELS, 1)
    return specs


def smallest_bn_side(config: FpnnConfig) -> int:
    """The smallest spatial side over which a batchnorm of the network
    takes statistics: the front unit keeps the grid, the stem and then its
    max pool each about halve it, and the inception units keep the pooled
    side. Both streams share this geometry."""
    side = config.grid_side
    if config.detach.initial_layers:
        return side
    side = _STEM.out_extents((side, side))[0]
    if config.noi == 0:
        return side
    window, stride, pad = _STEM_POOL
    return (side + 2 * pad - window) // stride + 1


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _is_residual_proj(name: str) -> bool:
    """Block skip projections are the only convs without a batchnorm."""
    return ".block" in name and name.endswith(".proj")


def bn_name(name: str) -> str:
    """The batchnorm after conv ``name``; the front conv's is ``{stream}.front.bn``."""
    stream, stage = name.split(".")[:2]
    return f"{stream}.front.bn" if stage == "front" else f"{name}.bn"


def build_model(config: FpnnConfig) -> FpnnParams:
    """Initialize parameters from the config's seed, one conv of
    :func:`conv_layout` at a time.

    Conv/linear weights are Kaiming-uniform with the gain adjusted for the
    Leaky ReLU slope; head biases start at zero, batchnorm at scale 1 / shift 0.
    """
    rng = np.random.default_rng(config.seed)
    gain = math.sqrt(2.0 / (1.0 + config.alpha**2))
    tensors: dict[str, np.ndarray] = {}
    states: dict[str, BnState] = {}

    def kaiming(shape, fan_in):
        bound = gain * math.sqrt(3.0 / fan_in)
        return rng.uniform(-bound, bound, shape)

    for name, spec in conv_layout(config).items():
        fan_in = spec.in_channels * int(np.prod(spec.kernel))
        tensors[f"{name}.w"] = kaiming(spec.weight_shape(), fan_in)
        if _is_residual_proj(name):
            continue
        c, bn = spec.out_channels, bn_name(name)
        tensors[f"{bn}.scale"] = np.ones(c)
        tensors[f"{bn}.shift"] = np.zeros(c)
        states[bn] = BnState.initial(c)

    widths = config.head_widths()
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        tensors[f"head.fc{i}.w"] = kaiming((w_in, w_out), w_in)
        tensors[f"head.fc{i}.b"] = np.zeros(w_out)
    return FpnnParams(config, tensors, states)


# ---------------------------------------------------------------------------
# conv -> batchnorm -> leaky relu: the unit every conv but the projections runs in
# ---------------------------------------------------------------------------

def _rebuilt(cache, params):
    """The rule for a conv that reads the output of a conv -> batchnorm ->
    Leaky ReLU unit: it saves, in place of that output, this stand-in,
    which rebuilds any sample block of it from the unit's ``cache``; None
    when there is no cache. The output itself is then held by no cache."""
    if cache is None:
        return None
    shift = params.tensors[f"{bn_name(cache['name'])}.shift"]
    return RebuiltActivation(cache["bn"], shift, params.config.alpha)


def _conv(x, x_saved, weights, spec):
    """``conv_forward``, saving ``x_saved`` (see ``_rebuilt``) in place of
    ``x`` when it is not None."""
    out, saved = conv_forward(x, weights, spec)
    return out, saved if x_saved is None else (x_saved, *saved[1:])


def _cba_forward(x, params, specs, name, new_states, x_saved=None):
    """A non-finite value anywhere in the unit raises NonFiniteError, and
    an input the unit cannot take (such as a train-mode batchnorm over one
    value per channel) ShapeError, prefixed with the unit's conv name
    (``diff.front.conv3d: ...``). ``new_states`` is None in eval mode: the
    unit is one conv by the ``bn_fold`` of its weights and running
    statistics, then the Leaky ReLU, and returns no cache. In train mode the
    unit writes its batchnorm's new state into ``new_states`` and returns its
    cache, and the conv saves ``x_saved`` in place of ``x`` when it is given."""
    bn = bn_name(name)
    w, scale, shift = (params.tensors[f"{name}.w"], params.tensors[f"{bn}.scale"],
                       params.tensors[f"{bn}.shift"])
    try:
        if new_states is None:
            w, bias = bn_fold(w, scale, shift, params.bn_states[bn])
            z, _ = conv_forward(x, w, specs[name])
            z += bias
            return check_finite("leaky_relu", leaky_relu(z, params.config.alpha)), None
        z, conv = _conv(x, x_saved, w, specs[name])
        z, new_states[bn], norm = batchnorm2d_forward(z, scale, shift, params.bn_states[bn])
        out, act = leaky_relu_forward(z, params.config.alpha)
    except (NonFiniteError, ShapeError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    return out, {"name": name, "conv": conv, "bn": norm, "act": act}


def _cba_backward(gout, cache, grads, want_input_grad=True, activated=False):
    """Fills the unit's parameter gradients into ``grads``; returns the
    input gradient, or None when ``want_input_grad`` is False. With
    ``activated``, ``gout`` is already the gradient at the Leaky ReLU's input."""
    name = cache["name"]
    if not activated:
        gout = leaky_relu_backward(cache["act"], gout)
    bn = bn_name(name)  # rebinding gout below frees the activation gradient it held
    gout, grads[f"{bn}.scale"], grads[f"{bn}.shift"] = batchnorm2d_backward(cache["bn"], gout)
    gx, grads[f"{name}.w"] = conv_backward(cache["conv"], gout, want_input_grad)
    return gx


# ---------------------------------------------------------------------------
# inception unit
# ---------------------------------------------------------------------------

def _block_forward(x, params, specs, prefix, new_states, x_saved=None):
    """The chains of ``_BRANCHES`` concatenated to 88 channels, plus the
    projected skip, and the unit's cache, None in eval mode (``new_states``
    None). The convs that read ``x`` save ``x_saved`` in its place when it
    is given."""
    cache = {"prefix": prefix, "branches": [], "proj": None}
    outs = []
    for chain in _BRANCHES:
        h, h_saved = x, x_saved
        if chain is _BRANCHES[-1]:  # keeps H x W
            h, cache["pool"] = avg_pool2d(x, 3, 1, 1)
            h_saved = None
        caches = []
        for layer, *_ in chain:
            h, c = _cba_forward(h, params, specs, f"{prefix}.{layer}", new_states, h_saved)
            caches.append(c)
            h_saved = _rebuilt(c, params)
        outs.append(h)
        cache["branches"].append(caches)
    out = np.concatenate(outs, axis=-1)
    proj = f"{prefix}.proj"
    if proj in specs:
        skip, cache["proj"] = _conv(x, x_saved, params.tensors[f"{proj}.w"], specs[proj])
        out = out + skip
    check_finite(f"{prefix} inception block", out)
    return out, (None if new_states is None else cache)


def _block_backward(gout, cache, grads):
    gx = None
    for chain, caches, g in zip(_BRANCHES, cache["branches"],
                                np.split(gout, _BRANCH_SPLITS, axis=-1)):
        for c in reversed(caches):
            g = _cba_backward(g, c, grads)
        if chain is _BRANCHES[-1]:
            g = pool2d_backward(cache["pool"], g)
        gx = g if gx is None else gx + g

    if cache["proj"] is not None:
        g, grads[f"{cache['prefix']}.proj.w"] = conv_backward(cache["proj"], gout)
        gx = gx + g
    return gx


# ---------------------------------------------------------------------------
# stream: front end + initial layers + blocks
# ---------------------------------------------------------------------------

def _stream_forward(x5, params, specs, stream, new_states):
    """The stream's globally pooled features [N, C] and its cache, None in
    eval mode (``new_states`` None); in train mode the stream writes its
    batchnorms' new states into ``new_states``."""
    cfg = params.config
    depth = cfg.stream_depth(stream)
    if x5.shape[1:] != (N_CHANNELS, depth, cfg.grid_side, cfg.grid_side):
        raise ShapeError(
            f"{stream} stream expects [N, {N_CHANNELS}, {depth}, {cfg.grid_side}, "
            f"{cfg.grid_side}], got {x5.shape}"
        )
    cache = {"init": None, "blocks": []}

    # The one layout decision: channels-last from here to the global pool.
    if cfg.detach.conv3d:  # frame mean, then a 1x1 conv
        front, x = f"{stream}.front.proj", channels_last(x5.mean(axis=2))
    else:  # kernel depth spans all frames: the frames fold into channels
        front, x = f"{stream}.front.conv3d", channels_last(x5, 1)
    h, cache["front"] = _cba_forward(x, params, specs, front, new_states)
    h_saved = _rebuilt(cache["front"], params)

    if f"{stream}.init.conv" in specs:
        h, init_cba = _cba_forward(h, params, specs, f"{stream}.init.conv", new_states, h_saved)
        h, pool = max_pool2d(h, *_STEM_POOL)
        cache["init"], h_saved = {"cba": init_cba, "pool": pool}, None

    for i in range(cfg.noi):
        h, bc = _block_forward(h, params, specs, f"{stream}.block{i}", new_states, h_saved)
        cache["blocks"].append(bc)
        h_saved = None
    feat, cache["gap"] = global_avg_pool(h)
    return feat, (None if new_states is None else cache)


def _stream_backward(g_feat, cache):
    """Parameter gradients of one stream, from the gradient at its pooled
    features; the input gradient is never needed."""
    grads: dict[str, np.ndarray] = {}
    g = global_avg_pool_backward(cache["gap"], g_feat)
    for bc in reversed(cache["blocks"]):
        g = _block_backward(g, bc, grads)

    init = cache["init"]
    if init is not None:
        g = pool2d_backward(init["pool"], g)
        g = _cba_backward(g, init["cba"], grads)

    # The front's activation backward runs here, so that rebinding g frees
    # the stem's input gradient before the front unit's batchnorm and conv.
    g = leaky_relu_backward(cache["front"]["act"], g)
    _cba_backward(g, cache["front"], grads, want_input_grad=False, activated=True)
    return grads


def _map_streams(fn, streams):
    """``[fn(s) for s in streams]``, with every stream after the first on a
    worker thread of this call and the first in the calling thread.

    Workers run in a copy of the caller's context, so ``np.errstate`` holds
    there too. An exception of the first stream wins, as it would in a
    loop; the pool is shut down (its threads joined) before anything returns
    or raises.
    """
    if len(streams) < 2:
        return [fn(s) for s in streams]
    with ThreadPoolExecutor(max_workers=len(streams) - 1) as pool:
        rest = [pool.submit(contextvars.copy_context().run, fn, s) for s in streams[1:]]
        first = fn(streams[0])
        return [first] + [f.result() for f in rest]


# ---------------------------------------------------------------------------
# full network
# ---------------------------------------------------------------------------

def fpnn_forward(batch, params: FpnnParams, mode: str = "eval", want_cache: bool = False):
    """Predict life (in cycles) for a batch of samples.

    ``batch`` is a (raw, diff) array tuple with shapes [N, N_CHANNELS,
    SAMPLE_DEPTH, G, G] and [N, N_CHANNELS, SAMPLE_DEPTH - 1, G, G]; the
    diff array is read only when the config has a differential stream.
    Returns predictions of shape [N].

    In ``"train"`` mode every batchnorm normalizes with its batch's
    statistics, and the forward builds the cache consumed by
    :func:`fpnn_backward`; ``want_cache`` only picks the return value: with
    it the forward also returns the updated batchnorm states and that cache,
    without it both are dropped on return. In ``"eval"`` mode every unit
    runs as one conv with its batchnorm's running statistics folded in and
    no cache is built; an eval forward has no backward, so ``want_cache``
    with it raises ValueError.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "eval" and want_cache:
        raise ValueError("an eval-mode forward has no backward: want_cache needs mode='train'")
    cfg = params.config
    specs = conv_layout(cfg)
    inputs = {s: np.asarray(x, dtype=float) for s, x in zip(STREAMS, batch)}

    # The walk's one train/eval switch. Each stream writes only its own
    # batchnorms' states, and every key is in the dict from the start, so
    # its order is the build order whichever stream finishes first.
    new_states = dict(params.bn_states) if mode == "train" else None
    runs = _map_streams(lambda s: _stream_forward(inputs[s], params, specs, s, new_states),
                        cfg.streams())
    cache = {"streams": {s: sc for s, (_, sc) in zip(cfg.streams(), runs)}, "head": []}
    h = np.concatenate([feat for feat, _ in runs], axis=1)

    n_fc = len(cfg.head_widths()) - 1
    for i in range(n_fc):
        h, fc = linear_forward(h, params.tensors[f"head.fc{i}.w"], params.tensors[f"head.fc{i}.b"])
        act = None
        if i < n_fc - 1:
            h, act = leaky_relu_forward(h, cfg.alpha)
        cache["head"].append((fc, act))
    preds = h[:, 0]
    check_finite("fpnn predictions", preds)
    if want_cache:
        return preds, new_states, cache
    return preds


def fpnn_backward(params: FpnnParams, cache, pred_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of every learnable tensor, in build order, given d(loss)/d(preds)."""
    cfg = params.config
    grads: dict[str, np.ndarray] = {}

    g = np.asarray(pred_grad, dtype=float)[:, None]
    for i, (fc, act) in reversed(list(enumerate(cache["head"]))):
        if act is not None:
            g = leaky_relu_backward(act, g)
        g, grads[f"head.fc{i}.w"], grads[f"head.fc{i}.b"] = linear_backward(fc, g)

    g_feats = dict(zip(cfg.streams(), np.split(g, len(cfg.streams()), axis=1)))
    for stream_grads in _map_streams(lambda s: _stream_backward(g_feats[s], cache["streams"][s]),
                                     cfg.streams()):
        grads.update(stream_grads)
    return {k: grads[k] for k in params.tensors}


# ---------------------------------------------------------------------------
# weight export
# ---------------------------------------------------------------------------

BLOCK_EXPORT_LAYERS = {**{public: layer for chain in _BRANCHES for layer, public, *_ in chain},
                       "residual_proj": "proj"}


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
