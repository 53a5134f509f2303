"""Dense-tensor layer primitives with explicit forward and backward passes.

Every operation is a pure function of its arguments: nothing is mutated,
batch normalization returns an updated state object instead of touching the
one it was given. All arithmetic is float64. Convolution is plain
cross-correlation (no kernel flip) computed by shift-and-matmul: the input
is zero-padded once into channels-last layout, and each kernel offset adds
``shifted input @ W[offset]`` with one BLAS matmul. The backward pass runs
the same offset loop over the saved padded input, so no window matrix of
size [rows, C_in * prod(kernel)] is ever built. Leading kernel axes that
span their whole unpadded input (the 3D front end's depth) are folded into
the channel axis first.

Spatial operations accept either a single sample (``[C, *spatial]``) or a
batch with a leading axis (``[N, C, *spatial]``); the output matches the
input's batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteError, ShapeError


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} produced non-finite values")
    return arr


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a convolution: kernel extents, stride and zero padding
    per spatial axis, plus channel counts. Works for 2 or 3 spatial axes."""

    kernel: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]
    in_channels: int
    out_channels: int

    def __post_init__(self):
        nd = len(self.kernel)
        if len(self.stride) != nd or len(self.padding) != nd:
            raise ShapeError("kernel/stride/padding must have equal rank")
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ShapeError("kernel and stride extents must be positive")
        if any(p < 0 for p in self.padding):
            raise ShapeError("padding must be nonnegative")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ShapeError("channel counts must be positive")

    @property
    def ndim(self) -> int:
        return len(self.kernel)

    def out_extents(self, in_extents: tuple[int, ...]) -> tuple[int, ...]:
        """Output extent per axis: floor((in + 2*pad - kernel)/stride) + 1."""
        if len(in_extents) != self.ndim:
            raise ShapeError("input rank does not match spec")
        out = []
        for n, k, s, p in zip(in_extents, self.kernel, self.stride, self.padding):
            ext = (n + 2 * p - k) // s + 1
            if ext < 1:
                raise ShapeError(
                    f"nonpositive output extent for input {n}, kernel {k}, "
                    f"stride {s}, pad {p}"
                )
            out.append(ext)
        return tuple(out)

    def weight_shape(self) -> tuple[int, ...]:
        return (self.out_channels, self.in_channels, *self.kernel)


@dataclass
class LayerGrads:
    """Gradients of a layer: w.r.t. its input plus named parameter grads."""

    input_grad: np.ndarray | None  # None when the caller asked for none
    param_grads: dict[str, np.ndarray] = field(default_factory=dict)


def _with_batch(x: np.ndarray, spatial_ndim: int) -> tuple[np.ndarray, bool]:
    """Promote an unbatched [C, *spatial] array to [1, C, *spatial]."""
    if x.ndim == spatial_ndim + 1:
        return x[None], True
    if x.ndim == spatial_ndim + 2:
        return x, False
    raise ShapeError(f"expected {spatial_ndim + 1} or {spatial_ndim + 2} axes, got {x.ndim}")


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _n_folded(spec: ConvSpec, in_extents: tuple[int, ...]) -> int:
    """Count of leading kernel axes that span their whole unpadded input axis.

    Such an axis has one output position, so folding it into the channel
    axis (a zero-copy reshape of [N, C, D, ...] to [N, C*D, ...]) is exact.
    """
    n = 0
    for k, p, e in zip(spec.kernel, spec.padding, in_extents):
        if p != 0 or k != e:
            break
        n += 1
    return n


def _conv_operand(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """The one array a convolution saves for its backward pass: ``x`` with
    full-extent leading axes folded into channels, zero-padded and
    channels-last, ``[N, *padded_spatial, C_in * prod(folded kernel)]``."""
    nf = _n_folded(spec, x.shape[2:])
    x = x.reshape(x.shape[0], int(np.prod(x.shape[1:2 + nf])), *x.shape[2 + nf:])
    pads = spec.padding[nf:]
    xs = np.zeros((x.shape[0], *(e + 2 * p for e, p in zip(x.shape[2:], pads)), x.shape[1]))
    interior = tuple(slice(p, p + e) for p, e in zip(pads, x.shape[2:]))
    xs[(slice(None),) + interior] = np.moveaxis(x, 1, -1)
    return xs


def _operand_geometry(xs: np.ndarray, spec: ConvSpec):
    """(folded axis count, unfolded input shape, unfolded spatial output
    extents) of the input that ``_conv_operand`` turned into ``xs``."""
    nf = spec.ndim - (xs.ndim - 2)
    rest = tuple(e - 2 * p for e, p in zip(xs.shape[1:-1], spec.padding[nf:]))
    in_shape = (xs.shape[0], spec.in_channels, *spec.kernel[:nf], *rest)
    return nf, in_shape, spec.out_extents(in_shape[2:])


def _shifted(xs: np.ndarray, offset, stride, out_sp) -> np.ndarray:
    """The [N, *out_sp, C] view of ``xs`` that one kernel offset reads."""
    window = tuple(slice(o, o + s * (e - 1) + 1, s) for o, s, e in zip(offset, stride, out_sp))
    return xs[(slice(None),) + window]


def _kernel_matrices(weights: np.ndarray, nf: int) -> np.ndarray:
    """[C_out, C_in, *kernel] -> [*unfolded kernel, C_in * prod(folded), C_out]:
    one [C_in, C_out] matrix per kernel offset."""
    w = weights.reshape(weights.shape[0], -1, *weights.shape[2 + nf:])
    return np.ascontiguousarray(np.moveaxis(w, (0, 1), (-1, -2)))


# Samples per block of the offset loop: the block's [rows, C_out] output (or
# output gradient) stays cache-resident across all kernel offsets, where a
# whole-batch pass per offset streams it from memory every time.
_BLOCK_BYTES = 256 * 1024


def _sample_blocks(n: int, rows_per_sample: int, width: int) -> list[slice]:
    step = max(1, _BLOCK_BYTES // (8 * rows_per_sample * width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _conv_forward(x, weights, bias, spec, return_cols=False):
    """Shift-and-matmul: the sum over kernel offsets of shifted input @ W[offset].

    With ``return_cols`` also returns the operand ``_conv_saved_backward``
    needs, the padded channels-last input of ``_conv_operand``.
    """
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if weights.shape != spec.weight_shape():
        raise ShapeError(f"weights {weights.shape} do not match spec {spec.weight_shape()}")
    if bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias {bias.shape} must be ({spec.out_channels},)")
    n, out_sp = x.shape[0], spec.out_extents(x.shape[2:])
    nf = _n_folded(spec, x.shape[2:])
    xs = _conv_operand(x, spec)
    wk = _kernel_matrices(weights, nf)
    stride, sp = spec.stride[nf:], out_sp[nf:]
    c, rows = xs.shape[-1], int(np.prod(sp))
    blocks = _sample_blocks(n, rows, spec.out_channels)
    # One shift buffer and one product buffer serve every offset: fresh
    # multi-MiB temporaries per offset page-fault, which in a fresh process
    # doubled the 7x7 stem's forward time.
    shift_buf = np.empty((blocks[0].stop, *sp, c))
    prod_buf = np.empty((blocks[0].stop * rows, spec.out_channels))
    out = np.zeros((n, rows, spec.out_channels))
    for blk in blocks:
        m = blk.stop - blk.start
        x_shift, prod, out_blk = shift_buf[:m], prod_buf[: m * rows], out[blk].reshape(-1, spec.out_channels)
        for offset in np.ndindex(*wk.shape[:-2]):
            np.copyto(x_shift, _shifted(xs[blk], offset, stride, sp))
            out_blk += np.matmul(x_shift.reshape(-1, c), wk[offset], out=prod)
    out += bias
    out = np.moveaxis(out.reshape(n, *sp, spec.out_channels), -1, 1)
    out = np.ascontiguousarray(out).reshape(n, spec.out_channels, *out_sp)
    check_finite("conv forward", out)
    return (out, xs) if return_cols else out


def _conv_saved_backward(xs, weights, spec, output_grad, want_input_grad=True) -> LayerGrads:
    """Gradients from the saved operand: the forward pass's offset loop,
    recomputing each shifted input instead of reading a cached window matrix.

    With ``want_input_grad=False`` the input-gradient matmuls are skipped and
    ``input_grad`` is None; the parameter gradients are the same.
    """
    nf, in_shape, out_sp = _operand_geometry(xs, spec)
    n = in_shape[0]
    if output_grad.shape != (n, spec.out_channels, *out_sp):
        raise ShapeError(
            f"output_grad {output_grad.shape} does not match forward output "
            f"{(n, spec.out_channels, *out_sp)}"
        )
    wk = _kernel_matrices(weights, nf)
    stride, sp = spec.stride[nf:], out_sp[nf:]
    c, rows = xs.shape[-1], int(np.prod(sp))
    gmat = np.moveaxis(output_grad.reshape(n, spec.out_channels, *sp), 1, -1)
    gmat = np.ascontiguousarray(gmat).reshape(n, rows, spec.out_channels)
    blocks = _sample_blocks(n, rows, spec.out_channels)
    shift_buf = np.empty((blocks[0].stop, *sp, c))
    dw = np.empty(wk.shape[-2:])
    d_wk = np.zeros_like(wk)
    if want_input_grad:
        gx_buf = np.empty_like(shift_buf)
        gxs = np.zeros_like(xs)
    for blk in blocks:
        m = blk.stop - blk.start
        x_shift, g_blk = shift_buf[:m], gmat[blk].reshape(-1, spec.out_channels)
        if want_input_grad:
            gx_shift = gx_buf[:m]
        for offset in np.ndindex(*wk.shape[:-2]):
            np.copyto(x_shift, _shifted(xs[blk], offset, stride, sp))
            d_wk[offset] += np.matmul(x_shift.reshape(-1, c).T, g_blk, out=dw)
            if want_input_grad:
                np.matmul(g_blk, wk[offset].T, out=gx_shift.reshape(-1, c))
                _shifted(gxs[blk], offset, stride, sp)[...] += gx_shift
    d_weights = np.ascontiguousarray(np.moveaxis(d_wk, (-1, -2), (0, 1))).reshape(weights.shape)
    d_bias = gmat.reshape(-1, spec.out_channels).sum(axis=0)
    gx = None
    if want_input_grad:
        interior = tuple(slice(p, e - p) for p, e in zip(spec.padding[nf:], xs.shape[1:-1]))
        gx = np.ascontiguousarray(np.moveaxis(gxs[(slice(None),) + interior], -1, 1)).reshape(in_shape)
    return LayerGrads(gx, {"weights": d_weights, "bias": d_bias})


def _conv_backward(x, weights, spec, output_grad, cols=None):
    # ``cols`` is the operand _conv_forward(..., return_cols=True) saved; None rebuilds it from x.
    return _conv_saved_backward(_conv_operand(x, spec) if cols is None else cols,
                                weights, spec, output_grad)


def conv2d_forward(x, weights, bias, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate ``x`` [C,H,W] (or [N,C,H,W]) with ``weights``
    [C_out,C_in,kh,kw], add per-channel bias."""
    if spec.ndim != 2:
        raise ShapeError("conv2d requires a 2-axis ConvSpec")
    xb, squeeze = _with_batch(x, 2)
    out = _conv_forward(xb, weights, bias, spec)
    return out[0] if squeeze else out


def conv2d_backward(x, weights, spec: ConvSpec, output_grad) -> LayerGrads:
    """Gradients of conv2d_forward w.r.t. input, weights and bias."""
    if spec.ndim != 2:
        raise ShapeError("conv2d requires a 2-axis ConvSpec")
    xb, squeeze = _with_batch(x, 2)
    gb, _ = _with_batch(output_grad, 2)
    grads = _conv_backward(xb, weights, spec, gb)
    if squeeze:
        grads.input_grad = grads.input_grad[0]
    return grads


def conv3d_forward(x, weights, bias, spec: ConvSpec) -> np.ndarray:
    """3D cross-correlation over [C,D,H,W] (or batched) inputs."""
    if spec.ndim != 3:
        raise ShapeError("conv3d requires a 3-axis ConvSpec")
    xb, squeeze = _with_batch(x, 3)
    out = _conv_forward(xb, weights, bias, spec)
    return out[0] if squeeze else out


def conv3d_backward(x, weights, spec: ConvSpec, output_grad) -> LayerGrads:
    if spec.ndim != 3:
        raise ShapeError("conv3d requires a 3-axis ConvSpec")
    xb, squeeze = _with_batch(x, 3)
    gb, _ = _with_batch(output_grad, 3)
    grads = _conv_backward(xb, weights, spec, gb)
    if squeeze:
        grads.input_grad = grads.input_grad[0]
    return grads


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"leaky ReLU slope must lie in (0, 1), got {alpha}")


def leaky_relu_forward(x: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise x if x > 0 else alpha * x."""
    _check_alpha(alpha)
    return check_finite("leaky_relu", np.where(x > 0, x, alpha * x))


def leaky_relu_backward(x: np.ndarray, alpha: float, output_grad: np.ndarray) -> np.ndarray:
    """Slope 1 where x > 0, alpha where x <= 0 (boundary follows the
    forward branch assignment)."""
    _check_alpha(alpha)
    if x.shape != output_grad.shape:
        raise ShapeError("output_grad shape must match input")
    out = np.asarray(output_grad * alpha)  # a 0-d array, not a scalar, for 0-d input
    np.copyto(out, output_grad, where=x > 0)  # output_grad * 1.0, bit for bit
    return out


# ---------------------------------------------------------------------------
# pooling (unpadded; callers pad explicitly when they need it)
# ---------------------------------------------------------------------------

def _pool_args(window, stride):
    kh, kw = (window, window) if np.isscalar(window) else tuple(window)
    sh, sw = (stride, stride) if np.isscalar(stride) else tuple(stride)
    if kh < 1 or kw < 1 or sh < 1 or sw < 1:
        raise ShapeError("pool window and stride must be positive")
    return kh, kw, sh, sw


def _pool_windows(x, window, stride):
    kh, kw, sh, sw = _pool_args(window, stride)
    if x.shape[-2] < kh or x.shape[-1] < kw:
        raise ShapeError(f"pool window {(kh, kw)} larger than input {x.shape[-2:]}")
    win = sliding_window_view(x, (kh, kw), axis=(-2, -1))
    return win[..., ::sh, ::sw, :, :]


def avg_pool2d(x, window, stride) -> np.ndarray:
    """Mean over each window; windows never read outside the input."""
    return check_finite("avg_pool2d", _pool_windows(x, window, stride).mean(axis=(-2, -1)))


def max_pool2d(x, window, stride) -> np.ndarray:
    """Max over each window."""
    return check_finite("max_pool2d", _pool_windows(x, window, stride).max(axis=(-2, -1)))


def pool2d_backward(x, window, stride, output_grad, mode: str) -> np.ndarray:
    """Input gradient of avg/max pooling.

    avg distributes grad/(K*L) to every window member and reads only the
    shape of ``x``, so a zero-stride ``np.broadcast_to`` view serves; max
    routes the whole grad to the window argmax (first in row-major order on
    ties).
    """
    kh, kw, sh, sw = _pool_args(window, stride)
    xb, squeeze = _with_batch(x, 2)
    gb, _ = _with_batch(output_grad, 2)
    n, c, h, w = xb.shape
    oh = (h - kh) // sh + 1
    ow = (w - kw) // sw + 1
    if gb.shape != (n, c, oh, ow):
        raise ShapeError(f"output_grad {gb.shape} does not match pool output {(n, c, oh, ow)}")
    gx = np.zeros_like(xb)
    if mode == "avg":
        g = gb / (kh * kw)
        for m in range(kh):
            for l in range(kw):
                gx[:, :, m : m + sh * oh : sh, l : l + sw * ow : sw] += g
    elif mode == "max":
        win = _pool_windows(xb, window, stride).reshape(n, c, oh, ow, kh * kw)
        arg = win.argmax(axis=-1)  # first max in row-major window order
        ni, ci, oi, oj = np.indices((n, c, oh, ow))
        rows = oi * sh + arg // kw
        cols = oj * sw + arg % kw
        np.add.at(gx, (ni, ci, rows, cols), gb)
    else:
        raise ValueError(f"unknown pool mode {mode!r}")
    return gx[0] if squeeze else gx


def pad_spatial(x: np.ndarray, pad: int | tuple[int, int]) -> np.ndarray:
    """Zero-pad the last two axes; gradient of this is unpad_spatial_grad."""
    ph, pw = (pad, pad) if np.isscalar(pad) else tuple(pad)
    width = [(0, 0)] * (x.ndim - 2) + [(ph, ph), (pw, pw)]
    return np.pad(x, width)


def unpad_spatial_grad(grad: np.ndarray, pad: int | tuple[int, int]) -> np.ndarray:
    ph, pw = (pad, pad) if np.isscalar(pad) else tuple(pad)
    h, w = grad.shape[-2], grad.shape[-1]
    return grad[..., ph : h - ph, pw : w - pw]


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


@dataclass
class BnState:
    """Per-channel running statistics used in eval mode."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, channels: int) -> "BnState":
        return cls(np.zeros(channels), np.ones(channels))

    def copy(self) -> "BnState":
        return BnState(self.mean.copy(), self.var.copy())


def batchnorm2d_forward(x, scale, shift, state: BnState, mode: str):
    """Per-channel batch normalization over [N, C, H, W].

    Train mode normalizes with batch statistics and returns an updated
    running-stats state (momentum 0.1); eval mode normalizes with the
    running stats. Returns (out, new_state, cache) where cache feeds
    batchnorm2d_backward.
    """
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects [N, C, H, W]")
    n, c, h, w = x.shape
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("scale/shift must have one entry per channel")
    if mode == "train":
        m = n * h * w
        if m < 2:
            raise ShapeError("train-mode batchnorm needs N*H*W >= 2")
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        new_state = BnState(
            (1 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mean,
            (1 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var,
        )
    elif mode == "eval":
        mean, var = state.mean, state.var
        new_state = state
    else:
        raise ValueError(f"unknown mode {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[:, None, None]) * inv_std[:, None, None]
    out = scale[:, None, None] * xhat + shift[:, None, None]
    check_finite("batchnorm2d", out)
    cache = {"xhat": xhat, "inv_std": inv_std, "scale": scale, "mode": mode}
    return out, new_state, cache


def batchnorm2d_backward(cache, output_grad) -> LayerGrads:
    xhat, inv_std, scale = cache["xhat"], cache["inv_std"], cache["scale"]
    if output_grad.shape != xhat.shape:
        raise ShapeError("output_grad shape must match forward input")
    d_scale = (output_grad * xhat).sum(axis=(0, 2, 3))
    d_shift = output_grad.sum(axis=(0, 2, 3))
    dxhat = output_grad * scale[:, None, None]
    # The input gradient is built in dxhat's buffer, with the operations and
    # their order of (inv_std / m) * (m * dxhat - sum_d - xhat * sum_dx).
    if cache["mode"] == "train":
        n, c, h, w = xhat.shape
        m = n * h * w
        sum_d = dxhat.sum(axis=(0, 2, 3))
        sum_dx = (dxhat * xhat).sum(axis=(0, 2, 3))
        dxhat *= m
        dxhat -= sum_d[:, None, None]
        dxhat -= xhat * sum_dx[:, None, None]
        dxhat *= inv_std[:, None, None] / m
    else:
        dxhat *= inv_std[:, None, None]
    return LayerGrads(dxhat, {"scale": d_scale, "shift": d_shift})


# ---------------------------------------------------------------------------
# concat backward / linear / global pooling
# ---------------------------------------------------------------------------

def concat_channels_backward(output_grad: np.ndarray, channel_sizes: list[int]) -> list[np.ndarray]:
    if sum(channel_sizes) != output_grad.shape[-3]:
        raise ShapeError("channel sizes do not sum to grad channels")
    splits = np.cumsum(channel_sizes)[:-1]
    return np.split(output_grad, splits, axis=-3)


def linear_forward(x, weights, bias) -> np.ndarray:
    """Affine map [N, F] @ [F, G] + [G]."""
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(f"linear shapes incompatible: {x.shape} @ {weights.shape}")
    if bias.shape != (weights.shape[1],):
        raise ShapeError("bias must match output width")
    return check_finite("linear", x @ weights + bias)


def linear_backward(x, weights, output_grad) -> LayerGrads:
    if output_grad.shape != (x.shape[0], weights.shape[1]):
        raise ShapeError("output_grad shape mismatch in linear backward")
    return LayerGrads(
        output_grad @ weights.T,
        {"weights": x.T @ output_grad, "bias": output_grad.sum(axis=0)},
    )


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """[N, C, H, W] -> [N, C] spatial mean."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects [N, C, H, W]")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(x_shape: tuple[int, ...], output_grad: np.ndarray) -> np.ndarray:
    n, c, h, w = x_shape
    if output_grad.shape != (n, c):
        raise ShapeError("output_grad must be [N, C]")
    return np.broadcast_to(output_grad[:, :, None, None] / (h * w), x_shape).copy()
