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

Every spatial layer takes a batch, ``[N, C, *spatial]``. A backward pass
with parameters returns the plain tuple ``(input_grad, *param_grads)``,
the parameters in the order the forward pass takes them. The pools zero-pad
their own input: the max pool returns the offset of each window's maximum,
which is all its backward pass needs, and the average pool's backward reads
only the input's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _conv_saved_backward(xs, weights, spec, output_grad, want_input_grad=True):
    """Gradients from the saved operand: the forward pass's offset loop,
    recomputing each shifted input instead of reading a cached window matrix.

    With ``want_input_grad=False`` the input-gradient matmuls are skipped and
    the input gradient is None; the parameter gradients are the same.
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
    return gx, d_weights, d_bias


# conv2d_forward, conv3d_forward and _conv_backward are the names the
# benchmark's per-layer probe calls; the network calls _conv_forward and
# _conv_saved_backward.
conv2d_forward = conv3d_forward = _conv_forward


def _conv_backward(x, weights, spec, output_grad, cols):
    """_conv_saved_backward of ``cols``, the operand _conv_forward(...,
    return_cols=True) saved; ``x`` is not read."""
    return _conv_saved_backward(cols, weights, spec, output_grad)


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
# pooling: square windows over the zero-padded input
# ---------------------------------------------------------------------------

def _pool_geometry(in_shape, window: int, stride: int, pad: int):
    """(padded height, padded width, output height, output width)."""
    if window < 1 or stride < 1 or pad < 0:
        raise ShapeError("pool window and stride must be positive and pad nonnegative")
    if len(in_shape) != 4:
        raise ShapeError(f"pools expect [N, C, H, W], got {tuple(in_shape)}")
    hp, wp = in_shape[2] + 2 * pad, in_shape[3] + 2 * pad
    if hp < window or wp < window:
        raise ShapeError(f"pool window {window} larger than padded input {(hp, wp)}")
    return hp, wp, (hp - window) // stride + 1, (wp - window) // stride + 1


def _padded(x, pad: int):
    return np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)])


def _window_offsets(window: int, stride: int, oh: int, ow: int):
    """(offset index, view index) per window offset in row-major order; the
    view index selects the [N, C, oh, ow] elements that offset reads."""
    return [(m * window + l, (Ellipsis, slice(m, m + stride * (oh - 1) + 1, stride),
                              slice(l, l + stride * (ow - 1) + 1, stride)))
            for m in range(window) for l in range(window)]


def avg_pool2d(x, window: int, stride: int, pad: int) -> np.ndarray:
    """Mean over each window; the zero padding counts in the mean."""
    _pool_geometry(x.shape, window, stride, pad)
    win = sliding_window_view(_padded(x, pad), (window, window), axis=(-2, -1))
    return check_finite("avg_pool2d", win[..., ::stride, ::stride, :, :].mean(axis=(-2, -1)))


def max_pool2d(x, window: int, stride: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Max over each window, and the offset of each maximum in its window
    (row-major, the first one on ties), which pool2d_backward reads."""
    _, _, oh, ow = _pool_geometry(x.shape, window, stride, pad)
    xp = _padded(x, pad)
    offsets = _window_offsets(window, stride, oh, ow)
    out = xp[offsets[0][1]].copy()
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(window * window - 1))
    better = np.empty(out.shape, dtype=bool)
    for k, view in offsets[1:]:
        np.greater(xp[view], out, out=better)
        np.copyto(argmax, k, where=better)
        np.maximum(out, xp[view], out=out)  # propagates NaN into the finiteness check
    return check_finite("max_pool2d", out), argmax


def pool2d_backward(output_grad, in_shape, window: int, stride: int, pad: int,
                    argmax=None) -> np.ndarray:
    """Input gradient of max_pool2d, given the ``argmax`` it returned, or of
    avg_pool2d when ``argmax`` is None.

    One loop over the window offsets adds each offset's share into a padded
    gradient and returns its interior. avg gives every window member
    grad/window**2. max routes each grad to its window's argmax, going over
    the offsets in reverse row-major order: a cell covered by several
    windows then sums their grads in row-major window order, the order a
    scatter-add over the output (``np.add.at``) would.
    """
    hp, wp, oh, ow = _pool_geometry(in_shape, window, stride, pad)
    if output_grad.shape != (*in_shape[:2], oh, ow):
        raise ShapeError(f"output_grad {output_grad.shape} does not match pool output "
                         f"{(*in_shape[:2], oh, ow)}")
    gx = np.zeros((*in_shape[:2], hp, wp))
    offsets = _window_offsets(window, stride, oh, ow)
    if argmax is None:
        g = output_grad / (window * window)
        for _, view in offsets:
            gx[view] += g
    else:
        for k, view in reversed(offsets):
            dst = gx[view]
            np.add(dst, output_grad, out=dst, where=argmax == k)
    return gx[..., pad : hp - pad, pad : wp - pad]


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


def batchnorm2d_backward(cache, output_grad):
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
    return dxhat, d_scale, d_shift


# ---------------------------------------------------------------------------
# linear / global pooling
# ---------------------------------------------------------------------------

def linear_forward(x, weights, bias) -> np.ndarray:
    """Affine map [N, F] @ [F, G] + [G]."""
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(f"linear shapes incompatible: {x.shape} @ {weights.shape}")
    if bias.shape != (weights.shape[1],):
        raise ShapeError("bias must match output width")
    return check_finite("linear", x @ weights + bias)


def linear_backward(x, weights, output_grad):
    if output_grad.shape != (x.shape[0], weights.shape[1]):
        raise ShapeError("output_grad shape mismatch in linear backward")
    return output_grad @ weights.T, x.T @ output_grad, output_grad.sum(axis=0)


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
