"""Dense-tensor layer primitives with explicit forward and backward passes.

Activations are channels-last, ``[N, *spatial, C]``, the layout the
convolution's matmuls read; weights are ``[C_out, C_in, *kernel]``. Every
operation is a pure function of its arguments (batch normalization returns
a new state) and writes into no array it was given, since a convolution may
save its caller's array for its backward pass. All arithmetic is float64.

Convolutions and pools share one window machinery: ``_padded`` zero-pads
the spatial axes, or returns its input when nothing is padded, and
``_shifted`` is the view that one window offset reads. A convolution adds
``shifted input @ W[offset]`` over the kernel offsets (cross-correlation,
one BLAS matmul each), and its backward runs the same loop over the saved
padded input, so no window matrix is ever built. Kernel axes the input
lacks are folded into its channels (``channels_last``): the 3D front end's
kernel spans all frames, so it runs as a 3x3 convolution over 3 * D
channels. A backward pass returns ``(input_grad, *param_grads)``, the
parameters in forward order; the max pool returns each window's argmax
offset for its backward.

``_conv_forward`` (also named ``conv2d_forward`` and ``conv3d_forward``) and
``_conv_backward`` are NCHW adapters over ``conv_forward`` and
``conv_backward``, kept for the benchmark's per-layer probe, which calls
them with NCHW arrays; each moves the layout at both ends, which the
network never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# window machinery and convolution
# ---------------------------------------------------------------------------

def channels_last(x: np.ndarray, n_folded: int = 0) -> np.ndarray:
    """[N, C, *spatial] -> [N, *spatial[n_folded:], C * prod(spatial[:n_folded])]:
    the first ``n_folded`` spatial axes folded into channels as
    ``c * extent + d``, the order in which ``_kernel_matrices`` folds a kernel."""
    return np.moveaxis(x.reshape(x.shape[0], -1, *x.shape[2 + n_folded:]), 1, -1)


def _padded(x: np.ndarray, pads) -> np.ndarray:
    """``x`` zero-padded by ``pads[i]`` on both sides of spatial axis i, or
    ``x`` itself when no axis is padded."""
    if not any(pads):
        return x
    return np.pad(x, [(0, 0), *((p, p) for p in pads), (0, 0)])


def _unpadded(xs: np.ndarray, pads) -> np.ndarray:
    """The view of ``xs`` that ``_padded(x, pads)`` copied ``x`` into."""
    return xs[(slice(None), *(slice(p, e - p) for p, e in zip(pads, xs.shape[1:-1])))]


def _shifted(xs: np.ndarray, offset, stride, out_sp) -> np.ndarray:
    """The [N, *out_sp, C] view of ``xs`` that one window offset reads."""
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


def _sample_blocks(n: int, rows_per_sample: int, width: int, itemsize: int) -> list[slice]:
    step = max(1, _BLOCK_BYTES // (itemsize * rows_per_sample * width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def conv_forward(x, weights, bias, spec: ConvSpec):
    """``(out, saved)``: ``out`` [N, *out_spatial, C_out], the sum over
    kernel offsets of shifted ``x`` @ W[offset], plus the bias.

    ``x`` is [N, *spatial, C]. When it has fewer spatial axes than the
    kernel, the leading kernel axes are folded into its channels, C = C_in *
    prod(folded kernel). ``saved``, what ``conv_backward`` reads, is the
    padded input (``x`` itself when nothing is padded), weights and spec.
    """
    nf = spec.ndim - (x.ndim - 2)
    if not 0 <= nf <= spec.ndim or any(spec.padding[:nf]):
        raise ShapeError(f"input {x.shape} does not fit kernel {spec.kernel} padded {spec.padding}")
    c = spec.in_channels * math.prod(spec.kernel[:nf])
    if x.shape[-1] != c:
        raise ShapeError(f"input has {x.shape[-1]} channels, spec expects {c}")
    if weights.shape != spec.weight_shape():
        raise ShapeError(f"weights {weights.shape} do not match spec {spec.weight_shape()}")
    if bias.shape != (spec.out_channels,):
        raise ShapeError(f"bias {bias.shape} must be ({spec.out_channels},)")
    out_sp = spec.out_extents((*spec.kernel[:nf], *x.shape[1:-1]))[nf:]
    xs = _padded(x, spec.padding[nf:])
    wk = _kernel_matrices(weights, nf)
    n, c_out, stride, rows = x.shape[0], spec.out_channels, spec.stride[nf:], math.prod(out_sp)
    blocks = _sample_blocks(n, rows, c_out, xs.itemsize)
    # One shift buffer and one product buffer serve every offset: fresh
    # multi-MiB temporaries per offset page-fault, which in a fresh process
    # doubled the 7x7 stem's forward time.
    shift_buf = np.empty((blocks[0].stop, *out_sp, c))
    prod_buf = np.empty((blocks[0].stop * rows, c_out))
    out = np.zeros((n, *out_sp, c_out))
    for blk in blocks:
        m = blk.stop - blk.start
        x_shift, prod, out_blk = shift_buf[:m], prod_buf[: m * rows], out[blk].reshape(-1, c_out)
        for offset in np.ndindex(*wk.shape[:-2]):
            np.copyto(x_shift, _shifted(xs[blk], offset, stride, out_sp))
            out_blk += np.matmul(x_shift.reshape(-1, c), wk[offset], out=prod)
    out += bias
    check_finite("conv forward", out)
    return out, (xs, weights, spec)


def conv_backward(saved, output_grad, want_input_grad=True):
    """``(input_grad, d_weights, d_bias)`` from what ``conv_forward`` saved,
    by its offset loop again. With ``want_input_grad=False`` the input
    gradient is None and its matmuls are skipped; the rest is the same.
    """
    xs, weights, spec = saved
    nf = spec.ndim - (xs.ndim - 2)
    pads = spec.padding[nf:]
    in_sp = tuple(e - 2 * p for e, p in zip(xs.shape[1:-1], pads))
    out_sp = spec.out_extents((*spec.kernel[:nf], *in_sp))[nf:]
    n, c, c_out = xs.shape[0], xs.shape[-1], spec.out_channels
    if output_grad.shape != (n, *out_sp, c_out):
        raise ShapeError(
            f"output_grad {output_grad.shape} does not match forward output {(n, *out_sp, c_out)}"
        )
    wk = _kernel_matrices(weights, nf)
    stride, rows = spec.stride[nf:], math.prod(out_sp)
    gmat = output_grad.reshape(n, rows, c_out)
    blocks = _sample_blocks(n, rows, c_out, xs.itemsize)
    shift_buf = np.empty((blocks[0].stop, *out_sp, c))
    dw = np.empty(wk.shape[-2:])
    d_wk = np.zeros_like(wk)
    if want_input_grad:
        gx_buf = np.empty_like(shift_buf)
        gxs = np.zeros(xs.shape)
    for blk in blocks:
        m = blk.stop - blk.start
        x_shift, g_blk = shift_buf[:m], gmat[blk].reshape(-1, c_out)
        if want_input_grad:
            gx_shift = gx_buf[:m]
        for offset in np.ndindex(*wk.shape[:-2]):
            np.copyto(x_shift, _shifted(xs[blk], offset, stride, out_sp))
            d_wk[offset] += np.matmul(x_shift.reshape(-1, c).T, g_blk, out=dw)
            if want_input_grad:
                np.matmul(g_blk, wk[offset].T, out=gx_shift.reshape(-1, c))
                _shifted(gxs[blk], offset, stride, out_sp)[...] += gx_shift
    d_weights = np.ascontiguousarray(np.moveaxis(d_wk, (-1, -2), (0, 1))).reshape(weights.shape)
    d_bias = gmat.reshape(-1, c_out).sum(axis=0)
    return (_unpadded(gxs, pads) if want_input_grad else None), d_weights, d_bias


def _n_folded(spec: ConvSpec, in_extents: tuple[int, ...]) -> int:
    """Count of leading kernel axes that span their whole unpadded input
    axis, and so can fold into the channels."""
    n = 0
    while n < spec.ndim and spec.padding[n] == 0 and spec.kernel[n] == in_extents[n]:
        n += 1
    return n


def _conv_forward(x, weights, bias, spec, return_cols=False):
    """NCHW adapter: ``conv_forward`` of ``x`` [N, C_in, *spatial], the
    output [N, C_out, *out_spatial]; with ``return_cols`` also what it saved.
    Full-extent leading axes are folded into channels, as the network folds
    its 3D front end's frames."""
    out_sp = spec.out_extents(x.shape[2:])
    out, saved = conv_forward(channels_last(x, _n_folded(spec, x.shape[2:])), weights, bias, spec)
    out = np.ascontiguousarray(np.moveaxis(out, -1, 1)).reshape(x.shape[0], spec.out_channels, *out_sp)
    return (out, saved) if return_cols else out


conv2d_forward = conv3d_forward = _conv_forward


def _conv_backward(x, weights, spec, output_grad, cols):
    """NCHW adapter: ``conv_backward`` of ``cols``, what ``_conv_forward(x,
    weights, ..., spec, return_cols=True)`` saved, with an NCHW output
    gradient; the input gradient comes back shaped like ``x``."""
    gx, d_weights, d_bias = conv_backward(cols, channels_last(output_grad, _n_folded(spec, x.shape[2:])))
    return np.ascontiguousarray(np.moveaxis(gx, -1, 1)).reshape(x.shape), d_weights, d_bias


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

def _pool_windows(x, window: int, stride: int, pad: int):
    """``(xp, views)``: ``x`` [N, H, W, C] zero-padded, and the ``_shifted``
    view of ``xp`` that each window offset reads, in row-major offset order."""
    if window < 1 or stride < 1 or pad < 0:
        raise ShapeError("pool window and stride must be positive and pad nonnegative")
    if x.ndim != 4:
        raise ShapeError(f"pools expect [N, H, W, C], got {x.shape}")
    hp, wp = x.shape[1] + 2 * pad, x.shape[2] + 2 * pad
    if hp < window or wp < window:
        raise ShapeError(f"pool window {window} larger than padded input {(hp, wp)}")
    out_sp = ((hp - window) // stride + 1, (wp - window) // stride + 1)
    xp = _padded(x, (pad, pad))
    return xp, [_shifted(xp, o, (stride, stride), out_sp) for o in np.ndindex(window, window)]


def avg_pool2d(x, window: int, stride: int, pad: int) -> np.ndarray:
    """Mean over each window; the zero padding counts in the mean. A
    window's values are added in row-major offset order, then divided."""
    _, views = _pool_windows(x, window, stride, pad)
    out = views[0].copy()
    for view in views[1:]:
        out += view
    out /= window * window
    return check_finite("avg_pool2d", out)


def max_pool2d(x, window: int, stride: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Max over each window, and the offset of each maximum in its window
    (row-major, the first one on ties), which pool2d_backward reads."""
    _, views = _pool_windows(x, window, stride, pad)
    out = views[0].copy()
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(window * window - 1))
    better = np.empty(out.shape, dtype=bool)
    for k, view in enumerate(views[1:], 1):
        np.greater(view, out, out=better)
        np.copyto(argmax, k, where=better)
        np.maximum(out, view, out=out)  # propagates NaN into the finiteness check
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
    n, h, w, c = in_shape  # the windows are views of the padded gradient itself
    gx, views = _pool_windows(np.zeros((n, h + 2 * pad, w + 2 * pad, c)), window, stride, 0)
    if output_grad.shape != views[0].shape:
        raise ShapeError(f"output_grad {output_grad.shape} does not match pool output "
                         f"{views[0].shape}")
    if argmax is None:
        g = output_grad / (window * window)
        for view in views:
            view += g
    else:
        for k in reversed(range(len(views))):
            np.add(views[k], output_grad, out=views[k], where=argmax == k)
    return _unpadded(gx, (pad, pad))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
_LEADING = (0, 1, 2)  # the axes a [N, H, W, C] batch statistic reduces over


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
    """Per-channel batch normalization over [N, H, W, C].

    Train mode normalizes with batch statistics, taken over the leading
    axes, and returns an updated running-stats state (momentum 0.1); eval
    mode normalizes with the running stats. Returns (out, new_state, cache)
    where cache feeds batchnorm2d_backward.
    """
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects [N, H, W, C]")
    c = x.shape[-1]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("scale/shift must have one entry per channel")
    if mode == "train":
        if x.size // c < 2:
            raise ShapeError("train-mode batchnorm needs N*H*W >= 2")
        mean = x.mean(axis=_LEADING)
        var = x.var(axis=_LEADING)
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
    xhat = (x - mean) * inv_std
    out = scale * xhat + shift
    check_finite("batchnorm2d", out)
    cache = {"xhat": xhat, "inv_std": inv_std, "scale": scale, "mode": mode}
    return out, new_state, cache


def batchnorm2d_backward(cache, output_grad):
    xhat, inv_std, scale = cache["xhat"], cache["inv_std"], cache["scale"]
    if output_grad.shape != xhat.shape:
        raise ShapeError("output_grad shape must match forward input")
    d_scale = (output_grad * xhat).sum(axis=_LEADING)
    d_shift = output_grad.sum(axis=_LEADING)
    dxhat = output_grad * scale
    # The input gradient is built in dxhat's buffer, with the operations and
    # their order of (inv_std / m) * (m * dxhat - sum_d - xhat * sum_dx).
    if cache["mode"] == "train":
        m = xhat.size // xhat.shape[-1]
        sum_d = dxhat.sum(axis=_LEADING)
        sum_dx = (dxhat * xhat).sum(axis=_LEADING)
        dxhat *= m
        dxhat -= sum_d
        dxhat -= xhat * sum_dx
        dxhat *= inv_std / m
    else:
        dxhat *= inv_std
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
    """[N, H, W, C] -> [N, C] spatial mean."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects [N, H, W, C]")
    return x.mean(axis=(1, 2))


def global_avg_pool_backward(x_shape: tuple[int, ...], output_grad: np.ndarray) -> np.ndarray:
    n, h, w, c = x_shape
    if output_grad.shape != (n, c):
        raise ShapeError("output_grad must be [N, C]")
    return np.broadcast_to(output_grad[:, None, None, :] / (h * w), x_shape).copy()
