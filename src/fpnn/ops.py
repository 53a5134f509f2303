"""Dense-tensor layer primitives with explicit forward and backward passes.

Activations are channels-last, ``[N, *spatial, C]``, the layout the
convolution's matmuls read; weights are ``[C_out, C_in, *kernel]``. Every
operation returns its results (batch normalization a new state) and writes
into no array it was given, since a forward may save its caller's array
for its backward pass, with one exception: the train-mode ops of a conv
-> batchnorm -> Leaky ReLU unit take over the array they are given.
``batchnorm2d_forward`` normalizes its input in place and saves it as
``xhat``, ``leaky_relu_forward`` overwrites its input with its output, and
``batchnorm2d_backward`` and ``leaky_relu_backward`` write the input
gradient into the output gradient; each returns that array, and its caller
must not read it again for its old values. ``leaky_relu_forward``, both
backwards and ``check_finite`` run in sample blocks with one block-sized
scratch (``_scratch_blocks``), so none of them makes an activation-sized
temporary. Convolutions, the Leaky ReLU and the pools' backward compute in
their input's dtype (the network's is float64). Batch normalization takes
batch statistics only: with running statistics it is a fixed per-channel
affine, which ``bn_fold`` folds into the weights and a bias of the
convolution before it, so an eval-mode network runs no batchnorm. Every
convolution's ``saved`` holds its input itself; a caller may put in its
place a stand-in that rebuilds the input's sample blocks
(``RebuiltActivation``), since ``conv_backward`` reads the input only
through its shape, its dtype and ``x[blk]``, each block once.

Every layer's forward returns ``(out, saved)`` (batch normalization
``(out, new_state, saved)``), and its backward, ``backward(saved,
output_grad)``, reads nothing else: no shape, geometry, slope or weight. It
returns the input gradient, or ``(input_grad, *param_grads)`` in forward
order for a layer with parameters. Two ops have no backward, for the
layers of a forward that will not be differentiated (an eval-mode
network's, and the blocks a ``RebuiltActivation`` rebuilds): ``leaky_relu``
is the Leaky ReLU alone, its output and no mask, and ``leaky_relu_forward``
writes the same values into its input and saves the x > 0 mask its
backward reads; ``max_pool`` is the running maximum alone, and
``max_pool2d`` computes the same maximum and saves each window's argmax.

No masked ufunc (a ``where=`` argument, ``np.where``, ``np.copyto(where=)``)
runs on an activation-sized array: with random signs its per-element
branch mispredicts, and such a select costs several flat passes. A choice
between two values is a flat operation instead: the Leaky ReLU is
``max(x, alpha * x)`` forward and a product with the slope its mask picks
backward, the max pool keeps its argmax as ``max(argmax, better * k)``,
and its backward adds ``g * (argmax == k)``. Each of these gives the
masked form's result bit for bit.

Convolutions and pools share one window machinery: ``_placed`` zero-pads
the spatial axes of an array by given rows, or returns the array when
nothing is padded, and ``_shifted`` is the view that one window offset
reads. A convolution adds ``shifted input @ W[offset]`` over the kernel
offsets (cross-correlation, one BLAS matmul each), so no window matrix is
ever built. ``_block_windows`` walks the samples in blocks, pads each block
as it reads it, and yields each offset's GEMM operand; the forward, the
weight gradient and the input gradient all read it, so no padded copy of
the batch is built. Kernel axes the input lacks are folded into its channels
(``channels_last``): the 3D front end's kernel spans all frames, so it runs
as a 3x3 convolution over 3 * D channels.

One rule gives every input gradient: it is the forward convolution of the
output gradient, zero-padded by k - 1 - p, with the kernel flipped on its
spatial axes and its channel axes swapped (Lavin & Gray 2015,
arXiv:1509.09308), run by the route the forward took. A pad lies below its
kernel (``ConvSpec``), so no input gradient's pad is negative.

One rule, ``_winograd_route(spec)``, gives a 7x7 kernel at stride 2 (the
network's stem) a second route; every other convolution runs the offset
loop, at stride 1 only: ``conv_forward`` rejects any other strided
spec. The zero-padded input is split into its four stride-2 phases,
stacked on the channel axis (K = 4 * C_in), which makes the convolution
one stride-1 convolution with a 4x4 kernel whose taps past the 7x7 are
zero. That runs as Winograd minimal filtering F(4x4, 4x4), alpha = 7, at
the points 0, +-1, +-2, 1/2 and infinity: per block of samples, the
block's phases are written into one buffer at the tile extent, its 7x7
input tiles are transformed (V = BT d B, one matmul per axis over strided
views), multiplied by the transformed kernel (U = G W' G^T) in one batched
[49, tiles, K] @ [49, K, C_out] matmul, and transformed back (A^T M A).
That is a quarter of the offset loop's multiplies. Tiles cover any output
extent; what they compute past it is cropped. ``saved`` holds the input
itself: no phase-split copy of the batch is built. The weight gradient of
phase (a, b) is G^T dU G, with dU the sum over blocks of V^T dM and V of
that phase of the saved input; the weight pass reads each block of the
input once, for all four phases, and holds their four dU. The input
gradient runs phase by phase, holding one phase's [49, C_out, C_in] U^T at
a time: its phase (a, b) is a stride-1 4x4 convolution of the output
gradient with U^T of that phase of the flipped kernel.

The route differs from the loop by rounding only: at the stem's geometry,
outputs and gradients lie within 1e-13 of their largest magnitude. Its
transforms mix signs, so an overflow that leaves the loop an inf can leave
the route inf - inf = nan. The route therefore ignores numpy's "invalid"
floating-point status (an overflow still warns or raises as the caller's
``np.errstate`` says), and ``check_finite`` raises NonFiniteError either
way.

``_conv_forward`` (also named ``conv2d_forward`` and ``conv3d_forward``) and
``_conv_backward`` are NCHW adapters over ``conv_forward`` and
``conv_backward``, used only by the benchmark's per-layer probe, which
calls them with NCHW arrays and a bias, which the forward adds; each moves
the layout at both ends, which the network never does. They fold frames by
the network's one rule: a 3D kernel's depth axis goes into the channels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeError


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, or NonFiniteError naming ``name`` if it holds a nan or an
    inf. Checked one sample block at a time, into a block-sized bool array."""
    for blk, finite in _scratch_blocks(arr, bool):
        if not np.isfinite(arr[blk], out=finite).all():
            raise NonFiniteError(f"{name} produced non-finite values")
    return arr


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a convolution: kernel extents, stride and zero padding
    per spatial axis, plus channel counts. Works for 2 or 3 spatial axes.
    Padding lies below the kernel extent on every axis, so every output row
    reads an input row."""

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
        if not all(0 <= p < k for p, k in zip(self.padding, self.kernel)):
            raise ShapeError(f"padding {self.padding} must be nonnegative and below the kernel "
                             f"{self.kernel} on every axis")
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


def _placed(g, ext, before, buf=None) -> np.ndarray:
    """``g`` [N, *spatial, C] in a zeroed [N, *ext, C] array, ``before``
    rows in on each axis, where it must fit. ``g`` itself when it already
    is that array and no ``buf`` is given. A given ``buf`` must be zero
    where ``g`` does not land, as one zeroed once and refilled only by
    ``_placed`` of same-shaped arrays is."""
    if buf is None and g.shape[1:-1] == ext and not any(before):
        return g
    if buf is None:
        buf = np.zeros((g.shape[0], *ext, g.shape[-1]), g.dtype)
    buf[(slice(None), *(slice(b, b + n) for b, n in zip(before, g.shape[1:-1])))] = g
    return buf


def _unpadded(xs: np.ndarray, pads) -> np.ndarray:
    """The view of ``xs`` that ``_placed(x, ext, pads)`` copied ``x`` into."""
    return xs[(slice(None), *(slice(p, e - p) for p, e in zip(pads, xs.shape[1:-1])))]


def _shifted(xs: np.ndarray, offset, stride, out_sp) -> np.ndarray:
    """The [N, *out_sp, C] view of ``xs`` that one window offset reads."""
    window = tuple(slice(o, o + s * (e - 1) + 1, s) for o, s, e in zip(offset, stride, out_sp))
    return xs[(slice(None),) + window]


def _kernel_matrices(weights: np.ndarray, nf: int, dtype) -> np.ndarray:
    """[C_out, C_in, *kernel] -> [*unfolded kernel, C_in * prod(folded), C_out]
    in ``dtype``: one [C_in, C_out] matrix per kernel offset."""
    w = weights.reshape(weights.shape[0], -1, *weights.shape[2 + nf:])
    return np.ascontiguousarray(np.moveaxis(w, (0, 1), (-1, -2)), dtype)


# Samples per block of the offset loop: the block's [rows, C_out] output (or
# output gradient) stays cache-resident across all kernel offsets, where a
# whole-batch pass per offset streams it from memory every time. The
# elementwise passes (``_scratch_blocks``) keep their scratch within it too.
_BLOCK_BYTES = 256 * 1024


def _sample_blocks(n: int, sample_bytes: int, budget: int) -> list[slice]:
    """Consecutive blocks of as many of ``n`` samples as keep ``sample_bytes``
    per sample within ``budget`` bytes, and at least one."""
    step = max(1, budget // sample_bytes)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _scratch_blocks(x, dtype) -> list:
    """``[(blk, scratch)]`` for an elementwise pass over ``x`` [N, ...]:
    consecutive sample blocks within _BLOCK_BYTES (at least one sample
    each; a 0-d ``x`` is one block, ``...``), each with an empty ``dtype``
    array of its shape, all views of the pass's one temporary."""
    if x.ndim == 0:
        return [(..., np.empty((), dtype))]
    blocks = _sample_blocks(len(x), max(1, x[:1].nbytes), _BLOCK_BYTES)
    buf = np.empty((blocks[0].stop if blocks else 0, *x.shape[1:]), dtype)
    return [(blk, buf[: blk.stop - blk.start]) for blk in blocks]


def _block_windows(x, blocks, kernel, out_sp, before):
    """Yields ``(blk, offset, rows)`` for each block of ``blocks`` and each
    kernel offset: ``rows`` [m * prod(out_sp), C] is the window that offset
    reads, at stride 1, of ``x[blk]`` [m, *spatial, C] zero-padded by
    ``before`` rows on each axis. Each block is padded once, into one buffer
    zeroed once for all blocks; an unpadded block is read in place, and a
    C-contiguous window (1x1) is reshaped, not copied. ``rows`` is valid
    until the next yield."""
    unit = (1,) * len(kernel)
    ext = tuple(e + k - 1 for e, k in zip(out_sp, kernel))
    m, c = blocks[0].stop, x.shape[-1]
    placed = np.zeros((m, *ext, c), x.dtype) if any(before) else None
    shift_buf = np.empty((m, *out_sp, c), x.dtype)
    for blk in blocks:
        m = blk.stop - blk.start
        xb = x[blk] if placed is None else _placed(x[blk], ext, before, placed[:m])
        for offset in np.ndindex(*kernel):
            view = _shifted(xb, offset, unit, out_sp)
            if not view.flags.c_contiguous:
                np.copyto(shift_buf[:m], view)
                view = shift_buf[:m]
            yield blk, offset, view.reshape(-1, c)


def conv_forward(x, weights, spec: ConvSpec):
    """``(out, saved)``: ``out`` [N, *out_spatial, C_out], the sum over
    kernel offsets of shifted ``x`` @ W[offset].

    ``x`` is [N, *spatial, C]. When it has fewer spatial axes than the
    kernel, the leading kernel axes are folded into its channels, C = C_in *
    prod(folded kernel). The output is in ``x``'s dtype. ``saved``, what
    ``conv_backward`` reads, is ``(x, weights, spec)``, ``x`` itself. A
    convolution runs at stride 1 unless ``_winograd_route`` takes it; any
    other stride is a ShapeError naming the spec.
    """
    nf = spec.ndim - (x.ndim - 2)
    if not 0 <= nf <= spec.ndim or any(spec.padding[:nf]):
        raise ShapeError(f"input {x.shape} does not fit kernel {spec.kernel} padded {spec.padding}")
    c = spec.in_channels * math.prod(spec.kernel[:nf])
    if x.shape[-1] != c:
        raise ShapeError(f"input has {x.shape[-1]} channels, spec expects {c}")
    if weights.shape != spec.weight_shape():
        raise ShapeError(f"weights {weights.shape} do not match spec {spec.weight_shape()}")
    out_sp = spec.out_extents((*spec.kernel[:nf], *x.shape[1:-1]))[nf:]
    if _winograd_route(spec):
        if nf:
            raise ShapeError(f"a 7x7 stride-2 convolution takes [N, H, W, C], got {x.shape}")
        out = _winograd_forward(x, weights, spec.padding, out_sp)
    elif any(s != 1 for s in spec.stride):
        raise ShapeError(f"{spec}: only the 7x7 stride-2 convolution strides")
    else:
        out = _offset_loop(x, _kernel_matrices(weights, nf, x.dtype), out_sp, spec.padding[nf:])
    return check_finite("conv forward", out), (x, weights, spec)


def _offset_loop(x, wk, out_sp, before) -> np.ndarray:
    """[N, *out_sp, C_out] in ``x``'s dtype: the sum over kernel offsets of
    the ``_block_windows`` rows of ``x`` (padded by ``before``) @
    ``wk[offset]`` ([*kernel, C, C_out])."""
    n, c_out, rows = x.shape[0], wk.shape[-1], math.prod(out_sp)
    blocks = _sample_blocks(n, rows * c_out * x.itemsize, _BLOCK_BYTES)
    # One product buffer serves every block and offset: a fresh temporary per
    # offset page-faults.
    prod_buf = np.empty((blocks[0].stop * rows, c_out), x.dtype)
    out = np.zeros((n, *out_sp, c_out), x.dtype)
    for blk, offset, x_rows in _block_windows(x, blocks, wk.shape[:-2], out_sp, before):
        out_blk = out[blk].reshape(-1, c_out)
        out_blk += np.matmul(x_rows, wk[offset], out=prod_buf[: len(x_rows)])
    return out


def conv_backward(saved, output_grad, want_input_grad=True):
    """``(input_grad, d_weights)`` from what ``conv_forward`` saved, ``(x,
    weights, spec)``. ``x`` is read only through ``x.shape``, ``x.dtype``
    and sample blocks ``x[blk]``, each once, so a ``RebuiltActivation`` may
    stand in for it. On the offset route, which runs at stride 1, the
    weight gradient reads the same ``_block_windows`` rows of ``x`` as the
    forward. Input position j gathers ``g[i] @ W[u].T`` over i + u = j + p,
    which is ``_offset_loop`` over the output gradient padded by k - 1 - p,
    never negative since p < k, with the flipped kernel's transposed
    matrices. With ``want_input_grad=False`` the input gradient is None and
    not computed; the rest is the same."""
    x, weights, spec = saved
    nf = spec.ndim - (len(x.shape) - 2)
    in_sp, c_out = x.shape[1:-1], spec.out_channels
    out_sp = spec.out_extents((*spec.kernel[:nf], *in_sp))[nf:]
    want = (x.shape[0], *out_sp, c_out)
    if output_grad.shape != want:
        raise ShapeError(f"output_grad {output_grad.shape} does not match forward output {want}")
    if _winograd_route(spec):
        with np.errstate(invalid="ignore"):  # see the module docstring
            d_weights = _winograd_weight_grad(x, output_grad, spec.padding, weights.shape)
            gx = (_winograd_input_grad(output_grad, weights, spec.padding, in_sp)
                  if want_input_grad else None)
        return gx, d_weights
    pads, kernel = spec.padding[nf:], spec.kernel[nf:]
    n, c, rows = x.shape[0], x.shape[-1], math.prod(out_sp)
    gmat = output_grad.reshape(n, rows, c_out)
    blocks = _sample_blocks(n, rows * c_out * x.dtype.itemsize, _BLOCK_BYTES)
    dw = np.empty((c, c_out), x.dtype)
    d_wk = np.zeros((*kernel, c, c_out), x.dtype)
    for blk, offset, x_rows in _block_windows(x, blocks, kernel, out_sp, pads):
        d_wk[offset] += np.matmul(x_rows.T, gmat[blk].reshape(-1, c_out), out=dw)
    d_weights = np.ascontiguousarray(np.moveaxis(d_wk, (-1, -2), (0, 1))).reshape(weights.shape)
    gx = None
    if want_input_grad:
        flipped = np.flip(weights.reshape(c_out, c, *kernel), tuple(range(2, 2 + len(kernel))))
        gx = _offset_loop(output_grad, _kernel_matrices(flipped.swapaxes(0, 1), 0, x.dtype),
                          in_sp, tuple(k - 1 - p for k, p in zip(kernel, pads)))
    return gx, d_weights


# ---------------------------------------------------------------------------
# the Winograd route of the 7x7 stride-2 convolution
# ---------------------------------------------------------------------------

def _winograd_route(spec: ConvSpec) -> bool:
    """The one rule that picks a convolution's route: a 7x7 kernel at
    stride 2, at any pad from 0 to 6, runs as Winograd F(4x4, 4x4) over its
    four stride-2 phases; every other convolution runs as the offset loop,
    which takes stride 1 only. The route's input gradient pads the output
    gradient by 3 - ceil(pad / 2), which is never negative."""
    return spec.kernel == (7, 7) and spec.stride == (2, 2)


def _winograd_matrices(points, m: int, r: int):
    """``(A, G, BT)`` of the Toom-Cook algorithm F(m, r) at the finite
    ``points`` and infinity, alpha = m + r - 1 = len(points) + 1, such that
    ``A.T @ ((G @ g) * (BT @ d))`` is the correlation ``y[i] = sum_k d[i + k]
    g[k]`` of d (length alpha) with g (length r). A and G evaluate a
    polynomial at the points (infinity: its leading coefficient); BT holds the
    coefficients of prod_{j != k} (t - p_j) in row k (of prod_j (t - p_j) in
    the infinity row), which are small dyadic numbers, so the Lagrange
    denominators prod_{j != k} (p_k - p_j) divide G's rows instead."""
    pts = np.asarray(points, dtype=float)
    a = np.vstack([pts[:, None] ** np.arange(m), np.eye(m)[-1]])
    g = np.vstack([pts[:, None] ** np.arange(r), np.eye(r)[-1]])
    bt = np.empty((len(pts) + 1, len(pts) + 1))
    for k, p in enumerate(pts):
        others = np.delete(pts, k)
        bt[k] = np.append(np.poly(others)[::-1], 0.0)
        g[k] /= np.prod(p - others)
    bt[-1] = np.poly(pts)[::-1]
    return a, g, bt


# A stride-2 phase of the 7x7 kernel is (at most) 4x4, so the phase conv is
# a stride-1 4x4 conv, computed in 4x4 output tiles from 7x7 input tiles.
_TILE = _PHASE_KERNEL = 4
_ALPHA = _TILE + _PHASE_KERNEL - 1
_WINO_A, _WINO_G, _WINO_BT = _winograd_matrices((0.0, 1.0, -1.0, 2.0, -2.0, 0.5),
                                                _TILE, _PHASE_KERNEL)
# The 2D transforms of a kernel and of an output tile, [49, 16] and [16, 49]:
# kron(M, M) @ t.ravel() is M t M^T, for t small enough that one matmul
# beats two.
_WINO_GG = np.kron(_WINO_G, _WINO_G)
_WINO_AA = np.kron(_WINO_A.T, _WINO_A.T)


def _phase_slices(pad: int, extent: int):
    """``[(phase_rows, input_rows)]`` for the phases a = 0, 1 of one axis:
    padded row 2r + a is input row 2r + a - pad, so phase a's rows
    ``phase_rows`` hold the input's rows ``input_rows``; the rest is padding."""
    out = []
    for a in (0, 1):
        r0 = (pad - a + 1) // 2
        s0 = 2 * r0 + a - pad
        out.append((slice(r0, r0 + len(range(s0, extent, 2))), slice(s0, extent, 2)))
    return out


# The four stride-2 phases (a, b), in the order they stack on the channel axis.
_PHASES = tuple(np.ndindex(2, 2))


def _phase_split(x, pads, buf, phases=_PHASES) -> None:
    """Writes into ``buf`` [N, rows, cols, len(phases) * C] the listed
    stride-2 phases (a, b) of the zero-padded ``x`` [N, H, W, C], stacked on
    the channel axis: padded position (2r + a, 2s + b) at (r, s). ``buf``
    must be zero where no phase lands (the padding, and rows past
    ceil((H + 2 * pad) / 2), and so for columns), as one zeroed once and
    refilled only with the same phases of same-shaped blocks is."""
    q = buf.reshape(*buf.shape[:3], len(phases), -1)
    for i, (a, b) in enumerate(phases):
        (qr, xr), (qc, xc) = (_phase_slices(pads[0], x.shape[1])[a],
                              _phase_slices(pads[1], x.shape[2])[b])
        q[:, qr, qc, i] = x[:, xr, xc]


def _transformed_kernels(weights, phases=_PHASES) -> np.ndarray:
    """U^T, [49, C_out, len(phases) * C_in], of U = G W' G^T for the phase
    kernel W'[p, q, (a, b, c), o] = w[o, c, 2p + a, 2q + b] over the listed
    phases (a, b), zero past tap 6. The forward convolves with U of all four
    phases; U^T of one phase of the flipped w gives that phase of the input
    gradient."""
    c_out, c_in = weights.shape[:2]
    wp = np.zeros((_PHASE_KERNEL, _PHASE_KERNEL, c_out, len(phases), c_in), weights.dtype)
    for i, (a, b) in enumerate(phases):
        taps = weights[:, :, a::2, b::2].transpose(2, 3, 0, 1)
        wp[: taps.shape[0], : taps.shape[1], :, i] = taps
    return (_WINO_GG @ wp.reshape(_PHASE_KERNEL**2, -1)).reshape(_ALPHA**2, c_out, -1)


def _phase_kernel_grad(d_u, d_weights, phase) -> None:
    """Fills the taps of ``d_weights`` [C_out, C_in, 7, 7] that ``phase``
    (a, b) holds from its dU [49, C_in, C_out]: dW' = G^T dU G, read back at
    the 7x7 taps."""
    (a, b), (c_out, c_in) = phase, d_weights.shape[:2]
    d_wp = (_WINO_GG.T @ d_u.reshape(_ALPHA**2, -1)).reshape(
        _PHASE_KERNEL, _PHASE_KERNEL, c_in, c_out)
    taps = d_weights[:, :, a::2, b::2]
    taps[...] = d_wp[: taps.shape[2], : taps.shape[3]].transpose(3, 2, 0, 1)


def _windows(x, axis: int, count: int) -> np.ndarray:
    """The view of ``x`` with ``count`` 7-long tiles at stride 4 along
    ``axis``: that axis becomes (tile, offset)."""
    view = np.lib.stride_tricks.sliding_window_view(x, _ALPHA, axis=axis)
    view = view[(slice(None),) * axis + (slice(None, _TILE * count, _TILE),)]
    return np.moveaxis(view, -1, axis + 1)


# Bytes of one block's transformed tiles [49, tiles, width] (see _Tiles): its
# V and M buffers stay within this, and the rest of its buffers within about
# as much again, per stream.
_WINOGRAD_BLOCK_BYTES = 2 << 20


class _Tiles:
    """The route's 4x4 output tiles for blocks of samples, a block's K-channel
    input at the tile extent (``buf``), and the transform V = BT d B of its
    7x7 input tiles: tile (n, ti, tj) reads input rows 4ti .. 4ti + 6 for
    output rows 4ti .. 4ti + 3 (cropped past the output extent), and so for
    columns. The transform is one [7, 7] @ [7, row] matmul per tile row and
    one [7, 7] @ [7, K] per tile and row offset, over strided views. A block
    holds as many samples as keep [49, tiles, width] within
    _WINOGRAD_BLOCK_BYTES. ``width`` counts all four phases' channels also
    in a buffer that holds one phase at a time, as the weight pass's does,
    so that pass keeps the blocks of the all-phase forward, in buffers a
    quarter of their size. ``buf`` is zeroed once, here: a pass whose every
    block fills the same positions (the forward, the input gradient) never
    zeroes it again."""

    def __init__(self, n, k, out_sp, width, dtype):
        self.th, self.tw = (-(-e // _TILE) for e in out_sp)
        self.ext = (_TILE * self.th + _ALPHA - _TILE, _TILE * self.tw + _ALPHA - _TILE)
        tile_bytes = _ALPHA**2 * self.th * self.tw * width * np.dtype(dtype).itemsize
        self.blocks = _sample_blocks(n, tile_bytes, _WINOGRAD_BLOCK_BYTES)
        block = self.blocks[0].stop
        self.buf = np.zeros((block, *self.ext, k), dtype)  # see _placed
        self.rows = np.empty((block, self.th, _ALPHA, self.ext[1], k), dtype)  # BT d per tile row
        self.v = np.empty((_ALPHA, _ALPHA, block, self.th, self.tw, k), dtype)
        # The strided views the transform reads and writes, made once: built
        # per block, they cost about 9 ms of a one-sample-per-block backward.
        self._buf_tiles = _windows(self.buf, 1, self.th).reshape(block, self.th, _ALPHA, -1)
        self._rows_flat = self.rows.reshape(block, self.th, _ALPHA, -1)
        self._row_tiles = _windows(self.rows, 3, self.tw)
        self._v_tiles = self.v.transpose(2, 3, 0, 4, 1, 5)

    def transform(self, m: int) -> np.ndarray:
        """V [49, tiles, K] of the 7x7 tiles of the first ``m`` samples in
        ``buf``, in a buffer the next call reuses."""
        np.matmul(_WINO_BT, self._buf_tiles[:m], out=self._rows_flat[:m])
        np.matmul(_WINO_BT, self._row_tiles[:m], out=self._v_tiles[:m])
        return self.v[:, :, :m].reshape(_ALPHA**2, -1, self.buf.shape[-1])


def _winograd_conv(tiles, fill, u, out_sp):
    """Winograd F(4x4, 4x4) with the transformed kernel ``u`` [49, K, C]:
    per block of ``tiles``, ``fill(blk, buf)`` writes the block's input at
    the tile extent into ``buf`` (``tiles.buf[:m]``), then one batched
    [49, tiles, K] @ [49, K, C] matmul of its V, then A^T M A. Yields
    ``(blk, y)``, y the block's [m, *out_sp, C] stride-1 4x4 convolution, in
    a buffer the next block reuses."""
    c, dtype = u.shape[-1], tiles.buf.dtype
    th, tw, block = tiles.th, tiles.tw, tiles.blocks[0].stop
    prod = np.empty((_ALPHA**2, block * th * tw, c), dtype)
    y_tiles = np.empty((_TILE**2, block * th * tw * c), dtype)
    y = np.empty((block, _TILE * th, _TILE * tw, c), dtype)
    for blk in tiles.blocks:
        m = blk.stop - blk.start
        fill(blk, tiles.buf[:m])
        mm = np.matmul(tiles.transform(m), u, out=prod[:, : m * th * tw])
        yt = np.matmul(_WINO_AA, mm.reshape(_ALPHA**2, -1), out=y_tiles[:, : m * th * tw * c])
        y[:m].reshape(m, th, _TILE, tw, _TILE, c)[...] = (
            yt.reshape(_TILE, _TILE, m, th, tw, c).transpose(2, 3, 0, 4, 1, 5))
        yield blk, y[:m, : out_sp[0], : out_sp[1]]


def _winograd_forward(x, weights, pads, out_sp):
    """The 7x7 stride-2 convolution as one stride-1 4x4 convolution over the
    stacked phases: ``_winograd_conv`` of the phases, which each block
    writes into its tile buffer, with U of the weights."""
    n, c, c_out = x.shape[0], x.shape[-1], weights.shape[0]
    out = np.empty((n, *out_sp, c_out), x.dtype)
    tiles = _Tiles(n, 4 * c, out_sp, max(4 * c, c_out), x.dtype)
    with np.errstate(invalid="ignore"):  # see the module docstring
        u = _transformed_kernels(weights).transpose(0, 2, 1)
        fill = lambda blk, buf: _phase_split(x[blk], pads, buf)
        for blk, y in _winograd_conv(tiles, fill, u, out_sp):
            out[blk] = y
    return out


def _winograd_weight_grad(x, output_grad, pads, weights_shape) -> np.ndarray:
    """dW = G^T dU G per phase: a phase's dU is the sum over blocks of V^T
    dM, with V of that phase of the saved input ``x`` and dM = A dY A^T of
    the zero-padded output gradient's tiles. Each block of ``x`` is read
    once, and its dM computed once, for all four phases, whose dU are held
    together ([4, 49, C_in, C_out], 6.1 MiB at the stem's 64 -> 64
    channels) before the input gradient is made. The tile buffer holds one
    phase at a time, so it is zeroed before each fill."""
    (c_out, c_in), dtype = weights_shape[:2], x.dtype
    tiles = _Tiles(x.shape[0], c_in, output_grad.shape[1:3], 4 * c_in, dtype)
    th, tw, block = tiles.th, tiles.tw, tiles.blocks[0].stop
    g = _placed(output_grad, (_TILE * th, _TILE * tw), (0, 0))
    g_tiles = np.empty((_TILE, _TILE, block, th, tw, c_out), dtype)
    d_m = np.empty((_ALPHA**2, block * th * tw, c_out), dtype)
    d_u = np.zeros((len(_PHASES), _ALPHA**2, c_in, c_out), dtype)
    d_u_part = np.empty((_ALPHA, c_in, c_out), dtype)  # one row of dU at a time stays in cache
    for blk in tiles.blocks:
        m = blk.stop - blk.start
        xb, buf = x[blk], tiles.buf[:m]
        g_blk, d_m_blk = g_tiles[:, :, :m], d_m[:, : m * th * tw]
        g_blk[...] = g[blk].reshape(m, th, _TILE, tw, _TILE, c_out).transpose(2, 4, 0, 1, 3, 5)
        np.matmul(_WINO_AA.T, g_blk.reshape(_TILE**2, -1), out=d_m_blk.reshape(_ALPHA**2, -1))
        for phase, d_u_phase in zip(_PHASES, d_u):
            buf[...] = 0.0
            _phase_split(xb, pads, buf, (phase,))
            v = tiles.transform(m)
            for lo in range(0, _ALPHA**2, _ALPHA):
                row = slice(lo, lo + _ALPHA)
                d_u_phase[row] += np.matmul(v[row].transpose(0, 2, 1), d_m_blk[row], out=d_u_part)
    d_weights = np.empty(weights_shape, dtype)
    for phase, d_u_phase in zip(_PHASES, d_u):
        _phase_kernel_grad(d_u_phase, d_weights, phase)
    return d_weights


def _winograd_input_grad(output_grad, weights, pads, in_sp) -> np.ndarray:
    """The input gradient, phase by phase, by ``_winograd_conv`` of the
    output gradient dY. Input row h is padded row h + P, which output rows i
    reach through taps u = h + P - 2i of one parity a = (h + P) mod 2. With
    the kernel flipped, u' = 6 - u = 2p + a, so row h is sum_p dY[ceil((h +
    P) / 2) - 3 + p] w'[2p + a]: row ceil((h + P) / 2) - ceil(P / 2) of the
    4x4 convolution of dY, padded by 3 - ceil(P / 2) before, with U^T of
    phase a of the flipped kernel, whose C_out channels go in and C_in out."""
    half = [-(-p // 2) for p in pads]
    z_sp = tuple((e + p) // 2 - h + 1 for e, p, h in zip(in_sp, pads, half))
    rows = [[(a, slice(zr.start + a - h, zr.stop + a - h), xr)
             for a, (zr, xr) in enumerate(_phase_slices(p, e))]
            for p, e, h in zip(pads, in_sp, half)]
    (c_out, c_in), dtype = weights.shape[:2], output_grad.dtype
    gx = np.empty((output_grad.shape[0], *in_sp, c_in), dtype)
    tiles = _Tiles(output_grad.shape[0], c_out, z_sp, max(c_out, 4 * c_in), dtype)
    before = tuple(_PHASE_KERNEL - 1 - h for h in half)
    fill = lambda blk, buf: _placed(output_grad[blk], tiles.ext, before, buf=buf)
    for (a, zr, xr), (b, zc, xc) in itertools.product(*rows):
        u_t = _transformed_kernels(weights[:, :, ::-1, ::-1], ((a, b),))
        for blk, z in _winograd_conv(tiles, fill, u_t, z_sp):
            gx[blk, xr, xc] = z[:, zr, zc]
    return gx


def _conv_forward(x, weights, bias, spec, return_cols=False):
    """NCHW adapter: ``conv_forward`` of ``x`` [N, C_in, *spatial] plus
    ``bias``, [N, C_out, *out_spatial]; with ``return_cols`` also what it
    saved. A 3D kernel folds its depth into the channels, as the network's
    front end does, so it must span the input's depth."""
    out_sp = spec.out_extents(x.shape[2:])
    out, saved = conv_forward(channels_last(x, spec.ndim - 2), weights, spec)
    out = np.ascontiguousarray(np.moveaxis(out + bias, -1, 1)).reshape(len(x), spec.out_channels, *out_sp)
    return (out, saved) if return_cols else out


conv2d_forward = conv3d_forward = _conv_forward


def _conv_backward(x, weights, spec, output_grad, cols):
    """NCHW adapter: ``conv_backward`` of ``cols``, what ``_conv_forward(x,
    weights, ..., spec, return_cols=True)`` saved, with an NCHW output
    gradient; the input gradient comes back shaped like ``x``."""
    gx, d_weights = conv_backward(cols, channels_last(output_grad, spec.ndim - 2))
    return np.ascontiguousarray(np.moveaxis(gx, -1, 1)).reshape(x.shape), d_weights


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def _bits(dtype) -> np.dtype:
    """The signed integer dtype as wide as float ``dtype``, whose view of an
    array reads its values' bit patterns."""
    return np.dtype(f"i{np.dtype(dtype).itemsize}")


def leaky_relu(x: np.ndarray, alpha: float) -> np.ndarray:
    """The Leaky ReLU alone, for a forward with no backward: max(x, alpha *
    x) in a new array of ``x``'s dtype, x where x > 0 and alpha * x
    elsewhere, signed zeros included, since 0 < alpha < 1."""
    out = np.multiply(x, alpha, out=np.empty(x.shape, x.dtype))
    return np.maximum(x, out, out=out)


def leaky_relu_forward(x: np.ndarray, alpha: float):
    """``leaky_relu``'s values, written into ``x`` itself one sample block
    at a time; saves the mask x > 0 and alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"leaky ReLU slope must lie in (0, 1), got {alpha}")
    positive = x > 0
    for blk, scaled in _scratch_blocks(x, x.dtype):
        np.maximum(x[blk], np.multiply(x[blk], alpha, out=scaled), out=x[blk])
    return check_finite("leaky_relu", x), (positive, alpha)


def leaky_relu_backward(saved, output_grad: np.ndarray) -> np.ndarray:
    """Slope 1 where x > 0, alpha where x <= 0 (boundary follows the
    forward branch assignment): ``output_grad`` times the slope the mask
    picks from ``[alpha, 1.0]``, in ``output_grad``'s dtype and written
    into ``output_grad`` itself, and ``g * 1.0`` is ``g`` bit for bit."""
    positive, alpha = saved
    if positive.shape != output_grad.shape:
        raise ShapeError("output_grad shape must match input")
    # The pick on the slopes' bit patterns, alpha's + mask * (1.0's - alpha's),
    # is exact integer arithmetic and runs at twice the speed of a gather.
    dtype = output_grad.dtype
    low, high = np.array([alpha, 1.0], dtype).view(_bits(dtype))
    for blk, bits in _scratch_blocks(output_grad, _bits(dtype)):
        slope = np.multiply(positive[blk].view(np.uint8), high - low, out=bits)
        slope += low
        np.multiply(output_grad[blk], slope.view(dtype), out=output_grad[blk])
    return output_grad


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
    xp = _placed(x, (hp, wp), (pad, pad))
    return xp, [_shifted(xp, o, (stride, stride), out_sp) for o in np.ndindex(window, window)]


def avg_pool2d(x, window: int, stride: int, pad: int):
    """Mean over each window; the zero padding counts in the mean. A
    window's values are added in row-major offset order, then divided.
    Saves the input shape and geometry."""
    _, views = _pool_windows(x, window, stride, pad)
    out = views[0].copy()
    for view in views[1:]:
        out += view
    out /= window * window
    return check_finite("avg_pool2d", out), (x.shape, window, stride, pad, None)


def max_pool(x, window: int, stride: int, pad: int) -> np.ndarray:
    """The max pool alone, for a forward with no backward: ``max_pool2d``'s
    running maximum over each window, bit for bit, without its argmax."""
    _, views = _pool_windows(x, window, stride, pad)
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out


def max_pool2d(x, window: int, stride: int, pad: int):
    """Max over each window. Saves the input shape, geometry and the offset
    of each maximum in its window (row-major, the first one on ties)."""
    _, views = _pool_windows(x, window, stride, pad)
    out = views[0].copy()
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(window * window - 1))
    better = np.empty(out.shape, dtype=bool)
    offer = np.empty_like(argmax)
    for k, view in enumerate(views[1:], 1):
        np.greater(view, out, out=better)
        # k grows, so the largest offer is the last strict win
        np.maximum(argmax, np.multiply(better, argmax.dtype.type(k), out=offer), out=argmax)
        np.maximum(out, view, out=out)  # propagates NaN into the finiteness check
    return check_finite("max_pool2d", out), (x.shape, window, stride, pad, argmax)


def pool2d_backward(saved, output_grad) -> np.ndarray:
    """Input gradient of max_pool2d, whose saved argmax it reads, or of
    avg_pool2d, which saves None in its place.

    One loop over the window offsets adds each offset's share into its
    ``_shifted`` view of a padded gradient, whose interior is returned. avg
    gives every window member grad/window**2. max routes each grad to its
    window's argmax, going over the offsets in reverse row-major order: a
    cell covered by several windows then sums their grads in row-major
    window order, the order a scatter-add over the output (``np.add.at``)
    would.
    """
    (n, h, w, c), window, stride, pad, argmax = saved
    dtype = output_grad.dtype
    gx, views = _pool_windows(np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype), window, stride, 0)
    if output_grad.shape != views[0].shape:
        raise ShapeError(f"output_grad {output_grad.shape} does not match pool output "
                         f"{views[0].shape}")
    if argmax is None:
        g = output_grad / (window * window)
        for view in views:
            view += g
    else:
        # g * (argmax == k) on the bits: an integer product is g's bits or
        # those of +0.0, where a float inf * 0 would be nan. Adding +0.0
        # leaves a cell as it was, since a sum started at +0.0 is never -0.0.
        bits = output_grad.view(_bits(dtype))
        hit = np.empty(bits.shape, dtype=bool)
        share = np.empty(bits.shape, dtype=bits.dtype)
        for k in reversed(range(len(views))):
            np.multiply(bits, np.equal(argmax, k, out=hit), out=share)
            views[k] += share.view(dtype)
    return _unpadded(gx, (pad, pad))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
_LEADING = (0, 1, 2)  # the axes a [N, H, W, C] batch statistic reduces over


@dataclass
class BnState:
    """Per-channel running statistics, which eval mode folds into the
    convolution before the batchnorm (``bn_fold``)."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, channels: int) -> "BnState":
        return cls(np.zeros(channels), np.ones(channels))

    def copy(self) -> "BnState":
        return BnState(self.mean.copy(), self.var.copy())


def bn_fold(weights, scale, shift, state: BnState):
    """``(weights * s, shift - mean * s)`` with s = scale / sqrt(var + eps)
    per output channel: the weights and bias of the one convolution that
    equals convolving by ``weights``, then normalizing with the running
    statistics ``state`` (Jacob et al. 2018, arXiv:1712.05877, §3.2)."""
    s = scale / np.sqrt(state.var + BN_EPS)
    return weights * s.reshape(-1, *(1,) * (weights.ndim - 1)), shift - state.mean * s


def batchnorm2d_forward(x, scale, shift, state: BnState):
    """Per-channel batch normalization over [N, H, W, C] with the batch
    statistics, taken over the leading axes.

    Returns ``(out, new_state, saved)``: ``new_state`` is ``state`` updated
    with momentum 0.1, and ``saved`` the normalized input, the inverse
    deviations and ``scale``. The input is normalized in ``x`` itself,
    which ``saved`` then holds; ``out`` is a new array.
    """
    if x.ndim != 4:
        raise ShapeError("batchnorm2d expects [N, H, W, C]")
    c = x.shape[-1]
    if scale.shape != (c,) or shift.shape != (c,):
        raise ShapeError("scale/shift must have one entry per channel")
    m = x.size // c
    if m < 2:
        raise ShapeError(f"train-mode batchnorm needs N*H*W >= 2, got input {x.shape}")
    mean = x.mean(axis=_LEADING)
    xhat = np.subtract(x, mean, out=x)  # the deviations, normalized in place below
    out = np.empty_like(xhat)
    # x.var's own arithmetic, from the deviations already at hand
    var = np.square(xhat, out=out).sum(axis=_LEADING) / m
    new_state = BnState(
        (1 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mean,
        (1 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var,
    )
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    check_finite("batchnorm2d", _bn_affine(xhat, scale, shift, out))
    return out, new_state, (xhat, inv_std, scale)


def _bn_affine(xhat, scale, shift, out) -> np.ndarray:
    """``out`` = xhat * scale + shift, batchnorm's output from its
    normalized input."""
    np.multiply(xhat, scale, out=out)
    out += shift
    return out


class RebuiltActivation:
    """Stands in, as a convolution's saved input, for the output of a conv
    -> batchnorm -> Leaky ReLU unit, rebuilt one sample block at a time
    from what the unit's batchnorm saved (Chen et al. 2016,
    arXiv:1604.06174). ``self[blk]`` runs ``_bn_affine`` and ``leaky_relu``,
    the forward's own code, on ``xhat[blk]``: elementwise arithmetic, so the
    block is bitwise the one the forward made. ``conv_backward`` reads its
    saved input only through ``shape``, ``dtype`` and ``x[blk]``."""

    def __init__(self, bn_saved, shift, alpha: float):
        self._xhat, _, self._scale = bn_saved
        self._shift, self._alpha = shift, alpha
        self.shape, self.dtype = self._xhat.shape, self._xhat.dtype

    def __getitem__(self, blk) -> np.ndarray:
        xhat = self._xhat[blk]
        z = _bn_affine(xhat, self._scale, self._shift, np.empty_like(xhat))
        return leaky_relu(z, self._alpha)


def batchnorm2d_backward(saved, output_grad):
    """Gradients of :func:`batchnorm2d_forward`: ``(gx, d_scale, d_shift)``.

    ``saved`` is the forward's ``(xhat, inv_std, scale)``: the normalized
    input, ``1 / sqrt(var + eps)`` per channel and the scale. With ``g`` the
    output gradient and ``m = N*H*W``, the channel sums over [N, H, W] are
    ``d_shift = sum(g)`` and ``d_scale = sum(g * xhat)``. The batch mean and
    variance depend on x, and since the sums of ``dxhat = g * scale`` and of
    ``dxhat * xhat`` are ``scale * d_shift`` and ``scale * d_scale``,

        gx = (scale * inv_std) * (g - d_shift / m - xhat * (d_scale / m)).

    ``d_scale`` is an einsum, which makes no product temporary, and ``gx``
    is written into ``g`` itself after both sums, one sample block at a
    time. ``saved`` is never written.
    """
    xhat, inv_std, scale = saved
    if output_grad.shape != xhat.shape:
        raise ShapeError("output_grad shape must match forward input")
    c = xhat.shape[-1]
    m = xhat.size // c
    d_shift = output_grad.sum(axis=_LEADING)
    d_scale = np.einsum("ij,ij->j", output_grad.reshape(m, c), xhat.reshape(m, c))
    per_xhat, per_g, factor = d_scale / m, d_shift / m, scale * inv_std
    for blk, part in _scratch_blocks(xhat, xhat.dtype):
        gb = np.subtract(output_grad[blk], np.multiply(xhat[blk], per_xhat, out=part),
                         out=output_grad[blk])
        gb -= per_g
        gb *= factor
    return output_grad, d_scale, d_shift


# ---------------------------------------------------------------------------
# linear / global pooling
# ---------------------------------------------------------------------------

def linear_forward(x, weights, bias):
    """Affine map [N, F] @ [F, G] + [G]; saves ``x`` and ``weights``."""
    if x.ndim != 2 or weights.ndim != 2 or x.shape[1] != weights.shape[0]:
        raise ShapeError(f"linear shapes incompatible: {x.shape} @ {weights.shape}")
    if bias.shape != (weights.shape[1],):
        raise ShapeError("bias must match output width")
    return check_finite("linear", x @ weights + bias), (x, weights)


def linear_backward(saved, output_grad):
    x, weights = saved
    if output_grad.shape != (x.shape[0], weights.shape[1]):
        raise ShapeError("output_grad shape mismatch in linear backward")
    return output_grad @ weights.T, x.T @ output_grad, output_grad.sum(axis=0)


def global_avg_pool(x: np.ndarray):
    """[N, H, W, C] -> [N, C] spatial mean; saves the input shape."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool expects [N, H, W, C]")
    return x.mean(axis=(1, 2)), x.shape


def global_avg_pool_backward(saved: tuple[int, ...], output_grad: np.ndarray) -> np.ndarray:
    n, h, w, c = saved
    if output_grad.shape != (n, c):
        raise ShapeError("output_grad must be [N, C]")
    return np.broadcast_to(output_grad[:, None, None, :] / (h * w), saved).copy()
