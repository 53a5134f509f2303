"""Dense-tensor layer primitives with explicit forward and backward passes.

Activations are channels-last, ``[N, *spatial, C]``, the layout the
convolution's matmuls read; weights are ``[C_out, C_in, *kernel]``. Every
operation is a pure function of its arguments (batch normalization returns
a new state) and writes into no array it was given, since a forward may
save its caller's array for its backward pass. All arithmetic is float64.

Every layer's forward returns ``(out, saved)`` (batch normalization
``(out, new_state, saved)``), and its backward, ``backward(saved,
output_grad)``, reads nothing else: no shape, geometry, slope or weight. It
returns the input gradient, or ``(input_grad, *param_grads)`` in forward
order for a layer with parameters.

Convolutions and pools share one window machinery: ``_padded`` zero-pads
the spatial axes, or returns its input when nothing is padded, and
``_shifted`` is the view that one window offset reads. A convolution adds
``shifted input @ W[offset]`` over the kernel offsets (cross-correlation,
one BLAS matmul each), and its backward runs the same loop over the saved
padded input, so no window matrix is ever built. Kernel axes the input
lacks are folded into its channels (``channels_last``): the 3D front end's
kernel spans all frames, so it runs as a 3x3 convolution over 3 * D
channels.

One rule, ``_winograd_route(spec)``, gives a 7x7 kernel at stride 2 (the
network's stem) a second route; every other convolution runs the offset
loop. The zero-padded input is split into its four stride-2 phases,
stacked on the channel axis (K = 4 * C_in), which makes the convolution
one stride-1 convolution with a 4x4 kernel whose taps past the 7x7 are
zero. That runs as Winograd minimal filtering F(4x4, 4x4) (Lavin & Gray
2015, arXiv:1509.09308), alpha = 7, at the points 0, +-1, +-2, 1/2 and
infinity: per block of samples, the 7x7 input tiles are transformed (V =
BT d B, one matmul per axis over strided views), multiplied by the
transformed kernel (U = G W' G^T) in one batched [49, tiles, K] @ [49, K,
C_out] matmul, and transformed back (A^T M A). The kernel and output
transforms are one matmul each, by kron(G, G) and kron(A^T, A^T). That is
a quarter of the offset loop's multiplies. Tiles cover any output extent;
what they compute past it is cropped. The backward makes two passes over
the blocks: dU += V^T dM, with V recomputed from the saved phases, then
dV = dM U^T, whose adjoint transform gives the input gradient, written
block by block straight into its unpadded positions. ``saved`` holds the
phase-split padded input, which has the padded input's size, in place of
the padded input.

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
calls them with NCHW arrays; each moves the layout at both ends, which the
network never does. They fold frames by the network's one rule: a 3D
kernel's depth axis goes into the channels.
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
    padded input (``x`` itself when nothing is padded), weights and spec; on
    the Winograd route, the phase-split padded input, weights, spec and the
    input's spatial extents.
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
    if _winograd_route(spec):
        if nf:
            raise ShapeError(f"a 7x7 stride-2 convolution takes [N, H, W, C], got {x.shape}")
        return _winograd_forward(x, weights, bias, spec, out_sp)
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
    by its offset loop again (or its Winograd route). With
    ``want_input_grad=False`` the input gradient is None and its matmuls
    are skipped; the rest is the same.
    """
    if _winograd_route(saved[2]):
        return _winograd_backward(saved, output_grad, want_input_grad)
    xs, weights, spec = saved
    nf = spec.ndim - (xs.ndim - 2)
    pads = spec.padding[nf:]
    in_sp = tuple(e - 2 * p for e, p in zip(xs.shape[1:-1], pads))
    out_sp = spec.out_extents((*spec.kernel[:nf], *in_sp))[nf:]
    n, c, c_out = xs.shape[0], xs.shape[-1], spec.out_channels
    _check_output_grad(output_grad, (n, *out_sp, c_out))
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


def _check_output_grad(output_grad, want):
    if output_grad.shape != want:
        raise ShapeError(f"output_grad {output_grad.shape} does not match forward output {want}")


# ---------------------------------------------------------------------------
# the Winograd route of the 7x7 stride-2 convolution
# ---------------------------------------------------------------------------

def _winograd_route(spec: ConvSpec) -> bool:
    """The one rule that picks a convolution's route: a 7x7 kernel at
    stride 2 runs as Winograd F(4x4, 4x4) over its four stride-2 phases,
    every other convolution as the offset loop."""
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
_WINO_B = _WINO_BT.T.copy()
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


def _phase_split(x, pads, out_sp) -> np.ndarray:
    """[N, H, W, C] -> [N, OH + 3, OW + 3, 4 * C]: the zero-padded input's
    four stride-2 phases, stacked on the channel axis as (a, b, c) for padded
    position (2r + a, 2s + b). OH + 3 = ceil((H + 2 * pad) / 2), so this has
    the padded input's size."""
    n, h, w, c = x.shape
    q = np.zeros((n, out_sp[0] + _PHASE_KERNEL - 1, out_sp[1] + _PHASE_KERNEL - 1, 2, 2, c))
    for a, (qr, xr) in enumerate(_phase_slices(pads[0], h)):
        for b, (qc, xc) in enumerate(_phase_slices(pads[1], w)):
            q[:, qr, qc, a, b] = x[:, xr, xc]
    return q.reshape(*q.shape[:3], 4 * c)


def _transformed_kernels(weights) -> np.ndarray:
    """U^T, [49, C_out, 4 * C_in], of U = G W' G^T for the phase kernel
    W'[p, q, (a, b, c), o] = w[o, c, 2p + a, 2q + b], which is zero past
    tap 6. Stored transposed: the input gradient's dM @ U^T runs faster on
    it, and the forward's V @ U as fast."""
    c_out, c_in = weights.shape[:2]
    wp = np.zeros((_PHASE_KERNEL, _PHASE_KERNEL, c_out, 2, 2, c_in))
    for a, b in np.ndindex(2, 2):
        taps = weights[:, :, a::2, b::2].transpose(2, 3, 0, 1)
        wp[: taps.shape[0], : taps.shape[1], :, a, b] = taps
    return (_WINO_GG @ wp.reshape(_PHASE_KERNEL**2, -1)).reshape(_ALPHA**2, c_out, 4 * c_in)


def _phase_kernel_grad(d_u, weights_shape) -> np.ndarray:
    """The weight gradient from dU [49, K, C_out]: dW' = G^T dU G, read back
    at the 7x7 taps."""
    c_out, c_in = weights_shape[:2]
    d_wp = (_WINO_GG.T @ d_u.reshape(_ALPHA**2, -1)).reshape(
        _PHASE_KERNEL, _PHASE_KERNEL, 2, 2, c_in, c_out)
    d_weights = np.empty(weights_shape)
    for a, b in np.ndindex(2, 2):
        taps = d_weights[:, :, a::2, b::2]
        taps[...] = d_wp[: taps.shape[2], : taps.shape[3], a, b].transpose(3, 2, 0, 1)
    return d_weights


def _overlap_add(out, parts, axis: int) -> None:
    """``out`` along ``axis`` (extent 4t + 3) = the sum of t 7-long tiles at
    stride 4, ``parts[v]`` holding offset v of every tile: the first four
    offsets are written, the last three added, in offset order."""
    t = parts[0].shape[axis]
    at = (slice(None),) * axis
    for v, part in enumerate(parts):
        if v == _TILE:
            out[at + (slice(_TILE * t, None),)] = 0.0
        window = out[at + (slice(v, v + _TILE * t, _TILE),)]
        if v < _TILE:
            window[...] = part
        else:
            window += part


def _windows(x, axis: int, count: int) -> np.ndarray:
    """The view of ``x`` with ``count`` 7-long tiles at stride 4 along
    ``axis``: that axis becomes (tile, offset)."""
    view = np.lib.stride_tricks.sliding_window_view(x, _ALPHA, axis=axis)
    view = view[(slice(None),) * axis + (slice(None, _TILE * count, _TILE),)]
    return np.moveaxis(view, -1, axis + 1)


# Bytes of one block's transformed tiles V, [49, tiles, K]; the route's
# buffers hold about three times this per stream.
_WINOGRAD_BLOCK_BYTES = 2 << 20


class _Tiles:
    """The route's tiles for blocks of samples, and the buffers of their
    transforms. Tile (n, ti, tj) reads phase rows 4ti .. 4ti + 6 and columns
    4tj .. 4tj + 6 and gives output rows 4ti .. 4ti + 3 and columns 4tj ..
    4tj + 3; past the saved phases it reads zeros, and past the output
    extent its outputs are cropped. Both transforms are matmuls over strided
    views: one [7, 7] @ [7, row] per tile row, one [7, 7] @ [7, K] per
    tile and row offset."""

    def __init__(self, q, out_sp):
        n, k = q.shape[0], q.shape[-1]
        self.th, self.tw = (-(-e // _TILE) for e in out_sp)
        self.ext = (_TILE * self.th + _ALPHA - _TILE, _TILE * self.tw + _ALPHA - _TILE)
        step = max(1, _WINOGRAD_BLOCK_BYTES // (_ALPHA**2 * self.th * self.tw * k * q.itemsize))
        self.blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
        block = self.blocks[0].stop
        self.rows = np.empty((block, self.th, _ALPHA, self.ext[1], k))  # BT d per tile row
        self.v = np.empty((_ALPHA, _ALPHA, block, self.th, self.tw, k))
        self.cols = self.q = None  # allocated on first use

    def _phase_buffer(self, m):
        """A [m, *ext, K] buffer for a block's phases or their gradient."""
        if self.q is None:
            self.q = np.empty((self.blocks[0].stop, *self.ext, self.rows.shape[-1]))
        return self.q[:m]

    def v_buffer(self, m) -> np.ndarray:
        """The buffer of a block's V (or dV), [49, tiles, K]."""
        return self.v[:, :, :m].reshape(_ALPHA**2, -1, self.v.shape[-1])

    def transform(self, qb) -> np.ndarray:
        """V = BT d B of each 7x7 tile d of the block's phases ``qb``, as
        [49, tiles, K]."""
        m = qb.shape[0]
        if qb.shape[1:3] != self.ext:
            buf = self._phase_buffer(m)
            buf[...] = 0.0
            buf[:, : qb.shape[1], : qb.shape[2]] = qb
            qb = buf
        rows = self.rows[:m]
        np.matmul(_WINO_BT, _windows(qb, 1, self.th).reshape(m, self.th, _ALPHA, -1),
                  out=rows.reshape(m, self.th, _ALPHA, -1))
        np.matmul(_WINO_BT, _windows(rows, 3, self.tw),
                  out=self.v[:, :, :m].transpose(2, 3, 0, 4, 1, 5))
        return self.v_buffer(m)

    def adjoint(self, d_v) -> np.ndarray:
        """The block's phase gradient at the tile extent, [m, *ext, K], from
        the gradient ``d_v`` [49, tiles, K] of its V: ``transform``'s steps
        reversed, B dV BT per tile, the tiles' overlapping columns and rows
        added."""
        th, tw, k = self.th, self.tw, d_v.shape[-1]
        m = d_v.shape[1] // (th * tw)
        if self.cols is None:
            self.cols = np.empty((self.blocks[0].stop, th, _ALPHA, tw, _ALPHA, k))
        cols, rows = self.cols[:m], self.rows[:m]
        np.matmul(_WINO_B, d_v.reshape(_ALPHA, _ALPHA, m, th, tw, k).transpose(2, 3, 0, 4, 1, 5),
                  out=cols)
        _overlap_add(rows, [cols[:, :, :, :, v] for v in range(_ALPHA)], 3)
        d_rows = self.cols.reshape(-1)[: rows.size].reshape(m, th, _ALPHA, -1)  # cols is spent
        np.matmul(_WINO_B, rows.reshape(m, th, _ALPHA, -1), out=d_rows)
        d_rows = d_rows.reshape(rows.shape)
        d_q = self._phase_buffer(m)
        _overlap_add(d_q, [d_rows[:, :, v] for v in range(_ALPHA)], 1)
        return d_q


def _winograd_forward(x, weights, bias, spec, out_sp):
    """The 7x7 stride-2 convolution as one stride-1 4x4 convolution over the
    stacked phases, by Winograd F(4x4, 4x4): per block of samples, the
    tiles' transform V, one batched [49, tiles, K] @ [49, K, C_out] matmul
    with the transformed kernel U, and the output transform A^T M A."""
    q = _phase_split(x, spec.padding, out_sp)
    tiles = _Tiles(q, out_sp)
    th, tw, c_out = tiles.th, tiles.tw, spec.out_channels
    out = np.empty((x.shape[0], _TILE * th, _TILE * tw, c_out))
    prod = np.empty((_ALPHA**2, tiles.blocks[0].stop * th * tw, c_out))
    with np.errstate(invalid="ignore"):  # see the module docstring
        u = _transformed_kernels(weights).transpose(0, 2, 1)
        for blk in tiles.blocks:
            m = blk.stop - blk.start
            mm = np.matmul(tiles.transform(q[blk]), u, out=prod[:, : m * th * tw])
            y = (_WINO_AA @ mm.reshape(_ALPHA**2, -1)).reshape(_TILE, _TILE, m, th, tw, c_out)
            out[blk].reshape(m, th, _TILE, tw, _TILE, c_out)[...] = y.transpose(2, 3, 0, 4, 1, 5)
        if out.shape[1:3] != out_sp:
            out = np.ascontiguousarray(out[:, : out_sp[0], : out_sp[1]])
        out += bias
    check_finite("conv forward", out)
    return out, (q, weights, spec, x.shape[1:3])


def _winograd_backward(saved, output_grad, want_input_grad):
    """Two passes over the blocks, so that dU and U are never held at once.
    Both start from dM = A dY A^T of the zero-padded output gradient's
    tiles. The weights' pass adds dU += V^T dM, with V recomputed from the
    saved phases. The input gradient's pass takes dV = dM U^T, whose
    adjoint transform gives the block's phase gradient, written straight
    into the input gradient's positions."""
    q, weights, spec, in_sp = saved
    out_sp = spec.out_extents(in_sp)
    k, c_out = q.shape[-1], spec.out_channels
    _check_output_grad(output_grad, (q.shape[0], *out_sp, c_out))
    tiles = _Tiles(q, out_sp)
    th, tw, block = tiles.th, tiles.tw, tiles.blocks[0].stop
    g = output_grad
    if g.shape[1:3] != (_TILE * th, _TILE * tw):
        g = np.pad(g, [(0, 0), (0, _TILE * th - out_sp[0]), (0, _TILE * tw - out_sp[1]), (0, 0)])
    g_tiles = np.empty((_TILE, _TILE, block, th, tw, c_out))
    d_m_buf = np.empty((_ALPHA**2, block * th * tw, c_out))

    def d_m(blk):
        m = blk.stop - blk.start
        g_blk = g_tiles[:, :, :m]
        g_blk[...] = g[blk].reshape(m, th, _TILE, tw, _TILE, c_out).transpose(2, 4, 0, 1, 3, 5)
        out = d_m_buf[:, : m * th * tw]
        np.matmul(_WINO_AA.T, g_blk.reshape(_TILE**2, -1), out=out.reshape(_ALPHA**2, -1))
        return out

    gx = None
    with np.errstate(invalid="ignore"):  # see the module docstring
        d_u = np.zeros((_ALPHA**2, k, c_out))
        d_u_part = np.empty((_ALPHA, k, c_out))  # one row of dU at a time stays in cache
        for blk in tiles.blocks:
            d_m_blk, v = d_m(blk), tiles.transform(q[blk])
            for lo in range(0, _ALPHA**2, _ALPHA):
                row = slice(lo, lo + _ALPHA)
                d_u[row] += np.matmul(v[row].transpose(0, 2, 1), d_m_blk[row], out=d_u_part)
        d_weights = _phase_kernel_grad(d_u, weights.shape)
        del d_u, d_u_part
        if want_input_grad:
            u_t = _transformed_kernels(weights)
            gx = np.empty((q.shape[0], *in_sp, weights.shape[1]))
            phases = [(a, b, qr, qc, xr, xc)
                      for a, (qr, xr) in enumerate(_phase_slices(spec.padding[0], in_sp[0]))
                      for b, (qc, xc) in enumerate(_phase_slices(spec.padding[1], in_sp[1]))]
            for blk in tiles.blocks:
                m = blk.stop - blk.start
                d_q = tiles.adjoint(np.matmul(d_m(blk), u_t, out=tiles.v_buffer(m)))
                d_q = d_q.reshape(m, *tiles.ext, 2, 2, -1)
                for a, b, qr, qc, xr, xc in phases:
                    gx[blk, xr, xc] = d_q[:, qr, qc, a, b]
    d_bias = output_grad.reshape(-1, c_out).sum(axis=0)
    return gx, d_weights, d_bias


def _conv_forward(x, weights, bias, spec, return_cols=False):
    """NCHW adapter: ``conv_forward`` of ``x`` [N, C_in, *spatial], the
    output [N, C_out, *out_spatial]; with ``return_cols`` also what it saved.
    A 3D kernel's depth axis folds into the channels (``channels_last(x,
    spec.ndim - 2)``), as the network folds its front end's frames, so the
    kernel must span the input's depth."""
    out_sp = spec.out_extents(x.shape[2:])
    out, saved = conv_forward(channels_last(x, spec.ndim - 2), weights, bias, spec)
    out = np.ascontiguousarray(np.moveaxis(out, -1, 1)).reshape(x.shape[0], spec.out_channels, *out_sp)
    return (out, saved) if return_cols else out


conv2d_forward = conv3d_forward = _conv_forward


def _conv_backward(x, weights, spec, output_grad, cols):
    """NCHW adapter: ``conv_backward`` of ``cols``, what ``_conv_forward(x,
    weights, ..., spec, return_cols=True)`` saved, with an NCHW output
    gradient; the input gradient comes back shaped like ``x``."""
    gx, d_weights, d_bias = conv_backward(cols, channels_last(output_grad, spec.ndim - 2))
    return np.ascontiguousarray(np.moveaxis(gx, -1, 1)).reshape(x.shape), d_weights, d_bias


# ---------------------------------------------------------------------------
# activation
# ---------------------------------------------------------------------------

def leaky_relu_forward(x: np.ndarray, alpha: float):
    """Elementwise x if x > 0 else alpha * x; saves the mask x > 0 and alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"leaky ReLU slope must lie in (0, 1), got {alpha}")
    positive = x > 0
    return check_finite("leaky_relu", np.where(positive, x, alpha * x)), (positive, alpha)


def leaky_relu_backward(saved, output_grad: np.ndarray) -> np.ndarray:
    """Slope 1 where x > 0, alpha where x <= 0 (boundary follows the
    forward branch assignment)."""
    positive, alpha = saved
    if positive.shape != output_grad.shape:
        raise ShapeError("output_grad shape must match input")
    out = np.asarray(output_grad * alpha)  # a 0-d array, not a scalar, for 0-d input
    np.copyto(out, output_grad, where=positive)  # output_grad * 1.0, bit for bit
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


def max_pool2d(x, window: int, stride: int, pad: int):
    """Max over each window. Saves the input shape, geometry and the offset
    of each maximum in its window (row-major, the first one on ties)."""
    _, views = _pool_windows(x, window, stride, pad)
    out = views[0].copy()
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(window * window - 1))
    better = np.empty(out.shape, dtype=bool)
    for k, view in enumerate(views[1:], 1):
        np.greater(view, out, out=better)
        np.copyto(argmax, k, where=better)
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
    mode normalizes with the running stats. Returns ``(out, new_state,
    saved)``; ``saved`` is the normalized input, the inverse deviations,
    ``scale`` and the mode.
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
    return out, new_state, (xhat, inv_std, scale, mode)


def batchnorm2d_backward(saved, output_grad):
    xhat, inv_std, scale, mode = saved
    if output_grad.shape != xhat.shape:
        raise ShapeError("output_grad shape must match forward input")
    d_scale = (output_grad * xhat).sum(axis=_LEADING)
    d_shift = output_grad.sum(axis=_LEADING)
    dxhat = output_grad * scale
    # The input gradient is built in dxhat's buffer, with the operations and
    # their order of (inv_std / m) * (m * dxhat - sum_d - xhat * sum_dx).
    if mode == "train":
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
