"""Forward-pass contracts for the layer primitives: trivial identities,
brute-force loop-oracle equivalence, shape/linearity properties, and bitwise
equality of the branch-free ops with their earlier masked formulas."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpnn import ops
from fpnn.errors import NonFiniteError, ShapeError

from oracles import (
    avg_pool_loop,
    batchnorm_backward_closed_form,
    batchnorm_forward_twice_mean,
    conv2d_loop,
    conv3d_loop,
    leaky_relu_backward_masked,
    leaky_relu_masked,
    max_pool_backward_masked,
    max_pool_loop,
    max_pool_masked,
    nchw,
    nhwc,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConvSpec:
    def test_output_extent_formula(self):
        spec = ops.ConvSpec((3, 3), (2, 2), (1, 1), 1, 1)
        assert spec.out_extents((32, 32)) == (16, 16)

    def test_nonpositive_output_rejected(self):
        spec = ops.ConvSpec((5, 5), (1, 1), (0, 0), 1, 1)
        with pytest.raises(ShapeError):
            spec.out_extents((4, 4))

    def test_bad_geometry_rejected(self):
        with pytest.raises(ShapeError):
            ops.ConvSpec((0, 3), (1, 1), (0, 0), 1, 1)
        with pytest.raises(ShapeError):
            ops.ConvSpec((3, 3), (1, 1), (-1, 0), 1, 1)
        with pytest.raises(ShapeError):
            ops.ConvSpec((3, 3), (1,), (0, 0), 1, 1)

    @pytest.mark.parametrize("kernel,pad", [
        ((7, 7), (7, 7)),
        ((3, 3), (3, 3)),
        ((2, 3, 3), (2, 1, 1)),
    ], ids=["stem-pad7", "3x3-pad3", "depth-pad2"])
    def test_pad_reaching_the_kernel_rejected(self, kernel, pad):
        """A pad as large as its kernel extent on any axis is rejected, so no
        input gradient's pad, k - 1 - p, is negative."""
        with pytest.raises(ShapeError, match="below the kernel"):
            ops.ConvSpec(kernel, (1,) * len(kernel), pad, 1, 1)

    @given(
        n=st.integers(1, 24),
        k=st.integers(1, 7),
        s=st.integers(1, 4),
        p=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_extent_matches_enumeration(self, n, k, s, p):
        """The closed-form extent equals counting valid window positions,
        for pads below the kernel."""
        assume(p < k)
        positions = sum(
            1 for start in range(0, n + 2 * p - k + 1) if start % s == 0
        )
        spec = ops.ConvSpec((k, k), (s, s), (p, p), 1, 1)
        if positions < 1:
            with pytest.raises(ShapeError):
                spec.out_extents((n, n))
        else:
            assert spec.out_extents((n, n))[0] == positions


def per_sample(oracle, x, *args):
    """An unbatched [C, ...] loop oracle applied to each sample of a batch."""
    return np.stack([oracle(xi, *args) for xi in x])


def conv_nchw(x, w, spec):
    """``conv_forward`` with NCHW arrays at the boundary; no axis folds into
    the channels, so a 3D kernel runs as a 3D convolution."""
    return nchw(ops.conv_forward(nhwc(x), w, spec)[0])


class TestConv2d:
    def test_scaling_identity(self):
        x = np.ones((1, 1, 3, 3))
        w = np.full((1, 1, 1, 1), 2.0)
        spec = ops.ConvSpec((1, 1), (1, 1), (0, 0), 1, 1)
        out = conv_nchw(x, w, spec)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_array_equal(out, np.full((1, 1, 3, 3), 2.0))

    def test_full_window_sum(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = np.ones((1, 1, 2, 2))
        spec = ops.ConvSpec((2, 2), (1, 1), (0, 0), 1, 1)
        out = conv_nchw(x, w, spec)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 10.0

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 3, 4)
        got = conv_nchw(x, w, spec)
        want = per_sample(conv2d_loop, x, w, np.zeros(4), (1, 1), (1, 1))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride,pad", [(1, 0)])
    def test_loop_oracle_strided(self, rng, stride, pad):
        x = rng.standard_normal((2, 2, 9, 7))
        w = rng.standard_normal((3, 2, 3, 2))
        spec = ops.ConvSpec((3, 2), (stride, stride), (pad, pad), 2, 3)
        got = conv_nchw(x, w, spec)
        want = per_sample(conv2d_loop, x, w, np.zeros(3), (stride, stride), (pad, pad))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_linearity(self, rng):
        w = rng.standard_normal((4, 2, 3, 3))
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 2, 4)
        x = rng.standard_normal((2, 2, 6, 6))
        y = rng.standard_normal((2, 2, 6, 6))
        a, c = 1.7, -0.4
        lhs = conv_nchw(a * x + c * y, w, spec)
        rhs = a * conv_nchw(x, w, spec) + c * conv_nchw(y, w, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10, rtol=0)

    def test_deterministic(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
        a = conv_nchw(x, w, spec)
        c = conv_nchw(x.copy(), w.copy(), spec)
        assert np.array_equal(a, c)

    def test_shape_mismatch_rejected(self, rng):
        spec = ops.ConvSpec((3, 3), (1, 1), (0, 0), 2, 4)
        with pytest.raises(ShapeError):
            conv_nchw(rng.standard_normal((1, 3, 5, 5)),
                      rng.standard_normal((4, 2, 3, 3)), spec)
        with pytest.raises(ShapeError):
            conv_nchw(rng.standard_normal((1, 2, 5, 5)),
                      rng.standard_normal((4, 2, 2, 3)), spec)
        with pytest.raises(ShapeError):  # a batch axis is required
            conv_nchw(rng.standard_normal((2, 5, 5)),
                      rng.standard_normal((4, 2, 3, 3)), spec)

    @pytest.mark.parametrize("kernel,stride,pad", [
        ((3, 3), (2, 2), (1, 1)),
        ((1, 1), (2, 2), (0, 0)),
        ((2, 3, 3), (1, 2, 1), (0, 1, 1)),
    ], ids=["3x3-stride2", "1x1-stride2", "3d-stride121"])
    def test_strided_offset_conv_rejected(self, rng, kernel, stride, pad):
        """Only the 7x7 stride-2 stem strides: any other strided spec is a
        ShapeError naming the spec."""
        spec = ops.ConvSpec(kernel, stride, pad, 2, 3)
        assert not ops._winograd_route(spec)
        x = rng.standard_normal((2, *(6,) * len(kernel), 2))
        with pytest.raises(ShapeError, match=re.escape(str(spec))):
            ops.conv_forward(x, rng.standard_normal(spec.weight_shape()), spec)

    def test_nonfinite_rejected(self):
        spec = ops.ConvSpec((1, 1), (1, 1), (0, 0), 1, 1)
        x = np.full((1, 1, 2, 2), np.inf)
        with pytest.raises(NonFiniteError):
            conv_nchw(x, np.ones((1, 1, 1, 1)), spec)

    def test_stem_geometry_matches_loop_oracle(self, rng):
        # the network's 7x7 stride-2 pad-3 stem on an even input: the last
        # padded row and column are never read
        x = rng.standard_normal((2, 3, 10, 10))
        w = rng.standard_normal((4, 3, 7, 7))
        got = stem_conv(x, w)
        assert got.shape == (2, 4, 5, 5)
        np.testing.assert_allclose(got, per_sample(conv2d_loop, x, w, np.zeros(4), (2, 2), (3, 3)),
                                   atol=1e-12, rtol=0)

    def test_backward_holds_one_input_sized_array(self, rng):
        """A 3x3 64 -> 16 backward on [16, 16, 16, 64] holds its input
        gradient and less than another array of its size at any time: the
        input gradient is the forward loop over the padded output gradient,
        with no scatter-add into an input-sized buffer."""
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 64, 16)
        x = rng.standard_normal((16, 16, 16, 64))
        out, saved = ops.conv_forward(x, rng.standard_normal(spec.weight_shape()), spec)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            gx = ops.conv_backward(saved, g)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and peak < 2 * gx.nbytes

    @pytest.mark.parametrize("shape,kernel,stride,pad", [
        ((6, 5, 5), (1, 1), (1, 1), (0, 0)),
        ((3, 6, 6), (3, 3), (1, 1), (1, 1)),
        ((3, 4, 6, 6), (4, 3, 3), (1, 1, 1), (0, 1, 1)),
    ], ids=["1x1", "3x3", "front"])
    def test_float32_input_keeps_its_dtype(self, rng, shape, kernel, stride, pad):
        """The offset loop's arrays take the input's dtype: float32 inputs
        and weights give a float32 output and float32 gradients, within
        float32 rounding of the float64 ones."""
        x = ops.channels_last(rng.standard_normal((2, *shape)), len(kernel) - 2)
        spec = ops.ConvSpec(kernel, stride, pad, shape[0], 5)
        w = rng.standard_normal(spec.weight_shape())
        g = rng.standard_normal(ops.conv_forward(x, w, spec)[0].shape)
        results = []
        for dtype in (np.float32, np.float64):
            out, saved = ops.conv_forward(x.astype(dtype), w.astype(dtype), spec)
            results.append((out, *ops.conv_backward(saved, g.astype(dtype))))
        assert [a.dtype for a in results[0]] == [np.float32] * 3
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())


def stem_conv(x, w, pad=3):
    """The 7x7 stride-2 convolution of NCHW ``x``, asserting that it took
    the Winograd route, which saves its input itself, unpadded."""
    spec = ops.ConvSpec((7, 7), (2, 2), (pad, pad), w.shape[1], w.shape[0])
    assert ops._winograd_route(spec)
    x = nhwc(x)
    out, saved = ops.conv_forward(x, w, spec)
    assert saved[0] is x
    return nchw(out)


class TestWinogradStem:
    """The 7x7 stride-2 route: the four stride-2 phases of the padded input,
    convolved by Winograd F(4x4, 4x4)."""

    @pytest.mark.parametrize("h,w_,pad", [(8, 8, 3), (16, 16, 3), (32, 32, 3), (9, 13, 3),
                                          (11, 7, 0), (12, 9, 5), (10, 9, 6)])
    def test_matches_loop_oracle(self, rng, h, w_, pad):
        """Output extents 4, 8, 16 and odd ones, so tiles overhang and are
        cropped; C_in != C_out; pads up to 6, the largest below the kernel.
        TestConv2d has input 10."""
        n = 1 if h == 32 else 2
        x = rng.standard_normal((n, 3, h, w_))
        w = rng.standard_normal((4, 3, 7, 7))
        np.testing.assert_allclose(stem_conv(x, w, pad),
                                   per_sample(conv2d_loop, x, w, np.zeros(4), (2, 2), (pad, pad)),
                                   atol=1e-12, rtol=0)

    def test_folded_input_rejected(self, rng):
        """The route takes [N, H, W, C] only: no kernel axis folds into the
        channels."""
        spec = ops.ConvSpec((7, 7), (2, 2), (0, 0), 2, 3)
        with pytest.raises(ShapeError):
            ops.conv_forward(rng.standard_normal((2, 9, 14)), rng.standard_normal((3, 2, 7, 7)),
                             spec)

    def test_transform_matrices_compute_correlation(self):
        """A^T [(G g) * (BT d)] is the correlation y[i] = sum_k d[i + k] g[k]
        of integer vectors, to rounding."""
        a, g_mat, bt = ops._WINO_A, ops._WINO_G, ops._WINO_BT
        assert a.shape == (7, 4) and g_mat.shape == (7, 4) and bt.shape == (7, 7)
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = rng.integers(-9, 10, 7).astype(float)
            g = rng.integers(-9, 10, 4).astype(float)
            want = np.array([d[i:i + 4] @ g for i in range(4)])
            got = a.T @ ((g_mat @ g) * (bt @ d))
            np.testing.assert_allclose(got, want, atol=1e-11, rtol=0)
            assert np.array_equal(np.rint(got), want)

    @pytest.mark.parametrize("n,c_in,c_out", [(3, 64, 64), (7, 16, 24)])
    def test_within_stated_tolerance_of_direct_sum(self, rng, n, c_in, c_out):
        """At the network's stem geometry (32x32, 64 -> 64 channels, one
        sample per block) and at 16 -> 24 channels (blocks of five samples,
        the last one short), the output and the input and weight gradients
        are within 1e-13 of their largest magnitude of the direct sum over
        the 49 kernel offsets."""
        x = rng.standard_normal((n, 32, 32, c_in))
        w = rng.standard_normal((c_out, c_in, 7, 7)) * 0.02
        spec = ops.ConvSpec((7, 7), (2, 2), (3, 3), c_in, c_out)
        out, saved = ops.conv_forward(x, w, spec)
        g = rng.standard_normal(out.shape)
        gx, gw = ops.conv_backward(saved, g)

        xp = np.pad(x, [(0, 0), (3, 3), (3, 3), (0, 0)])
        want, want_gx, want_gw = np.zeros_like(out), np.zeros_like(xp), np.empty_like(w)
        for u, v in np.ndindex(7, 7):
            window = (slice(None), slice(u, u + 31, 2), slice(v, v + 31, 2))
            want += xp[window] @ w[:, :, u, v].T
            want_gx[window] += g @ w[:, :, u, v]
            want_gw[:, :, u, v] = np.einsum("nijc,nijo->oc", xp[window], g)
        want_gx = want_gx[:, 3:-3, 3:-3]
        for got, ref in ((out, want), (gx, want_gx), (gw, want_gw)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_forward_peak_memory(self, rng):
        """At the stem's [16, 32, 32, 64] -> 64 the forward holds at most
        14.5 MiB at any time (13.4 MiB measured): the 4 MiB output, the
        6.1 MiB transformed kernel and one block's buffers. A phase-split
        copy of the whole padded batch (11.3 MiB) does not fit beside them."""
        spec = ops.ConvSpec((7, 7), (2, 2), (3, 3), 64, 64)
        x = rng.standard_normal((16, 32, 32, 64))
        w = rng.standard_normal(spec.weight_shape()) * 0.02
        assert self.traced_peak(lambda: ops.conv_forward(x, w, spec)) <= 14.5 * 2**20

    def test_backward_peak_memory(self, rng):
        """At the stem's [16, 32, 32, 64] -> 64 the backward holds at most
        15 MiB at any time (14.1 MiB measured): the 8 MiB input gradient,
        the 1.5 MiB weight gradient, one phase's 1.5 MiB transformed kernel
        and one block's buffers. The weight pass holds all four phases' dU
        (6.1 MiB), which fit because they are freed before the input
        gradient is made; all four phases' U^T beside it would not fit."""
        spec = ops.ConvSpec((7, 7), (2, 2), (3, 3), 64, 64)
        x = rng.standard_normal((16, 32, 32, 64))
        out, saved = ops.conv_forward(x, rng.standard_normal(spec.weight_shape()) * 0.02, spec)
        g = rng.standard_normal(out.shape)
        assert self.traced_peak(lambda: ops.conv_backward(saved, g)) <= 15 * 2**20

    def test_float32_input_keeps_its_dtype(self, rng):
        """The route's buffers take the input's dtype: a float32 forward
        and backward return float32 arrays."""
        spec = ops.ConvSpec((7, 7), (2, 2), (3, 3), 4, 5)
        x = rng.standard_normal((3, 16, 16, 4)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        out, saved = ops.conv_forward(x, w, spec)
        grads = ops.conv_backward(saved, rng.standard_normal(out.shape).astype(np.float32))
        assert [a.dtype for a in (out, *grads)] == [np.float32] * 3


class TestConv3d:
    def test_depth_sum(self):
        x = np.zeros((1, 1, 2, 1, 1))
        x[0, 0, 0, 0, 0], x[0, 0, 1, 0, 0] = 3.0, 4.0
        w = np.ones((1, 1, 2, 1, 1))
        spec = ops.ConvSpec((2, 1, 1), (1, 1, 1), (0, 0, 0), 1, 1)
        out = conv_nchw(x, w, spec)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out[0, 0, 0, 0, 0] == 7.0

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((2, 1, 1, 4, 4))
        w = np.ones((1, 1, 1, 1, 1))
        spec = ops.ConvSpec((1, 1, 1), (1, 1, 1), (0, 0, 0), 1, 1)
        np.testing.assert_array_equal(conv_nchw(x, w, spec), x)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 6, 6))
        w = rng.standard_normal((8, 3, 4, 3, 3))
        spec = ops.ConvSpec((4, 3, 3), (1, 1, 1), (0, 1, 1), 3, 8)
        got = conv_nchw(x, w, spec)
        want = per_sample(conv3d_loop, x, w, np.zeros(8), (1, 1, 1), (0, 1, 1))
        assert got.shape == (2, 8, 1, 6, 6)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_short_depth_kernel_matches_loop_oracle(self, rng):
        # kernel depth < input depth: no axis folds into channels
        x = rng.standard_normal((2, 2, 5, 6, 6))
        w = rng.standard_normal((3, 2, 2, 3, 3))
        spec = ops.ConvSpec((2, 3, 3), (1, 1, 1), (0, 1, 1), 2, 3)
        got = conv_nchw(x, w, spec)
        assert got.shape == (2, 3, 4, 6, 6)
        np.testing.assert_allclose(got, per_sample(conv3d_loop, x, w, np.zeros(3), (1, 1, 1),
                                                   (0, 1, 1)),
                                   atol=1e-12, rtol=0)

    def test_full_depth_kernel_collapses_depth(self, rng):
        x = rng.standard_normal((2, 2, 3, 5, 5))
        w = rng.standard_normal((4, 2, 3, 3, 3))
        spec = ops.ConvSpec((3, 3, 3), (1, 1, 1), (0, 1, 1), 2, 4)
        out = conv_nchw(x, w, spec)
        assert out.shape == (2, 4, 1, 5, 5)

    def test_front_forward_peak_memory(self, rng):
        """The 3D front end on [16, 32, 32, 12] (3 channels x 4 frames,
        the network's non-contiguous fold) -> 64 holds its 8 MiB output and
        at most 1.25 MiB more at any time (1.0 MiB measured): each sample
        block is padded as it is read, so no padded copy of the batch (1.7
        MiB) is built."""
        spec = ops.ConvSpec((4, 3, 3), (1, 1, 1), (0, 1, 1), 3, 64)
        x = ops.channels_last(rng.standard_normal((16, 3, 4, 32, 32)), 1)
        w = rng.standard_normal(spec.weight_shape())
        tracemalloc.start()
        try:
            out = ops.conv_forward(x, w, spec)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 1.25 * 2**20


class TestLayoutBoundary:
    """The NCHW adapters give the channels-last convolution's numbers bit
    for bit, forward (plus the bias the forward adapter adds) and backward,
    at the network's conv geometries."""

    @pytest.mark.parametrize("shape,kernel,stride,pad", [
        ((4, 10, 10), (7, 7), (2, 2), (3, 3)),  # stem
        ((3, 6, 6), (3, 3), (1, 1), (1, 1)),  # inception 3x3
        ((6, 5, 5), (1, 1), (1, 1), (0, 0)),  # inception 1x1
        ((3, 4, 6, 6), (4, 3, 3), (1, 1, 1), (0, 1, 1)),  # 3D front end, frames folded
    ], ids=["stem", "3x3", "1x1", "front"])
    def test_adapters_equal_channels_last_conv_bitwise(self, rng, shape, kernel, stride, pad):
        x = rng.standard_normal((2, *shape))
        spec = ops.ConvSpec(kernel, stride, pad, shape[0], 5)
        w, b = rng.standard_normal(spec.weight_shape()), rng.standard_normal(5)
        folded = nhwc(x.reshape(2, -1, *shape[-2:]))  # frames into channels, c * depth + d
        out, saved = ops.conv_forward(folded, w, spec)
        adapter = ops.conv3d_forward if len(kernel) == 3 else ops.conv2d_forward
        out_nchw, cols = ops._conv_forward(x, w, b, spec, return_cols=True)
        want = nchw(out).reshape(out_nchw.shape) + b.reshape(-1, *(1,) * (len(kernel)))
        assert out_nchw.tobytes() == want.tobytes()
        assert adapter(x, w, b, spec).tobytes() == want.tobytes()

        g = rng.standard_normal(out.shape)
        gx, gw = ops.conv_backward(saved, g)
        a_x, a_w = ops._conv_backward(x, w, spec, nchw(g).reshape(out_nchw.shape), cols)
        assert a_x.tobytes() == nchw(gx).reshape(x.shape).tobytes()
        assert a_w.tobytes() == gw.tobytes()


class TestLeakyRelu:
    def test_positive_branch(self):
        assert ops.leaky_relu_forward(np.array(2.0), 0.01)[0] == 2.0

    def test_negative_branch(self):
        np.testing.assert_allclose(ops.leaky_relu_forward(np.array(-2.0), 0.01)[0], -0.02)

    def test_zero_goes_to_negative_branch(self):
        # boundary belongs to the alpha branch, so the value is alpha * 0 = 0
        out, saved = ops.leaky_relu_forward(np.array(0.0), 0.3)
        assert out == 0.0
        assert ops.leaky_relu_backward(saved, np.array(1.0)) == 0.3

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                ops.leaky_relu_forward(np.zeros(3), alpha)

    def test_backward_bitwise_equals_slope_product(self, rng):
        x = rng.standard_normal((4, 3, 5, 5))
        x[0, 0, 0, :3] = [0.0, -0.0, 1e-300]
        g = rng.standard_normal(x.shape)
        g_before = g.copy()
        got = ops.leaky_relu_backward(ops.leaky_relu_forward(x, 0.07)[1], g)
        assert got.tobytes() == (g * np.where(x > 0, 1.0, 0.07)).tobytes()
        assert g.tobytes() == g_before.tobytes()


class TestFloat32Activations:
    @pytest.mark.parametrize("pool", ["max", "avg"])
    def test_float32_forward_backward_keeps_its_dtype(self, rng, pool):
        """Leaky ReLU, a pool and their backwards, fed float32, return
        float32 arrays within float32 rounding of the float64 results; the
        max pool routes to the same argmax."""
        x = rng.standard_normal((3, 9, 9, 5))
        x[0, 0, 0, :3] = [0.0, -0.0, 1e-30]
        g = rng.standard_normal((3, 5, 5, 5))
        results = []
        for dtype in (np.float32, np.float64):
            a, act = ops.leaky_relu_forward(x.astype(dtype), 0.07)
            y, saved = (ops.max_pool2d if pool == "max" else ops.avg_pool2d)(a, 3, 2, 1)
            gx = ops.leaky_relu_backward(act, ops.pool2d_backward(saved, g.astype(dtype)))
            results.append((a, y, gx, saved[-1]))
        (*got, argmax32), (*want, argmax64) = results
        assert [a.dtype for a in got] == [np.float32] * 3
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-6 * np.abs(b).max())
        if pool == "max":
            assert np.array_equal(argmax32, argmax64)


class TestPooling:
    def test_avg_mean(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        assert ops.avg_pool2d(x, 2, 1, 0)[0][0, 0, 0, 0] == 2.5

    def test_avg_constant(self):
        x = np.full((1, 5, 5, 2), 3.25)
        out, _ = ops.avg_pool2d(x, 3, 2, 0)
        np.testing.assert_array_equal(out, np.full((1, 2, 2, 2), 3.25))

    def test_avg_matches_loop(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        for pad in (0, 1):
            got = nchw(ops.avg_pool2d(nhwc(x), 3, 1, pad)[0])
            np.testing.assert_allclose(got, per_sample(avg_pool_loop, x, (3, 3), 1, pad),
                                       atol=1e-12, rtol=0)

    def test_max_window(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        out, (_, _, _, _, argmax) = ops.max_pool2d(x, 2, 1, 0)
        assert out[0, 0, 0, 0] == 4.0 and argmax[0, 0, 0, 0] == 3

    def test_max_monotone_ramp(self):
        h = w = 6
        x = (np.arange(h)[:, None] + np.arange(w)[None, :]).astype(float)[None, :, :, None]
        out = ops.max_pool2d(x, 2, 1, 0)[0][0, :, :, 0]
        assert np.all(np.diff(out, axis=0) > 0)
        assert np.all(np.diff(out, axis=1) > 0)

    def test_max_matches_loop(self, rng):
        x = rng.standard_normal((2, 3, 7, 6))
        for pad in (0, 1):
            got = nchw(ops.max_pool2d(nhwc(x), 3, 2, pad)[0])
            np.testing.assert_array_equal(got, per_sample(max_pool_loop, x, (3, 3), 2, pad))

    def test_max_padding_is_zero(self):
        # an all-negative input: every window reaches into the padding and
        # takes its first zero in row-major order
        out, (_, _, _, _, argmax) = ops.max_pool2d(np.full((1, 3, 3, 1), -1.0), 3, 2, 1)
        np.testing.assert_array_equal(out, np.zeros((1, 2, 2, 1)))
        np.testing.assert_array_equal(argmax[..., 0], [[[0, 0], [0, 2]]])

    def test_max_nonfinite_rejected(self):
        x = np.zeros((1, 4, 4, 1))
        x[0, 3, 3, 0] = np.nan
        with pytest.raises(NonFiniteError):
            ops.max_pool2d(x, 3, 2, 1)

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            ops.max_pool2d(np.zeros((1, 2, 2, 1)), 3, 1, 0)
        with pytest.raises(ShapeError):
            ops.avg_pool2d(np.zeros((1, 2, 2, 1)), 3, 1, 0)
        with pytest.raises(ShapeError):  # a batch axis is required
            ops.max_pool2d(np.zeros((4, 4, 1)), 3, 1, 1)


class TestBatchNorm:
    def test_train_normalizes(self, rng):
        x = rng.standard_normal((4, 5, 5, 3)) * 5.0 + 2.0
        state = ops.BnState.initial(3)
        out, new_state, _ = ops.batchnorm2d_forward(x, np.ones(3), np.zeros(3), state)
        np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 1, 2)), 1.0, atol=1e-4)
        assert new_state is not state

    def test_constant_channel(self):
        x = np.full((2, 3, 3, 1), 7.0)
        out, _, _ = ops.batchnorm2d_forward(x, np.ones(1), np.zeros(1), ops.BnState.initial(1))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_running_stats_update(self, rng):
        x = rng.standard_normal((4, 4, 4, 2)) + 3.0
        state = ops.BnState.initial(2)
        _, new_state, _ = ops.batchnorm2d_forward(x, np.ones(2), np.zeros(2), state)
        want_mean = 0.9 * state.mean + 0.1 * x.mean(axis=(0, 1, 2))
        np.testing.assert_allclose(new_state.mean, want_mean, atol=1e-12)

    @pytest.mark.parametrize("sliced", [False, True])
    def test_backward_matches_closed_form_oracle(self, rng, sliced):
        """Each result within 1e-14 of its largest magnitude: the op reuses
        the sums it takes for the parameter gradients, in another order of
        operations than the oracle. The sliced case passes the gradient as a
        channel slice of a wider array, a view that is not contiguous."""
        c = 3
        x = rng.standard_normal((4, 5, 5, c)) * 2.0 + 1.0
        scale, shift = rng.standard_normal(c), rng.standard_normal(c)
        state = ops.BnState(rng.uniform(-1, 1, c), rng.uniform(0.5, 2, c))
        _, _, saved = ops.batchnorm2d_forward(x, scale, shift, state)
        g = rng.standard_normal((4, 5, 5, c + 3 if sliced else c))
        g = g[..., 1 : c + 1] if sliced else g
        g_before, xhat_before = g.copy(), saved[0].copy()
        got = ops.batchnorm2d_backward(saved, g)
        for have, want in zip(got, batchnorm_backward_closed_form(saved, g)):
            assert have.shape == want.shape
            assert np.abs(have - want).max() <= 1e-14 * np.abs(want).max()
        assert g.tobytes() == g_before.tobytes()
        assert saved[0].tobytes() == xhat_before.tobytes()

    def test_train_backward_makes_one_activation_sized_array(self, rng):
        """On the front unit's [16, 32, 32, 64], the backward holds no more
        than its input gradient plus 1 MiB at any time."""
        x = rng.standard_normal((16, 32, 32, 64))
        _, _, saved = ops.batchnorm2d_forward(x, np.ones(64), np.zeros(64),
                                              ops.BnState.initial(64))
        g = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            gx = ops.batchnorm2d_backward(saved, g)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gx.nbytes + 2**20

    def test_tiny_batch_rejected(self):
        with pytest.raises(ShapeError):
            ops.batchnorm2d_forward(np.zeros((1, 1, 1, 2)), np.ones(2), np.zeros(2),
                                    ops.BnState.initial(2))


class TestLinear:
    def test_identity(self, rng):
        x = rng.standard_normal((4, 5))
        out, _ = ops.linear_forward(x, np.eye(5), np.zeros(5))
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_bias_rows(self, rng):
        b = rng.standard_normal(3)
        out, _ = ops.linear_forward(rng.standard_normal((4, 5)), np.zeros((5, 3)), b)
        np.testing.assert_array_equal(out, np.tile(b, (4, 1)))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            ops.linear_forward(rng.standard_normal((4, 5)), rng.standard_normal((6, 3)), np.zeros(3))


class TestOracleSweep:
    """Randomized-shape oracle equivalence for conv and pooling."""

    def test_conv2d_random_shapes(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            c_in = int(rng.integers(1, 4))
            c_out = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            p = int(rng.integers(0, min(k, 2)))
            h = int(rng.integers(k, 9))
            w = int(rng.integers(k, 9))
            x = rng.standard_normal((2, c_in, h, w))
            wts = rng.standard_normal((c_out, c_in, k, k))
            spec = ops.ConvSpec((k, k), (1, 1), (p, p), c_in, c_out)
            np.testing.assert_allclose(
                conv_nchw(x, wts, spec),
                per_sample(conv2d_loop, x, wts, np.zeros(c_out), (1, 1), (p, p)),
                atol=1e-12, rtol=0,
            )

    def test_conv3d_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            c_in = int(rng.integers(1, 3))
            c_out = int(rng.integers(1, 4))
            kd = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            d = int(rng.integers(kd, 6))
            h = int(rng.integers(k, 7))
            w = int(rng.integers(k, 7))
            p = int(rng.integers(0, min(k, 2)))
            x = rng.standard_normal((2, c_in, d, h, w))
            wts = rng.standard_normal((c_out, c_in, kd, k, k))
            spec = ops.ConvSpec((kd, k, k), (1, 1, 1), (0, p, p), c_in, c_out)
            np.testing.assert_allclose(
                conv_nchw(x, wts, spec),
                per_sample(conv3d_loop, x, wts, np.zeros(c_out), (1, 1, 1), (0, p, p)),
                atol=1e-12, rtol=0,
            )

    def test_pool_random_shapes(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            c = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2))
            h = int(rng.integers(k, 9))
            w = int(rng.integers(k, 9))
            x = rng.standard_normal((2, c, h, w))
            np.testing.assert_allclose(
                nchw(ops.avg_pool2d(nhwc(x), k, s, p)[0]),
                per_sample(avg_pool_loop, x, (k, k), s, p), atol=1e-12, rtol=0,
            )
            np.testing.assert_array_equal(nchw(ops.max_pool2d(nhwc(x), k, s, p)[0]),
                                          per_sample(max_pool_loop, x, (k, k), s, p))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def awkward(rng, shape):
    """Normal values, a quarter of them replaced by signed zeros, signed
    subnormals and +-1 (ties in any window), with the last channel all
    negative."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    at = rng.choice(flat.size, size=flat.size // 4, replace=False)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0])
    flat[at] = specials[rng.integers(0, specials.size, at.size)]
    x[..., -1] = -np.abs(x[..., -1]) - 0.5
    return x


class TestBitwiseAgainstMaskedForms:
    """The branch-free, fewer-pass ops against their earlier formulas
    (``oracles.*_masked``, ``*_twice_mean``, ``*_temporaries``), bit for bit."""

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 0.999])
    def test_leaky_relu(self, rng, alpha):
        x, g = awkward(rng, (4, 5, 6, 7)), awkward(rng, (4, 5, 6, 7))
        out, saved = ops.leaky_relu_forward(x, alpha)
        same_bits(out, leaky_relu_masked(x, alpha))
        same_bits(ops.leaky_relu_backward(saved, g), leaky_relu_backward_masked(x, alpha, g))
        # an output gradient that is a channel slice, as the unit's split gives
        g_slice = awkward(rng, (4, 5, 6, 10))[..., 2:9]
        same_bits(ops.leaky_relu_backward(saved, g_slice),
                  leaky_relu_backward_masked(x, alpha, g_slice))

    @pytest.mark.parametrize("value", [-0.0, 0.0, 5e-324, -2.5])
    def test_leaky_relu_zero_dim(self, value):
        x, g = np.array(value), np.array(-3.0)
        out, saved = ops.leaky_relu_forward(x, 0.2)
        same_bits(out, leaky_relu_masked(x, 0.2))
        got = ops.leaky_relu_backward(saved, g)
        assert isinstance(got, np.ndarray) and got.ndim == 0
        same_bits(got, leaky_relu_backward_masked(x, 0.2, g))

    @pytest.mark.parametrize("window,stride,pad", [(3, 2, 1), (3, 1, 1), (2, 2, 0), (3, 3, 0)])
    def test_max_pool(self, rng, window, stride, pad):
        x = awkward(rng, (3, 9, 8, 4))
        x[1] = np.round(x[1])  # many ties, signed zeros among them
        out, saved = ops.max_pool2d(x, window, stride, pad)
        want, want_argmax = max_pool_masked(x, window, stride, pad)
        same_bits(out, want)
        argmax = saved[-1]
        assert argmax.dtype == want_argmax.dtype and np.array_equal(argmax, want_argmax)
        g = awkward(rng, out.shape)
        same_bits(ops.pool2d_backward(saved, g),
                  max_pool_backward_masked(x.shape, window, stride, pad, argmax, g))

    def test_max_pool_backward_of_infinite_grad(self, rng):
        """inf * 0 is nan: a gradient that reaches the non-argmax cells of a
        window as g * 0 would put nan where the masked add leaves a cell
        alone."""
        x = awkward(rng, (2, 8, 8, 3))
        out, saved = ops.max_pool2d(x, 3, 2, 1)
        g = awkward(rng, out.shape)
        g[0, 1, 1, 0], g[1, 2, 3, 2] = np.inf, -np.inf
        want = max_pool_backward_masked(x.shape, 3, 2, 1, saved[-1], g)
        assert np.isinf(want).sum() == 2 and not np.isnan(want).any()
        same_bits(ops.pool2d_backward(saved, g), want)

    @pytest.mark.parametrize("sliced", [False, True])
    def test_batchnorm(self, rng, sliced):
        c = 6
        x = awkward(rng, (4, 5, 5, c + 3 if sliced else c)) * 3.0
        x = x[..., 1 : c + 1] if sliced else x
        scale, shift = rng.standard_normal(c), rng.standard_normal(c)
        state = ops.BnState(rng.standard_normal(c), rng.uniform(0.5, 2.0, c))
        out, new_state, saved = ops.batchnorm2d_forward(x, scale, shift, state)
        want, xhat, inv_std, (mean, var) = batchnorm_forward_twice_mean(
            x, scale, shift, None, None, ops.BN_EPS)
        same_bits(out, want)
        same_bits(saved[0], xhat)
        same_bits(saved[1], inv_std)
        same_bits(new_state.mean, (1 - ops.BN_MOMENTUM) * state.mean + ops.BN_MOMENTUM * mean)
        same_bits(new_state.var, (1 - ops.BN_MOMENTUM) * state.var + ops.BN_MOMENTUM * var)
