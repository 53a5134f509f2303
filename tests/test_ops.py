"""Forward-pass contracts for the layer primitives: trivial identities,
brute-force loop-oracle equivalence, and shape/linearity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpnn import ops
from fpnn.errors import NonFiniteError, ShapeError

from oracles import avg_pool_loop, conv2d_loop, conv3d_loop, max_pool_loop, nchw, nhwc


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

    @given(
        n=st.integers(1, 24),
        k=st.integers(1, 7),
        s=st.integers(1, 4),
        p=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_extent_matches_enumeration(self, n, k, s, p):
        """The closed-form extent equals counting valid window positions."""
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


def conv_nchw(x, w, b, spec):
    """``conv_forward`` with NCHW arrays at the boundary; no axis folds into
    the channels, so a 3D kernel runs as a 3D convolution."""
    return nchw(ops.conv_forward(nhwc(x), w, b, spec)[0])


class TestConv2d:
    def test_scaling_identity(self):
        x = np.ones((1, 1, 3, 3))
        w = np.full((1, 1, 1, 1), 2.0)
        spec = ops.ConvSpec((1, 1), (1, 1), (0, 0), 1, 1)
        out = conv_nchw(x, w, np.zeros(1), spec)
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_array_equal(out, np.full((1, 1, 3, 3), 2.0))

    def test_full_window_sum(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = np.ones((1, 1, 2, 2))
        spec = ops.ConvSpec((2, 2), (1, 1), (0, 0), 1, 1)
        out = conv_nchw(x, w, np.zeros(1), spec)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 10.0

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 3, 4)
        got = conv_nchw(x, w, b, spec)
        want = per_sample(conv2d_loop, x, w, b, (1, 1), (1, 1))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2), (3, 0)])
    def test_loop_oracle_strided(self, rng, stride, pad):
        x = rng.standard_normal((2, 2, 9, 7))
        w = rng.standard_normal((3, 2, 3, 2))
        b = rng.standard_normal(3)
        spec = ops.ConvSpec((3, 2), (stride, stride), (pad, pad), 2, 3)
        got = conv_nchw(x, w, b, spec)
        want = per_sample(conv2d_loop, x, w, b, (stride, stride), (pad, pad))
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_linearity(self, rng):
        w = rng.standard_normal((4, 2, 3, 3))
        b = np.zeros(4)
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 2, 4)
        x = rng.standard_normal((2, 2, 6, 6))
        y = rng.standard_normal((2, 2, 6, 6))
        a, c = 1.7, -0.4
        lhs = conv_nchw(a * x + c * y, w, b, spec)
        rhs = a * conv_nchw(x, w, b, spec) + c * conv_nchw(y, w, b, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10, rtol=0)

    def test_deterministic(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
        a = conv_nchw(x, w, b, spec)
        c = conv_nchw(x.copy(), w.copy(), b.copy(), spec)
        assert np.array_equal(a, c)

    def test_shape_mismatch_rejected(self, rng):
        spec = ops.ConvSpec((3, 3), (1, 1), (0, 0), 2, 4)
        with pytest.raises(ShapeError):
            conv_nchw(rng.standard_normal((1, 3, 5, 5)),
                      rng.standard_normal((4, 2, 3, 3)), np.zeros(4), spec)
        with pytest.raises(ShapeError):
            conv_nchw(rng.standard_normal((1, 2, 5, 5)),
                      rng.standard_normal((4, 2, 2, 3)), np.zeros(4), spec)
        with pytest.raises(ShapeError):  # a batch axis is required
            conv_nchw(rng.standard_normal((2, 5, 5)),
                      rng.standard_normal((4, 2, 3, 3)), np.zeros(4), spec)

    def test_nonfinite_rejected(self):
        spec = ops.ConvSpec((1, 1), (1, 1), (0, 0), 1, 1)
        x = np.full((1, 1, 2, 2), np.inf)
        with pytest.raises(NonFiniteError):
            conv_nchw(x, np.ones((1, 1, 1, 1)), np.zeros(1), spec)

    def test_stem_geometry_matches_loop_oracle(self, rng):
        # the network's 7x7 stride-2 pad-3 stem on an even input: the last
        # padded row and column are never read
        x = rng.standard_normal((2, 3, 10, 10))
        w = rng.standard_normal((4, 3, 7, 7))
        b = rng.standard_normal(4)
        spec = ops.ConvSpec((7, 7), (2, 2), (3, 3), 3, 4)
        got = conv_nchw(x, w, b, spec)
        assert got.shape == (2, 4, 5, 5)
        np.testing.assert_allclose(got, per_sample(conv2d_loop, x, w, b, (2, 2), (3, 3)),
                                   atol=1e-12, rtol=0)


class TestConv3d:
    def test_depth_sum(self):
        x = np.zeros((1, 1, 2, 1, 1))
        x[0, 0, 0, 0, 0], x[0, 0, 1, 0, 0] = 3.0, 4.0
        w = np.ones((1, 1, 2, 1, 1))
        spec = ops.ConvSpec((2, 1, 1), (1, 1, 1), (0, 0, 0), 1, 1)
        out = conv_nchw(x, w, np.zeros(1), spec)
        assert out.shape == (1, 1, 1, 1, 1)
        assert out[0, 0, 0, 0, 0] == 7.0

    def test_identity_kernel(self, rng):
        x = rng.standard_normal((2, 1, 1, 4, 4))
        w = np.ones((1, 1, 1, 1, 1))
        spec = ops.ConvSpec((1, 1, 1), (1, 1, 1), (0, 0, 0), 1, 1)
        np.testing.assert_array_equal(conv_nchw(x, w, np.zeros(1), spec), x)

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3, 4, 6, 6))
        w = rng.standard_normal((8, 3, 4, 3, 3))
        b = rng.standard_normal(8)
        spec = ops.ConvSpec((4, 3, 3), (1, 1, 1), (0, 1, 1), 3, 8)
        got = conv_nchw(x, w, b, spec)
        want = per_sample(conv3d_loop, x, w, b, (1, 1, 1), (0, 1, 1))
        assert got.shape == (2, 8, 1, 6, 6)
        np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_short_depth_kernel_matches_loop_oracle(self, rng):
        # kernel depth < input depth: no axis folds into channels
        x = rng.standard_normal((2, 2, 5, 6, 6))
        w = rng.standard_normal((3, 2, 2, 3, 3))
        b = rng.standard_normal(3)
        spec = ops.ConvSpec((2, 3, 3), (1, 2, 1), (0, 1, 1), 2, 3)
        got = conv_nchw(x, w, b, spec)
        assert got.shape == (2, 3, 4, 3, 6)
        np.testing.assert_allclose(got, per_sample(conv3d_loop, x, w, b, (1, 2, 1), (0, 1, 1)),
                                   atol=1e-12, rtol=0)

    def test_full_depth_kernel_collapses_depth(self, rng):
        x = rng.standard_normal((2, 2, 3, 5, 5))
        w = rng.standard_normal((4, 2, 3, 3, 3))
        spec = ops.ConvSpec((3, 3, 3), (1, 1, 1), (0, 1, 1), 2, 4)
        out = conv_nchw(x, w, np.zeros(4), spec)
        assert out.shape == (2, 4, 1, 5, 5)


class TestLayoutBoundary:
    """The NCHW adapters give the channels-last convolution's numbers bit
    for bit, forward and backward, at the network's conv geometries."""

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
        out, saved = ops.conv_forward(folded, w, b, spec)
        adapter = ops.conv3d_forward if len(kernel) == 3 else ops.conv2d_forward
        out_nchw, cols = ops._conv_forward(x, w, b, spec, return_cols=True)
        want = nchw(out).reshape(out_nchw.shape)
        assert out_nchw.tobytes() == want.tobytes()
        assert adapter(x, w, b, spec).tobytes() == want.tobytes()

        g = rng.standard_normal(out.shape)
        gx, gw, gb = ops.conv_backward(saved, g)
        a_x, a_w, a_b = ops._conv_backward(x, w, spec, nchw(g).reshape(out_nchw.shape), cols)
        assert a_x.tobytes() == nchw(gx).reshape(x.shape).tobytes()
        assert a_w.tobytes() == gw.tobytes() and a_b.tobytes() == gb.tobytes()

    def test_unpadded_conv_saves_its_input(self, rng):
        x = rng.standard_normal((2, 5, 5, 6))
        _, (saved_x, _, _) = ops.conv_forward(x, rng.standard_normal((4, 6, 1, 1)), np.zeros(4),
                                              ops.ConvSpec((1, 1), (1, 1), (0, 0), 6, 4))
        assert saved_x is x


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
        out, new_state, _ = ops.batchnorm2d_forward(x, np.ones(3), np.zeros(3), state, "train")
        np.testing.assert_allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 1, 2)), 1.0, atol=1e-4)
        assert new_state is not state

    def test_constant_channel(self):
        x = np.full((2, 3, 3, 1), 7.0)
        out, _, _ = ops.batchnorm2d_forward(
            x, np.ones(1), np.zeros(1), ops.BnState.initial(1), "train"
        )
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_running_stats_update(self, rng):
        x = rng.standard_normal((4, 4, 4, 2)) + 3.0
        state = ops.BnState.initial(2)
        _, new_state, _ = ops.batchnorm2d_forward(x, np.ones(2), np.zeros(2), state, "train")
        want_mean = 0.9 * state.mean + 0.1 * x.mean(axis=(0, 1, 2))
        np.testing.assert_allclose(new_state.mean, want_mean, atol=1e-12)

    def test_eval_uses_running_stats(self, rng):
        x = rng.standard_normal((4, 4, 4, 2))
        state = ops.BnState(np.array([1.0, -1.0]), np.array([4.0, 0.25]))
        out, same_state, _ = ops.batchnorm2d_forward(x, np.ones(2), np.zeros(2), state, "eval")
        want = (x - state.mean) / np.sqrt(state.var + 1e-5)
        np.testing.assert_allclose(out, want, atol=1e-12)
        assert same_state is state

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_backward_bitwise_equals_closed_form(self, rng, mode):
        x = rng.standard_normal((4, 5, 5, 3)) * 2.0 + 1.0
        scale, shift = rng.standard_normal(3), rng.standard_normal(3)
        state = ops.BnState(rng.uniform(-1, 1, 3), rng.uniform(0.5, 2, 3))
        _, _, cache = ops.batchnorm2d_forward(x, scale, shift, state, mode)
        g = rng.standard_normal(x.shape)
        g_before, xhat_before = g.copy(), cache[0].copy()
        got_x, got_scale, _ = ops.batchnorm2d_backward(cache, g)
        xhat, inv_std, _, _ = cache
        dxhat = g * scale
        if mode == "train":
            m = 4 * 5 * 5
            want = (inv_std / m) * (m * dxhat - dxhat.sum(axis=(0, 1, 2))
                                    - xhat * (dxhat * xhat).sum(axis=(0, 1, 2)))
        else:
            want = dxhat * inv_std
        assert got_x.tobytes() == want.tobytes()
        assert got_scale.tobytes() == (g * xhat).sum(axis=(0, 1, 2)).tobytes()
        assert g.tobytes() == g_before.tobytes()
        assert xhat.tobytes() == xhat_before.tobytes()

    def test_tiny_batch_rejected(self):
        with pytest.raises(ShapeError):
            ops.batchnorm2d_forward(
                np.zeros((1, 1, 1, 2)), np.ones(2), np.zeros(2), ops.BnState.initial(2), "train"
            )


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
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2))
            h = int(rng.integers(k, 9))
            w = int(rng.integers(k, 9))
            x = rng.standard_normal((2, c_in, h, w))
            wts = rng.standard_normal((c_out, c_in, k, k))
            b = rng.standard_normal(c_out)
            spec = ops.ConvSpec((k, k), (s, s), (p, p), c_in, c_out)
            np.testing.assert_allclose(
                conv_nchw(x, wts, b, spec),
                per_sample(conv2d_loop, x, wts, b, (s, s), (p, p)),
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
            p = int(rng.integers(0, 2))
            x = rng.standard_normal((2, c_in, d, h, w))
            wts = rng.standard_normal((c_out, c_in, kd, k, k))
            b = rng.standard_normal(c_out)
            spec = ops.ConvSpec((kd, k, k), (1, 1, 1), (0, p, p), c_in, c_out)
            np.testing.assert_allclose(
                conv_nchw(x, wts, b, spec),
                per_sample(conv3d_loop, x, wts, b, (1, 1, 1), (0, p, p)),
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
