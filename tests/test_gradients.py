"""Every explicit backward pass is checked against central finite
differences on small random tensors; the max pool's backward also against
a loop oracle, byte for byte."""

import numpy as np
import pytest

from fpnn import model as M
from fpnn import ops

from gradcheck import gradcheck, numerical_gradient, relative_error
from oracles import max_pool_backward_loop, nchw, nhwc


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _loss_weights(rng, shape):
    """Fixed random projection so the scalar loss exercises all outputs."""
    return rng.standard_normal(shape)


def conv_grads(x, w, spec, output_grad):
    """Conv gradients as the model takes them, from what the forward pass
    saved, with NCHW arrays at the boundary."""
    _, saved = ops.conv_forward(nhwc(x), w, spec)
    gx, gw = ops.conv_backward(saved, nhwc(output_grad))
    return nchw(gx), gw


def conv(x, w, spec):
    return nchw(ops.conv_forward(nhwc(x), w, spec)[0])


class TestConv2dBackward:
    def test_zero_grad_gives_zero(self, rng):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        spec = ops.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
        gx, gw = conv_grads(x, w, spec, np.zeros((2, 3, 5, 5)))
        assert not gx.any()
        assert not gw.any()

    def test_scalar_chain(self):
        # 1x1 kernel: input grad is w * output_grad elementwise
        x = np.array([[[[1.0, -2.0], [0.5, 3.0]]]])
        w = np.full((1, 1, 1, 1), 1.75)
        spec = ops.ConvSpec((1, 1), (1, 1), (0, 0), 1, 1)
        gout = np.array([[[[2.0, -1.0], [4.0, 0.5]]]])
        gx, _ = conv_grads(x, w, spec, gout)
        np.testing.assert_allclose(gx, 1.75 * gout, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 1), (1, 0)])
    def test_finite_differences(self, rng, stride, pad):
        x = rng.standard_normal((2, 2, 6, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        spec = ops.ConvSpec((3, 3), (stride, stride), (pad, pad), 2, 3)
        probe = _loss_weights(rng, conv(x, w, spec).shape)

        gx, gw = conv_grads(x, w, spec, probe)
        gradcheck(lambda v: float((conv(v, w, spec) * probe).sum()),
                  x, gx, rtol=1e-4)
        gradcheck(lambda v: float((conv(x, v, spec) * probe).sum()),
                  w, gw, rtol=1e-4)

    def test_grad_shapes_match_values(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2))
        spec = ops.ConvSpec((2, 2), (1, 1), (0, 0), 2, 3)
        gx, gw = conv_grads(x, w, spec, rng.standard_normal((2, 3, 3, 3)))
        assert gx.shape == x.shape
        assert gw.shape == w.shape


    def test_stem_geometry_finite_differences(self, rng):
        # 7x7 stride 2 pad 3 on an even input, as in the network's stem
        x = rng.standard_normal((2, 2, 8, 8))
        w = rng.standard_normal((3, 2, 7, 7))
        spec = ops.ConvSpec((7, 7), (2, 2), (3, 3), 2, 3)
        assert ops._winograd_route(spec)
        probe = _loss_weights(rng, conv(x, w, spec).shape)
        gx, gw = conv_grads(x, w, spec, probe)
        gradcheck(lambda v: float((conv(v, w, spec) * probe).sum()),
                  x, gx, rtol=1e-4)
        gradcheck(lambda v: float((conv(x, v, spec) * probe).sum()),
                  w, gw, rtol=1e-4)


class TestConvSavedOperand:
    @pytest.mark.parametrize("shape,kernel,stride,pad", [
        ((2, 6, 5, 5), (1, 1), (1, 1), (0, 0)),
        ((2, 3, 6, 6), (3, 3), (1, 1), (1, 1)),
        ((2, 3, 4, 6, 6), (4, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((2, 5, 16, 16), (7, 7), (2, 2), (3, 3)),
        ((3, 2, 9, 13), (7, 7), (2, 2), (0, 0)),
    ], ids=["1x1", "3x3", "front", "stem", "stem-pad0"])
    def test_saved_operand_is_the_input_unchanged(self, rng, shape, kernel, stride, pad):
        """Every convolution saves the caller's ``x`` itself, not a padded
        or phase-split copy, and neither the forward nor the backward writes
        into it. The 3D front end reads the non-contiguous
        channels-last view with its frames folded into the channels, as the
        network passes it; the 2D convs read a contiguous array."""
        x = ops.channels_last(rng.standard_normal(shape), len(kernel) - 2)
        if len(kernel) == 2:
            x = np.ascontiguousarray(x)
        x_before = x.copy()
        spec = ops.ConvSpec(kernel, stride, pad, shape[1], 4)
        out, saved = ops.conv_forward(x, rng.standard_normal(spec.weight_shape()), spec)
        assert saved[0] is x
        ops.conv_backward(saved, rng.standard_normal(out.shape))
        assert x.tobytes() == x_before.tobytes()

    @pytest.mark.parametrize("shape,kernel,stride,pad", [
        ((2, 9, 8), (7, 7), (2, 2), (3, 3)),
        ((3, 4, 5, 5), (4, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((3, 4, 5, 5), (2, 3, 3), (1, 1, 1), (0, 1, 1)),
    ])
    def test_saved_operand_backward_bitwise(self, rng, shape, kernel, stride, pad):
        """``conv_backward`` given what the forward pass saved gives the
        gradients it gives on an operand rebuilt from a copy of the input,
        bit for bit, shaped like the input and the weights."""
        x = nhwc(rng.standard_normal((2, *shape)))
        spec = ops.ConvSpec(kernel, stride, pad, shape[0], 4)
        w = rng.standard_normal(spec.weight_shape())
        out, saved = ops.conv_forward(x, w, spec)
        g = rng.standard_normal(out.shape)
        a_x, a_w = ops.conv_backward(saved, g)
        _, rebuilt = ops.conv_forward(x.copy(), w, spec)
        b_x, b_w = ops.conv_backward(rebuilt, g)
        assert a_x.shape == x.shape and a_w.shape == w.shape
        assert np.array_equal(a_x, b_x)
        assert np.array_equal(a_w, b_w)

    @pytest.mark.parametrize("shape,kernel,stride,pad", [
        ((2, 9, 8), (7, 7), (2, 2), (3, 3)),
        ((3, 4, 5, 5), (4, 3, 3), (1, 1, 1), (0, 1, 1)),
        ((3, 4, 5, 5), (2, 3, 3), (1, 1, 1), (0, 1, 1)),
    ])
    def test_skipped_input_grad_keeps_param_grads_bitwise(self, rng, shape, kernel, stride, pad):
        """Skipping the input gradient leaves the weight gradient bit for
        bit as it is with it."""
        x = rng.standard_normal((2, *shape))
        spec = ops.ConvSpec(kernel, stride, pad, shape[0], 4)
        w = rng.standard_normal(spec.weight_shape())
        out, saved = ops.conv_forward(nhwc(x), w, spec)
        g = rng.standard_normal(out.shape)
        full_x, full_w = ops.conv_backward(saved, g)
        skip_x, skip_w = ops.conv_backward(saved, g, want_input_grad=False)
        assert skip_x is None
        assert full_w.tobytes() == skip_w.tobytes()


class TestWinogradStemBackward:
    """The 7x7 stride-2 route's backward (the phase-split Winograd
    convolution) against finite differences, and its bitwise contracts."""

    @staticmethod
    def stem(shape, pad=3, c_out=3):
        spec = ops.ConvSpec((7, 7), (2, 2), (pad, pad), shape[1], c_out)
        assert ops._winograd_route(spec)
        return spec

    @pytest.mark.parametrize("shape,pad", [((2, 3, 9, 11), 3), ((1, 2, 10, 7), 1),
                                           ((2, 2, 9, 8), 6)])
    def test_finite_differences(self, rng, shape, pad):
        """Odd extents and other pads, up to 6, where the input gradient's
        convolution pads the output gradient by 3 - ceil(pad / 2) = 0 rows;
        TestConv2dBackward has the 8x8 stem."""
        x = rng.standard_normal(shape)
        spec = self.stem(shape, pad)
        w = rng.standard_normal(spec.weight_shape())
        probe = _loss_weights(rng, conv(x, w, spec).shape)
        gx, gw = conv_grads(x, w, spec, probe)
        gradcheck(lambda v: float((conv(v, w, spec) * probe).sum()), x, gx, rtol=1e-4)
        gradcheck(lambda v: float((conv(x, v, spec) * probe).sum()), w, gw, rtol=1e-4)

    @pytest.mark.parametrize("shape", [(3, 64, 32, 32), (7, 16, 32, 32), (3, 2, 9, 13)])
    def test_skipped_input_grad_and_repeat_calls_bitwise(self, rng, shape):
        """``want_input_grad=False`` gives the weight gradient bit for bit,
        and two calls of the forward and backward are bitwise equal:
        at the stem's geometry (a sample per block), with blocks of five
        samples, the last one short, and with tiles that overhang."""
        x = nhwc(rng.standard_normal(shape))
        spec = self.stem(shape, c_out=5)
        w = rng.standard_normal(spec.weight_shape())
        out, saved = ops.conv_forward(x, w, spec)
        out2, saved2 = ops.conv_forward(x, w, spec)
        assert out.tobytes() == out2.tobytes() and saved[0].tobytes() == saved2[0].tobytes()
        g = rng.standard_normal(out.shape)
        full = ops.conv_backward(saved, g)
        again = ops.conv_backward(saved2, g)
        skip_x, skip_w = ops.conv_backward(saved, g, want_input_grad=False)
        assert skip_x is None
        assert all(a.tobytes() == c.tobytes() for a, c in zip(full, again))
        assert full[1].tobytes() == skip_w.tobytes()


class TestConv3dBackward:
    def test_zero_grad(self, rng):
        x = rng.standard_normal((2, 2, 3, 4, 4))
        w = rng.standard_normal((3, 2, 3, 2, 2))
        spec = ops.ConvSpec((3, 2, 2), (1, 1, 1), (0, 0, 0), 2, 3)
        gout_shape = (2, 3, 1, 3, 3)
        gx, gw = conv_grads(x, w, spec, np.zeros(gout_shape))
        assert not gx.any() and not gw.any()

    def test_depth1_reduces_to_conv2d(self, rng):
        x2 = rng.standard_normal((2, 2, 5, 5))
        w2 = rng.standard_normal((3, 2, 3, 3))
        gout = rng.standard_normal((2, 3, 5, 5))
        spec2 = ops.ConvSpec((3, 3), (1, 1), (1, 1), 2, 3)
        spec3 = ops.ConvSpec((1, 3, 3), (1, 1, 1), (0, 1, 1), 2, 3)
        g2x, g2w = conv_grads(x2, w2, spec2, gout)
        g3x, g3w = conv_grads(x2[:, :, None], w2[:, :, None], spec3, gout[:, :, None])
        np.testing.assert_allclose(g3x[:, :, 0], g2x, atol=1e-12)
        np.testing.assert_allclose(g3w[:, :, 0], g2w, atol=1e-12)

    def test_finite_differences(self, rng):
        x = rng.standard_normal((2, 2, 3, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3, 3))
        spec = ops.ConvSpec((3, 3, 3), (1, 1, 1), (0, 1, 1), 2, 2)
        probe = _loss_weights(rng, conv(x, w, spec).shape)
        gx, gw = conv_grads(x, w, spec, probe)
        gradcheck(lambda v: float((conv(v, w, spec) * probe).sum()),
                  x, gx, rtol=1e-4)
        gradcheck(lambda v: float((conv(x, v, spec) * probe).sum()),
                  w, gw, rtol=1e-4)

    def test_short_depth_kernel_finite_differences(self, rng):
        # kernel depth 2 < input depth 4: the unfolded n-d path
        x = rng.standard_normal((2, 2, 4, 4, 5))
        w = rng.standard_normal((3, 2, 2, 3, 3))
        spec = ops.ConvSpec((2, 3, 3), (1, 1, 1), (0, 1, 1), 2, 3)
        probe = _loss_weights(rng, conv(x, w, spec).shape)
        gx, gw = conv_grads(x, w, spec, probe)
        gradcheck(lambda v: float((conv(v, w, spec) * probe).sum()),
                  x, gx, rtol=1e-4)
        gradcheck(lambda v: float((conv(x, v, spec) * probe).sum()),
                  w, gw, rtol=1e-4)


class TestLeakyReluBackward:
    def test_positive(self):
        saved = ops.leaky_relu_forward(np.array(5.0), 0.01)[1]
        assert ops.leaky_relu_backward(saved, np.array(1.0)) == 1.0

    def test_negative(self):
        np.testing.assert_allclose(
            ops.leaky_relu_backward(ops.leaky_relu_forward(np.array(-5.0), 0.1)[1],
                                    np.array(2.0)), 0.2
        )

    def test_finite_differences_away_from_kink(self, rng):
        x = rng.standard_normal((4, 5))
        x = np.where(np.abs(x) < 1e-3, 0.5, x)  # keep clear of the kink
        alpha = 0.07
        probe = _loss_weights(rng, x.shape)
        analytic = ops.leaky_relu_backward(ops.leaky_relu_forward(x.copy(), alpha)[1],
                                           probe.copy())
        gradcheck(lambda v: float((ops.leaky_relu_forward(v.copy(), alpha)[0] * probe).sum()),
                  x, analytic, rtol=1e-4)


def max_pool_grads(x, window, stride, pad, output_grad):
    _, saved = ops.max_pool2d(x, window, stride, pad)
    return ops.pool2d_backward(saved, output_grad)


class TestPoolBackward:
    def test_avg_uniform_distribution(self):
        gout = np.ones((1, 1, 1, 1))
        _, saved = ops.avg_pool2d(np.zeros((1, 2, 2, 1)), 2, 1, 0)
        g = ops.pool2d_backward(saved, gout)
        np.testing.assert_array_equal(g, np.full((1, 2, 2, 1), 0.25))

    def test_max_routes_to_argmax(self, rng):
        x = rng.permutation(16).astype(float).reshape(1, 4, 4, 1)
        gout = rng.standard_normal((1, 2, 2, 1))
        g = max_pool_grads(x, 2, 2, 0, gout)
        assert (g != 0).sum() == 4  # one winner per window

    def test_max_tie_breaks_first_row_major(self):
        x = np.full((1, 2, 2, 1), 3.0)
        gout = np.ones((1, 1, 1, 1))
        g = max_pool_grads(x, 2, 1, 0, gout)
        np.testing.assert_array_equal(g[..., 0], np.array([[[1.0, 0.0], [0.0, 0.0]]]))

    @pytest.mark.parametrize("mode", ["avg", "max"])
    def test_finite_differences(self, rng, mode):
        # distinct values keep max pooling differentiable
        x = rng.permutation(2 * 6 * 6).astype(float).reshape(1, 2, 6, 6)
        x += rng.standard_normal(x.shape) * 0.01
        x = nhwc(x)
        pool = ops.avg_pool2d if mode == "avg" else ops.max_pool2d
        out, saved = pool(x, 3, 2, 1)
        probe = _loss_weights(rng, out.shape)
        analytic = ops.pool2d_backward(saved, probe)
        gradcheck(lambda v: float((pool(v, 3, 2, 1)[0] * probe).sum()), x, analytic, rtol=1e-4)

    @staticmethod
    def _assert_max_backward_matches_oracle(x, window, stride, pad, gout):
        got = nchw(max_pool_grads(nhwc(x), window, stride, pad, nhwc(gout)))
        want = np.stack([max_pool_backward_loop(xi, (window, window), stride, pad, gi)
                         for xi, gi in zip(x, gout)])
        assert got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    def test_max_backward_matches_loop_oracle_at_stem_geometry(self, rng):
        # 3x3, stride 2, pad 1 on an even input: overlapping windows, and
        # small integers give ties within windows and with the zero padding
        x = rng.integers(-3, 4, (2, 8, 16, 16)).astype(float)
        gout = rng.standard_normal((2, 8, 8, 8))
        self._assert_max_backward_matches_oracle(x, 3, 2, 1, gout)

    def test_max_backward_matches_loop_oracle_random_shapes(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 2))
            shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                     int(rng.integers(k, 9)), int(rng.integers(k, 9)))
            x = rng.standard_normal(shape)
            if trial % 2:
                x = np.round(x)  # ties
            out = nchw(ops.max_pool2d(nhwc(x), k, s, p)[0])
            self._assert_max_backward_matches_oracle(x, k, s, p, rng.standard_normal(out.shape))


class TestBatchNormBackward:
    def test_finite_differences(self, rng):
        x = rng.standard_normal((3, 4, 4, 2))
        scale = rng.uniform(0.5, 1.5, 2)
        shift = rng.standard_normal(2)
        state = ops.BnState.initial(2)
        probe = _loss_weights(rng, x.shape)

        def loss(xv, sv, bv):
            out, _, _ = ops.batchnorm2d_forward(xv.copy(), sv, bv, state)
            return float((out * probe).sum())

        _, _, cache = ops.batchnorm2d_forward(x.copy(), scale, shift, state)
        gx, gscale, gshift = ops.batchnorm2d_backward(cache, probe.copy())
        gradcheck(lambda v: loss(v, scale, shift), x, gx, rtol=1e-3)
        gradcheck(lambda v: loss(x, v, shift), scale, gscale, rtol=1e-3)
        gradcheck(lambda v: loss(x, scale, v), shift, gshift, rtol=1e-3)


class TestLinearBackward:
    def test_finite_differences(self, rng):
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        b = rng.standard_normal(3)
        probe = _loss_weights(rng, (4, 3))
        gx, gw, gb = ops.linear_backward(ops.linear_forward(x, w, b)[1], probe)
        gradcheck(lambda v: float((ops.linear_forward(v, w, b)[0] * probe).sum()),
                  x, gx, rtol=1e-4)
        gradcheck(lambda v: float((ops.linear_forward(x, v, b)[0] * probe).sum()),
                  w, gw, rtol=1e-4)
        gradcheck(lambda v: float((ops.linear_forward(x, w, v)[0] * probe).sum()),
                  b, gb, rtol=1e-4)


class TestResidualBackward:
    def test_finite_differences(self, rng):
        # an inception block: four branches plus the 1x1-projected skip
        config = M.FpnnConfig(noi=1, grid_side=8, seed=3)
        params = M.build_model(config)
        specs = M.conv_layout(config)
        x = rng.standard_normal((1, 2, 2, 64))
        probe = _loss_weights(rng, (1, 2, 2, 88))
        _, cache = M._block_forward(x, params, specs, "raw.block0", {})
        grads = {}
        gx = M._block_backward(probe.copy(), cache, grads)

        def loss(v):
            out, _ = M._block_forward(v, params, specs, "raw.block0", {})
            return float((out * probe).sum())

        def loss_proj(rows):  # first four output channels of the projection
            params.tensors["raw.block0.proj.w"] = np.concatenate([rows, proj[4:]])
            return loss(x)

        gradcheck(loss, x, gx, rtol=1e-3)
        proj = params.tensors["raw.block0.proj.w"]
        gradcheck(loss_proj, proj[:4], grads["raw.block0.proj.w"][:4], rtol=1e-4)


class TestGlobalAvgPoolBackward:
    def test_finite_differences(self, rng):
        x = rng.standard_normal((2, 4, 4, 3))
        probe = _loss_weights(rng, (2, 3))
        analytic = ops.global_avg_pool_backward(ops.global_avg_pool(x)[1], probe)
        gradcheck(lambda v: float((ops.global_avg_pool(v)[0] * probe).sum()),
                  x, analytic, rtol=1e-4)


class TestHarness:
    def test_numerical_gradient_on_quadratic(self):
        x = np.array([1.0, -2.0, 0.5])
        num = numerical_gradient(lambda v: float((v**2).sum()), x)
        np.testing.assert_allclose(num, 2 * x, atol=1e-8)

    def test_relative_error_scale_aware(self):
        assert relative_error(np.array([1000.0]), np.array([1000.1])) < 2e-4
        assert relative_error(np.array([0.0]), np.array([1.0])) == 1.0
