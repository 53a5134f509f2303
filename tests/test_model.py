"""Architecture contracts: shapes, determinism, parameter counts, the layer
table and checkpoint names, the stream's frame fold, detach behavior, residual identity, weight
export, and full-model gradients."""

import dataclasses
import inspect
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from fpnn import model as M
from fpnn import ops
from fpnn.preprocess import SAMPLE_DEPTH

from gradcheck import relative_error
from oracles import (
    batchnorm_forward_twice_mean,
    conv2d_loop,
    conv3d_loop,
    leaky_relu_masked,
    nchw,
    nhwc,
)


def micro_config(**kw):
    defaults = dict(noi=1, grid_side=8, alpha=0.01, head_hidden=(8,), seed=3)
    defaults.update(kw)
    return M.FpnnConfig(**defaults)


# One variant per ablation flag, plus the full architecture.
DETACH_VARIANTS = [M.DetachFlags()] + [
    M.DetachFlags(**{flag: True})
    for flag in ("initial_layers", "conv3d", "residual", "diff_branch")
]


def random_batch(config, n=2, seed=0):
    rng = np.random.default_rng(seed)
    g, d = config.grid_side, config.sample_depth
    raw = rng.standard_normal((n, 3, d, g, g))
    diff = rng.standard_normal((n, 3, d - 1, g, g))
    return raw, diff


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = M.build_model(micro_config())
        b = M.build_model(micro_config())
        assert list(a.tensors) == list(b.tensors)
        for k in a.tensors:
            assert np.array_equal(a.tensors[k], b.tensors[k]), k

    def test_different_seed_differs(self):
        a = M.build_model(micro_config(seed=1))
        b = M.build_model(micro_config(seed=2))
        assert any(not np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)

    def test_param_count_strictly_increasing_in_noi(self):
        counts = [sum(t.size for t in M.build_model(micro_config(noi=k)).tensors.values())
                  for k in range(5)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_param_count_pure_function_of_config(self):
        c1 = sum(t.size for t in M.build_model(micro_config(seed=10)).tensors.values())
        c2 = sum(t.size for t in M.build_model(micro_config(seed=99)).tensors.values())
        assert c1 == c2

    def test_detach_diff_branch_prunes_stream(self):
        full = M.build_model(micro_config())
        single = M.build_model(micro_config(detach=M.DetachFlags(diff_branch=True)))
        assert any(k.startswith("diff.") for k in full.tensors)
        assert not any(k.startswith("diff.") for k in single.tensors)
        assert any(k.startswith("raw.") for k in single.tensors)

    def test_detach_residual_prunes_projections(self):
        p = M.build_model(micro_config(detach=M.DetachFlags(residual=True)))
        assert not any(k.endswith("proj.w") for k in p.tensors)

    def test_invalid_noi(self):
        with pytest.raises(ValueError):
            micro_config(noi=9)
        with pytest.raises(ValueError):
            micro_config(noi=-1)

    def test_batchnorm_init(self):
        p = M.build_model(micro_config())
        assert np.array_equal(p.tensors["raw.front.bn.scale"], np.ones(64))
        assert not p.tensors["raw.front.bn.shift"].any()


# Checkpoint tensor names of one stream of the default noi=1 model, in build order.
STREAM_TENSORS = [
    "front.conv3d.w", "front.bn.scale", "front.bn.shift",
    "init.conv.w", "init.conv.bn.scale", "init.conv.bn.shift",
    "block0.b1.conv.w", "block0.b1.conv.bn.scale", "block0.b1.conv.bn.shift",
    "block0.b2.reduce.w", "block0.b2.reduce.bn.scale", "block0.b2.reduce.bn.shift",
    "block0.b2.conv.w", "block0.b2.conv.bn.scale", "block0.b2.conv.bn.shift",
    "block0.b3.reduce.w", "block0.b3.reduce.bn.scale", "block0.b3.reduce.bn.shift",
    "block0.b3.conv1.w", "block0.b3.conv1.bn.scale", "block0.b3.conv1.bn.shift",
    "block0.b3.conv2.w", "block0.b3.conv2.bn.scale", "block0.b3.conv2.bn.shift",
    "block0.b4.conv.w", "block0.b4.conv.bn.scale", "block0.b4.conv.bn.shift",
    "block0.proj.w",
]


class TestConfigDict:
    def test_missing_keys_take_the_defaults(self):
        config = M.FpnnConfig.from_dict({"noi": 2, "grid_side": 16, "alpha": 0.1,
                                         "detach": {"residual": True}})
        assert config == M.FpnnConfig(noi=2, grid_side=16, alpha=0.1,
                                      detach=M.DetachFlags(residual=True))
        assert (config.sample_depth, config.head_hidden, config.seed) == (4, (64,), 0)

    def test_checkpoint_bytes_pinned(self):
        config = M.FpnnConfig(noi=2, grid_side=16, alpha=0.1, head_hidden=(8, 4),
                              detach=M.DetachFlags(conv3d=True, residual=True), seed=7)
        assert json.dumps(config.to_dict(), sort_keys=True) == (
            '{"alpha": 0.1, "detach": {"conv3d": true, "diff_branch": false, '
            '"initial_layers": false, "residual": true}, "grid_side": 16, '
            '"head_hidden": [8, 4], "noi": 2, "seed": 7}')
        assert M.FpnnConfig.from_dict(config.to_dict()) == config

    def test_frame_count_is_the_archive_format_not_a_field(self):
        assert M.FpnnConfig.sample_depth == SAMPLE_DEPTH
        assert [f.name for f in dataclasses.fields(M.FpnnConfig)] == [
            "noi", "grid_side", "alpha", "head_hidden", "detach", "seed"]
        with pytest.raises(TypeError):
            M.FpnnConfig(sample_depth=4)
        # a config dict written while it was a field still reads
        assert M.FpnnConfig.from_dict({"noi": 1, "grid_side": 8, "alpha": 0.01,
                                       "sample_depth": 4}) == M.FpnnConfig(grid_side=8)


class TestLayerTable:
    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_layout_names_every_conv_weight(self, detach):
        config = micro_config(noi=2, detach=detach)
        params = M.build_model(config)
        conv_weights = {k for k in params.tensors if k.endswith(".w") and not k.startswith("head.")}
        assert {f"{n}.w" for n in M.conv_layout(config)} == conv_weights

    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_only_the_stem_strides(self, detach):
        """At every noi, each conv of the layout runs at stride 1 or takes
        the Winograd route (the stem), and pads below its kernel: the offset
        loop never strides, and no input gradient's pad is negative."""
        for noi in range(M.MAX_NOI + 1):
            for name, spec in M.conv_layout(micro_config(noi=noi, detach=detach)).items():
                assert set(spec.stride) == {1} or ops._winograd_route(spec), name
                assert all(p < k for p, k in zip(spec.padding, spec.kernel)), name

    def test_checkpoint_names_in_build_order(self):
        params = M.build_model(M.FpnnConfig())
        streams = [f"{s}.{n}" for s in ("raw", "diff") for n in STREAM_TENSORS]
        assert list(params.tensors) == streams + ["head.fc0.w", "head.fc0.b",
                                                  "head.fc1.w", "head.fc1.b"]
        assert list(params.bn_states) == [n[: -len(".scale")] for n in streams
                                          if n.endswith(".scale")]


class TestForwardShapes:
    @pytest.mark.parametrize("noi", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [16, 32])
    def test_output_is_flat_vector(self, noi, grid):
        config = M.FpnnConfig(noi=noi, grid_side=grid, seed=1)
        params = M.build_model(config)
        batch = random_batch(config, n=3)
        preds = M.fpnn_forward(batch, params, mode="eval")
        assert preds.shape == (3,)

    def test_initial_layers_shape_reduction(self):
        # 7x7/s2/p3 conv then 3x3/s2/p1 max pool: 32 -> 16 -> 8
        config = M.FpnnConfig(noi=1, grid_side=32, seed=0)
        params = M.build_model(config)
        raw, diff = random_batch(config, n=1)
        _, _, cache = M.fpnn_forward((raw, diff), params, mode="train", want_cache=True)
        assert cache["streams"]["raw"]["gap"] == (1, 8, 8, 88)

    @pytest.mark.parametrize("grid", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("noi", [0, 1])
    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_smallest_bn_side_is_the_smallest_batchnorm_input(self, monkeypatch, grid, noi,
                                                              detach):
        sides = []

        def record(x, *args):
            sides.append(x.shape[1])
            return ops.batchnorm2d_forward(x, *args)

        monkeypatch.setattr(M, "batchnorm2d_forward", record)
        config = micro_config(noi=noi, grid_side=grid, detach=detach)
        M.fpnn_forward(random_batch(config, n=2), M.build_model(config), mode="train")
        assert M.smallest_bn_side(config) == min(sides)

    def test_block_emits_88_channels(self):
        config = micro_config(noi=3)
        params = M.build_model(config)
        rng = np.random.default_rng(0)
        specs = M.conv_layout(config)
        x = rng.standard_normal((2, 5, 5, 64))
        out, _ = M._block_forward(x, params, specs, "raw.block0", None)
        assert out.shape == (2, 5, 5, 88)
        x2 = rng.standard_normal((1, 5, 5, 88))
        out2, _ = M._block_forward(x2, params, specs, "raw.block1", None)
        assert out2.shape == (1, 5, 5, 88)

    def test_noi_zero_stream_keeps_64_channels(self):
        config = micro_config(noi=0)
        params = M.build_model(config)
        raw, diff = random_batch(config)
        _, _, cache = M.fpnn_forward((raw, diff), params, mode="train", want_cache=True)
        assert cache["streams"]["raw"]["gap"][-1] == 64

    def test_eval_deterministic_bitwise(self):
        config = micro_config()
        params = M.build_model(config)
        batch = random_batch(config)
        a = M.fpnn_forward(batch, params, mode="eval")
        b = M.fpnn_forward(batch, params, mode="eval")
        assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        config = micro_config()
        params = M.build_model(config)
        raw, diff = random_batch(config)
        from fpnn.errors import ShapeError

        with pytest.raises(ShapeError):
            M.fpnn_forward((raw[:, :, :, :4], diff), params)


class TestStreamLayout:
    def test_frame_fold_matches_conv3d_loop(self):
        # the operand the stream saves for its 3D front conv is its
        # channels-last input with the frames folded into channels
        config = M.FpnnConfig(noi=0, grid_side=6, seed=2)
        params = M.build_model(config)
        x5 = np.random.default_rng(3).standard_normal((2, 3, 4, 6, 6))
        _, cache = M._stream_forward(x5, params, M.conv_layout(config), "raw", {})
        folded, w, spec = cache["front"]["conv"]
        assert folded.tobytes() == nhwc(x5.reshape(2, 12, 6, 6)).tobytes()
        out, _ = ops.conv_forward(folded, w, spec)
        want = np.stack([conv3d_loop(x, w, np.zeros(64), (1, 1, 1), (0, 1, 1)) for x in x5])
        np.testing.assert_allclose(nchw(out)[:, :, None], want, atol=1e-12, rtol=0)


class TestEvalMode:
    """An eval forward runs each conv -> batchnorm -> Leaky ReLU unit as one
    conv whose weights and bias fold in the batchnorm's running statistics."""

    # One unit of each kind the network runs, with fewer channels, so that
    # the loop oracles stay fast: the 3D front conv, the 1x1 front of
    # ``detach.conv3d``, the Winograd stem, and a 1x1 and a 3x3 unit conv.
    UNITS = [
        ("raw.front.conv3d", ops.ConvSpec((SAMPLE_DEPTH, 3, 3), (1, 1, 1), (0, 1, 1), 3, 5)),
        ("raw.front.proj", ops.ConvSpec((1, 1), (1, 1), (0, 0), 3, 5)),
        ("raw.init.conv", ops.ConvSpec((7, 7), (2, 2), (3, 3), 4, 5)),
        ("raw.block0.b1.conv", ops.ConvSpec((1, 1), (1, 1), (0, 0), 6, 5)),
        ("raw.block0.b2.conv", ops.ConvSpec((3, 3), (1, 1), (1, 1), 6, 5)),
    ]

    @pytest.mark.parametrize("name,spec", UNITS, ids=[name for name, _ in UNITS])
    def test_unit_matches_loop_oracle(self, name, spec):
        """Within 1e-13 of the largest magnitude of Leaky ReLU(batchnorm over
        the running statistics(loop conv)), with random running statistics,
        scale and shift; no cache is kept."""
        rng = np.random.default_rng(21)
        config, bn, c_out = micro_config(), M.bn_name(name), spec.out_channels
        scale = rng.uniform(0.5, 1.5, c_out) * rng.choice([-1.0, 1.0], c_out)
        shift = rng.standard_normal(c_out)
        state = ops.BnState(rng.standard_normal(c_out), rng.uniform(0.25, 4.0, c_out))
        w = rng.standard_normal(spec.weight_shape())
        params = M.FpnnParams(config, {f"{name}.w": w, f"{bn}.scale": scale,
                                       f"{bn}.shift": shift}, {bn: state})
        x = rng.standard_normal((2, spec.in_channels, *spec.kernel[:-2], 9, 9))  # NC(D)HW
        out, cache = M._cba_forward(ops.channels_last(x, spec.ndim - 2), params, {name: spec},
                                    name, None)
        assert cache is None
        loop = conv3d_loop if spec.ndim == 3 else conv2d_loop
        z = np.stack([loop(s, w, np.zeros(c_out), spec.stride, spec.padding) for s in x])
        z = nhwc(z.reshape(len(x), c_out, *out.shape[1:3]))
        normed, *_ = batchnorm_forward_twice_mean(z, scale, shift, state.mean, state.var,
                                                  ops.BN_EPS)
        want = leaky_relu_masked(normed, config.alpha)
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_eval_forward_runs_no_batchnorm(self, monkeypatch, detach):
        def refuse(*args):
            raise AssertionError("an eval forward ran a batchnorm")

        monkeypatch.setattr(M, "batchnorm2d_forward", refuse)
        config = micro_config(noi=2, detach=detach)
        preds = M.fpnn_forward(random_batch(config), M.build_model(config), mode="eval")
        assert preds.shape == (2,) and np.isfinite(preds).all()

    def test_eval_forward_with_cache_is_rejected(self):
        config = micro_config()
        with pytest.raises(ValueError, match="want_cache needs mode='train'"):
            M.fpnn_forward(random_batch(config), M.build_model(config), mode="eval",
                           want_cache=True)


class TestDetachBehavior:
    def test_diff_branch_detached_ignores_diff(self):
        config = micro_config(detach=M.DetachFlags(diff_branch=True))
        params = M.build_model(config)
        raw, diff = random_batch(config)
        a = M.fpnn_forward((raw, diff), params)
        b = M.fpnn_forward((raw, diff + 123.0), params)
        assert np.array_equal(a, b)

    def test_conv3d_detached_still_runs(self):
        config = micro_config(detach=M.DetachFlags(conv3d=True))
        params = M.build_model(config)
        preds = M.fpnn_forward(random_batch(config), params)
        assert preds.shape == (2,)
        assert "raw.front.proj.w" in params.tensors
        assert "raw.front.conv3d.w" not in params.tensors

    def test_initial_layers_detached_keeps_grid(self):
        config = micro_config(detach=M.DetachFlags(initial_layers=True))
        params = M.build_model(config)
        raw, diff = random_batch(config)
        _, _, cache = M.fpnn_forward((raw, diff), params, mode="train", want_cache=True)
        g = config.grid_side
        assert cache["streams"]["raw"]["gap"][1:3] == (g, g)

    def test_residual_identity(self):
        # residual on vs off differs by exactly the projected input
        config = micro_config(noi=1)
        with_res = M.build_model(config)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 5, 5, 64))
        out_res, _ = M._block_forward(x, with_res, M.conv_layout(config), "raw.block0", None)

        no_res_cfg = micro_config(noi=1, detach=M.DetachFlags(residual=True))
        no_res = M.build_model(no_res_cfg)
        # same branch weights, no projection
        for k, v in with_res.tensors.items():
            if k in no_res.tensors:
                no_res.tensors[k] = v.copy()
        out_plain, _ = M._block_forward(x, no_res, M.conv_layout(no_res_cfg), "raw.block0",
                                        None)

        proj = with_res.tensors["raw.block0.proj.w"]
        spec = ops.ConvSpec((1, 1), (1, 1), (0, 0), 64, 88)
        skip, _ = ops.conv_forward(x, proj, spec)
        np.testing.assert_allclose(out_res - out_plain, skip, atol=1e-12)


class TestBackward:
    def test_zero_pred_grad_gives_zero_grads(self):
        config = micro_config()
        params = M.build_model(config)
        batch = random_batch(config)
        _, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
        grads = M.fpnn_backward(params, cache, np.zeros(2))
        assert all(not g.any() for g in grads.values())

    def test_head_bias_grad_is_summed_pred_grad(self):
        config = micro_config()
        params = M.build_model(config)
        batch = random_batch(config)
        _, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
        pred_grad = np.array([0.7, -0.2])
        grads = M.fpnn_backward(params, cache, pred_grad)
        last = f"head.fc{len(config.head_widths()) - 2}.b"
        np.testing.assert_allclose(grads[last], [pred_grad.sum()], atol=1e-12)

    @pytest.mark.parametrize("noi", [0, 1, 2])
    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_every_tensor_gets_a_gradient(self, detach, noi):
        """No conv has a bias, which the train-mode batchnorm after it would
        cancel; the backward returns a gradient for exactly the model's
        tensors, in build order, each shaped like its tensor."""
        config = micro_config(noi=noi, detach=detach)
        params = M.build_model(config)
        assert not [k for k in params.tensors if k.endswith(".b") and not k.startswith("head.")]
        _, _, cache = M.fpnn_forward(random_batch(config), params, mode="train",
                                     want_cache=True)
        grads = M.fpnn_backward(params, cache, np.ones(2))
        assert list(grads) == list(params.tensors)
        assert all(grads[k].shape == t.shape for k, t in params.tensors.items())

    def test_gradient_flow_everywhere(self):
        # after one backward on a nonzero loss every parameter gets signal
        config = micro_config(noi=1)
        params = M.build_model(config)
        batch = random_batch(config, n=4, seed=9)
        preds, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
        grads = M.fpnn_backward(params, cache, 2 * (preds - 100.0) / preds.size)
        dead = [k for k, g in grads.items() if np.linalg.norm(g) == 0.0]
        assert dead == []

    @pytest.mark.parametrize("detach", [M.DetachFlags(), M.DetachFlags(conv3d=True)],
                             ids=["conv3d", "front_proj"])
    def test_front_unit_skips_input_grad_bitwise(self, detach):
        # fpnn_backward asks the front unit for no input gradient; its
        # parameter gradients match those of the full backward bit for bit
        config = micro_config(detach=detach)
        params = M.build_model(config)
        _, _, cache = M.fpnn_forward(random_batch(config, n=3, seed=4), params,
                                     mode="train", want_cache=True)
        front = cache["streams"]["raw"]["front"]
        gout = np.random.default_rng(5).standard_normal(front["act"][0].shape)
        full, skip = {}, {}
        assert M._cba_backward(gout.copy(), front, full) is not None
        assert M._cba_backward(gout, front, skip, want_input_grad=False) is None
        assert list(full) == list(skip) and len(full) == 3
        for name in full:
            assert full[name].tobytes() == skip[name].tobytes(), name

    def test_full_model_finite_differences(self):
        # micro network, a handful of randomly probed parameters
        def pick(params, rng):
            names = [k for k in params.tensors if params.tensors[k].size > 0]
            return [(name, _random_index(params.tensors[name], rng))
                    for name in rng.choice(names, size=8, replace=False)]

        _check_finite_differences(micro_config(noi=1, grid_side=8), pick)

    @pytest.mark.parametrize(
        "config",
        [micro_config(noi=0)] + [micro_config(detach=d) for d in DETACH_VARIANTS[1:]],
        ids=["noi0", "no_initial_layers", "no_conv3d", "no_residual", "no_diff_branch"],
    )
    def test_finite_differences_per_variant(self, config):
        # one random entry of every tensor, so each pruned path is probed
        _check_finite_differences(config, lambda params, rng: [
            (name, _random_index(t, rng)) for name, t in params.tensors.items()])


def _random_index(t, rng):
    return tuple(rng.integers(0, s) for s in t.shape)


def _check_finite_differences(config, pick):
    """Central differences of a train-mode MSE loss against fpnn_backward at
    the (tensor name, index) probes ``pick(params, rng)`` returns."""
    params = M.build_model(config)
    batch = random_batch(config, n=2, seed=33)
    target = np.array([3.0, -1.0])

    def loss_fn():
        preds = M.fpnn_forward(batch, params, mode="train")
        return float(((preds - target) ** 2).mean())

    preds, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
    grads = M.fpnn_backward(params, cache, 2 * (preds - target) / preds.size)

    eps = 1e-5
    for name, idx in pick(params, np.random.default_rng(8)):
        t = params.tensors[name]
        orig = t[idx]
        t[idx] = orig + eps
        up = loss_fn()
        t[idx] = orig - eps
        down = loss_fn()
        t[idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grads[name][idx]
        err = relative_error(np.array([analytic]), np.array([numeric]))
        assert err < 1e-3, f"{name}{idx}: analytic {analytic}, numeric {numeric}"


def _cache_nbytes(obj, seen) -> int:
    """Bytes of the arrays reachable from a cache, counting each shared base
    array once."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if isinstance(obj, dict):
        return sum(_cache_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_cache_nbytes(v, seen) for v in obj)
    return 0


def _conv_saved(obj):
    """Every conv's saved ``(x, weights, spec)`` reachable from a cache."""
    if isinstance(obj, tuple) and len(obj) == 3 and isinstance(obj[2], ops.ConvSpec):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _conv_saved(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _conv_saved(v)


class TestRebuiltActivation:
    """A conv that reads a conv -> batchnorm -> Leaky ReLU unit's output
    saves a stand-in that rebuilds it from the unit's cache."""

    @staticmethod
    def forward_reads(monkeypatch, config, n):
        """The train forward's cache, and each conv's input as it read it."""
        read = {}

        def record(x, weights, spec):
            read[id(weights)] = x.copy()
            return ops.conv_forward(x, weights, spec)

        monkeypatch.setattr(M, "conv_forward", record)
        params = M.build_model(config)
        _, _, cache = M.fpnn_forward(random_batch(config, n=n, seed=8), params, mode="train",
                                     want_cache=True)
        return params, cache, read

    def test_blocks_are_the_stems_input_bitwise(self, monkeypatch):
        config = micro_config(grid_side=16)
        params, cache, read = self.forward_reads(monkeypatch, config, 5)
        for stream in config.streams():
            x, weights, _ = cache["streams"][stream]["init"]["cba"]["conv"]
            assert weights is params.tensors[f"{stream}.init.conv.w"]
            assert isinstance(x, ops.RebuiltActivation)
            want = read[id(weights)]
            assert x.shape == want.shape and x.dtype == want.dtype
            for blk in (slice(0, 1), slice(1, 3), slice(4, 5), slice(0, 5)):
                assert x[blk].tobytes() == want[blk].tobytes()

    @pytest.mark.parametrize("detach,layers", [
        (M.DetachFlags(), ("init.conv",)),
        (M.DetachFlags(initial_layers=True),
         ("block0.b1.conv", "block0.b2.reduce", "block0.b3.reduce", "block0.proj")),
    ], ids=["stem", "offset-route"])
    def test_backward_fed_the_stand_in_is_bitwise(self, monkeypatch, detach, layers):
        """On the stem (three one-sample Winograd blocks) and on block0's
        1x1 convs when the initial layers are detached (offset-loop blocks
        of two samples and a short last one, or of one), ``conv_backward``
        returns the same bits from the stand-in as from the array it stands
        in for."""
        config = micro_config(grid_side=32, detach=detach)
        params, cache, read = self.forward_reads(monkeypatch, config, 3)
        rng = np.random.default_rng(2)
        saved = {id(s[1]): s for s in _conv_saved(cache)}
        for layer in layers:
            x, weights, spec = saved[id(params.tensors[f"raw.{layer}.w"])]
            assert isinstance(x, ops.RebuiltActivation), layer
            g = rng.standard_normal((3, *spec.out_extents(x.shape[1:-1]), spec.out_channels))
            got = ops.conv_backward((x, weights, spec), g)
            want = ops.conv_backward((read[id(weights)], weights, spec), g)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes(), layer


class TestForwardCacheMemory:
    def test_train_cache_under_128_mib(self):
        # batch 16, G=32, noi=1: each conv keeps only its input, which it does not copy
        config = M.FpnnConfig(noi=1, grid_side=32)
        params = M.build_model(config)
        batch = random_batch(config, n=16, seed=4)
        _, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
        mib = _cache_nbytes(cache, set()) / 2**20
        assert mib < 128, f"forward cache holds {mib:.1f} MiB"

    def test_train_cache_under_30_mib(self):
        """At noi=1, G=32, batch 16 the arrays a train forward leaves alive,
        its cache, hold at most 30 MiB (27.2 MiB measured): a cached copy of
        either stream's 8 MiB front activation does not fit beside them."""
        config = M.FpnnConfig(noi=1, grid_side=32)
        params = M.build_model(config)
        batch = random_batch(config, n=16, seed=4)
        tracemalloc.start()
        try:
            _, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 30 * 2**20, f"forward cache holds {held / 2**20:.1f} MiB"

    @staticmethod
    def _front_unit():
        """The raw stream's front unit at batch 16, G=32 (a [16, 32, 32, 64]
        float64 output, 8 MiB): its params, specs and folded input."""
        config = M.FpnnConfig(noi=1, grid_side=32)
        raw, _ = random_batch(config, n=16, seed=4)
        return M.build_model(config), M.conv_layout(config), ops.channels_last(raw, 1)

    def test_front_unit_forward_peaks_at_two_activations(self):
        """A train-mode front unit holds at most two activation-sized float
        arrays, its output and its cached ``xhat``, plus 2 MiB at any time:
        its batchnorm normalizes the conv's output in place, and its Leaky
        ReLU overwrites the batchnorm's output."""
        params, specs, x = self._front_unit()
        tracemalloc.start()
        try:
            out, _ = M._cba_forward(x, params, specs, "raw.front.conv3d", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_front_unit_backward_peaks_at_the_handed_over_gradient(self):
        """The front unit's backward, as ``_stream_backward`` runs it (no
        input gradient), holds at most the output gradient handed to it plus
        2 MiB: the Leaky ReLU's and the batchnorm's backward write into it."""
        params, specs, x = self._front_unit()
        out, cache = M._cba_forward(x, params, specs, "raw.front.conv3d", {})
        g = np.random.default_rng(5).standard_normal(out.shape)
        del out
        tracemalloc.start()
        try:
            gout = g.copy()
            M._cba_backward(gout, cache, {}, want_input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= gout.nbytes + 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @staticmethod
    def _record_conv_inputs(monkeypatch):
        """Patches the model's convs and head: returns ``inputs``, (weakref to
        each conv's input, its bytes, its weights), and ``alive``, the number
        of those inputs alive as each head layer runs."""
        inputs, alive = [], []

        def record(*args):
            inputs.append((weakref.ref(args[0]), args[0].tobytes(), args[1]))
            return ops.conv_forward(*args)

        def head(*args):
            alive.append(sum(ref() is not None for ref, *_ in inputs))
            return ops.linear_forward(*args)

        monkeypatch.setattr(M, "conv_forward", record)
        monkeypatch.setattr(M, "linear_forward", head)
        return inputs, alive

    def test_eval_forward_keeps_no_saved_values(self, monkeypatch):
        """No conv's saved operand outlives its layer in an eval forward: by
        the time the head runs, all are freed."""
        inputs, alive = self._record_conv_inputs(monkeypatch)
        config = micro_config(noi=2)
        M.fpnn_forward(random_batch(config), M.build_model(config), mode="eval")
        assert len(inputs) == len(M.conv_layout(config))
        assert alive[-1] == 0

    def test_train_forward_saves_each_conv_input_or_a_stand_in(self, monkeypatch):
        """A train forward builds its cache with or without ``want_cache``.
        Every conv's saved input is alive, saved itself, or is a stand-in
        whose blocks rebuild it bitwise: the latter exactly for the convs
        that read a conv -> batchnorm -> Leaky ReLU unit (the stem, and
        ``b2.conv``, ``b3.conv1``, ``b3.conv2`` of each unit). The
        predictions are bitwise the same either way."""
        inputs, alive = self._record_conv_inputs(monkeypatch)
        config = micro_config(noi=2)
        params, batch = M.build_model(config), random_batch(config)
        bare = M.fpnn_forward(batch, params, mode="train")
        bare_alive = alive[0]
        inputs.clear()
        alive.clear()
        cached, _, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
        assert len(inputs) == len(M.conv_layout(config))
        saved = {id(s[1]): s[0] for s in _conv_saved(cache)}
        rebuilt = 0
        for ref, data, weights in inputs:
            x = saved[id(weights)]
            if isinstance(x, ops.RebuiltActivation):
                rebuilt += 1
                assert x[0:x.shape[0]].tobytes() == data
            else:
                assert x is ref()
        assert rebuilt == 2 * (1 + 3 * config.noi)
        assert alive[0] == bare_alive == len(inputs) - rebuilt
        assert bare.tobytes() == cached.tobytes()

    @staticmethod
    def _eval_op_arrays(monkeypatch, config):
        """``(called, returned)`` for an eval forward of ``config``: the names
        of the ops it called, traced at the names the model calls them by,
        and ``(name, array)`` for each array an op returned, its saved values
        included."""
        returned = []

        def traced(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                returned.append((fn.__name__, out))
                return out
            return call

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays(v)

        for name, value in list(vars(M).items()):
            if inspect.isfunction(value) and value.__module__ == ops.__name__:
                monkeypatch.setattr(M, name, traced(value))
        M.fpnn_forward(random_batch(config), M.build_model(config), mode="eval")
        return ({name for name, _ in returned},
                [(name, a) for name, out in returned for a in arrays(out)])

    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_eval_forward_makes_no_activation_sized_bool_array(self, monkeypatch, detach):
        """No op an eval forward calls returns a bool array the size of a
        conv activation (any [N, H, W, C] one): the units' Leaky ReLUs keep
        no x > 0 mask. The ops are traced at the names the model calls them
        by; only the head's [N, hidden] Leaky ReLU still saves its mask."""
        called, returned = self._eval_op_arrays(monkeypatch, micro_config(noi=2, detach=detach))
        assert {"conv_forward", "leaky_relu"} <= called
        masks = [name for name, a in returned if a.dtype == np.bool_ and a.ndim == 4]
        assert masks == []

    @pytest.mark.parametrize("detach", [d for d in DETACH_VARIANTS if not d.initial_layers])
    def test_eval_forward_makes_no_argmax(self, monkeypatch, detach):
        """No op an eval forward calls returns an integer array the size of
        a pooled activation: the stem's max pool runs as ``ops.max_pool``,
        the running maximum without ``max_pool2d``'s argmax."""
        called, returned = self._eval_op_arrays(monkeypatch, micro_config(noi=2, detach=detach))
        argmaxes = [name for name, a in returned if a.dtype.kind in "iu" and a.ndim == 4]
        assert argmaxes == []
        assert "max_pool" in called

    def test_leaky_relus_cache_bool_masks(self, monkeypatch):
        # every Leaky ReLU's saved value reaches the cache, and it holds the
        # x > 0 mask, not the float input
        saved = []

        def record(x, alpha):
            out, s = ops.leaky_relu_forward(x, alpha)
            saved.append(s)
            return out, s

        def held(obj):
            yield obj
            for v in (obj.values() if isinstance(obj, dict)
                      else obj if isinstance(obj, (list, tuple)) else ()):
                yield from held(v)

        monkeypatch.setattr(M, "leaky_relu_forward", record)
        config = micro_config()
        _, _, cache = M.fpnn_forward(random_batch(config), M.build_model(config), mode="train",
                                     want_cache=True)
        assert len(saved) == 2 * (2 + 7) + 1  # per stream front, stem, unit; one hidden fc
        cached = {id(obj) for obj in held(cache)}
        for s in saved:
            assert id(s) in cached
            arrays = [a for a in held(s) if isinstance(a, np.ndarray)]
            assert [a.dtype for a in arrays] == [np.bool_]


class TestWeightExport:
    def test_eight_matrices(self):
        params = M.build_model(micro_config(noi=3))
        mats = M.export_block_weights(params, 0, "raw")
        assert set(mats) == {
            "branch1x1_conv", "branch3x3_reduce", "branch3x3_conv",
            "branch3x3stack_reduce", "branch3x3stack_conv1", "branch3x3stack_conv2",
            "branch_pool_conv", "residual_proj",
        }

    def test_branch1x1_shape(self):
        params = M.build_model(micro_config(noi=2))
        mats0 = M.export_block_weights(params, 0, "raw")
        assert mats0["branch1x1_conv"].shape == (16, 64)
        mats1 = M.export_block_weights(params, 1, "raw")
        assert mats1["branch1x1_conv"].shape == (16, 88)
        assert mats1["branch3x3_conv"].shape == (24, 16 * 9)
        assert mats1["residual_proj"].shape == (88, 88)

    def test_round_trip_bitwise(self):
        # each exported matrix reshapes bitwise back to its kernel
        params = M.build_model(micro_config(noi=1))
        mats = M.export_block_weights(params, 0, "raw")
        for public, layer in M.BLOCK_EXPORT_LAYERS.items():
            kernel = params.tensors[f"raw.block0.{layer}.w"]
            assert np.array_equal(mats[public].reshape(kernel.shape), kernel), public

    def test_block_out_of_range(self):
        params = M.build_model(micro_config(noi=1))
        with pytest.raises(ValueError):
            M.export_block_weights(params, 5, "raw")
        with pytest.raises(ValueError):
            M.export_block_weights(params, 0, "nope")
