"""Loss/metric fidelity, Adam hand-checks, loop determinism and early
stopping, checkpoint round trips and validation, and the depth sweep's
once-per-window preprocessing and cell bookkeeping."""

import json
import logging
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fpnn import io as tio
from fpnn import training as T
from fpnn.dataset import BatteryRecord, CycleCurve
from fpnn.datagen import generate_fleet
from fpnn.errors import CheckpointError, NonFiniteError, ShapeError, TrainingError
from fpnn.model import DetachFlags, FpnnConfig, bn_name, build_model, fpnn_forward
from fpnn.preprocess import SampleSet, preprocess_fleet

from oracles import metrics_loop


class TestMseLoss:
    def test_zero_at_match(self):
        loss, grad = T.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert not grad.any()

    def test_unit_case(self):
        loss, grad = T.mse_loss(np.array([1.0]), np.array([0.0]))
        assert loss == 1.0
        np.testing.assert_array_equal(grad, [2.0])

    def test_matches_hand_sum(self):
        rng = np.random.default_rng(2)
        p, t = rng.standard_normal(50), rng.standard_normal(50)
        loss, grad = T.mse_loss(p, t)
        want = sum((a - b) ** 2 for a, b in zip(p, t)) / 50
        np.testing.assert_allclose(loss, want, atol=1e-12)
        np.testing.assert_allclose(grad, 2 * (p - t) / 50, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            T.mse_loss(np.zeros(3), np.zeros(4))


class TestMetrics:
    def test_single_sample(self):
        mape, mae, rmse = T.compute_metrics(np.array([100.0]), np.array([90.0]))
        assert (mape, mae, rmse) == (10.0, 10.0, 10.0)

    def test_perfect_prediction(self):
        mape, mae, rmse = T.compute_metrics(np.array([50.0, 60.0]), np.array([50.0, 60.0]))
        assert (mape, mae, rmse) == (0.0, 0.0, 0.0)

    def test_hand_case(self):
        mape, mae, rmse = T.compute_metrics(np.array([100.0, 200.0]), np.array([110.0, 180.0]))
        np.testing.assert_allclose(mape, 10.0, atol=1e-12)
        np.testing.assert_allclose(mae, 15.0, atol=1e-12)
        np.testing.assert_allclose(rmse, np.sqrt(250.0), atol=1e-12)

    def test_matches_bruteforce_sums(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.uniform(50, 1500, 30)
            yhat = y + rng.standard_normal(30) * 20
            got = T.compute_metrics(y, yhat)
            want = metrics_loop(y, yhat)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            y = rng.uniform(1, 100, 20)
            yhat = y + rng.standard_normal(20) * rng.uniform(0.1, 30)
            mape, mae, rmse = T.compute_metrics(y, yhat)
            assert rmse >= mae >= 0 and mape >= 0

    def test_zero_actual_rejected(self):
        with pytest.raises(ValueError):
            T.compute_metrics(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


class TestAdam:
    def cfg(self, **kw):
        base = dict(epochs=1, batch_size=2, learning_rate=0.1, weight_decay=0.0, seed=0)
        base.update(kw)
        return T.TrainConfig(**base)

    def test_zero_grad_keeps_params(self):
        x = {"a": np.array([1.0, -2.0])}
        g = {"a": np.zeros(2)}
        state = T.AdamState.initial(x)
        new_x, new_state = T.adam_step(x, g, state, self.cfg())
        np.testing.assert_array_equal(new_x["a"], x["a"])
        assert new_state.t == 1

    def test_constant_grad_moves_against_sign(self):
        x = {"a": np.array([0.0])}
        state = T.AdamState.initial(x)
        cfg = self.cfg()
        for _ in range(50):
            x, state = T.adam_step(x, {"a": np.array([3.0])}, state, cfg)
        assert x["a"][0] < -0.5  # moved opposite the positive gradient

    def test_single_step_hand_computation(self):
        g = 0.37
        lr = 0.05
        cfg = self.cfg(learning_rate=lr)
        x = {"a": np.array([1.0])}
        state = T.AdamState.initial(x)
        new_x, new_state = T.adam_step(x, {"a": np.array([g])}, state, cfg)
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        want = 1.0 - lr * m_hat / (np.sqrt(v_hat) + T.ADAM_EPS)
        np.testing.assert_allclose(new_x["a"][0], want, atol=1e-15)
        np.testing.assert_allclose(new_state.m["a"][0], m, atol=1e-15)
        np.testing.assert_allclose(new_state.v["a"][0], v, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        x = {"a": np.zeros(2)}
        state = T.AdamState.initial(x)
        with pytest.raises(ValueError):
            T.adam_step(x, {"a": np.zeros(3)}, state, self.cfg())
        with pytest.raises(ValueError):
            T.adam_step(x, {"b": np.zeros(2)}, state, self.cfg())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            T.TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            T.TrainConfig(learning_rate=0.0)


@pytest.fixture(scope="module")
def tiny_splits():
    records = generate_fleet(8, seed=13, life_range=(200, 900))
    train, test, _, _ = preprocess_fleet(records, 10, grid_side=8, seed=1)
    return train, test


class TestTrainLoop:
    def test_deterministic_history(self, tiny_splits):
        train_set, val_set = tiny_splits
        config = FpnnConfig(noi=0, grid_side=8, head_hidden=(8,), seed=5)
        cfg = T.TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3, seed=7)
        _, hist_a = T.train(build_model(config), train_set, val_set, cfg)
        _, hist_b = T.train(build_model(config), train_set, val_set, cfg)
        assert [(h.train_loss, h.val_mape) for h in hist_a] == [
            (h.train_loss, h.val_mape) for h in hist_b
        ]

    def test_patience_zero_stops_at_first_non_improvement(self, tiny_splits):
        train_set, val_set = tiny_splits
        config = FpnnConfig(noi=0, grid_side=8, head_hidden=(4,), seed=2)
        cfg = T.TrainConfig(epochs=50, batch_size=8, learning_rate=1e-6, patience=0, seed=3)
        _, history = T.train(build_model(config), train_set, val_set, cfg)
        mapes = [h.val_mape for h in history]
        assert len(history) < 50
        # stopped exactly one epoch after the first non-improvement
        best_so_far = mapes[0]
        for i, m in enumerate(mapes[1:], start=1):
            if m >= best_so_far:
                assert i == len(mapes) - 1
                break
            best_so_far = m

    def test_zero_lr_keeps_params(self, tiny_splits):
        # learning-rate floor: lr must be > 0, so probe the optimizer directly
        config = FpnnConfig(noi=0, grid_side=8, head_hidden=(4,), seed=2)
        params = build_model(config)
        grads = {k: np.ones_like(v) for k, v in params.tensors.items()}
        state = T.AdamState.initial(params.tensors)
        cfg = T.TrainConfig(epochs=1, batch_size=2, learning_rate=1e-30, weight_decay=0.0)
        new_tensors, _ = T.adam_step(params.tensors, grads, state, cfg)
        for k in params.tensors:
            np.testing.assert_allclose(new_tensors[k], params.tensors[k], atol=1e-12)

    def test_empty_split_rejected(self, tiny_splits):
        train_set, val_set = tiny_splits
        config = FpnnConfig(noi=0, grid_side=8, seed=0)
        with pytest.raises(TrainingError):
            T.train(build_model(config), train_set.subset([]), val_set,
                    T.TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # NonFiniteError is the only signal
    def test_overflow_names_epoch_and_batch(self, tiny_splits):
        train_set, val_set = tiny_splits
        params = build_model(FpnnConfig(noi=0, grid_side=8, head_hidden=(4,), seed=0))
        # the stem's window sums overflow float64 in the first forward pass
        params.tensors["raw.init.conv.w"] = np.full_like(params.tensors["raw.init.conv.w"], 1e308)
        with np.errstate(over="ignore"), pytest.raises(
                TrainingError, match=r"epoch 1, batch 0 \(samples 0\.\.7\)") as info:
            T.train(params, train_set, val_set, T.TrainConfig(epochs=1, batch_size=8))
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_non_finite_diff_input_names_epoch_batch_and_layer(self, tiny_splits):
        train_set, val_set = tiny_splits
        cfg = T.TrainConfig(epochs=1, batch_size=8, seed=3)
        bad = train_set.subset(np.arange(len(train_set)))
        # the first sample of the second batch, in the loop's shuffled order
        bad.diff[np.random.default_rng(cfg.seed).permutation(len(bad))[8], 2] = np.nan
        params = build_model(FpnnConfig(noi=0, grid_side=8, head_hidden=(4,), seed=0))
        with pytest.raises(TrainingError, match=r"^diff\.front\.conv3d: .* at epoch 1, "
                                                r"batch 1 \(samples 8\.\.15\)$") as info:
            T.train(params, bad, val_set, cfg)
        assert isinstance(info.value.__cause__, NonFiniteError)

    def test_one_value_per_batchnorm_channel_names_layer_epoch_and_batch(self):
        """At G=4 the inception unit runs at 1x1, so a one-sample minibatch
        leaves its batchnorms one value per channel: the forward names the
        conv, and train() rejects a split that ends in one before any step."""
        n, grid = 3, 4
        rng = np.random.default_rng(0)
        samples = SampleSet(raw=rng.standard_normal((n, 3, 4, grid, grid)),
                            diff=rng.standard_normal((n, 3, 3, grid, grid)),
                            labels=np.array([300.0, 500.0, 700.0]), battery_ids=["b0"] * n,
                            anchor_cycles=np.full(n, 10))
        params = build_model(FpnnConfig(noi=1, grid_side=grid, head_hidden=(4,), seed=0))
        with pytest.raises(ShapeError, match=r"^raw\.block0\.b1\.conv: train-mode batchnorm "
                                             r"needs N\*H\*W >= 2, got input \(1, 1, 1, 16\)$"):
            fpnn_forward((samples.raw[:1], samples.diff[:1]), params, mode="train")
        with pytest.raises(TrainingError, match=r"^a train split of 3 samples at batch size 2 "
                                                r"ends in a one-sample minibatch, and at grid 4 "
                                                r"with noi 1 a batchnorm runs at 1x1") as info:
            T.train(params, samples, samples, T.TrainConfig(epochs=1, batch_size=2))
        assert info.value.__cause__ is None  # raised before any step, not by one
        T.train(params, samples, samples, T.TrainConfig(epochs=1, batch_size=3))

    def test_overfits_small_set(self, tiny_splits):
        # capacity sanity: a micro model memorizes 16 samples
        train_set, _ = tiny_splits
        subset = train_set.subset(np.arange(16))
        config = FpnnConfig(noi=1, grid_side=8, head_hidden=(32,), seed=11)
        cfg = T.TrainConfig(epochs=50, batch_size=4, learning_rate=1e-3,
                            weight_decay=0.0, patience=50, seed=4)
        best, history = T.train(build_model(config), subset, subset, cfg)
        report = T.evaluate(best, subset)
        assert report.mape < 2.0, f"train MAPE {report.mape:.2f}%"


class TestEvaluate:
    def test_report_fields(self, tiny_splits):
        train_set, _ = tiny_splits
        config = FpnnConfig(noi=0, grid_side=8, seed=1)
        report = T.evaluate(build_model(config), train_set.subset(np.arange(10)))
        assert report.rmse >= report.mae >= 0
        assert len(report.residuals) == 10
        assert all("mae" in v and "life" in v for v in report.per_battery.values())

    @pytest.mark.parametrize("noi", [0, 1, 2])
    def test_predictions_do_not_depend_on_chunk_size(self, monkeypatch, noi):
        """Chunks of 64, 16 and 8 samples give the same predictions bit for
        bit at G=32 (chunks of 4 or fewer do not: their matmuls round
        differently)."""
        rng = np.random.default_rng(noi)
        n = 21
        samples = SampleSet(raw=rng.standard_normal((n, 3, 4, 32, 32)),
                            diff=rng.standard_normal((n, 3, 3, 32, 32)),
                            labels=rng.uniform(200, 900, n), battery_ids=["b0"] * n,
                            anchor_cycles=np.full(n, 10))
        params = build_model(FpnnConfig(noi=noi, grid_side=32, seed=3))
        got = []
        for chunk in (64, 16, 8):
            monkeypatch.setattr(T, "EVAL_CHUNK", chunk)
            got.append(T.evaluate(params, samples).residuals.tobytes())
        assert got[0] == got[1] == got[2]

    def test_equal_magnitude_errors_give_a_report(self, monkeypatch):
        # 18 errors of one magnitude: rounding puts the RMSE an ulp below the MAE
        n, error = 18, 980.8355304228423
        samples = SampleSet(raw=np.zeros((n, 3, 4, 2, 2)), diff=np.zeros((n, 3, 3, 2, 2)),
                            labels=np.full(n, 1500.0), battery_ids=["b0"] * n,
                            anchor_cycles=np.full(n, 10))
        monkeypatch.setattr(T, "_forward_in_chunks", lambda params, s: s.labels - error)
        report = T.evaluate(None, samples)
        assert report.mae == pytest.approx(error) and report.rmse == pytest.approx(error)
        assert report.per_battery["b0"]["n_samples"] == n


class TestCheckpoint:
    def _params(self):
        return build_model(FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=21))

    def test_round_trip_bitwise(self, tmp_path):
        params = self._params()
        path = tmp_path / "model.fpt"
        T.save_checkpoint(params, path)
        loaded = T.load_checkpoint(path)
        assert loaded.config == params.config
        assert list(loaded.tensors) == list(params.tensors)
        for k in params.tensors:
            assert np.array_equal(loaded.tensors[k], params.tensors[k]), k
        for k in params.bn_states:
            assert np.array_equal(loaded.bn_states[k].mean, params.bn_states[k].mean)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "model.fpt"
        T.save_checkpoint(self._params(), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            T.load_checkpoint(path)

    def test_corrupt_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "model.fpt"
        T.save_checkpoint(self._params(), path)
        blob = bytearray(path.read_bytes())
        blob[-5] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            T.load_checkpoint(path)

    def test_version_mismatch_reported(self, tmp_path):
        import struct

        path = tmp_path / "model.fpt"
        T.save_checkpoint(self._params(), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 999)  # bump the container version
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            T.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            T.load_checkpoint(tmp_path / "nope.fpt")

    def _saved(self, tmp_path, edit):
        params = self._params()
        edit(params)
        path = tmp_path / "model.fpt"
        T.save_checkpoint(params, path)
        return path

    def test_missing_tensor_named(self, tmp_path):
        path = self._saved(tmp_path, lambda p: p.tensors.pop("raw.block0.b2.conv.w"))
        with pytest.raises(CheckpointError, match=r"model\.fpt.*'raw\.block0\.b2\.conv\.w'"):
            T.load_checkpoint(path)

    def test_wrong_shape_named(self, tmp_path):
        def edit(p):
            p.tensors["head.fc0.b"] = np.zeros(5)
        path = self._saved(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"model\.fpt.*'head\.fc0\.b' has shape \(5,\)"):
            T.load_checkpoint(path)

    def test_missing_bn_state_named(self, tmp_path):
        path = self._saved(tmp_path, lambda p: p.bn_states.pop("diff.init.conv.bn"))
        with pytest.raises(CheckpointError, match=r"model\.fpt.*'diff\.init\.conv\.bn\.running_mean'"):
            T.load_checkpoint(path)

    def test_unexpected_tensor_named(self, tmp_path):
        def edit(p):
            p.tensors["raw.block7.proj.w"] = np.zeros((88, 88, 1, 1))
        path = self._saved(tmp_path, edit)
        with pytest.raises(CheckpointError, match=r"model\.fpt.*'raw\.block7\.proj\.w'"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("edit,fault", [
        (lambda m: m.pop("config"), "meta has no 'config'$"),
        (lambda m: m["config"].pop("noi"), "config 'noi': missing$"),
        (lambda m: m["config"].update(noi="x"), "config 'noi': invalid literal for int"),
        (lambda m: m["config"].update(detach={"residul": True}),
         "config 'detach': .*unexpected keyword argument 'residul'$"),
    ], ids=["no-config", "no-noi", "string-noi", "unknown-detach"])
    def test_bad_config_names_file_and_key(self, tmp_path, edit, fault):
        T.save_checkpoint(self._params(), tmp_path / "model.fpt")
        meta, tensors = tio.read_tensors(tmp_path / "model.fpt")
        edit(meta)
        tio.write_tensors(tmp_path / "model.fpt", tensors, meta)
        where = re.escape(str(tmp_path / "model.fpt"))
        with pytest.raises(CheckpointError, match=f"^{where}: {fault}"):
            T.load_checkpoint(tmp_path / "model.fpt")

    def test_valid_checkpoint_loads_bitwise(self, tmp_path):
        params = self._params()
        rng = np.random.default_rng(8)
        for state in params.bn_states.values():  # non-initial running statistics
            state.mean += rng.standard_normal(state.mean.shape)
            state.var += rng.random(state.var.shape)
        path = tmp_path / "model.fpt"
        T.save_checkpoint(params, path)
        loaded = T.load_checkpoint(path)
        assert list(loaded.tensors) == list(params.tensors)
        assert list(loaded.bn_states) == list(params.bn_states)
        for k, t in params.tensors.items():
            assert loaded.tensors[k].tobytes() == t.tobytes(), k
        for k, state in params.bn_states.items():
            assert loaded.bn_states[k].mean.tobytes() == state.mean.tobytes(), k
            assert loaded.bn_states[k].var.tobytes() == state.var.tobytes(), k

    def test_checkpoint_with_former_meta_keys_predicts_bitwise(self, tmp_path):
        """A checkpoint whose meta still holds ``sample_depth`` in its config
        and a ``bn_names`` list, as they were once written, loads and
        predicts in eval mode bit for bit what the same tensors saved now do."""
        params = self._params()
        rng = np.random.default_rng(9)
        for state in params.bn_states.values():
            state.mean += rng.standard_normal(state.mean.shape)
            state.var += rng.random(state.var.shape)
        T.save_checkpoint(params, tmp_path / "now.fpt")
        meta, tensors = tio.read_tensors(tmp_path / "now.fpt")
        assert "bn_names" not in meta and "sample_depth" not in meta["config"]
        former = {**meta, "config": {**meta["config"], "sample_depth": 4},
                  "bn_names": sorted(params.bn_states)}
        tio.write_tensors(tmp_path / "former.fpt", tensors, former)
        batch = (rng.uniform(-1, 1, (4, 3, 4, 8, 8)), rng.uniform(-1, 1, (4, 3, 3, 8, 8)))
        preds = [fpnn_forward(batch, T.load_checkpoint(tmp_path / name))
                 for name in ("now.fpt", "former.fpt")]
        assert preds[0].tobytes() == preds[1].tobytes()

    def _with_conv_biases(self, tmp_path, rng, params):
        """``params`` saved as a checkpoint was while every conv with a
        batchnorm had a bias: a random ``{conv}.b`` after each such conv's
        weight, and the running mean that bias shifted, ``running_mean + b``."""
        T.save_checkpoint(params, tmp_path / "now.fpt")
        meta, tensors = tio.read_tensors(tmp_path / "now.fpt")
        former = {}
        for name, t in tensors.items():
            former[name] = t
            conv = name.removesuffix(".w")
            if name.endswith(".w") and bn_name(conv) in params.bn_states:
                former[f"{conv}.b"] = b = rng.standard_normal(t.shape[0])
                tensors[f"{bn_name(conv)}.running_mean"] += b
        path = tmp_path / "former.fpt"
        tio.write_tensors(path, former, meta)
        return path, former

    def test_checkpoint_with_conv_biases_predicts_what_it_encodes(self, tmp_path):
        """Each bias folds into its batchnorm's running mean: the loaded
        parameters have the model's tensors, in build order, and predict in
        eval mode within 1e-12 relative of the bias-free ones they encode."""
        params = self._params()
        rng = np.random.default_rng(10)
        for state in params.bn_states.values():
            state.mean += rng.standard_normal(state.mean.shape)
            state.var += rng.random(state.var.shape)
        path, former = self._with_conv_biases(tmp_path, rng, params)
        assert len(former) - len(params.tensors) - 2 * len(params.bn_states) == 18
        loaded = T.load_checkpoint(path)
        assert list(loaded.tensors) == list(params.tensors)
        assert list(loaded.bn_states) == list(params.bn_states)
        batch = (rng.uniform(-1, 1, (4, 3, 4, 8, 8)), rng.uniform(-1, 1, (4, 3, 3, 8, 8)))
        got, want = fpnn_forward(batch, loaded), fpnn_forward(batch, params)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_conv_bias_of_wrong_shape_named(self, tmp_path):
        params = self._params()
        path, former = self._with_conv_biases(tmp_path, np.random.default_rng(11), params)
        former["raw.block0.b2.conv.b"] = np.zeros(5)
        tio.write_tensors(path, former, tio.read_tensors(path)[0])
        with pytest.raises(CheckpointError,
                           match=r"former\.fpt.*'raw\.block0\.b2\.conv\.b' has shape \(5,\)"):
            T.load_checkpoint(path)

    def test_residual_projection_bias_is_unexpected(self, tmp_path):
        """Only a conv with a batchnorm ever had a bias to fold."""
        params = self._params()
        params.tensors["raw.block0.proj.b"] = np.zeros(88)
        T.save_checkpoint(params, tmp_path / "model.fpt")
        with pytest.raises(CheckpointError, match=r"unexpected tensor 'raw\.block0\.proj\.b'"):
            T.load_checkpoint(tmp_path / "model.fpt")


def short_fleet(n_batteries=3, n_cycles=8):
    """Batteries with too few cycles for any input window, so no cell trains."""
    q = np.linspace(0.01, 1.0, 16)
    cycles = [CycleCurve(k, q, 3.0 + q, np.ones(16), np.full(16, 30.0))
              for k in range(1, n_cycles + 1)]
    return [BatteryRecord(f"s{i}", cycles, life=400) for i in range(n_batteries)]


@pytest.fixture(scope="module")
def sweep_fleet():
    return generate_fleet(4, seed=3, life_range=(200, 700))


SWEEP_CONFIG = T.TrainConfig(epochs=1, batch_size=4, seed=5)


def count_preprocessing(monkeypatch) -> list[int]:
    """Windows passed to preprocess_fleet from here on, in call order."""
    windows = []
    real = T.preprocess_fleet

    def counting(records, n_input_cycles, *args, **kwargs):
        windows.append(n_input_cycles)
        return real(records, n_input_cycles, *args, **kwargs)

    monkeypatch.setattr(T, "preprocess_fleet", counting)
    return windows


class TestSweep:
    def test_failed_cell_is_nan_row_with_error(self, sweep_fleet, caplog):
        train_set, test_set, _, _ = preprocess_fleet(sweep_fleet, 10, grid_side=8, seed=5)
        one_battery = train_set.subset(
            [i for i, b in enumerate(train_set.battery_ids) if b == train_set.battery_ids[0]])
        config = FpnnConfig(noi=1, grid_side=8, seed=42)
        with caplog.at_level(logging.WARNING, logger=T.__name__):
            cell = T.run_sweep_cell(one_battery, test_set, 10, config, T.TrainConfig(epochs=1))
        assert (cell.n_input_cycles, cell.noi, cell.seed) == (10, 1, 42)
        assert np.isnan([cell.mape, cell.mae, cell.rmse]).all()
        assert cell.error == "ValueError: need at least 2 batteries to hold one out"
        [record] = [r for r in caplog.records if r.name == T.__name__]
        assert record.getMessage() == f"failed: {cell}" and record.exc_info[0] is ValueError

    def test_cells_window_major_with_offset_seeds(self):
        cells = T.noi_sweep(short_fleet(), [10, 20], [0, 2], 8, T.TrainConfig(epochs=1), seed=7)
        assert [(c.n_input_cycles, c.noi) for c in cells] == [(10, 0), (10, 2), (20, 0), (20, 2)]
        assert [c.seed for c in cells] == [7, 1007, 2007, 3007]
        assert all(c.error and np.isnan(c.mape) for c in cells)

    def test_failed_cells_logged_with_traceback(self, caplog):
        """Each failed cell is one WARNING record of the module's logger,
        carrying the exception and its traceback; the cell keeps its
        one-line error."""
        with caplog.at_level(logging.WARNING, logger=T.__name__):
            cells = T.noi_sweep(short_fleet(), [10, 20], [0, 2], 8, T.TrainConfig(epochs=1),
                                seed=7)
        records = [r for r in caplog.records if r.name == T.__name__]
        assert len(records) == len(cells) == 4
        for record, cell in zip(records, cells):
            assert record.levelno == logging.WARNING
            exc_type, exc, tb = record.exc_info
            assert tb is not None and cell.error == f"{exc_type.__name__}: {exc}"
            assert record.getMessage() == f"failed: {cell}"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            T.noi_sweep(short_fleet(), [], [0], 8, T.TrainConfig(epochs=1), seed=0)
        with pytest.raises(ValueError):
            T.noi_sweep(short_fleet(), [10], [], 8, T.TrainConfig(epochs=1), seed=0)

    def test_window_cells_share_one_grid_side(self):
        configs = [FpnnConfig(grid_side=8), FpnnConfig(grid_side=16)]
        with pytest.raises(ValueError, match="one grid side"):
            T.run_sweep_window(short_fleet(), 10, configs, T.TrainConfig(epochs=1))

    def test_preprocesses_once_per_window(self, sweep_fleet, monkeypatch):
        windows = count_preprocessing(monkeypatch)
        cells = T.noi_sweep(sweep_fleet, [10, 20], [0, 1, 2], 8, SWEEP_CONFIG, seed=2)
        assert windows == [10, 20]
        assert len(cells) == 6 and not any(c.error for c in cells)

    def test_ablate_preprocesses_once(self, sweep_fleet, tmp_path, monkeypatch):
        from fpnn import cli
        from fpnn.dataset import save_canonical_dataset

        save_canonical_dataset(sweep_fleet, tmp_path / "fleet")
        windows = count_preprocessing(monkeypatch)
        assert cli.main(["ablate", "--data", str(tmp_path / "fleet"), "--cycles", "10",
                         "--grid", "8", "--epochs", "1", "--batch-size", "4",
                         "--out", str(tmp_path / "out")]) == 0
        assert windows == [10]

    def test_worker_processes_give_the_same_cells(self, sweep_fleet):
        serial = T.noi_sweep(sweep_fleet, [10, 20], [0, 1], 8, SWEEP_CONFIG, seed=2)
        pooled = T.noi_sweep(sweep_fleet, [10, 20], [0, 1], 8, SWEEP_CONFIG, seed=2, jobs=2)
        assert not any(c.error for c in serial)
        assert [(c.n_input_cycles, c.noi, c.seed, c.error) for c in pooled] == \
            [(c.n_input_cycles, c.noi, c.seed, c.error) for c in serial]
        for a, b in zip(serial, pooled):
            assert np.array([a.mape, a.mae, a.rmse]).tobytes() == \
                np.array([b.mape, b.mae, b.rmse]).tobytes()

    def test_worker_processes_after_threaded_training(self):
        # Worker processes fork from a process whose train() already ran the
        # stream threads; a thread or lock left behind would hang them.
        code = textwrap.dedent("""
            import json
            from fpnn import training as T
            from fpnn.datagen import generate_fleet
            from fpnn.model import FpnnConfig, build_model
            from fpnn.preprocess import preprocess_fleet

            records = generate_fleet(4, seed=3, life_range=(200, 700))
            fit, val, _, _ = preprocess_fleet(records, 10, grid_side=8, seed=1)
            T.train(build_model(FpnnConfig(noi=1, grid_side=8, seed=0)), fit, val,
                    T.TrainConfig(epochs=1, batch_size=4))
            cfg = T.TrainConfig(epochs=1, batch_size=4, seed=5)
            rows = [[(c.n_input_cycles, c.noi, c.seed, c.error, c.mape.hex(), c.mae.hex(),
                      c.rmse.hex()) for c in T.noi_sweep(records, [10, 20], [0, 1], 8, cfg,
                                                         seed=2, jobs=jobs)]
                    for jobs in (2, 1)]
            print(json.dumps(rows))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(T.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        pooled, serial = json.loads(proc.stdout)
        assert len(serial) == 4 and not any(row[3] for row in serial)
        assert pooled == serial

    def test_failed_window_gives_every_cell_a_nan_row(self, sweep_fleet):
        fleet = list(sweep_fleet)
        fleet[1] = BatteryRecord(fleet[1].battery_id, fleet[1].cycles[:15], fleet[1].life)
        cells = T.noi_sweep(fleet, [10, 20], [0, 1, 2], 8, SWEEP_CONFIG, seed=2)
        assert [(c.n_input_cycles, c.noi) for c in cells] == \
            [(w, n) for w in (10, 20) for n in (0, 1, 2)]
        assert [c.seed for c in cells] == [2 + 1000 * i for i in range(6)]
        assert not any(c.error for c in cells[:3])
        for c in cells[3:]:
            assert np.isnan([c.mape, c.mae, c.rmse]).all()
            assert c.error.startswith("DataValidationError: ")
            assert "has 15 cycles, needs >= 20" in c.error
