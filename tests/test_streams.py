"""The two streams on two threads: bitwise the results of running them one
after the other, errors as a loop would raise them, no thread alive after a
call, a cache that survives repeated backward passes, and the BLAS thread
default that ``import fpnn`` sets, with its warning when numpy came first."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fpnn
from fpnn import model as M
from fpnn.errors import NonFiniteError

SRC = Path(fpnn.__file__).resolve().parent.parent

DETACH_VARIANTS = [M.DetachFlags()] + [
    M.DetachFlags(**{flag: True})
    for flag in ("initial_layers", "conv3d", "residual", "diff_branch")
]


def sequential(fn, streams):
    return [fn(s) for s in streams]


def random_batch(config, n=3, seed=0):
    rng = np.random.default_rng(seed)
    g, d = config.grid_side, config.sample_depth
    return rng.standard_normal((n, 3, d, g, g)), rng.standard_normal((n, 3, d - 1, g, g))


def step(params, batch, seed=1):
    """Train-mode forward and backward, then an eval-mode forward: every
    array as bytes, and the key order of states and gradients."""
    preds, states, cache = M.fpnn_forward(batch, params, mode="train", want_cache=True)
    grads = M.fpnn_backward(params, cache, np.random.default_rng(seed).standard_normal(len(preds)))
    evaluated = M.fpnn_forward(batch, M.FpnnParams(params.config, params.tensors, states))
    return {
        "preds": preds.tobytes(),
        "eval_preds": evaluated.tobytes(),
        "state_keys": list(states),
        "states": [s.mean.tobytes() + s.var.tobytes() for s in states.values()],
        "grad_keys": list(grads),
        "grads": [g.tobytes() for g in grads.values()],
    }


class TestThreadedStreams:
    @pytest.mark.parametrize("noi", [0, 2])
    @pytest.mark.parametrize("detach", DETACH_VARIANTS)
    def test_bitwise_equal_to_sequential(self, noi, detach, monkeypatch):
        config = M.FpnnConfig(noi=noi, grid_side=8, head_hidden=(8,), detach=detach, seed=4)
        params = M.build_model(config)
        batch = random_batch(config)
        threaded = step(params, batch)
        monkeypatch.setattr(M, "_map_streams", sequential)
        assert step(params, batch) == threaded
        # gradients in build order: each stream's in stream order, then the head's
        assert threaded["grad_keys"] == list(params.tensors)

    def test_no_thread_outlives_a_call(self):
        config = M.FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=4)
        params = M.build_model(config)
        before = threading.active_count()
        step(params, random_batch(config))
        assert threading.active_count() == before

    def test_backward_leaves_its_cache_intact(self):
        config = M.FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=4)
        params = M.build_model(config)
        preds, _, cache = M.fpnn_forward(random_batch(config), params, mode="train",
                                         want_cache=True)
        g = np.ones_like(preds)
        runs = [M.fpnn_backward(params, cache, g) for _ in range(3)]
        for grads in runs[1:]:
            assert list(grads) == list(runs[0])
            assert all(grads[k].tobytes() == runs[0][k].tobytes() for k in grads)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_diff_stream_error_names_the_layer(self, mode):
        config = M.FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=4)
        raw, diff = random_batch(config)
        diff[0, 1, 0, 2, 2] = np.nan
        before = threading.active_count()
        with pytest.raises(NonFiniteError, match=r"^diff\.front\.conv3d: conv forward"):
            M.fpnn_forward((raw, diff), M.build_model(config), mode=mode)
        assert threading.active_count() == before

    def test_worker_thread_keeps_the_callers_errstate(self):
        config = M.FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=4)
        params = M.build_model(config)
        params.tensors["diff.init.conv.w"] = np.full_like(params.tensors["diff.init.conv.w"],
                                                          1e308)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            M.fpnn_forward(random_batch(config), params, mode="train")

    def test_first_stream_error_wins(self):
        # both streams fail; a loop over the streams would raise the raw one's
        config = M.FpnnConfig(noi=1, grid_side=8, head_hidden=(8,), seed=4)
        raw, diff = random_batch(config)
        raw[0, 0, 0, 0, 0] = diff[0, 0, 0, 0, 0] = np.inf
        with pytest.raises(NonFiniteError, match=r"^raw\.front\.conv3d: "):
            M.fpnn_forward((raw, diff), M.build_model(config), mode="train")


def fresh_process(code: str, **preset) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with the BLAS variables unset but
    for ``preset``; every warning is shown on stderr."""
    env = {k: v for k, v in os.environ.items() if k not in fpnn.BLAS_THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-W", "always", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def blas_vars_in_fresh_process(**preset) -> dict:
    code = ("import json, os, fpnn, numpy; "
            "print(json.dumps({v: os.environ.get(v) for v in fpnn.BLAS_THREAD_VARS}))")
    return json.loads(fresh_process(code, **preset).stdout)


class TestBlasThreadDefault:
    def test_unset_variables_read_one(self):
        assert blas_vars_in_fresh_process() == dict.fromkeys(fpnn.BLAS_THREAD_VARS, "1")

    def test_preset_value_wins(self):
        got = blas_vars_in_fresh_process(OPENBLAS_NUM_THREADS="3")
        assert got == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}

    def test_numpy_imported_first_warns(self):
        err = fresh_process("import numpy; import fpnn").stderr
        assert err.count("RuntimeWarning") == 1
        assert all(v in err for v in fpnn.BLAS_THREAD_VARS)
        assert "import fpnn before numpy" in err

    def test_fpnn_imported_first_is_silent(self):
        assert fresh_process("import fpnn; import numpy").stderr == ""

    def test_preset_variable_with_numpy_first_is_silent(self):
        assert fresh_process("import numpy; import fpnn", OPENBLAS_NUM_THREADS="2").stderr == ""
