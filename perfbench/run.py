"""fpnn benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports fpnn from the checkout's
src/. With ``--trace 0`` it times set-up in fresh processes, then measures
the end-to-end metrics with no instrumentation; with ``--trace 1`` it
alternates plain and traced calls, then probes the layers, and reports the
per-layer metrics. Lines
before the last describe the environment and the outputs; the last line is
the result as JSON. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import settings

# setup_s is the median over this many fresh processes, each timed from its
# launch until its set-up is done.
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
MIB = 1 << 20

E2E_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "items_per_s": "1/s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=settings.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=sorted(settings.SIZES),
                   help="input sizes; 'tiny' is for the smoke test")
    # Used by measure_setup: set up, print the seconds since the given
    # launch time (time.time() in the parent), and exit.
    p.add_argument("--setup-only", type=float, metavar="LAUNCH_TIME", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class Loop:
    """Timed calls of one closed loop with a single client."""

    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.last = None


def timed_call(wl, i: int, loop: Loop) -> None:
    t0 = time.perf_counter()
    out = wl.call(i)
    loop.times.append(time.perf_counter() - t0)
    loop.attempted += wl.ops_per_call
    loop.failed += wl.failed_ops(i, out)
    loop.last = out


def measure(wl, seconds: float, min_calls: int) -> Loop:
    loop = Loop()
    start = time.perf_counter()
    while True:
        timed_call(wl, len(loop.times), loop)
        if time.perf_counter() - start >= seconds and len(loop.times) >= min_calls:
            return loop


def fast_mean(times: list[float]) -> float:
    """Mean call time without the slowest quarter of the calls."""
    kept = sorted(times)[:len(times) - len(times) // 4]
    return sum(kept) / len(kept)


def measure_setup(args) -> list[float]:
    """Set-up time of SETUP_REPS fresh processes, each from its launch until
    its set-up is done."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
           "--size", args.size, "--setup-only"]
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([*cmd, repr(time.time())], capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure_traced(wl, seconds: float, tracer) -> tuple[Loop, Loop]:
    """Alternate plain and traced calls, so both meet the same machine load."""
    plain, traced = Loop(), Loop()
    start = time.perf_counter()
    i = 0
    while True:
        timed_call(wl, i, plain)
        with tracer.install():
            tracer.request = i + 1
            timed_call(wl, i + 1, traced)
        i += 2
        if time.perf_counter() - start >= seconds:
            return plain, traced


def _blas_threads():
    """Threads OpenBLAS actually uses, read from the library numpy loaded."""
    import ctypes

    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _git_commit():
    if not (settings.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(settings.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((settings.SRC / "fpnn").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": settings.BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "dtype": "float64",
        "fpnn_src_lines": lines,
        "fpnn_src_sha256": digest.hexdigest(),
        "git_commit": _git_commit(),
    }


def load_reference(size: str, workload: str, variant: int):
    if not settings.REFERENCES.is_file():
        return None
    refs = json.loads(settings.REFERENCES.read_text())
    return refs.get(size, {}).get(workload, {}).get(str(variant))


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(s, rows: dict, overhead_pct: float) -> dict:
    """Per-layer metrics from the traced spans and the probe rows.

    ``.ms``/``.self_ms``/``.calls``/``.mib`` are per request, as the median
    over the requests that reached the function (set-up counts as one
    request); ``_p50`` is over single calls. A function the workload never
    reaches reads 0.
    """
    m = {}
    pre = "preprocess."
    m[pre + "hampel_filter.ms"] = _metric(s.ms(pre + "hampel_filter"), "ms")
    m[pre + "hampel_filter.calls"] = _metric(s.calls(pre + "hampel_filter"), "count")
    for fn in ("savitzky_golay", "resample_to_grid", "fit_scaler", "apply_scaler", "from_pairs"):
        m[f"{pre}{fn}.ms"] = _metric(s.ms(pre + fn), "ms")
    m[pre + "assemble_samples.self_ms"] = _metric(s.self_ms(pre + "assemble_samples"), "ms")
    m[pre + "preprocess_fleet.self_ms"] = _metric(s.self_ms(pre + "preprocess_fleet"), "ms")
    m[pre + "preprocess_fleet.calls"] = _metric(s.calls(pre + "preprocess_fleet"), "count")
    m[pre + "distinct_input_ratio"] = _metric(s.distinct_ratio(pre + "preprocess_fleet"), "ratio")
    for fn in ("write_tensors", "read_tensors"):
        m[f"io.{fn}.ms"] = _metric(s.ms(f"io.{fn}"), "ms")
        m[f"io.{fn}.mib"] = _metric(s.value_sum_per_request(f"io.{fn}") / MIB, "MiB")
    m["dataset.load_canonical_dataset.ms"] = _metric(s.ms("dataset.load_canonical_dataset"), "ms")
    for name, value in rows.items():
        if name.startswith("ops.conv.") and name.endswith("_ms"):
            m[name] = _metric(value, "ms")
    m["ops.conv.total.gflop"] = _metric(rows["ops.conv.total.gflop"], "GFLOP-computed")
    m["ops.conv.cols_mib"] = _metric(rows["ops.conv.cols_mib"], "MiB-computed")
    m["ops.conv.total.gflops_per_s"] = _metric(rows["ops.conv.total.gflops_per_s"], "GFLOP/s")
    for fn in ("batchnorm2d_forward", "batchnorm2d_backward", "max_pool2d", "avg_pool2d",
               "pool2d_backward", "leaky_relu_forward", "leaky_relu_backward"):
        m[f"ops.{fn}.ms"] = _metric(s.ms(f"ops.{fn}"), "ms")
    m["model.fpnn_forward.train_ms_p50"] = _metric(s.ms_p50("model.fpnn_forward.train"), "ms")
    m["model.fpnn_backward.ms_p50"] = _metric(s.ms_p50("model.fpnn_backward"), "ms")
    m["model.fpnn_forward.eval_ms_p50"] = _metric(s.ms_p50("model.fpnn_forward.eval"), "ms")
    m["model.fwd_cache_mib"] = _metric(s.value_median("model.fpnn_forward.train") / MIB, "MiB")
    m["model.conv_share"] = _metric(rows["model.conv_share"], "ratio")
    m["training.adam_step.ms_p50"] = _metric(s.ms_p50("training.adam_step"), "ms")
    m["training.mse_loss.ms_p50"] = _metric(s.ms_p50("training.mse_loss"), "ms")
    m["training.evaluate.ms"] = _metric(s.ms("training.evaluate"), "ms")
    m["training.train.self_ms"] = _metric(s.self_ms("training.train"), "ms")
    m["training.steps"] = _metric(s.calls("training.adam_step"), "count")
    m["training.step_peak_traced_mib"] = _metric(rows["training.step_peak_traced_mib"], "MiB")
    m["hyperopt.run_sweep_cell.self_ms"] = _metric(s.self_ms("hyperopt.run_sweep_cell"), "ms")
    m["hyperopt.run_sweep_cell.calls"] = _metric(s.calls("hyperopt.run_sweep_cell"), "count")
    m["hyperopt.cells_failed"] = _metric(
        s.value_sum_per_request("hyperopt.run_sweep_cell"), "count")
    m["trace.overhead_pct"] = _metric(overhead_pct, "%")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    settings.pin_blas_threads()
    settings.import_fpnn()
    import inputs
    import workloads

    variant = settings.variant_of(args.seed)
    input_dir = inputs.ensure(args.workload, args.size, variant)
    if args.setup_only is not None:
        wl = workloads.WORKLOADS[args.workload](args.size, variant, input_dir, None)
        try:
            wl.setup()
            print(time.time() - args.setup_only)
        finally:
            wl.close()
        return 0

    import probe
    from tracer import Tracer

    reference = load_reference(args.size, args.workload, variant)
    wl = workloads.WORKLOADS[args.workload](args.size, variant, input_dir, reference)
    env = environment()
    setup_times = measure_setup(args) if args.trace == 0 else []
    try:
        if args.trace == 0:
            wl.setup()
        min_calls = wl.cfg.get("min_requests", 1)
        detail = {"workload": args.workload, "size": args.size, "seed": args.seed,
                  "variant": variant, "reference": reference is not None,
                  "item": wl.item, "items_per_call": wl.items_per_call,
                  "op": wl.op, "ops_per_call": wl.ops_per_call}
        if args.trace == 0:
            loop = measure(wl, args.seconds, min_calls)
            attempted, failed = loop.attempted, loop.failed
            # Neighbours on a shared host stall calls in bursts; dropping
            # the slowest quarter keeps those out and still sees every
            # change that slows most calls.
            call_s = fast_mean(loop.times)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "items_per_s": wl.items_per_call / call_s,
            }
            metrics = {k: _metric(v, E2E_UNITS[k]) for k, v in metrics.items()}
            detail.update(
                setup_s_all=setup_times,
                calls=len(loop.times), call_ms_fast_mean=1e3 * call_s,
                call_ms_p50=1e3 * statistics.median(loop.times),
                items_per_s_mean=wl.items_per_call * len(loop.times) / sum(loop.times),
                call_ms=[round(1e3 * t, 1) for t in loop.times])
            if len(loop.times) >= 100:
                detail["call_ms_p90"] = 1e3 * statistics.quantiles(loop.times, n=10)[-1]
        else:
            tracer = Tracer(args.workload)
            with tracer.install():
                tracer.request = "setup"
                wl.setup()
            plain, traced = measure_traced(wl, args.seconds, tracer)
            loop = traced
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
            overhead = 100.0 * (statistics.median(traced.times)
                                / statistics.median(plain.times) - 1.0)
            params, batch = wl.probe_model()
            rows = probe.probe(params, batch, args.seed)
            metrics = layer_metrics(tracer.summarize(), rows, overhead)
            spans_path = (settings.WORK / "spans"
                          / f"{args.workload}-{args.size}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            detail.update(calls_plain=len(plain.times), calls_traced=len(traced.times),
                          spans=len(tracer.spans), spans_file=str(spans_path))
        detail.update(wl.summary(loop.last))
    finally:
        wl.close()
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and reference is not None,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
