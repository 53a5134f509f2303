"""Preprocessing pipeline: cleaning, gridding, sample assembly, scaling,
splitting, and archive round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpnn.dataset import BatteryRecord, CycleCurve, load_canonical_dataset, save_canonical_dataset
from fpnn.datagen import SynthPolicy, fade_for_life, generate_battery, generate_fleet
from fpnn.errors import DataValidationError
from fpnn import preprocess as pp

from oracles import hampel_loop, savgol_window_loop


def make_curve(cycle_index=1, n=32, seed=0):
    rng = np.random.default_rng(seed + cycle_index)
    q = np.linspace(0.01, 1.05, n)
    return CycleCurve(
        cycle_index=cycle_index,
        charged_capacity=q,
        voltage=3.0 + 0.5 * q / q[-1] + 0.01 * rng.standard_normal(n),
        current=4.0 - 2.0 * (q / q[-1] > 0.5) + 0.01 * rng.standard_normal(n),
        temperature=30.0 + np.sin(np.pi * q / q[-1]) + 0.05 * rng.standard_normal(n),
    )


def make_battery(battery_id="b0", n_cycles=12, life=500, seed=0):
    cycles = [make_curve(k, seed=seed) for k in range(1, n_cycles + 1)]
    return BatteryRecord(battery_id=battery_id, cycles=cycles, life=life)


class TestHampel:
    def test_constant_unchanged(self):
        x = np.full(20, 3.3)
        np.testing.assert_array_equal(pp.hampel_filter(x), x)

    def test_single_spike_replaced(self):
        x = np.array([1.0, 1.0, 1.0, 100.0, 1.0, 1.0, 1.0])
        out = pp.hampel_filter(x)
        np.testing.assert_array_equal(out, np.ones(7))

    def test_gaussian_untouched(self):
        # seeded draw independently verified to contain no rolling-window
        # outliers (> 3 * 1.4826 * MAD from the local median)
        x = np.random.default_rng(21).standard_normal(100)
        half = 11 // 2
        for i in range(x.size):
            win = x[max(0, i - half) : min(x.size, i + half + 1)]
            med = np.median(win)
            mad = np.median(np.abs(win - med))
            assert abs(x[i] - med) <= 3.0 * 1.4826 * mad
        out = pp.hampel_filter(x)
        assert int((out != x).sum()) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            pp.hampel_filter(np.array([1.0, 2.0]))


@st.composite
def hampel_stacks(draw):
    """[k, n] series with n from 3 to past the filter's window, drawn from a
    coarse grid (so windows hold ties) or a continuous range, with a few
    outliers added at random points."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(3, 30))
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False))
    x = np.array(draw(st.lists(value, min_size=k * n, max_size=k * n))).reshape(k, n)
    for row, col, jump in draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, n - 1),
                      st.sampled_from([-1e3, -40.0, 40.0, 1e3])), max_size=4)):
        x[row, col] += jump
    return x


class TestHampelOracle:
    @given(x=hampel_stacks())
    @settings(max_examples=300, deadline=None)
    def test_equals_point_loop_bitwise(self, x):
        """Stacked and 1-D input give exactly the per-point loop's output."""
        want = hampel_loop(x, window=pp.HAMPEL_WINDOW, n_sigmas=pp.HAMPEL_SIGMAS)
        assert pp.hampel_filter(x).tobytes() == want.tobytes()
        for row in range(x.shape[0]):
            assert pp.hampel_filter(x[row]).tobytes() == want[row].tobytes()

    def test_cycle_frame_cleans_each_channel_as_the_loop(self):
        """Cleaning the stacked channels gives each channel's loop-filtered,
        smoothed series, in voltage, current, temperature order."""
        curve = make_curve(3, n=40)
        curve.current[7] += 5.0  # an outlier the filter must replace
        want = pp.resample_to_grid(CycleCurve(
            curve.cycle_index, curve.charged_capacity,
            *(pp.savitzky_golay(hampel_loop(s))
              for s in (curve.voltage, curve.current, curve.temperature))), 4)
        assert pp.cycle_frame(curve, 4).tobytes() == want.tobytes()

    def test_stack_too_short(self):
        with pytest.raises(ValueError, match="at least 3 points"):
            pp.hampel_filter(np.zeros((3, 2)))


class TestSavitzkyGolay:
    def test_reproduces_cubic_at_order3(self):
        t = np.linspace(-1, 1, 31)
        x = t**3 - 0.2 * t
        out = pp.savitzky_golay(x)
        np.testing.assert_allclose(out, x, atol=1e-9)

    def test_constant_unchanged(self):
        x = np.full(25, 2.5)
        np.testing.assert_allclose(pp.savitzky_golay(x), x, atol=1e-12)

    def test_matches_window_least_squares_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(37)
        got = pp.savitzky_golay(x)
        want = savgol_window_loop(x, window=pp.SG_WINDOW, polyorder=pp.SG_POLYORDER)
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_equals_scipy_savgol_filter_bitwise(self):
        """1-D and stacked [3, n] series of random lengths (the window to
        window + 3 among them), scales and offsets give exactly scipy's
        ``savgol_filter(mode="interp")`` on each series."""
        from scipy.signal import savgol_filter  # the oracle only

        window, polyorder = pp.SG_WINDOW, pp.SG_POLYORDER
        rng = np.random.default_rng(window * 10 + polyorder)
        for n in [*range(window, window + 4), *rng.integers(window + 4, 400, 30)]:
            x = (rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-3, 3, (3, 1))
                 + rng.uniform(-100, 100, (3, 1)))
            want = np.stack([savgol_filter(row, window, polyorder, mode="interp") for row in x])
            assert pp.savitzky_golay(x).tobytes() == want.tobytes()
            for row, want_row in zip(x, want):
                assert pp.savitzky_golay(row).tobytes() == want_row.tobytes()

    def test_fleet_cycles_equal_scipy_savgol_filter_bitwise(self):
        """Every cycle of a synthetic fleet, Hampel-cleaned as the pipeline
        does, smooths to exactly scipy's output per channel."""
        from scipy.signal import savgol_filter  # the oracle only

        for battery in generate_fleet(3, seed=5, life_range=(200, 400)):
            for curve in battery.cycles:
                x = pp.hampel_filter(np.stack([curve.voltage, curve.current, curve.temperature]))
                want = np.stack([savgol_filter(row, 9, 3, mode="interp") for row in x])
                assert pp.savitzky_golay(x).tobytes() == want.tobytes()

    def test_series_shorter_than_window_rejected(self):
        with pytest.raises(ValueError, match="series length 5 shorter than window 9"):
            pp.savitzky_golay(np.zeros(5))
        with pytest.raises(ValueError, match="series length 8 shorter than window 9"):
            pp.savitzky_golay(np.zeros((3, 8)))


class TestResample:
    def test_linear_ramp_is_linear_in_flat_index(self):
        n = 32
        q = np.linspace(0.0, 1.0, n)
        curve = CycleCurve(1, q, 2.0 + q, np.ones(n), np.full(n, 30.0))
        frame = pp.resample_to_grid(curve, 4)
        flat = frame[0].reshape(-1)
        diffs = np.diff(flat)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)

    def test_grid_side_one_probes_center(self):
        n = 16
        q = np.linspace(0.0, 2.0, n)
        curve = CycleCurve(1, q, q * 3.0, np.ones(n), np.full(n, 30.0))
        frame = pp.resample_to_grid(curve, 1)
        # single cell-center sample at q = Q_max / 2
        np.testing.assert_allclose(frame[0, 0, 0], 3.0, atol=1e-12)

    def test_piecewise_linear_manual_probes(self):
        q = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        v = np.array([3.0, 3.2, 3.1, 3.4, 3.6])
        curve = CycleCurve(1, q, v, np.ones(5), np.full(5, 30.0))
        g = 4  # 16 points at centers (i + 0.5)/16
        frame = pp.resample_to_grid(curve, g)[0].reshape(-1)
        for idx in (0, 3, 7, 11, 15):
            qq = (idx + 0.5) / 16.0
            want = np.interp(qq, q, v)
            np.testing.assert_allclose(frame[idx], want, atol=1e-12)

    def test_too_short(self):
        curve = CycleCurve(1, np.array([0.5]), np.array([3.0]), np.array([1.0]), np.array([30.0]))
        with pytest.raises(DataValidationError):
            pp.resample_to_grid(curve, 4)


class TestAssemble:
    def test_sample_count_ten_cycles(self):
        battery = make_battery(n_cycles=10)
        samples = pp.assemble_samples(battery, 10, grid_side=4)
        assert len(samples) == 7  # anchors 4..10
        assert samples.anchor_cycles.tolist() == list(range(4, 11))

    def test_earliest_anchor_uses_first_four_cycles(self):
        battery = make_battery(n_cycles=10)
        samples = pp.assemble_samples(battery, 10, grid_side=4, smooth=False)
        raw = samples.raw[0]
        f1 = pp.resample_to_grid(battery.cycles[0], 4)
        f2 = pp.resample_to_grid(battery.cycles[1], 4)
        f4 = pp.resample_to_grid(battery.cycles[3], 4)
        np.testing.assert_array_equal(raw[:, 0], f1)
        np.testing.assert_array_equal(raw[:, 1], f2)
        np.testing.assert_array_equal(raw[:, 3], f4)

    def test_every_anchor_reads_first_and_three_latest_cycles(self):
        battery = make_battery(n_cycles=10)
        samples = pp.assemble_samples(battery, 10, grid_side=4, smooth=False)
        frames = [pp.resample_to_grid(c, 4) for c in battery.cycles]  # frames[i] = cycle i+1
        for raw, t in zip(samples.raw, samples.anchor_cycles):
            for d, cycle in enumerate((1, t - 2, t - 1, t)):
                np.testing.assert_array_equal(raw[:, d], frames[cycle - 1])

    def test_diff_is_raw_minus_first_frame(self):
        battery = make_battery(n_cycles=10)
        samples = pp.assemble_samples(battery, 10, grid_side=4, smooth=False)
        assert samples.diff.shape == (7, 3, 3, 4, 4)
        first = samples.raw[:, :, 0]
        for d in range(3):
            np.testing.assert_allclose(samples.diff[:, :, d], samples.raw[:, :, d + 1] - first,
                                       atol=1e-12)

    def test_labels_and_shapes(self):
        battery = make_battery(n_cycles=12, life=321)
        samples = pp.assemble_samples(battery, 10, grid_side=6)
        assert samples.raw.shape == (7, 3, 4, 6, 6)
        assert samples.labels.tolist() == [321.0] * 7
        assert samples.battery_ids == ["b0"] * 7

    def test_arrays_contiguous_float64(self):
        samples = pp.assemble_samples(make_battery(n_cycles=10), 10, grid_side=4)
        for a in (samples.raw, samples.diff, samples.labels):
            assert a.dtype == np.float64 and a.flags.c_contiguous
        assert np.issubdtype(samples.anchor_cycles.dtype, np.integer)

    def test_insufficient_cycles(self):
        with pytest.raises(DataValidationError):
            pp.assemble_samples(make_battery(n_cycles=8), 10, grid_side=4)

    def test_invalid_cycle_count(self):
        with pytest.raises(ValueError):
            pp.assemble_samples(make_battery(n_cycles=20), 15, grid_side=4)


def samples_of(raw, diff):
    """A SampleSet over the given [N, 3, 4, G, G] and [N, 3, 3, G, G] frames."""
    n = len(raw)
    return pp.SampleSet(raw, diff, np.full(n, 100.0), [f"b{i}" for i in range(n)],
                        np.full(n, 4))


class TestScaler:
    def _samples(self):
        rng = np.random.default_rng(3)
        return samples_of(rng.uniform(0.0, 10.0, (5, 3, 4, 4, 4)),
                          rng.uniform(-2.0, 2.0, (5, 3, 3, 4, 4)))

    def test_midpoint_maps_to_zero(self):
        samples = self._samples()
        params = pp.fit_scaler(samples)
        mid = samples_of(
            np.broadcast_to(((params.raw_min + params.raw_max) / 2)[:, None, None, None],
                            (1, 3, 4, 4, 4)).copy(),
            np.broadcast_to(((params.diff_min + params.diff_max) / 2)[:, None, None, None],
                            (1, 3, 3, 4, 4)).copy(),
        )
        scaled = pp.apply_scaler(mid, params)
        np.testing.assert_allclose(scaled.raw, 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.diff, 0.0, atol=1e-12)

    def test_train_extremes_hit_unit_bounds(self):
        samples = self._samples()
        params = pp.fit_scaler(samples)
        raw_all = pp.apply_scaler(samples, params).raw
        assert raw_all.min() >= -1.0 - 1e-12 and raw_all.max() <= 1.0 + 1e-12
        np.testing.assert_allclose(raw_all.max(), 1.0, atol=1e-12)
        np.testing.assert_allclose(raw_all.min(), -1.0, atol=1e-12)

    def test_each_channel_scaled_by_its_own_extrema(self):
        samples = self._samples()
        params = pp.fit_scaler(samples)
        scaled = pp.apply_scaler(samples, params)
        for c in range(3):
            lo, hi = params.diff_min[c], params.diff_max[c]
            np.testing.assert_array_equal(scaled.diff[:, c],
                                          2.0 * (samples.diff[:, c] - lo) / (hi - lo) - 1.0)

    def test_labels_untouched(self):
        samples = self._samples()
        scaled = pp.apply_scaler(samples, pp.fit_scaler(samples))
        np.testing.assert_array_equal(scaled.labels, samples.labels)
        np.testing.assert_array_equal(scaled.anchor_cycles, samples.anchor_cycles)
        assert scaled.battery_ids == samples.battery_ids

    def test_degenerate_channel_rejected(self):
        s = samples_of(np.zeros((1, 3, 4, 2, 2)), np.zeros((1, 3, 3, 2, 2)))
        with pytest.raises(ValueError):
            pp.fit_scaler(s)


class TestSplit:
    def _fleet(self, n):
        return [make_battery(battery_id=f"b{i:03d}", n_cycles=10) for i in range(n)]

    def test_canonical_124_split(self):
        train, test = pp.split_train_test(self._fleet(124), seed=0)
        assert len(train) == 94 and len(test) == 30

    def test_deterministic(self):
        fleet = self._fleet(30)
        assert pp.split_train_test(fleet, seed=9) == pp.split_train_test(fleet, seed=9)
        assert pp.split_train_test(fleet, seed=9) != pp.split_train_test(fleet, seed=10)

    def test_proportional_rounding(self):
        train, test = pp.split_train_test(self._fleet(62), seed=1)
        assert len(train) == 47 and len(test) == 15

    def test_no_overlap(self):
        train, test = pp.split_train_test(self._fleet(25), seed=4)
        assert not set(train) & set(test)
        assert len(train) + len(test) == 25

    def test_too_few(self):
        with pytest.raises(ValueError):
            pp.split_train_test(self._fleet(1), seed=0)


def sample_set(n_batteries, per_battery=3):
    """A tiny SampleSet whose samples carry their battery's index as label."""
    n = n_batteries * per_battery
    return pp.SampleSet(
        raw=np.zeros((n, 3, 4, 2, 2)),
        diff=np.zeros((n, 3, 3, 2, 2)),
        labels=np.repeat(np.arange(1.0, n_batteries + 1), per_battery),
        battery_ids=[f"b{i:02d}" for i in range(n_batteries) for _ in range(per_battery)],
        anchor_cycles=np.tile(np.arange(4, 4 + per_battery), n_batteries),
    )


class TestHoldoutByBattery:
    def test_no_battery_in_both_splits(self):
        samples = sample_set(10)
        fit, val = pp.holdout_by_battery(samples, 0.2, seed=3)
        assert not set(fit.battery_ids) & set(val.battery_ids)
        assert sorted(fit.battery_ids + val.battery_ids) == sorted(samples.battery_ids)
        for part in (fit, val):
            assert all(label == 1 + int(b[1:]) for label, b in zip(part.labels, part.battery_ids))

    def test_deterministic_per_seed(self):
        samples = sample_set(12)
        a_fit, a_val = pp.holdout_by_battery(samples, 0.25, seed=7)
        b_fit, b_val = pp.holdout_by_battery(samples, 0.25, seed=7)
        assert a_val.battery_ids == b_val.battery_ids and a_fit.battery_ids == b_fit.battery_ids
        np.testing.assert_array_equal(a_val.labels, b_val.labels)
        np.testing.assert_array_equal(a_fit.anchor_cycles, b_fit.anchor_cycles)
        vals = {tuple(pp.holdout_by_battery(samples, 0.25, seed=s)[1].battery_ids)
                for s in range(8)}
        assert len(vals) > 1

    @pytest.mark.parametrize("n_batteries,fraction,n_val", [
        (10, 0.2, 2), (10, 0.25, 2), (7, 0.5, 4), (3, 0.1, 1), (3, 0.9, 2), (2, 0.5, 1),
    ])
    def test_holdout_size_rounds_and_clamps(self, n_batteries, fraction, n_val):
        # round(n * fraction), clamped so each side keeps at least one battery
        _, val = pp.holdout_by_battery(sample_set(n_batteries), fraction, seed=0)
        assert len(set(val.battery_ids)) == n_val

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError):
            pp.holdout_by_battery(sample_set(5), fraction, seed=0)

    def test_single_battery_rejected(self):
        with pytest.raises(ValueError):
            pp.holdout_by_battery(sample_set(1, per_battery=4), 0.5, seed=0)


class TestCanonicalDataset:
    def test_empty_dir(self, tmp_path):
        assert load_canonical_dataset(tmp_path) == []

    def test_round_trip(self, tmp_path):
        policy = SynthPolicy(c1=5.0, q1=40.0, c2=2.0, fade_rate=fade_for_life(400), seed=3)
        record = generate_battery(policy, "rt-000")
        save_canonical_dataset([record], tmp_path)
        (loaded,) = load_canonical_dataset(tmp_path)
        assert loaded.battery_id == record.battery_id
        assert loaded.life == record.life
        assert len(loaded.cycles) == len(record.cycles)
        for a, b in zip(loaded.cycles, record.cycles):
            assert a.cycle_index == b.cycle_index
            np.testing.assert_array_equal(a.charged_capacity, b.charged_capacity)
            np.testing.assert_array_equal(a.voltage, b.voltage)
            np.testing.assert_array_equal(a.current, b.current)
            np.testing.assert_array_equal(a.temperature, b.temperature)

    def test_descending_capacity_names_cycle(self, tmp_path):
        battery = make_battery(battery_id="bad-1", n_cycles=3)
        battery.cycles[1].charged_capacity = battery.cycles[1].charged_capacity[::-1].copy()
        bdir = tmp_path / "bad-1"
        bdir.mkdir()
        import csv as _csv
        import json as _json

        (bdir / "meta.json").write_text(_json.dumps({"battery_id": "bad-1", "life": 500}))
        with open(bdir / "cycles.csv", "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["cycle", "charge_q_ah", "voltage_v", "current_a", "temperature_c"])
            for c in battery.cycles:
                for q, v, i, t in zip(c.charged_capacity, c.voltage, c.current, c.temperature):
                    w.writerow([c.cycle_index, q, v, i, t])
        with pytest.raises(DataValidationError, match="cycle 2"):
            load_canonical_dataset(tmp_path)

    @pytest.mark.parametrize("column,series", [
        (1, "charged_capacity"), (2, "voltage"), (3, "current"), (4, "temperature")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_value_names_battery_cycle_and_series(self, tmp_path, column, series, value):
        save_canonical_dataset([make_battery(battery_id="nan-1", n_cycles=3)], tmp_path)
        path = tmp_path / "nan-1" / "cycles.csv"
        lines = path.read_text().splitlines()
        row_of_cycle_2 = next(i for i, line in enumerate(lines) if line.startswith("2,"))
        cells = lines[row_of_cycle_2 + 5].split(",")
        cells[column] = value
        lines[row_of_cycle_2 + 5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError,
                           match=f"battery 'nan-1' cycle 2: {series} has non-finite values"):
            load_canonical_dataset(tmp_path)

    def test_missing_meta(self, tmp_path):
        (tmp_path / "b0").mkdir()
        with pytest.raises(DataValidationError, match="meta.json"):
            load_canonical_dataset(tmp_path)

    @pytest.mark.parametrize("key,value,wanted", [
        ("life", "abc", "whole number"), ("life", None, "whole number"),
        ("life", 500.5, "whole number"), ("nominal_capacity_ah", "a", "number"),
    ], ids=["life-string", "life-null", "life-fraction", "capacity-string"])
    def test_bad_meta_value_names_battery_and_key(self, tmp_path, key, value, wanted):
        import json

        save_canonical_dataset([make_battery(battery_id="meta-1", n_cycles=2)], tmp_path)
        path = tmp_path / "meta-1" / "meta.json"
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta))
        with pytest.raises(DataValidationError,
                           match=f"^battery dir 'meta-1': meta.json '{key}' must be a {wanted}, "
                                 f"got {json.dumps(value)}$"):
            load_canonical_dataset(tmp_path)

    def test_whole_float_life_loads_as_int(self, tmp_path):
        import json

        save_canonical_dataset([make_battery(battery_id="meta-2", n_cycles=2, life=400)], tmp_path)
        path = tmp_path / "meta-2" / "meta.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "life": 400.0}))
        (loaded,) = load_canonical_dataset(tmp_path)
        assert loaded.life == 400 and type(loaded.life) is int

    def test_values_bitwise_those_of_a_per_field_parse(self, tmp_path):
        """The one-call parse gives every value bit for bit as float() of
        its field, grouped into cycles as the rows run."""
        record = make_battery(battery_id="bits-1", n_cycles=4)
        record.cycles[2].temperature[:2] = [0.0, -0.0]
        save_canonical_dataset([record], tmp_path)
        by_cycle = {}
        lines = (tmp_path / "bits-1" / "cycles.csv").read_text().splitlines()[1:]
        for line in lines:
            cycle, *fields = line.split(",")
            by_cycle.setdefault(int(cycle), []).append([float(f) for f in fields])
        (loaded,) = load_canonical_dataset(tmp_path)
        assert [c.cycle_index for c in loaded.cycles] == list(by_cycle)
        for curve, rows in zip(loaded.cycles, by_cycle.values()):
            got = np.stack([curve.charged_capacity, curve.voltage, curve.current,
                            curve.temperature], axis=1)
            assert got.tobytes() == np.asarray(rows).tobytes()

    @pytest.mark.parametrize("line", [
        "x,0.1,3.5,1.0,30.0", "1.5,0.1,3.5,1.0,30.0", "1.0,0.1,3.5,1.0,30.0",
        "1,abc,3.5,1.0,30.0", "1,0.1,3.5,1.0", "1,0.1,3.5,1.0,", "   "])
    def test_bad_row_names_battery_and_line(self, tmp_path, line):
        save_canonical_dataset([make_battery(battery_id="row-1", n_cycles=2)], tmp_path)
        path = tmp_path / "row-1" / "cycles.csv"
        lines = path.read_text().splitlines()
        lines.insert(2, line)  # line 3 of the file
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match="^battery 'row-1': bad row 3 in cycles.csv$"):
            load_canonical_dataset(tmp_path)

    def test_header_only_file_has_no_cycles(self, tmp_path):
        save_canonical_dataset([make_battery(battery_id="empty-1", n_cycles=2)], tmp_path)
        path = tmp_path / "empty-1" / "cycles.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataValidationError, match="^battery 'empty-1': no cycles$"):
            load_canonical_dataset(tmp_path)

    def test_non_contiguous_cycle_rows_name_battery_and_cycle(self, tmp_path):
        save_canonical_dataset([make_battery(battery_id="split-1", n_cycles=3)], tmp_path)
        path = tmp_path / "split-1" / "cycles.csv"
        header, *rows = path.read_text().splitlines()
        # the last row of cycle 2 moved after cycle 3's rows
        last_of_2 = max(i for i, row in enumerate(rows) if row.startswith("2,"))
        rows.append(rows.pop(last_of_2))
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataValidationError, match="^battery 'split-1': rows of cycle 2 in "
                                                      "cycles.csv are not contiguous$"):
            load_canonical_dataset(tmp_path)


class TestPipeline:
    def test_deterministic_bitwise(self):
        records = generate_fleet(6, seed=2, life_range=(200, 800))
        a = pp.preprocess_fleet(records, 10, grid_side=8, seed=5)
        b = pp.preprocess_fleet(records, 10, grid_side=8, seed=5)
        np.testing.assert_array_equal(a[0].raw, b[0].raw)
        np.testing.assert_array_equal(a[1].diff, b[1].diff)
        assert a[3] == b[3]

    def test_split_has_no_battery_leak(self):
        records = generate_fleet(8, seed=3, life_range=(200, 800))
        train, test, _, (train_ids, test_ids) = pp.preprocess_fleet(records, 10, grid_side=8, seed=0)
        assert not set(train.battery_ids) & set(test.battery_ids)
        assert set(train.battery_ids) == set(train_ids)
        assert set(test.battery_ids) == set(test_ids)

    def test_train_values_within_unit_range(self):
        records = generate_fleet(6, seed=4, life_range=(200, 800))
        train, _, _, _ = pp.preprocess_fleet(records, 10, grid_side=8, seed=1)
        assert train.raw.min() >= -1.0 - 1e-12 and train.raw.max() <= 1.0 + 1e-12
        assert train.diff.min() >= -1.0 - 1e-12 and train.diff.max() <= 1.0 + 1e-12

    def test_archive_round_trip_bitwise(self, tmp_path):
        records = generate_fleet(5, seed=6, life_range=(200, 800))
        train, test, scaler, _ = pp.preprocess_fleet(records, 10, grid_side=8, seed=2)
        pp.save_sample_archive(tmp_path, {"train": train, "test": test}, scaler, 10, 8, 2)
        splits, scaler2, manifest = pp.load_sample_archive(tmp_path)
        np.testing.assert_array_equal(splits["train"].raw, train.raw)
        np.testing.assert_array_equal(splits["train"].diff, train.diff)
        np.testing.assert_array_equal(splits["test"].labels, test.labels)
        assert splits["test"].battery_ids == test.battery_ids
        np.testing.assert_array_equal(scaler2.raw_min, scaler.raw_min)
        assert manifest["grid_side"] == 8

    @pytest.mark.parametrize("tamper", ["n_samples", "grid_side", "samples"])
    def test_archive_shapes_checked_against_manifest(self, tmp_path, tamper):
        import json

        records = generate_fleet(4, seed=6, life_range=(200, 800))
        train, test, scaler, _ = pp.preprocess_fleet(records, 10, grid_side=8, seed=2)
        pp.save_sample_archive(tmp_path, {"train": train, "test": test}, scaler, 10, 8, 2)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        if tamper == "n_samples":
            manifest["splits"]["test"]["n_samples"] += 1
        elif tamper == "grid_side":
            manifest["grid_side"] = 16
        else:
            manifest["splits"]["test"]["samples"].pop()
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataValidationError, match=r"test\.fpt: split 'test'"):
            pp.load_sample_archive(tmp_path)

    @pytest.mark.parametrize("edit,fault", [
        (lambda m: m.pop("grid_side"), r"manifest\.json has no 'grid_side'"),
        (lambda m: m.pop("splits"), r"manifest\.json has no 'splits'"),
        (lambda m: m.pop("scaler"), r"manifest\.json has no 'scaler'"),
        (lambda m: m["scaler"].pop("diff_max"), r"manifest\.json: scaler has no 'diff_max'"),
        (lambda m: m["splits"]["test"].pop("samples"),
         r"manifest\.json: split 'test' has no 'samples'"),
    ], ids=["grid_side", "splits", "scaler", "scaler-field", "split-samples"])
    def test_manifest_missing_key_names_file_and_key(self, tmp_path, edit, fault):
        import json

        records = generate_fleet(4, seed=6, life_range=(200, 800))
        train, test, scaler, _ = pp.preprocess_fleet(records, 10, grid_side=8, seed=2)
        pp.save_sample_archive(tmp_path, {"train": train, "test": test}, scaler, 10, 8, 2)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(tmp_path))}/{fault}$"):
            pp.load_sample_archive(tmp_path)

    @pytest.mark.parametrize("text,fault", [
        ("[1, 2]", "must hold a JSON object, got list"),
        ("{\"grid_side\": 8,", "not valid JSON: "),
    ], ids=["list", "invalid-json"])
    def test_manifest_that_is_no_json_object_names_file(self, tmp_path, text, fault):
        (tmp_path / "manifest.json").write_text(text)
        where = re.escape(str(tmp_path / "manifest.json"))
        with pytest.raises(DataValidationError, match=f"^{where}: {fault}"):
            pp.load_sample_archive(tmp_path)
