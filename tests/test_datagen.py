"""Synthetic fleet generator: ground-truth life recovery, physical bounds,
determinism, and the learnable cycle-dependent voltage shift."""

import numpy as np
import pytest

from fpnn import datagen
from fpnn.dataset import load_canonical_dataset


def policy(fade_rate, seed=0, noise=(5e-4, 5e-3, 0.02)):
    return datagen.SynthPolicy(c1=5.0, q1=40.0, c2=2.0, fade_rate=fade_rate,
                               noise_sigma=noise, seed=seed)


class TestLifeRule:
    def test_exact_inversion_at_500(self):
        # fade chosen so capacity(500) == 0.88 Ah exactly
        fade = datagen.fade_for_life(500)
        np.testing.assert_allclose(datagen.capacity_at(fade, 500), 0.88, atol=1e-12)
        assert datagen.life_from_fade(fade) == 500

    @pytest.mark.parametrize("life", [150, 333, 847, 1200])
    def test_life_recoverable_from_capacity_series(self, life):
        fade = datagen.fade_for_life(life)
        k = datagen.life_from_fade(fade)
        # first cycle at or below the 80% threshold, scanning the series
        assert datagen.capacity_at(fade, k) <= datagen.FAILURE_CAPACITY_AH
        assert datagen.capacity_at(fade, k - 1) > datagen.FAILURE_CAPACITY_AH
        assert k == life

    def test_record_life_matches_rule(self):
        record = datagen.generate_battery(policy(datagen.fade_for_life(300)), "b")
        assert record.life == 300


class TestGenerateBattery:
    def test_deterministic(self):
        a = datagen.generate_battery(policy(0.02, seed=7), "b")
        b = datagen.generate_battery(policy(0.02, seed=7), "b")
        for ca, cb in zip(a.cycles, b.cycles):
            np.testing.assert_array_equal(ca.voltage, cb.voltage)
            np.testing.assert_array_equal(ca.current, cb.current)
            np.testing.assert_array_equal(ca.temperature, cb.temperature)

    def test_noise_free_deterministic(self):
        a = datagen.generate_battery(policy(0.02, seed=1, noise=(0, 0, 0)), "b")
        b = datagen.generate_battery(policy(0.02, seed=2, noise=(0, 0, 0)), "b")
        np.testing.assert_array_equal(a.cycles[0].voltage, b.cycles[0].voltage)

    def test_voltage_within_bounds(self):
        for seed in range(5):
            record = datagen.generate_battery(policy(datagen.fade_for_life(160), seed=seed), "b")
            for c in record.cycles:
                assert c.voltage.min() >= datagen.MIN_VOLTAGE
                assert c.voltage.max() <= datagen.CUTOFF_VOLTAGE

    def test_cycle_cap(self):
        record = datagen.generate_battery(policy(datagen.fade_for_life(900)), "b")
        assert len(record.cycles) == datagen.MAX_STORED_CYCLES

    def test_curves_satisfy_invariants_many_policies(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pol = datagen.SynthPolicy(
                c1=float(rng.uniform(3, 6.5)),
                q1=float(rng.uniform(20, 70)),
                c2=float(rng.uniform(1, 4.5)),
                fade_rate=datagen.fade_for_life(int(rng.integers(150, 1200))),
                seed=int(rng.integers(0, 2**31)),
            )
            record = datagen.generate_battery(pol, "p")
            record.validate()  # raises on any invariant violation

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            datagen.SynthPolicy(c1=5.0, q1=90.0, c2=2.0, fade_rate=0.01)
        with pytest.raises(ValueError):
            datagen.SynthPolicy(c1=-1.0, q1=40.0, c2=2.0, fade_rate=0.01)
        with pytest.raises(ValueError):
            datagen.SynthPolicy(c1=5.0, q1=40.0, c2=2.0, fade_rate=0.0)

    def test_voltage_shift_monotone_with_cycle(self):
        # noise-free: early-charge voltage decreases with cycle number;
        # late-charge voltage increases until it saturates at the 3.6 V
        # cutoff, so strict growth is asserted over the usable early window
        record = datagen.generate_battery(policy(datagen.fade_for_life(200), noise=(0, 0, 0)), "b")
        early_idx = 5   # low state of charge
        late_idx = 60   # high state of charge
        early = np.array([c.voltage[early_idx] for c in record.cycles])
        late = np.array([c.voltage[late_idx] for c in record.cycles])
        assert np.all(np.diff(early) < 0)
        assert np.all(np.diff(late[:40]) > 0)
        assert np.all(np.diff(late) >= 0)


class TestGenerateFleet:
    def test_round_trip_through_canonical_format(self, tmp_path):
        records = datagen.generate_fleet(4, seed=7, out_dir=tmp_path)
        loaded = load_canonical_dataset(tmp_path)
        assert [r.battery_id for r in loaded] == [r.battery_id for r in records]
        for a, b in zip(loaded, records):
            assert a.life == b.life
            np.testing.assert_array_equal(a.cycles[0].voltage, b.cycles[0].voltage)

    def test_same_seed_identical(self):
        a = datagen.generate_fleet(5, seed=11)
        b = datagen.generate_fleet(5, seed=11)
        for ra, rb in zip(a, b):
            assert ra.life == rb.life
            np.testing.assert_array_equal(ra.cycles[-1].voltage, rb.cycles[-1].voltage)

    def test_lives_positive_finite_and_spread(self):
        records = datagen.generate_fleet(24, seed=7)
        lives = np.array([r.life for r in records])
        assert np.all(lives >= 1) and np.all(np.isfinite(lives))
        assert lives.min() >= 150 - 1 and lives.max() <= 1200 + 1
        assert lives.max() > 2 * lives.min()  # actually spread out

    def test_too_small(self):
        with pytest.raises(ValueError):
            datagen.generate_fleet(1, seed=0)

    @pytest.mark.parametrize("life_range", [(0, 100), (-5, 100), (500, 100)])
    def test_life_range_outside_one_to_high_named(self, life_range):
        with pytest.raises(ValueError, match=rf"life range \({life_range[0]}, {life_range[1]}\)"):
            datagen.generate_fleet(2, seed=0, life_range=life_range)
