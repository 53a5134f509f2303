"""Synthetic battery fleets with known ground-truth life.

Capacity fades as 1.1 * (1 - fade_rate * k^1.5 / 1000) Ah at cycle k, and a
battery's life is the first cycle whose capacity is at or below 80% of the
1.1 Ah nominal. Charge curves follow a two-step constant-current policy
(c1 until q1% state of charge, c2 until 80%) finishing CC-CV toward the
3.6 V cutoff, with a cycle-dependent voltage shift (down early in the
charge, up late) and temperature bump that grow with accumulated fade.
That shift is the learnable signal; the fade exponent and shift shapes are
desk-scale surrogates, not electrochemistry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import BatteryRecord, CycleCurve, NOMINAL_CAPACITY_AH, save_canonical_dataset

FAILURE_FRACTION = 0.8
FAILURE_CAPACITY_AH = NOMINAL_CAPACITY_AH * FAILURE_FRACTION  # 0.88 Ah
CUTOFF_VOLTAGE = 3.6
MIN_VOLTAGE = 2.0
MAX_STORED_CYCLES = 120  # exceeds the largest usable input window (40)

POINTS_PER_CYCLE = 64
VOLTAGE_SHIFT_SCALE = 6.0  # volts of shift per unit fade fraction
TEMP_BUMP_SCALE = 30.0  # degC of mid-charge bump per unit fade fraction


@dataclass(frozen=True)
class SynthPolicy:
    """Two-step fast-charge policy plus degradation and noise parameters."""

    c1: float  # first-step C-rate
    q1: float  # SOC (%) where the rate switches
    c2: float  # second-step C-rate
    fade_rate: float  # capacity-loss coefficient per cycle^1.5 / 1000
    noise_sigma: tuple[float, float, float] = (5e-4, 5e-3, 0.02)  # V, A, degC
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.q1 < 80:
            raise ValueError(f"q1 must lie in (0, 80), got {self.q1}")
        if self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("charge rates must be positive")
        if self.fade_rate <= 0:
            raise ValueError("fade_rate must be positive")
        if any(s < 0 for s in self.noise_sigma):
            raise ValueError("noise sigmas must be nonnegative")


def capacity_at(fade_rate: float, cycle: int) -> float:
    """Discharge capacity (Ah) after ``cycle`` cycles."""
    return NOMINAL_CAPACITY_AH * (1.0 - fade_rate * cycle**1.5 / 1000.0)


def life_from_fade(fade_rate: float) -> int:
    """First cycle where capacity_at() drops to or below 0.88 Ah."""
    k = int(np.ceil((200.0 / fade_rate) ** (2.0 / 3.0)))
    while k > 1 and capacity_at(fade_rate, k - 1) <= FAILURE_CAPACITY_AH:
        k -= 1
    while capacity_at(fade_rate, k) > FAILURE_CAPACITY_AH:
        k += 1
    return k


def fade_for_life(life: int) -> float:
    """Fade rate whose capacity hits exactly 0.88 Ah at ``life`` cycles."""
    return 200.0 / life**1.5


def _charge_profile(policy: SynthPolicy, soc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Base current (A) and voltage (V) over state of charge in (0, 1]."""
    one_c = NOMINAL_CAPACITY_AH
    current = np.where(
        soc < policy.q1 / 100.0,
        policy.c1 * one_c,
        np.where(soc < 0.8, policy.c2 * one_c, one_c * np.exp(-10.0 * (soc - 0.8))),
    )
    current = np.maximum(current, 0.05 * one_c)
    # plateau-ish open-circuit curve plus IR overpotential from the current
    ocv = 3.0 + 0.22 * soc + 0.18 * soc**8
    voltage = np.minimum(ocv + 0.045 * current, CUTOFF_VOLTAGE)
    return current, voltage


def generate_battery(policy: SynthPolicy, battery_id: str) -> BatteryRecord:
    """Simulate one battery; emits cycles 1..min(life, 120)."""
    rng = np.random.default_rng(policy.seed)
    life = life_from_fade(policy.fade_rate)
    sv, si, st = policy.noise_sigma
    cycles = []
    for k in range(1, min(life, MAX_STORED_CYCLES) + 1):
        q_max = capacity_at(policy.fade_rate, k)
        q = q_max * np.arange(1, POINTS_PER_CYCLE + 1) / POINTS_PER_CYCLE
        soc = q / q_max
        current, voltage = _charge_profile(policy, soc)
        fade = policy.fade_rate * k**1.5 / 1000.0  # accumulated fade fraction
        shift = VOLTAGE_SHIFT_SCALE * fade
        early = np.exp(-(((soc - 0.10) / 0.18) ** 2))
        late = np.exp(-(((soc - 0.95) / 0.12) ** 2))
        voltage = voltage - shift * early + shift * late
        temperature = (
            30.0
            + 0.8 * (current / NOMINAL_CAPACITY_AH) ** 2
            + TEMP_BUMP_SCALE * fade * np.sin(np.pi * soc)
        )
        voltage = np.clip(voltage + sv * rng.standard_normal(soc.size), MIN_VOLTAGE, CUTOFF_VOLTAGE)
        current = current + si * rng.standard_normal(soc.size)
        temperature = temperature + st * rng.standard_normal(soc.size)
        cycles.append(
            CycleCurve(
                cycle_index=k,
                charged_capacity=q,
                voltage=voltage,
                current=current,
                temperature=temperature,
            )
        )
    policy_str = f"{policy.c1:.2f}C({policy.q1:.0f}%)-{policy.c2:.2f}C"
    record = BatteryRecord(
        battery_id=battery_id, cycles=cycles, life=life, charge_policy=policy_str
    )
    record.validate()
    return record


def generate_fleet(
    n_batteries: int,
    seed: int,
    life_range: tuple[int, int] = (150, 1200),
    out_dir: str | Path | None = None,
) -> list[BatteryRecord]:
    """Sample per-battery policies and simulate the fleet.

    Lives are spread log-uniformly over ``life_range``. When ``out_dir`` is
    given the fleet is also written in the canonical dataset layout.
    """
    if n_batteries < 2:
        raise ValueError(f"a fleet needs at least 2 batteries, got {n_batteries}")
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_batteries):
        life = float(np.exp(rng.uniform(np.log(life_range[0]), np.log(life_range[1]))))
        policy = SynthPolicy(
            c1=float(rng.uniform(3.0, 6.5)),
            q1=float(rng.uniform(20.0, 70.0)),
            c2=float(rng.uniform(1.0, 4.5)),
            fade_rate=fade_for_life(int(round(life))),
            seed=int(rng.integers(0, 2**63 - 1)),
        )
        records.append(generate_battery(policy, f"synth-{i:03d}"))
    if out_dir is not None:
        save_canonical_dataset(records, out_dir)
    return records
