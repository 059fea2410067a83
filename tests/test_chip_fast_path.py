"""The chip model's fast path against exact pins and plain references.

Three shortcuts keep §4 characterization cheap without changing a bit of
its output: a sense of an undisturbed row skips its threshold-noise draw,
an open row carries its physical index and timing, and a flip burst is
applied with one unbuffered XOR.  The pins below were recorded with the
per-event code (one noise draw per sense of a tracked row, per-command
timing lookups, one XOR per flipped bit); the references are those plain
versions, kept here as test-local code.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.chip_model import ChipStats, DramChip
from repro.chip.disturb import DisturbState
from repro.chip.rng import rng_for
from repro.chip.variation import DesignVariation, VariationModel
from repro.experiments import coverage as alg1
from repro.experiments.modules import TESTED_MODULES, build_module_chip
from repro.experiments.second_act import characterize_normalized_nrh, pick_dummy_row
from repro.softmc.host import SoftMCHost
from repro.softmc.patterns import ALL_PATTERNS, DataPattern

from tests.conftest import isolated_pair

# ----------------------------------------------------------------------
# Exact pins: Algorithms 1 and 2 on one module per die revision
# ----------------------------------------------------------------------
PIN_T1_NS = (1.5, 3.0, 4.5, 6.0)
PIN_T2_PS = 3_000
PIN_STRIDE = 256
PIN_PHASE = 37


def _characterize(label: str) -> dict:
    """Algorithm 1 over the t1 grid, then Algorithm 2, on one chip."""
    module = next(m for m in TESTED_MODULES if m.label == label)
    chip = build_module_chip(module)
    rows = [
        row + PIN_PHASE
        for row in alg1.tested_row_sample(chip.geometry, chunk=2048, stride=PIN_STRIDE)
    ]
    host = SoftMCHost(chip)
    coverage = {
        t1: tuple(
            alg1.algorithm1_coverage(host, 0, row_a, rows, round(t1 * 1_000), PIN_T2_PS)
            for row_a in rows[::6]
        )
        for t1 in PIN_T1_NS
    }
    thresholds = [
        (r.victim, r.threshold_without_hira, r.threshold_with_hira)
        for r in characterize_normalized_nrh(chip, 0, rows[1::6])
    ]
    stats = {
        name: getattr(chip.stats, name)
        for name in ("bitflips_injected", "corrupted_rows", "hira_successes")
    }
    return {"coverage": coverage, "thresholds": thresholds, "stats": stats}


PINS = {
    "A0": {
        "coverage": {
            1.5: (0.0, 0.0, 0.0, 0.0),
            3.0: (10 / 23, 2 / 23, 6 / 23, 2 / 23),
            4.5: (10 / 23, 2 / 23, 6 / 23, 2 / 23),
            6.0: (0.0, 0.0, 0.0, 0.0),
        },
        "thresholds": [
            (293, 18727, 36652),
            (1829, 30027, 63537),
            (16677, 26910, 47367),
            (31525, 21454, 38016),
        ],
        "stats": {"bitflips_injected": 22563, "corrupted_rows": 618, "hira_successes": 212},
    },
    "B0": {
        "coverage": {
            1.5: (0.0, 0.0, 0.0, 0.0),
            3.0: (10 / 23, 10 / 23, 10 / 23, 8 / 23),
            4.5: (10 / 23, 10 / 23, 10 / 23, 8 / 23),
            6.0: (0.0, 0.0, 0.0, 0.0),
        },
        "thresholds": [
            (293, 24378, 55355),
            (1829, 20286, 36067),
            (33061, 26716, 50680),
            (64293, 26131, 51069),
        ],
        "stats": {"bitflips_injected": 19028, "corrupted_rows": 510, "hira_successes": 356},
    },
    "C0": {
        "coverage": {
            1.5: (0.0, 0.0, 0.0, 0.0),
            3.0: (8 / 23, 14 / 23, 10 / 23, 8 / 23),
            4.5: (8 / 23, 14 / 23, 10 / 23, 8 / 23),
            6.0: (0.0, 0.0, 0.0, 0.0),
        },
        "thresholds": [
            (293, 28469, 54381),
            (1829, 19312, 44834),
            (16677, 19896, 21260),
            (31525, 19312, 45029),
        ],
        "stats": {"bitflips_injected": 18323, "corrupted_rows": 498, "hira_successes": 372},
    },
}


@pytest.mark.parametrize("label", sorted(PINS))
def test_characterization_matches_pins(label):
    assert _characterize(label) == PINS[label]


# ----------------------------------------------------------------------
# References: the per-bit XOR loop and the always-draw sense
# ----------------------------------------------------------------------
def _reference_inject_flips(chip: DramChip, bank: int, row: int, count: int) -> None:
    """``DramChip._inject_flips`` with one XOR per flipped bit."""
    if count <= 0:
        return
    arr = chip._row_array(bank, row)
    chip._flip_salt += 1
    rng = rng_for(chip.chip_seed, 0xF11B5, bank, row, chip._flip_salt)
    positions = rng.integers(0, chip._row_bytes, size=count)
    bits = rng.integers(0, 8, size=count)
    for pos, bit in zip(positions, bits):
        arr[pos] ^= np.uint8(1 << int(bit))
    chip.stats.bitflips_injected += int(count)


class _AlwaysDrawDisturb(DisturbState):
    """``flips_on_sense`` drawing the noise on every sense of a tracked row.

    ``disturbed_senses`` counts the senses at a positive peak: the draws
    the fast path must still make.
    """

    disturbed_senses = 0

    def flips_on_sense(self, bank, phys_row, timing):
        entry = self.rows.get((bank, phys_row))
        if entry is None:
            return 0
        if entry.peak > 0:
            self.disturbed_senses += 1
        threshold = timing.nrh * self.variation.run_noise(bank, phys_row, entry.run)
        if entry.peak < threshold:
            return 0
        excess = entry.peak / threshold - 1.0
        return 1 + min(48, int(excess * 24))


class _ReferenceChip(DramChip):
    """A chip whose senses always draw and whose bursts flip bit by bit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.disturb = _AlwaysDrawDisturb(self.variation)

    def _inject_flips(self, bank, row, count):
        _reference_inject_flips(self, bank, row, count)


def _tiny_row_design(small_design):
    """``small_design`` with 8-byte rows, so a burst must repeat positions."""
    geometry = dataclasses.replace(small_design.geometry, columns_per_row=1)
    return dataclasses.replace(small_design, geometry=geometry)


class TestFlipBurst:
    @settings(max_examples=40, deadline=None)
    @given(
        fill=st.binary(min_size=8, max_size=8),
        row=st.integers(min_value=0, max_value=2047),
        counts=st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=4),
    )
    def test_one_xor_equals_per_bit_loop(self, small_design, fill, row, counts):
        design = _tiny_row_design(small_design)
        fast, ref = DramChip(design, chip_seed=5), DramChip(design, chip_seed=5)
        for chip in (fast, ref):
            chip._row_array(0, row)[:] = np.frombuffer(fill, dtype=np.uint8)
        for count in counts:
            fast._inject_flips(0, row, count)
            _reference_inject_flips(ref, 0, row, count)
            assert np.array_equal(fast.peek_row(0, row), ref.peek_row(0, row))
        assert fast.stats == ref.stats

    def test_burst_repeats_positions(self, small_design):
        # 9+ flips over 8 bytes repeat a byte: the unbuffered XOR must
        # apply every one of them, so a bit flipped twice is restored.
        chip = DramChip(_tiny_row_design(small_design), chip_seed=5)
        ref = DramChip(_tiny_row_design(small_design), chip_seed=5)
        chip._inject_flips(0, 3, 64)
        _reference_inject_flips(ref, 0, 3, 64)
        assert np.array_equal(chip.peek_row(0, 3), ref.peek_row(0, 3))
        assert chip.stats.bitflips_injected == 64


_DISTURB_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("hammer"),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([0, 1, 2, 500, 20_000, 60_000, 150_000]),
        ),
        st.tuples(st.just("write"), st.integers(min_value=0, max_value=3), st.just(0)),
        st.tuples(
            st.just("restore"),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([0, 1, 2, 5, 10]),  # tenths; 10 is a full restore
        ),
        st.tuples(st.just("sense"), st.integers(min_value=0, max_value=4), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


class TestSenseReference:
    @settings(max_examples=60, deadline=None)
    @given(ops=_DISTURB_OPS)
    def test_skipping_null_draws_changes_no_flip(self, ops):
        variation = VariationModel(DesignVariation(), chip_seed=9)
        stats = ChipStats()
        fast = DisturbState(variation, stats=stats)
        ref = _AlwaysDrawDisturb(variation)
        for op, row, arg in ops:
            timing = variation.row_timing(0, row)
            for state in (fast, ref):
                if op == "hammer":
                    state.hammer(0, [row], count=arg)
                elif op == "write":
                    state.on_write(0, row)
                elif op == "restore":
                    state.on_restore(0, row, timing, fraction=arg / 10)
            if op == "sense":
                assert fast.flips_on_sense(0, row, timing) == ref.flips_on_sense(0, row, timing)
        assert stats.noise_draws == ref.disturbed_senses
        assert fast.rows == ref.rows

    @settings(max_examples=12, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("init"), st.integers(0, 4), st.sampled_from(ALL_PATTERNS)),
                st.tuples(st.just("hammer"), st.integers(0, 4),
                          st.sampled_from([1, 3_000, 30_000, 90_000])),
                st.tuples(st.just("hira"), st.integers(0, 4),
                          st.sampled_from([(1_500, 3_000), (3_000, 3_000), (6_000, 1_500),
                                           (3_000, 9_000)])),
                st.tuples(st.just("read"), st.integers(0, 4), st.just(None)),
                st.tuples(st.just("ref"), st.just(0), st.just(None)),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_chip_histories_match_reference(self, small_design, ops):
        fast, ref = DramChip(small_design, chip_seed=3), _ReferenceChip(small_design, chip_seed=3)
        victim = fast.geometry.row_of(2, 10)
        aggressors = fast.design.aggressors_for_victim(victim)
        rows = [victim, *aggressors, pick_dummy_row(fast, victim), victim + 40]
        for chip in (fast, ref):
            host = SoftMCHost(chip)
            for op, i, arg in ops:
                row = rows[i]
                if op == "init":
                    host.initialize(0, row, arg)
                elif op == "hammer":
                    host.hammer(0, aggressors, arg)
                elif op == "hira":
                    host.hira(0, row, rows[(i + 3) % len(rows)], t1_ps=arg[0], t2_ps=arg[1])
                elif op == "read":
                    host.read_row(0, row)
                else:
                    host.run(host.program().ref(wait_ps=chip.timing.trfc))
        for row in set(rows):
            assert np.array_equal(fast.peek_row(0, row), ref.peek_row(0, row))
        assert dataclasses.replace(fast.stats, noise_draws=0) == ref.stats
        assert fast.stats.noise_draws == ref.disturb.disturbed_senses
        assert fast.disturb.rows == ref.disturb.rows


# ----------------------------------------------------------------------
# The exact noise-draw counter
# ----------------------------------------------------------------------
class TestNoiseDraws:
    def test_nominal_pair_test_draws_nothing(self):
        chip = build_module_chip(next(m for m in TESTED_MODULES if m.label == "C0"))
        row_a, row_b = isolated_pair(chip)
        assert alg1.pair_passes(SoftMCHost(chip), 0, row_a, row_b, t1_ps=3_000, t2_ps=3_000)
        assert chip.stats.noise_draws == 0

    def test_algorithm2_victim_draws(self, chip):
        victim = chip.geometry.row_of(2, 10)
        results = characterize_normalized_nrh(chip, 0, [victim], pattern=DataPattern.ALL_ONES)
        assert len(results) == 1
        assert chip.stats.noise_draws >= 1


def test_perf_chip_entry():
    from repro.perf import CHIP_MODULE, measure_chip

    row = measure_chip(reps=2)
    assert row["module"] == CHIP_MODULE
    assert row["pair_tests"] == row["rows_a"] * (row["rows"] - 1)
    assert len(row["wall_s_all"]) == 2
    assert row["pair_tests_per_sec"] > 0
    # Contiguous rows hold physical neighbours: some senses must draw.
    assert row["noise_draws"] > 0
