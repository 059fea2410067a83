"""Subarray isolation map: structure, symmetry, calibration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chip.isolation import IsolationMap
from repro.chip.rng import rng_for
from repro.core.spt import SubarrayPairsTable
from repro.dram.geometry import geometry_for_capacity
from repro.experiments.modules import TESTED_MODULES


@pytest.fixture(scope="module")
def iso():
    return IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)


class TestStructure:
    def test_irreflexive(self, iso):
        assert all(not iso.isolated(sa, sa) for sa in range(64))

    def test_symmetric(self, iso):
        for a in range(64):
            for b in range(64):
                assert iso.isolated(a, b) == iso.isolated(b, a)

    def test_open_bitline_neighbours_never_isolated(self, iso):
        for sa in range(63):
            assert not iso.isolated(sa, sa + 1)

    def test_deterministic_rebuild(self):
        a = IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)
        b = IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)
        for sa in range(64):
            assert a.partners(sa) == b.partners(sa)

    def test_different_seeds_differ(self):
        a = IsolationMap(subarrays=64, design_seed=1, target_coverage=0.32)
        b = IsolationMap(subarrays=64, design_seed=2, target_coverage=0.32)
        assert any(a.partners(sa) != b.partners(sa) for sa in range(64))


class TestCalibration:
    @pytest.mark.parametrize("target", [0.25, 0.32, 0.38])
    def test_average_coverage_near_target(self, target):
        iso = IsolationMap(subarrays=64, design_seed=5, target_coverage=target)
        assert iso.average_coverage() == pytest.approx(target, abs=0.06)

    def test_rejects_invalid_target(self):
        with pytest.raises(ValueError):
            IsolationMap(subarrays=64, design_seed=1, target_coverage=0.0)

    def test_rejects_tiny_banks(self):
        with pytest.raises(ValueError):
            IsolationMap(subarrays=2, design_seed=1, target_coverage=0.3)

    def test_large_bank_subsampled_calibration(self):
        # 1024 subarrays triggers the capped calibration sample.
        iso = IsolationMap(subarrays=1024, design_seed=3, target_coverage=0.32)
        assert iso.average_coverage() == pytest.approx(0.32, abs=0.08)


class TestQueries:
    def test_partners_listed_are_isolated(self, iso):
        for sa in (0, 17, 63):
            for partner in iso.partners(sa):
                assert iso.isolated(sa, partner)

    def test_coverage_of_subarray(self, iso):
        candidates = list(range(64))
        value = iso.coverage_of_subarray(0, candidates)
        expected = len(iso.partners(0)) / 64
        assert value == pytest.approx(expected)

    def test_coverage_of_empty_candidates(self, iso):
        assert iso.coverage_of_subarray(0, []) == 0.0


@settings(max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    target=st.floats(min_value=0.15, max_value=0.5),
)
def test_map_always_symmetric_and_irreflexive(seed, target):
    iso = IsolationMap(subarrays=32, design_seed=seed, target_coverage=target)
    for a in range(32):
        assert not iso.isolated(a, a)
        for b in range(a + 1, 32):
            assert iso.isolated(a, b) == iso.isolated(b, a)


# ----------------------------------------------------------------------
# Calibration against a pair-by-pair reference
# ----------------------------------------------------------------------
def _reference_coverage(rail_of, rails, sample, allowed):
    """Pairable fraction over every ordered sample pair, one pair at a time."""
    total = good = 0
    for i in sample:
        for j in sample:
            if i == j:
                continue
            total += 1
            if abs(i - j) > 1 and (rail_of[i] - rail_of[j]) % rails in allowed:
                good += 1
    return good / total if total else 0.0


def _reference_calibration(iso, target):
    """Greedy growth of the compatibility set over the reference coverage."""
    def coverage(allowed):
        return _reference_coverage(iso.rail_of, iso.rails, iso._sample, allowed)

    rng = rng_for(iso.design_seed, 0xCA11B)
    half = iso.rails // 2
    candidates = [
        {d, iso.rails - d} if d != half else {d}
        for d in rng.permutation(range(1, half + 1))
    ]
    allowed = set()
    best_err = abs(coverage(allowed) - target)
    improved = True
    while improved and candidates:
        improved = False
        best_idx = -1
        for idx, cand in enumerate(candidates):
            err = abs(coverage(allowed | cand) - target)
            if err < best_err:
                best_err = err
                best_idx = idx
                improved = True
        if improved:
            allowed |= candidates.pop(best_idx)
    return allowed, coverage(allowed)


@st.composite
def _calibration_cases(draw):
    subarrays = draw(st.integers(min_value=4, max_value=300))
    sample = draw(st.none() | st.lists(
        st.integers(min_value=0, max_value=subarrays - 1), max_size=40,
    ))
    return subarrays, sample


@settings(max_examples=20, deadline=None)
@given(
    case=_calibration_cases(),
    seed=st.integers(min_value=0, max_value=1_000),
    target=st.floats(min_value=0.15, max_value=0.5, exclude_min=True, exclude_max=True),
)
def test_calibration_equals_pairwise_reference(case, seed, target):
    subarrays, sample = case
    iso = IsolationMap(
        subarrays=subarrays, design_seed=seed, target_coverage=target,
        calibration_sample=sample,
    )
    allowed, coverage = _reference_calibration(iso, target)
    assert iso._allowed_diffs == allowed
    assert iso.average_coverage() == coverage


def test_compatibility_set_holds_plain_ints():
    iso = IsolationMap(subarrays=64, design_seed=11, target_coverage=0.32)
    assert iso._allowed_diffs
    assert all(type(d) is int for d in iso._allowed_diffs)


@pytest.mark.parametrize("capacity, diffs, coverage", [
    (8.0, {2, 4, 8, 12, 14}, 0.3106545275590551),
    (32.0, {3, 7, 8, 9, 13}, 0.3116115196078431),
    (128.0, {5, 6, 8, 10, 11}, 0.31951279527559057),
])
def test_spt_maps_pinned_per_capacity(capacity, diffs, coverage):
    iso = SubarrayPairsTable(geometry_for_capacity(capacity))._map
    assert iso._allowed_diffs == diffs
    assert iso.average_coverage() == coverage


@pytest.mark.parametrize("label, diffs, coverage", [
    ("A0", {3, 6, 10, 13}, 0.2727272727272727),
    ("B0", {1, 5, 6, 10, 11, 15}, 0.36363636363636365),
    ("C0", {1, 4, 5, 11, 12, 15}, 0.3939393939393939),
])
def test_module_maps_pinned(label, diffs, coverage):
    module = next(m for m in TESTED_MODULES if m.label == label)
    iso = module.build_design().build_isolation_map()
    assert iso._allowed_diffs == diffs
    assert iso.average_coverage() == coverage
