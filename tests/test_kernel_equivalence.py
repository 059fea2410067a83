"""The optimized event kernel is bit-identical to the recorded goldens.

``tests/goldens/kernel_ab.json`` holds full ``result_to_dict`` dumps
across baseline/elastic/HiRA/PARA configurations, channel and rank
variants.  Refactors of the event kernel (cached core wake times, the
``schedule()`` wake memo, O(1) queue predicates, vectorized trace
generation) are pure performance changes: every field — cycles, per-core
IPCs, controller stats — must survive them exactly.

The goldens pin model semantics, not a visit schedule: the ``dense``
tests check that ``System.run(dense=True)``, which calls ``schedule()``
on every cycle, reproduces the same goldens the event-skipping run is
checked against.

If a future change alters scheduler *behavior* on purpose, regenerate
the goldens (run this file with ``REPRO_REGEN_GOLDENS=1``) in the same
commit and say so in its message; a silent diff here is a regression.

Entries carrying a ``pinned`` field are *never* regenerated: the
``-zeroturn`` entries run with ``trtw = twtr = 0`` timing overrides and
``refresh_granularity="all_bank"``, and hold the results of the dense
reference for that timing — the pre-turnaround, pre-REFsb model (first
recorded at commit cb6b0c8, re-pinned once when event skipping became
exact).  They prove that zero turnaround plus all-bank refresh still
reproduces that model, for every recorded engine/channel/rank/PARA
configuration.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.orchestrator import result_to_dict
from repro.sim.audit import attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.mixes import mix_for

GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernel_ab.json"
GOLDENS = json.loads(GOLDEN_PATH.read_text())

AUDIT_GOLDEN_PATH = Path(__file__).parent / "goldens" / "kernel_audit_digests.json"
AUDIT_GOLDENS = (
    json.loads(AUDIT_GOLDEN_PATH.read_text()) if AUDIT_GOLDEN_PATH.exists() else {}
)


def run_entry(entry: dict, dense: bool = False):
    config_data = dict(entry["config"])
    # Optional partial TimingParams override (e.g. {"trtw": 0, "twtr": 0}),
    # applied on top of the capacity-derived preset.
    timing_overrides = config_data.pop("timing", None)
    config = SystemConfig(**config_data)
    if timing_overrides:
        config = config.variant(
            timing=replace(config.timing, **timing_overrides)
        )
    profiles = mix_for(entry["mix_id"], cores=config.cores)
    system = System(
        config, profiles, seed=entry["seed"], instr_budget=entry["instr_budget"]
    )
    return system.run(dense=dense)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_kernel_matches_golden(name):
    entry = GOLDENS[name]
    result = result_to_dict(run_entry(entry))
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1" and "pinned" not in entry:
        GOLDENS[name]["result"] = result  # pragma: no cover
        GOLDEN_PATH.write_text(json.dumps(GOLDENS, indent=1, sort_keys=True))
        return
    golden = entry["result"]
    # Compare piecewise first so a mismatch names the field, then fully.
    for field in golden:
        assert result[field] == golden[field], f"{name}: {field} diverged"
    assert result == golden


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_dense_reference_matches_golden(name):
    """Event skipping is exact: the every-cycle run gives the golden too."""
    entry = GOLDENS[name]
    assert result_to_dict(run_entry(entry, dense=True)) == entry["result"]


def test_goldens_cover_every_engine():
    modes = {entry["config"].get("refresh_mode") for entry in GOLDENS.values()}
    assert modes >= {"none", "baseline", "elastic", "hira"}
    assert any(entry["config"].get("para_nrh") for entry in GOLDENS.values())
    assert any(entry["config"].get("channels", 1) > 1 for entry in GOLDENS.values())
    assert any(
        entry["config"].get("ranks_per_channel", 1) > 1 for entry in GOLDENS.values()
    )
    # Both refresh granularities are pinned, for every REF-owing engine.
    sb_modes = {
        entry["config"]["refresh_mode"]
        for entry in GOLDENS.values()
        if entry["config"].get("refresh_granularity") == "same_bank"
    }
    assert sb_modes >= {"baseline", "elastic", "hira"}


# ----------------------------------------------------------------------
# SoA A/B sweep: byte-identical audit logs across the full engine matrix.
#
# The kernel_ab goldens compare aggregate results (cycles, IPCs, stats);
# an array-indexing transposition in the struct-of-arrays hot path could
# in principle swap two banks' command streams without moving any
# aggregate.  These goldens pin a sha256 over every controller's full
# exported audit log — command kind, cycle, rank, bank, row, tag, in
# issue order — so the command *stream itself* must survive refactors
# byte for byte.  Seeds are drawn from a fixed generator: randomized
# coverage, deterministic test.
# ----------------------------------------------------------------------
def _audit_grid() -> dict[str, dict]:
    rng = random.Random(0xA0D17)
    grid = {}
    for mode in ("baseline", "elastic", "hira"):
        for granularity in ("all_bank", "same_bank"):
            for turnaround in (True, False):
                seed = rng.randrange(1, 1 << 16)
                name = (
                    f"{mode}-{granularity}-"
                    f"{'turn' if turnaround else 'noturn'}-s{seed}"
                )
                config: dict = {"refresh_mode": mode, "refresh_granularity": granularity}
                if mode == "hira":
                    config["tref_slack_acts"] = 2
                if rng.random() < 0.5:
                    config["para_nrh"] = float(rng.choice((64, 256)))
                if not turnaround:
                    config["timing"] = {"trtw": 0, "twtr": 0}
                grid[name] = {
                    "config": config,
                    "mix_id": rng.randrange(0, 3),
                    "seed": seed,
                    "instr_budget": 3000,
                }
    return grid


AUDIT_GRID = _audit_grid()


def _audit_digest(entry: dict, dense: bool = False) -> str:
    config_data = dict(entry["config"])
    timing_overrides = config_data.pop("timing", None)
    config = SystemConfig(**config_data)
    if timing_overrides:
        config = config.variant(timing=replace(config.timing, **timing_overrides))
    profiles = mix_for(entry["mix_id"], cores=config.cores)
    system = System(
        config, profiles, seed=entry["seed"], instr_budget=entry["instr_budget"]
    )
    auditors = attach_auditors(system)
    system.run(dense=dense)
    digest = hashlib.sha256()
    for auditor in auditors:
        log = auditor.export_log()
        digest.update(
            json.dumps(log, sort_keys=True, separators=(",", ":")).encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(AUDIT_GRID))
def test_audit_log_matches_digest_golden(name):
    entry = AUDIT_GRID[name]
    digest = _audit_digest(entry)
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":  # pragma: no cover
        AUDIT_GOLDENS[name] = digest
        AUDIT_GOLDEN_PATH.write_text(
            json.dumps(AUDIT_GOLDENS, indent=1, sort_keys=True) + "\n"
        )
        return
    assert name in AUDIT_GOLDENS, (
        f"no audit digest recorded for {name}; regenerate with "
        "REPRO_REGEN_GOLDENS=1"
    )
    assert digest == AUDIT_GOLDENS[name], (
        f"{name}: audit log diverged from the recorded command stream"
    )


@pytest.mark.parametrize("name", sorted(AUDIT_GRID))
def test_dense_audit_log_matches_digest_golden(name):
    """The every-cycle run issues the same command stream, byte for byte."""
    assert _audit_digest(AUDIT_GRID[name], dense=True) == AUDIT_GOLDENS[name]


def test_audit_grid_covers_matrix():
    combos = {
        (e["config"]["refresh_mode"], e["config"]["refresh_granularity"],
         "timing" in e["config"])
        for e in AUDIT_GRID.values()
    }
    assert len(combos) == 12  # 3 engines x 2 granularities x turnaround on/off


def test_every_entry_has_a_pinned_zero_turnaround_twin():
    """Each live entry is shadowed by a PR 4-pinned zero-turnaround case.

    The twin differs from its sibling only by the ``trtw = twtr = 0``
    timing override (and an explicit all-bank granularity), so the pair
    proves the turnaround/REFsb gating is exactly opt-in: disabling it
    reproduces the pre-turnaround kernel bit for bit.
    """
    live = {
        n
        for n, e in GOLDENS.items()
        if not n.endswith("-zeroturn")
        and e["config"].get("refresh_granularity", "all_bank") == "all_bank"
    }
    assert live, "no live golden entries"
    for name in live:
        twin = GOLDENS.get(name + "-zeroturn")
        assert twin is not None, f"{name} has no -zeroturn twin"
        assert "pinned" in twin, f"{name}-zeroturn must be pinned"
        assert twin["config"]["timing"] == {"trtw": 0, "twtr": 0}
        assert twin["config"]["refresh_granularity"] == "all_bank"
        stripped = {
            k: v
            for k, v in twin["config"].items()
            if k not in ("timing", "refresh_granularity")
        }
        assert stripped == GOLDENS[name]["config"]
