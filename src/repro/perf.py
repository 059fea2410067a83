"""Kernel performance measurement: events/sec on fixed seeded workloads.

The simulation kernel's throughput is the binding constraint on every
sweep the reproduction runs (ROADMAP: "as fast as the hardware allows"),
so it is measured and tracked like a result.  ``repro perf`` (and the
``benchmarks/bench_kernel_perf.py`` wrapper) runs the quick-mode Fig. 12
single-point workloads — the PARA pair at the lowest RowHammer threshold
and the 128 Gbit capacity-margin pair — with pinned seeds, and writes
``BENCH_kernel.json`` so the perf trajectory is recorded per commit.
The ``chip`` entry beside them times the §4 chip model: Algorithm 1 pair
tests on one tested module (reported, not gated).

"Events" are DRAM commands plus column accesses served (ACT, PRE, REF,
RD, WR): the work the scheduler actually performed, independent of how
many idle cycles the event loop skipped.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path

#: The fixed workloads: quick-mode Fig. 12 single points (mix 0, the
#: legacy ``seed = 100 + mix_id`` seeding, 200k measured instructions).
KERNEL_WORKLOADS: tuple[tuple[str, dict], ...] = (
    ("fig12-para-nrh64", dict(refresh_mode="baseline", para_nrh=64.0)),
    ("fig12-hira2-nrh64", dict(refresh_mode="hira", tref_slack_acts=2, para_nrh=64.0)),
    ("fig12-margin-baseline-128g", dict(refresh_mode="baseline", capacity_gbit=128.0)),
    ("fig12-margin-hira2-128g", dict(refresh_mode="hira", tref_slack_acts=2, capacity_gbit=128.0)),
)

#: Pre-optimization (PR 2 kernel) median wall times for the workloads
#: above at ``PRE_PR_INSTR_BUDGET`` instructions.  The 100k-budget
#: values were measured interleaved with the optimized kernel on the
#: reference container (1 CPU, Python 3.11) so host drift cancels out;
#: when the default budget moved to 200k (the SoA kernel got fast
#: enough that a 100k rep could dip under a ~1 s timed window, where
#: timer noise dominates) they were scaled linearly — the kernel is
#: O(events) and events scale with the budget to within 1% (measured
#: ratio 1.99x), and the PR 2 kernel predates this module, so a clean
#: re-measurement is no longer possible.  They are the denominator of
#: the tracked speedup-vs-seed column; absolute times on other hosts
#: differ, ratios travel reasonably well.  Only comparable at the same
#: budget — ``measure_workload`` drops the column at any other scale.
PRE_PR_INSTR_BUDGET = 200_000
PRE_PR_WALL_S: dict[str, float] = {
    "fig12-para-nrh64": 9.16,
    "fig12-hira2-nrh64": 11.72,
    "fig12-margin-baseline-128g": 5.24,
    "fig12-margin-hira2-128g": 8.46,
}

_EVENT_FIELDS = ("acts", "pres", "refs", "reads_served", "writes_served")

#: The chip-model workload: Algorithm 1 on module C0 at Fig. 4's best
#: point (t1 = t2 = 3 ns), over the first, middle and last 32 rows of
#: bank 0, with every 8th of them as RowA.  Contiguous rows include
#: physical neighbours, so some senses find a disturbed row and draw
#: threshold noise.
CHIP_MODULE = "C0"
CHIP_T1_PS = 3_000
CHIP_T2_PS = 3_000
CHIP_CHUNK = 32
CHIP_ROWS_A_STEP = 8


def _count_events(result) -> int:
    return sum(
        getattr(stats, field)
        for stats in result.controller_stats
        for field in _EVENT_FIELDS
    )


def measure_workload(
    name: str, overrides: dict, instr_budget: int = 200_000, reps: int = 3
) -> dict:
    """Run one pinned workload ``reps`` times; report the median wall.

    ``init_s`` is the median ``System(...)`` construction time (point
    set-up, including HiRA's isolation-map calibration); the events/s
    rates time ``System.run`` alone.

    The default budget keeps every rep's timed window >= ~1 s on the
    reference container even after the SoA speedup, so timer granularity
    and scheduler jitter stay well under the drift the median absorbs.
    A degenerate near-zero wall (a stubbed run, a broken clock) reports
    rates of 0.0 rather than ``inf``: the CI floor check then fails
    loudly instead of an absurd rate sailing past it.
    """
    from repro.sim.config import SystemConfig
    from repro.sim.system import System
    from repro.workloads.mixes import mix_for

    config = SystemConfig(**overrides)
    inits = []
    walls = []
    result = None
    for __ in range(reps):
        profiles = mix_for(0, cores=config.cores)
        start = time.perf_counter()
        system = System(config, profiles, seed=100, instr_budget=instr_budget)
        inits.append(time.perf_counter() - start)
        start = time.perf_counter()
        result = system.run()
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    timeable = wall > 1e-6
    events = _count_events(result)
    instructions = sum(result.instructions)
    row = {
        "wall_s": round(wall, 4),
        "wall_s_all": [round(w, 4) for w in walls],
        "init_s": round(statistics.median(inits), 4),
        "events": events,
        "events_per_sec": round(events / wall, 1) if timeable else 0.0,
        "cycles": result.cycles,
        "cycles_per_sec": round(result.cycles / wall, 1) if timeable else 0.0,
        "instructions": instructions,
        "instr_per_sec": round(instructions / wall, 1) if timeable else 0.0,
    }
    ref = PRE_PR_WALL_S.get(name) if instr_budget == PRE_PR_INSTR_BUDGET else None
    if ref is not None and timeable:
        row["pre_pr_wall_s"] = ref
        row["speedup_vs_pre_pr"] = round(ref / wall, 2)
    return row


def measure_chip(reps: int = 3) -> dict:
    """Algorithm 1 pair tests per second on the chip model.

    Each rep builds a fresh chip and runs the whole subsample; the rate
    uses the median wall.  ``noise_draws`` (threshold-noise draws, from
    ``ChipStats``) and ``average_coverage`` are exact and identical in
    every rep.
    """
    from repro.experiments.coverage import algorithm1_coverage, tested_row_sample
    from repro.experiments.modules import TESTED_MODULES, build_module_chip
    from repro.softmc.host import SoftMCHost

    module = next(m for m in TESTED_MODULES if m.label == CHIP_MODULE)
    walls = []
    for __ in range(reps):
        chip = build_module_chip(module)
        rows = tested_row_sample(chip.geometry, chunk=CHIP_CHUNK)
        rows_a = rows[::CHIP_ROWS_A_STEP]
        host = SoftMCHost(chip)
        start = time.perf_counter()
        coverages = [
            algorithm1_coverage(host, 0, row_a, rows, CHIP_T1_PS, CHIP_T2_PS)
            for row_a in rows_a
        ]
        walls.append(time.perf_counter() - start)
    wall = statistics.median(walls)
    pair_tests = len(rows_a) * (len(rows) - 1)
    return {
        "module": CHIP_MODULE,
        "t1_ps": CHIP_T1_PS,
        "t2_ps": CHIP_T2_PS,
        "rows": len(rows),
        "rows_a": len(rows_a),
        "pair_tests": pair_tests,
        "wall_s": round(wall, 4),
        "wall_s_all": [round(w, 4) for w in walls],
        "pair_tests_per_sec": round(pair_tests / wall, 1) if wall > 1e-6 else 0.0,
        "noise_draws": chip.stats.noise_draws,
        "average_coverage": round(sum(coverages) / len(coverages), 6),
    }


def profile_kernel(instr_budget: int = 200_000) -> dict:
    """Phase-attributed wall time for every tracked workload.

    One extra (instrumented) run per workload — never the timed run, so
    probe overhead cannot contaminate the tracked events/sec numbers.
    Per-workload reports come from :func:`repro.obs.profiler.profile_workload`;
    the ``phases`` entry aggregates exclusive seconds and call counts
    across all workloads.
    """
    from repro.obs.profiler import PHASES, profile_workload

    per_workload = {}
    for name, overrides in KERNEL_WORKLOADS:
        per_workload[name] = profile_workload(overrides, instr_budget=instr_budget)
    totals = {name: {"seconds": 0.0, "calls": 0} for name in PHASES}
    wall = other = 0.0
    for report in per_workload.values():
        wall += report["wall_s"]
        other += report["other_s"]
        for phase, row in report["phases"].items():
            totals[phase]["seconds"] += row["seconds"]
            totals[phase]["calls"] += row["calls"]
    # Shares guard against a degenerate near-zero wall (not just exact
    # zero): a broken timer must produce 0.0 shares, never inf/absurd.
    timeable = wall > 1e-6
    for row in totals.values():
        row["seconds"] = round(row["seconds"], 4)
        row["share"] = round(row["seconds"] / wall, 4) if timeable else 0.0
    return {
        "wall_s": round(wall, 4),
        "other_s": round(other, 4),
        "other_share": round(other / wall, 4) if timeable else 0.0,
        "phases": totals,
        "workloads": per_workload,
    }


def measure_kernel(
    instr_budget: int = 200_000, reps: int = 3, profile: bool = False
) -> dict:
    """Measure every tracked workload and assemble the bench payload."""
    import os

    from repro.orchestrator.pool import available_cores

    workloads = {}
    for name, overrides in KERNEL_WORKLOADS:
        workloads[name] = measure_workload(
            name, overrides, instr_budget=instr_budget, reps=reps
        )
    total_wall = sum(row["wall_s"] for row in workloads.values())
    total_events = sum(row["events"] for row in workloads.values())
    total_timeable = total_wall > 1e-6
    ref_total = sum(
        row["pre_pr_wall_s"] for row in workloads.values() if "pre_pr_wall_s" in row
    )
    # ``cpus`` is the schedulable count (cgroup/affinity-aware): wall
    # times depend on what this process may actually use, not on how
    # many cores the host advertises.
    cpus = available_cores()
    payload = {
        "schema": 1,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": cpus,
            "cpus_effective": cpus,
            "cpus_total": os.cpu_count() or cpus,
        },
        "instr_budget": instr_budget,
        "reps": reps,
        "workloads": workloads,
        "totals": {
            "wall_s": round(total_wall, 4),
            "events": total_events,
            "events_per_sec": (
                round(total_events / total_wall, 1) if total_timeable else 0.0
            ),
            **(
                {
                    "pre_pr_wall_s": round(ref_total, 4),
                    "speedup_vs_pre_pr": round(ref_total / total_wall, 2),
                }
                if ref_total and total_timeable
                else {}
            ),
        },
        "chip": measure_chip(reps=reps),
    }
    if profile:
        payload["profile"] = profile_kernel(instr_budget=instr_budget)
    return payload


def write_bench(payload: dict, path: str | Path) -> Path:
    from repro.orchestrator.atomicio import atomic_write_text

    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
