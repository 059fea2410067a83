"""The four benchmark workloads: kernel-long, sweep-many, characterize, verify.

Each workload is closed-loop batch work generated by this one process:
``setup`` prepares inputs from the seed, ``run_round`` runs one fixed
batch and times its own timed section, and every round repeats the same
work, so its digest and exact counters must repeat too.  Layer functions
the span recorder wraps are called through their modules (``coverage.``,
``execute.``, ...) so that a traced round sees them; the digests use the
original ``result_to_dict`` bound at import, so they add no spans.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.experiments import coverage, modules, second_act
from repro.obs import tracer as obs_tracer
from repro.obs.fleet import FleetStatus
from repro.orchestrator import execute, pool
from repro.orchestrator.backends import SocketBackend
from repro.orchestrator.cache import result_to_dict
from repro.orchestrator.hashing import source_fingerprint
from repro.orchestrator.journal import journal_path_for
from repro.orchestrator.pool import available_cores
from repro.orchestrator.runner import run_sweep
from repro.orchestrator.sweep import Sweep, Variant, axis, mix_workloads
from repro.perf import KERNEL_WORKLOADS, _count_events
from repro.sim.audit import attach_auditors
from repro.sim.config import SystemConfig
from repro.sim.oracle import oracle_for_config
from repro.sim.system import System
from repro.workloads.mixes import mix_for

#: kernel-long / verify: the four pinned ``repro perf`` points plus one
#: elastic and one same-bank (REFsb) point, so every refresh engine runs.
KERNEL_POINTS: tuple[tuple[str, dict], ...] = KERNEL_WORKLOADS + (
    ("elastic-8g", dict(refresh_mode="elastic")),
    ("baseline-sb-8g", dict(refresh_mode="baseline", refresh_granularity="same_bank")),
)
KERNEL_BUDGET = 30_000
#: verify runs the same points armed, which costs more than twice as much
#: per instruction, so a smaller budget lets several rounds fit in a run.
VERIFY_BUDGET = 10_000
#: The quick fig. 12 margin floor of ``tools/check_fig12_margin.py``.
MARGIN_FLOOR = 1.08
MARGIN_PAIR = ("fig12-margin-hira2-128g", "fig12-margin-baseline-128g")

#: sweep-many: baseline/elastic/HiRA-2/HiRA-4 × capacities × granularities
#: × mixes at a small instruction budget.
SWEEP_MODES = (
    Variant.make("baseline", refresh_mode="baseline"),
    Variant.make("elastic", refresh_mode="elastic"),
    Variant.make("HiRA-2", refresh_mode="hira", tref_slack_acts=2),
    Variant.make("HiRA-4", refresh_mode="hira", tref_slack_acts=4),
)
SWEEP_CAPACITIES = (8.0, 32.0)
SWEEP_GRANULARITIES = ("all_bank", "same_bank")
SWEEP_MIXES = 2
SWEEP_BUDGET = 3_000
#: The status file is written at sweep start and end only, so the number
#: of atomic writes is an exact count (time-based snapshots are not).
STATUS_INTERVAL_S = 3600.0
WORKER_REGISTRATION_S = 60.0

#: characterize: Fig. 4's t1 grid at t2 = 3 ns, Algorithm 2 on a few
#: victims, on one tested module of each die revision (Table 1).  The seed
#: shifts the tested rows; the work stays the same size for every seed.
T1_GRID_NS = (1.5, 3.0, 4.5, 6.0)
T2_NS = 3.0
CHAR_MODULES = ("A0", "B0", "C0")
CHAR_STRIDE = 128
CHAR_ROWS_A_STEP = 12
CHAR_VICTIMS = 4
#: Fig. 4 golden band for the average coverage over all tested rows at
#: t1 = 3 ns (``benchmarks/bench_fig4_coverage.py``).
COVERAGE_BAND = (0.2, 0.45)


def digest(payload) -> str:
    """SHA-256 over a canonical JSON encoding."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def sim_counters(results) -> dict:
    """Exact simulated counts over a list of SimResults."""
    stats = [s for r in results for s in r.controller_stats]
    paired = sum(s.hira_access_parallelized + s.hira_refresh_parallelized for s in stats)
    solo = sum(s.solo_refreshes for s in stats)
    return {
        "sim.cycles": sum(r.cycles for r in results),
        "sim.events": sum(_count_events(r) for r in results),
        "sim.instructions": sum(sum(r.instructions) for r in results),
        "hira.parallelized_ratio": paired / (paired + solo) if paired + solo else 0.0,
        "hira.deadline_misses": sum(s.deadline_misses for s in stats),
        "controller.queue_full_rejections": sum(s.queue_full_rejections for s in stats),
    }


def warm_fingerprint() -> None:
    """Digest the program source (uncached) and warm the cached digest."""
    source_fingerprint(str(Path(repro.__file__).resolve().parent))
    source_fingerprint()


@dataclass
class Round:
    """One timed batch: the host seconds of its units, outputs and checks."""

    #: Timed unit (a point, a sweep pass, one module's Algorithm 1 or 2) -> seconds.
    units: dict
    digest: str
    #: Exact counts that must repeat across rounds and runs.
    counters: dict
    #: (check name, passed).
    checks: list
    #: Program-reported facts for the per-layer metrics.
    facts: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    #: Point label -> host seconds inside ``System.run`` alone.
    run_s: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.units.values())


class Workload:
    name = "abstract"
    #: Span-recorder counts that must repeat exactly (see ``layers.per_layer``).
    exact_traced: tuple[str, ...] = ()
    #: Whether ``post_checks`` runs under the span recorder in a traced run.
    trace_post_checks = False

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def rates(self, r: Round, first: Round) -> dict:
        """Headline work per host second in round ``r``."""
        raise NotImplementedError

    def post_checks(self, last: Round) -> list:
        """Checks made once after measuring (default: none)."""
        return []

    def close(self) -> None:
        """Release processes and files (idempotent)."""


# ----------------------------------------------------------------------
class KernelLong(Workload):
    name = "kernel-long"
    exact_traced = ("controller.schedule.calls",)
    budget = KERNEL_BUDGET
    check_margin = True

    def setup(self) -> None:
        warm_fingerprint()
        self.points = []
        for label, overrides in KERNEL_POINTS:
            config = SystemConfig(**overrides)
            self.points.append((label, config, tuple(mix_for(0, cores=config.cores))))

    def simulate(self, config, profiles, armed: bool = False) -> tuple:
        """Build and run one point: (hooks, result, seconds in ``run``), where
        hooks are (auditors, tracers) when armed and None otherwise."""
        system = System(config, list(profiles), seed=self.seed, instr_budget=self.budget)
        hooks = (attach_auditors(system), obs_tracer.attach_tracers(system)) if armed else None
        start = time.perf_counter()
        result = system.run()
        return hooks, result, time.perf_counter() - start

    def run_point(self, label: str, config, profiles) -> tuple:
        """One point: (result, run seconds, checks, facts)."""
        __, result, run_s = self.simulate(config, profiles)
        return result, run_s, [], {}

    def run_round(self) -> Round:
        results, checks, facts, units, run_s = [], [], {}, {}, {}
        for label, config, profiles in self.points:
            start = time.perf_counter()
            result, run_s[label], point_checks, point_facts = self.run_point(
                label, config, profiles)
            units[label] = time.perf_counter() - start
            results.append(result)
            checks.extend((f"{label}: {name}", ok) for name, ok in point_checks)
            for key, value in point_facts.items():
                facts[key] = facts.get(key, 0) + value
        by_label = {}
        for (label, __, __), result in zip(self.points, results):
            checks.append((f"{label}: finished", result.finished))
            by_label[label] = result
        if self.check_margin:
            hira, base = (by_label[label] for label in MARGIN_PAIR)
            margin = hira.weighted_speedup / base.weighted_speedup
            checks.append((f"128 Gbit HiRA-2/baseline margin {margin:.4f} >= {MARGIN_FLOOR}",
                           margin >= MARGIN_FLOOR))
        counters = sim_counters(results)
        facts.update(counters)
        return Round(
            units=units,
            digest=digest([result_to_dict(r) for r in results]),
            counters=counters,
            checks=checks,
            facts=facts,
            results=results,
            run_s=run_s,
        )

    def rates(self, r: Round, first: Round) -> dict:
        """As ``repro.perf``: work over the time inside ``System.run`` only."""
        run_s = sum(r.run_s.values())
        return {
            "sim_instr_per_s": first.counters["sim.instructions"] / run_s,
            "events_per_s": first.counters["sim.events"] / run_s,
        }


class Verify(KernelLong):
    """kernel-long's points at ``VERIFY_BUDGET`` with the hooks armed.  The
    margin floor is kernel-long's check: it is set for 30k instructions."""

    name = "verify"
    budget = VERIFY_BUDGET
    check_margin = False

    def setup(self) -> None:
        super().setup()
        self.oracles = {label: oracle_for_config(config) for label, config, __ in self.points}

    def run_point(self, label: str, config, profiles) -> tuple:
        (auditors, tracers), result, run_s = self.simulate(config, profiles, armed=True)
        oracle = self.oracles[label]
        audit_v = [v for a in auditors for v in a.violations()]
        oracle_v = [v for a in auditors for v in oracle.check_messages(a.records)]
        schema = []
        for t in tracers:
            payload = t.export()
            obs_tracer.trace_json(payload)
            schema.extend(obs_tracer.validate_chrome_trace(payload))
        checks = [
            (f"auditor violations {len(audit_v)} == 0", not audit_v),
            (f"oracle violations {len(oracle_v)} == 0", not oracle_v),
            (f"chrome trace schema problems {len(schema)} == 0", not schema),
        ]
        facts = {
            "tracer.events": sum(t.events_total for t in tracers),
            "tracer.dropped": sum(t.dropped for t in tracers),
            "audit.records": sum(len(a.records) for a in auditors),
        }
        return result, run_s, checks, facts

    def post_checks(self, last: Round) -> list:
        """Armed runs are bit-identical to disarmed runs of the same points."""
        disarmed = [self.simulate(config, profiles)[1] for __, config, profiles in self.points]
        same = digest([result_to_dict(r) for r in disarmed]) == last.digest
        return [("armed sim_digest == disarmed sim_digest", same)]


# ----------------------------------------------------------------------
class SweepMany(Workload):
    name = "sweep-many"
    #: The schedule calls are seen by the in-process post check only.
    exact_traced = ("controller.schedule.calls", "cache.hit_ratio", "atomicio.writes")
    trace_post_checks = True

    def setup(self) -> None:
        warm_fingerprint()
        self.sweep = Sweep(
            name="perfbench-sweep-many",
            axes=(
                axis("cfg", *SWEEP_MODES),
                axis("capacity_gbit", *SWEEP_CAPACITIES),
                axis("refresh_granularity", *SWEEP_GRANULARITIES),
            ),
            workloads=mix_workloads(SWEEP_MIXES, seed_base=self.seed),
            instr_budget=SWEEP_BUDGET,
        )
        self.workers = max(1, min(2, available_cores()))
        self.backend = SocketBackend(spawn_workers=self.workers)
        deadline = time.monotonic() + WORKER_REGISTRATION_S
        while self.backend.server.workers_seen < self.workers:
            if time.monotonic() > deadline:
                raise RuntimeError("sweep-many: workers did not register")
            time.sleep(0.005)

    def run_round(self) -> Round:
        store = self.out_dir / "store"
        shutil.rmtree(store, ignore_errors=True)
        journal = journal_path_for(store, self.sweep.name)
        status = FleetStatus(self.out_dir / "status.json", min_interval_s=STATUS_INTERVAL_S)
        before = self.backend.telemetry()
        start = time.perf_counter()
        cold = run_sweep(self.sweep, workers=self.workers, cache=store,
                         backend=self.backend, journal=journal, status=status)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_sweep(self.sweep, workers=self.workers, cache=store,
                         backend=self.backend, journal=journal, status=status)
        warm_s = time.perf_counter() - start
        after = self.backend.telemetry()
        n = len(cold.points)
        cold_dicts = [result_to_dict(r) for r in cold.results]
        warm_dicts = [result_to_dict(r) for r in warm.results]
        checks = [
            (f"cold computed {cold.computed} of {n}", cold.computed == n),
            (f"warm replayed {warm.reused} of {n}", warm.reused == n and warm.computed == 0),
            (f"backend {cold.backend} is socket", cold.backend == "socket"),
        ]
        checks.extend(
            (f"{p.label}: finished", r.finished) for p, r in zip(cold.points, cold.results)
        )
        checks.extend(
            (f"{p.label}: warm == cold", w == c)
            for p, w, c in zip(cold.points, warm_dicts, cold_dicts)
        )
        gets = cold.cache_hits + cold.cache_misses + warm.cache_hits + warm.cache_misses
        counters = sim_counters(cold.results)
        counters["cache.hit_ratio"] = (cold.cache_hits + warm.cache_hits) / gets
        facts = dict(counters)
        facts["backend.retries"] = after["retries"] - before["retries"]
        facts["backend.speculated"] = after["speculated"] - before["speculated"]
        facts["backend.degraded"] = int(after["degraded"])
        return Round(
            units={"cold": cold_s, "warm": warm_s},
            digest=digest(cold_dicts),
            counters=counters,
            checks=checks,
            facts=facts,
            results=list(cold.results),
        )

    def rates(self, r: Round, first: Round) -> dict:
        n = len(first.results)
        return {
            "sim_instr_per_s": first.counters["sim.instructions"] / r.units["cold"],
            "points_per_s": n / r.units["cold"],
            "replay_points_per_s": n / r.units["warm"],
        }

    def post_checks(self, last: Round) -> list:
        """Socket results are bit-identical to running each point in-process."""
        return [
            (f"{point.label}: socket == in-process",
             result_to_dict(execute.execute_point(point)) == result_to_dict(result))
            for point, result in zip(self.sweep.expand(), last.results)
        ]

    def close(self) -> None:
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.close()
            self.backend = None
        shutil.rmtree(self.out_dir / "store", ignore_errors=True)


# ----------------------------------------------------------------------
def _coverage_task(task):
    """One Algorithm 1 coverage distribution (a ``parallel_map`` item)."""
    chip, rows, rows_a, t1_ps = task
    return coverage.coverage_distribution(
        chip, 0, t1_ps, int(T2_NS * 1_000), tested_rows=rows, rows_a=rows_a, workers=1
    )


class Characterize(Workload):
    name = "characterize"
    exact_traced = ("softmc.pair_tests",)

    def setup(self) -> None:
        warm_fingerprint()
        phase = self.seed % CHAR_STRIDE
        self.modules = []
        for module in modules.TESTED_MODULES:
            if module.label not in CHAR_MODULES:
                continue
            chip = modules.build_module_chip(module)
            sample = coverage.tested_row_sample(chip.geometry, chunk=2048, stride=CHAR_STRIDE)
            rows = [row + phase for row in sample]
            victims = rows[:: max(1, len(rows) // CHAR_VICTIMS)][:CHAR_VICTIMS]
            self.modules.append((module.label, chip, rows, rows[::CHAR_ROWS_A_STEP], victims))
        self.tasks = [
            (chip, rows, rows_a, int(t1 * 1_000))
            for __, chip, rows, rows_a, __ in self.modules
            for t1 in T1_GRID_NS
        ]
        #: Algorithm 1 tests every RowA against every other tested row.
        self.pair_tests = sum(len(rows_a) * (len(rows) - 1) for __, rows, rows_a, __ in self.tasks)

    def run_round(self) -> Round:
        grid = len(T1_GRID_NS)
        units, dists, thresholds = {}, [], []
        for m, (label, chip, __, __, victims) in enumerate(self.modules):
            start = time.perf_counter()
            dists += pool.parallel_map(_coverage_task, self.tasks[m * grid:(m + 1) * grid],
                                       workers=1)
            units[f"{label}:alg1"] = time.perf_counter() - start
            start = time.perf_counter()
            thresholds.append(
                second_act.characterize_normalized_nrh(copy.deepcopy(chip), 0, victims))
            units[f"{label}:alg2"] = time.perf_counter() - start
        checks, payload, at_3ns = [], [], []
        for m, (label, __, __, __, __) in enumerate(self.modules):
            by_t1 = dict(zip(T1_GRID_NS, dists[m * grid:(m + 1) * grid]))
            best = by_t1[3.0]
            at_3ns.extend(best.coverages)
            ratios = [r.normalized for r in thresholds[m]]
            mean_nrh = sum(ratios) / len(ratios) if ratios else 0.0
            checks.extend([
                (f"{label}: min coverage at t1=3ns {best.minimum:.3f} > 0", best.minimum > 0.0),
                (f"{label}: mean normalized NRH {mean_nrh:.3f} > 1", mean_nrh > 1.0),
            ])
            payload.append({
                "module": label,
                "coverage": {str(t1): list(d.coverages) for t1, d in by_t1.items()},
                "thresholds": [
                    [r.victim, r.threshold_without_hira, r.threshold_with_hira]
                    for r in thresholds[m]
                ],
            })
        average = sum(at_3ns) / len(at_3ns)
        lo, hi = COVERAGE_BAND
        checks.append((f"average coverage at t1=3ns {average:.3f} in ({lo}, {hi})",
                       lo < average < hi))
        counters = {"softmc.pair_tests": self.pair_tests}
        return Round(
            units=units,
            digest=digest(payload),
            counters=counters,
            checks=checks,
            facts=dict(counters),
        )

    def rates(self, r: Round, first: Round) -> dict:
        return {"pair_tests_per_s": self.pair_tests / r.wall_s}


WORKLOADS = {cls.name: cls for cls in (KernelLong, SweepMany, Characterize, Verify)}
