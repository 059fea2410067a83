"""Which public functions are timed, and the per-layer metrics they give.

Layers are named after the ``repro`` modules they live in.  ``install``
wraps every layer on a :class:`~spans.SpanRecorder`; a workload that never
reaches a layer simply reports zero calls and zero time for it.
"""

from __future__ import annotations

import statistics

#: (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER: tuple[tuple[str, str], ...] = (
    # sim.system / sim.controller / sim.core / sim.trace / sim.addressing,
    # the refresh engines and rowhammer.para: the simulation kernel.
    ("system.run_self_s", "s"),
    ("controller.schedule.calls", "count"),
    ("controller.schedule.self_s", "s"),
    ("controller.schedule.issue_ratio", "ratio"),
    ("controller.schedule.calls_per_cycle", "calls/cycle"),
    ("controller.next_event.calls", "count"),
    ("controller.next_event.self_s", "s"),
    ("controller.enqueue.calls", "count"),
    ("controller.queue_full_rejections", "count"),
    ("core.calls", "count"),
    ("core.self_s", "s"),
    ("trace.next_access.self_s", "s"),
    ("addressing.decode.self_s", "s"),
    ("engine.calls", "count"),
    ("engine.self_s", "s"),
    ("para.self_s", "s"),
    # Exact simulated counts (warm-up excluded where SimResult excludes it).
    ("sim.cycles", "count"),
    ("sim.events", "count"),
    ("sim.instructions", "count"),
    ("hira.parallelized_ratio", "ratio"),
    ("hira.deadline_misses", "count"),
    # Point setup: sim.system, chip.isolation.
    ("system.init_s", "s"),
    ("isolation.calibrate_s", "s"),
    ("isolation.calibrate.calls", "count"),
    # orchestrator.sweep / hashing / cache / atomicio / journal, obs.fleet.
    ("sweep.plan_s", "s"),
    ("hashing.config_hash.calls", "count"),
    ("hashing.config_hash_s", "s"),
    ("cache.put_s", "s"),
    ("cache.get_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.encode_s", "s"),
    ("cache.decode_s", "s"),
    ("atomicio.writes", "count"),
    ("atomicio.write_s", "s"),
    ("journal.record_done_s", "s"),
    ("fleet.point_done_s", "s"),
    ("fleet.write.calls", "count"),
    # orchestrator.backends / orchestrator.execute.
    ("backend.wait_s", "s"),
    ("backend.yield_gap_p50_s", "s"),
    ("backend.yield_gap_p90_s", "s"),
    ("backend.retries", "count"),
    ("backend.speculated", "count"),
    ("backend.degraded", "count"),
    ("execute.point_p50_s", "s"),
    ("execute.point_p90_s", "s"),
    # experiments / softmc / chip / orchestrator.pool: chip characterization.
    ("chip.build_s", "s"),
    ("experiments.coverage_s", "s"),
    ("experiments.threshold_s", "s"),
    ("softmc.pair_tests", "count"),
    ("softmc.run.calls", "count"),
    ("softmc.run.self_s", "s"),
    ("chip.issue.calls", "count"),
    ("chip.issue.self_s", "s"),
    ("chip.rng_for.calls", "count"),
    ("chip.rng_for.self_s", "s"),
    ("pool.parallel_map_s", "s"),
    # obs.tracer / sim.audit / sim.oracle: the armed verification path.
    ("tracer.on_stall.calls", "count"),
    ("tracer.hooks_self_s", "s"),
    ("tracer.events", "count"),
    ("tracer.dropped", "count"),
    ("tracer.export_s", "s"),
    ("audit.records", "count"),
    ("audit.hooks_self_s", "s"),
    ("audit.violations_s", "s"),
    ("oracle.check_s", "s"),
    # The benchmark's own cost.
    ("bench.trace_overhead_s", "s"),
)

def install(rec) -> None:
    """Wrap every layer's public functions on ``rec`` (restored on exit)."""
    from repro.chip.chip_model import DramChip
    from repro.chip.isolation import IsolationMap
    from repro.core.engine import HiraRefreshEngine
    from repro.obs.fleet import FleetStatus
    from repro.obs.tracer import SimTracer
    from repro.orchestrator.backends.server import JobServer
    from repro.orchestrator.cache import ResultCache
    from repro.orchestrator.journal import SweepJournal
    from repro.rowhammer.para import Para
    from repro.sim.addressing import AddressMapper
    from repro.sim.audit import CommandAuditor
    from repro.sim.controller import BaselineRefreshEngine, MemoryController, RefreshEngine
    from repro.sim.core import CoreModel
    from repro.sim.elastic import ElasticRefreshEngine
    from repro.sim.oracle import TimingOracle
    from repro.sim.system import System
    from repro.sim.trace import TraceGenerator
    from repro.softmc.host import SoftMCHost

    # Simulation kernel (hot: aggregated, not kept).
    rec.wrap_method(System, "__init__", "system.init", keep=True)
    rec.wrap_method(System, "run", "system.run", keep=True)
    rec.wrap_method(MemoryController, "schedule", "controller.schedule", truthy=True)
    rec.wrap_method(MemoryController, "next_event", "controller.next_event")
    rec.wrap_method(MemoryController, "enqueue", "controller.enqueue")
    rec.wrap_public_methods(CoreModel, "core")
    rec.wrap_method(TraceGenerator, "next_access", "trace.next_access")
    rec.wrap_method(AddressMapper, "decode", "addressing.decode")
    for engine in (RefreshEngine, BaselineRefreshEngine, ElasticRefreshEngine,
                   HiraRefreshEngine):
        rec.wrap_public_methods(engine, "engine")
    rec.wrap_public_methods(Para, "para")
    rec.wrap_method(IsolationMap, "__init__", "isolation.calibrate", keep=True)

    # Orchestrator and fleet status (boundary layers: kept).
    rec.wrap_function("repro.orchestrator.runner", "plan_sweep", "sweep.plan", keep=True)
    rec.wrap_function("repro.orchestrator.hashing", "config_hash", "hashing.config_hash")
    rec.wrap_method(ResultCache, "put", "cache.put", keep=True)
    rec.wrap_method(ResultCache, "get", "cache.get", keep=True, truthy=True)
    rec.wrap_function("repro.orchestrator.cache", "result_to_dict", "cache.encode", keep=True)
    rec.wrap_function("repro.orchestrator.cache", "result_from_dict", "cache.decode",
                      keep=True)
    rec.wrap_function("repro.orchestrator.atomicio", "atomic_write_text", "atomicio.write",
                      keep=True)
    rec.wrap_method(SweepJournal, "record_done", "journal.record_done", keep=True)
    rec.wrap_method(FleetStatus, "point_done", "fleet.point_done", keep=True)
    rec.wrap_method(FleetStatus, "write", "fleet.write", keep=True)
    rec.wrap_method(JobServer, "stream", "backend.next", keep=True)
    rec.wrap_function("repro.orchestrator.execute", "execute_point", "execute.point",
                      keep=True)

    # Chip characterization.
    rec.wrap_function("repro.experiments.modules", "build_module_chip", "chip.build",
                      keep=True)
    rec.wrap_function("repro.experiments.coverage", "coverage_distribution",
                      "experiments.coverage", keep=True)
    rec.wrap_function("repro.experiments.second_act", "characterize_normalized_nrh",
                      "experiments.threshold", keep=True)
    rec.wrap_function("repro.experiments.coverage", "pair_passes", "softmc.pair_test")
    rec.wrap_method(SoftMCHost, "run", "softmc.run")
    rec.wrap_method(DramChip, "issue", "chip.issue")
    rec.wrap_function("repro.chip.rng", "rng_for", "chip.rng_for")
    rec.wrap_function("repro.orchestrator.pool", "parallel_map", "pool.parallel_map",
                      keep=True)

    # Armed verification path.
    rec.wrap_method(SimTracer, "on_stall", "tracer.on_stall")
    rec.wrap_public_methods(SimTracer, "tracer.hooks", prefix="on_")
    rec.wrap_method(SimTracer, "export", "tracer.export", keep=True)
    rec.wrap_function("repro.obs.tracer", "trace_json", "tracer.trace_json", keep=True)
    rec.wrap_public_methods(CommandAuditor, "audit.hooks", prefix="on_")
    rec.wrap_method(CommandAuditor, "violations", "audit.violations", keep=True)
    rec.wrap_method(TimingOracle, "check_messages", "oracle.check", keep=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (statistics' exclusive method); 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def per_layer(recs: list, facts: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the recorders ``recs`` plus run ``facts``.

    ``facts`` carries what the program reports itself: the simulated
    counts (``sim.*``, ``hira.*``, ``controller.queue_full_rejections``),
    tracer and auditor counts, backend telemetry and the trace overhead.
    """

    def count(name: str) -> int:
        return sum(rec.count(name) for rec in recs)

    def total(name: str) -> float:
        return sum(rec.total(name) for rec in recs)

    def self_time(name: str) -> float:
        return sum(rec.self_time(name) for rec in recs)

    def truthy(name: str) -> int:
        return sum(rec.truthy_count(name) for rec in recs)

    def durations(name: str) -> list[float]:
        return [d for rec in recs for d in rec.durations(name)]

    schedule_calls = count("controller.schedule")
    gets = count("cache.get")
    values = {
        "system.run_self_s": self_time("system.run"),
        "controller.schedule.calls": schedule_calls,
        "controller.schedule.self_s": self_time("controller.schedule"),
        "controller.schedule.issue_ratio": _ratio(
            truthy("controller.schedule"), schedule_calls),
        "controller.schedule.calls_per_cycle": _ratio(
            schedule_calls, facts.get("sim.cycles", 0)),
        "controller.next_event.calls": count("controller.next_event"),
        "controller.next_event.self_s": self_time("controller.next_event"),
        "controller.enqueue.calls": count("controller.enqueue"),
        "core.calls": count("core"),
        "core.self_s": self_time("core"),
        "trace.next_access.self_s": self_time("trace.next_access"),
        "addressing.decode.self_s": self_time("addressing.decode"),
        "engine.calls": count("engine"),
        "engine.self_s": self_time("engine"),
        "para.self_s": self_time("para"),
        "system.init_s": total("system.init"),
        "isolation.calibrate_s": total("isolation.calibrate"),
        "isolation.calibrate.calls": count("isolation.calibrate"),
        "sweep.plan_s": total("sweep.plan"),
        "hashing.config_hash.calls": count("hashing.config_hash"),
        "hashing.config_hash_s": total("hashing.config_hash"),
        "cache.put_s": total("cache.put"),
        "cache.get_s": total("cache.get"),
        "cache.hit_ratio": _ratio(truthy("cache.get"), gets),
        "cache.encode_s": total("cache.encode"),
        "cache.decode_s": total("cache.decode"),
        "atomicio.writes": count("atomicio.write"),
        "atomicio.write_s": total("atomicio.write"),
        "journal.record_done_s": total("journal.record_done"),
        "fleet.point_done_s": total("fleet.point_done"),
        "fleet.write.calls": count("fleet.write"),
        "backend.wait_s": total("backend.next"),
        "backend.yield_gap_p50_s": _quantile(durations("backend.next"), 50),
        "backend.yield_gap_p90_s": _quantile(durations("backend.next"), 90),
        "execute.point_p50_s": _quantile(durations("execute.point"), 50),
        "execute.point_p90_s": _quantile(durations("execute.point"), 90),
        "chip.build_s": total("chip.build"),
        "experiments.coverage_s": total("experiments.coverage"),
        "experiments.threshold_s": total("experiments.threshold"),
        "softmc.pair_tests": count("softmc.pair_test"),
        "softmc.run.calls": count("softmc.run"),
        "softmc.run.self_s": self_time("softmc.run"),
        "chip.issue.calls": count("chip.issue"),
        "chip.issue.self_s": self_time("chip.issue"),
        "chip.rng_for.calls": count("chip.rng_for"),
        "chip.rng_for.self_s": self_time("chip.rng_for"),
        "pool.parallel_map_s": total("pool.parallel_map"),
        "tracer.on_stall.calls": count("tracer.on_stall"),
        "tracer.hooks_self_s": self_time("tracer.on_stall") + self_time("tracer.hooks"),
        "tracer.export_s": total("tracer.export") + total("tracer.trace_json"),
        "audit.hooks_self_s": self_time("audit.hooks"),
        "audit.violations_s": total("audit.violations"),
        "oracle.check_s": total("oracle.check"),
    }
    for name, __ in PER_LAYER:
        if name not in values:
            values[name] = facts.get(name, 0)
    return values
