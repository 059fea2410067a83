"""Run one benchmark workload, check its outputs and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel-long --seed 100 --seconds 10 --trace 0

The program under test is the ``repro`` package in ``src/`` of the same
checkout; nothing needs building.  One run:

1. imports the program, times ``IMPORT_REPS`` more imports in fresh
   interpreters and sets the workload up ``SETUP_REPS`` times
   (``setup_s`` = median import time + median set-up time);
2. repeats the workload's fixed batch (a "round") with tracing off, at
   least ``MIN_ROUNDS`` times and then while the next round is expected to
   end within ``--seconds``;
3. with ``--trace 1``, also runs one traced set-up and ``TRACED_ROUNDS``
   rounds under the span recorder, and derives the per-layer metrics;
4. checks every output, prints a report, and ends with one JSON line
   ``{"correct", "attempted", "failed", "metrics"}``.

The end-to-end metrics (``--trace 0``) are the median round wall, the
set-up time and the peak RSS.  Exit code 1 means an output check failed;
2 means the program could not be imported from this checkout.  Results,
kept spans and the exact counters of earlier runs go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench-out"

SETUP_REPS = 3
IMPORT_REPS = 5
MIN_ROUNDS = 2
TRACED_ROUNDS = 2

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
RATE_UNITS = {
    "sim_instr_per_s": "instr/s",
    "events_per_s": "events/s",
    "points_per_s": "points/s",
    "replay_points_per_s": "points/s",
    "pair_tests_per_s": "tests/s",
}


def import_program():
    """Import the workloads (and with them ``repro``) from this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    import layers
    import workloads

    return workloads, layers



def import_times() -> list[float]:
    """Import time of the workloads (and so of ``repro``) in fresh
    interpreters, measured after this process's own import warmed the
    file cache; one cold import alone varies too much to compare runs."""
    code = (
        "import sys, time; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "start = time.perf_counter(); import layers, workloads; "
        "print(time.perf_counter() - start)"
    )
    times = []
    for __ in range(IMPORT_REPS):
        child = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(BENCH_DIR)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(child.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def code_fingerprint() -> str:
    """Digest of the program source and of this benchmark's own files."""
    from repro.orchestrator.hashing import source_fingerprint

    bench = hashlib.sha256()
    for path in sorted(BENCH_DIR.glob("*.py")):
        bench.update(path.name.encode("utf-8"))
        bench.update(path.read_bytes())
    return f"{source_fingerprint()}-{bench.hexdigest()[:16]}"


def repeat_check(name: str, seed: int, exact: dict) -> list:
    """Exact counters and digest must equal those of an earlier run of the
    same code, workload and seed in this checkout (the first run records)."""
    path = OUT_DIR / "counters" / f"{name}-seed{seed}-{code_fingerprint()}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, indent=1, sort_keys=True) + "\n")
        return []
    previous = json.loads(path.read_text())
    if set(exact) - set(previous):  # a traced run adds counters
        path.write_text(json.dumps({**previous, **exact}, indent=1, sort_keys=True) + "\n")
    return [(f"{key} repeats across runs", previous[key] == exact[key])
            for key in sorted(set(previous) & set(exact))]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, workloads, layers, import_s: float):
        self.args = args
        self.layers = layers
        self.cls = workloads.WORKLOADS[args.workload]
        self.import_s = import_s
        self.out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
        self.checks: list = []
        self.rounds: list = []
        self.traced: list = []  # (recorder, round)
        self.post_recorders: list = []  # the traced post check, if any

    def setup(self):
        """Set the workload up SETUP_REPS times; keep the last one."""
        self.setup_times = []
        workload = None
        for __ in range(SETUP_REPS):
            if workload is not None:
                workload.close()
            workload = self.cls(self.args.seed, self.out_dir)
            start = time.perf_counter()
            try:
                workload.setup()
            except BaseException:
                workload.close()
                raise
            self.setup_times.append(time.perf_counter() - start)
        return workload

    def measure(self, workload) -> None:
        """Repeat rounds while the next one is expected to end in time."""
        deadline = time.perf_counter() + self.args.seconds
        while True:
            self.rounds.append(workload.run_round())
            if len(self.rounds) < MIN_ROUNDS:
                continue
            typical = statistics.median(r.wall_s for r in self.rounds)
            if time.perf_counter() + typical > deadline:
                break
        first = self.rounds[0]
        for i, r in enumerate(self.rounds, start=1):
            self.checks.extend(r.checks)
            if i > 1:
                self.checks.append((f"round {i} digest == round 1", r.digest == first.digest))
                self.checks.append((f"round {i} counters == round 1",
                                    r.counters == first.counters))

    def recorder(self):
        rec = SpanRecorder()
        self.layers.install(rec)
        return rec

    def trace(self, workload) -> None:
        """Traced set-up, traced rounds and the traced post checks."""
        with self.recorder() as setup_rec:
            extra = self.cls(self.args.seed, self.out_dir / "traced-setup")
            try:
                extra.setup()
            finally:
                extra.close()
        for i in range(1, TRACED_ROUNDS + 1):
            with self.recorder() as rec:
                r = workload.run_round()
            self.traced.append((rec, r))
            self.checks.extend(r.checks)
            self.checks.append((f"traced round {i} digest == untraced",
                                r.digest == self.rounds[0].digest))
        if self.cls.trace_post_checks:
            with self.recorder() as post_rec:
                self.checks.extend(workload.post_checks(self.rounds[-1]))
            self.post_recorders = [post_rec]
        else:
            self.checks.extend(workload.post_checks(self.rounds[-1]))
        self.setup_recorder = setup_rec

    def execute(self) -> None:
        self.workload = workload = self.setup()
        try:
            self.measure(workload)
            if self.args.trace:
                self.trace(workload)
            else:
                self.checks.extend(workload.post_checks(self.rounds[-1]))
        finally:
            workload.close()

    # ------------------------------------------------------------------
    def results(self) -> dict:
        layers = self.layers
        first = self.rounds[0]
        walls = [r.wall_s for r in self.rounds]
        rates = [self.workload.rates(r, first) for r in self.rounds]
        exact = dict(first.counters, sim_digest=first.digest)
        per_layer = None
        if self.traced:
            # A traced post check runs once; it adds the same counts to
            # every traced round, which still must repeat each other.
            work = []
            for rec, r in self.traced:
                values = layers.per_layer([rec, *self.post_recorders], r.facts)
                work.append({key: values[key] for key in self.cls.exact_traced})
            for i, counts in enumerate(work[1:], start=2):
                self.checks.append((f"traced round {i} work counters == traced round 1",
                                    counts == work[0]))
            if "softmc.pair_tests" in first.counters:
                self.checks.append(("recorded pair tests == planned pair tests",
                                    work[0]["softmc.pair_tests"]
                                    == first.counters["softmc.pair_tests"]))
            exact.update({f"traced.{key}": value for key, value in work[0].items()})
            facts = dict(self.traced[0][1].facts)
            facts["bench.trace_overhead_s"] = (
                self.traced[0][1].wall_s - statistics.median(walls))
            recorders = [self.setup_recorder, self.traced[0][0], *self.post_recorders]
            per_layer = layers.per_layer(recorders, facts)
            spans = OUT_DIR / f"spans-{self.args.workload}-seed{self.args.seed}"
            for part, rec in zip(("setup", "round", "post"), recorders):
                rec.write(Path(f"{spans}-{part}.json"))

        self.checks.extend(repeat_check(self.args.workload, self.args.seed, exact))
        attempted = len(self.checks)
        failed = sum(1 for __, ok in self.checks if not ok)
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "round_walls_s": walls,
            "round_units_s": [r.units for r in self.rounds],
            "round_run_s": [r.run_s for r in self.rounds],
            "traced_walls_s": [r.wall_s for __, r in self.traced],
            "setup_times_s": self.setup_times,
            "import_s": self.import_s,
            "end_to_end": {
                "wall_s": statistics.median(walls),
                "setup_s": self.import_s + statistics.median(self.setup_times),
                "peak_rss_mb": peak_rss_mb(),
            },
            "rates": {key: statistics.median(r[key] for r in rates) for key in rates[0]},
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "exact": exact,
            "per_layer": per_layer,
            "failed_checks": [name for name, ok in self.checks if not ok],
        }


def report(res: dict, per_layer_units) -> None:
    print(f"perfbench {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"rounds={len(res['round_walls_s'])} traced_rounds={len(res['traced_walls_s'])}")
    rows = [(name, res["end_to_end"][name], unit) for name, unit in END_TO_END]
    rows.append(("import_s", res["import_s"], "s"))
    rows += [(key, value, RATE_UNITS[key]) for key, value in sorted(res["rates"].items())]
    rows.append(("failed_frac", res["failed_frac"], "ratio"))
    for name, value, unit in rows:
        print(f"  {name:<36} {value:>18.6f} {unit}")
    for key, value in sorted(res["exact"].items()):
        print(f"  {key:<36} {value}")
    if res["per_layer"] is not None:
        for name, unit in per_layer_units:
            print(f"  layer {name:<40} {res['per_layer'][name]:>16.6f} {unit}")
    for name in res["failed_checks"]:
        print(f"  FAILED: {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=100,
                        help="workload seed (default: the legacy 100 + mix_id seeding)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, layers = import_program()
    import_s = statistics.median(import_times())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(args, workloads, layers, import_s)
    # Worker processes inherit stdout: point it at stderr while they live,
    # so that standard output carries only this report.
    sys.stdout.flush()
    saved_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        run.execute()
    finally:
        sys.stdout.flush()
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    res = run.results()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    report(res, layers.PER_LAYER)
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": res["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
