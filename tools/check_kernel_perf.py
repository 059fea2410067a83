"""CI floor check for the kernel perf bench (``BENCH_kernel.json``).

Usage::

    python tools/check_kernel_perf.py BENCH_kernel.json --min-events-per-sec 48000
    python tools/check_kernel_perf.py BENCH_kernel.json --min-speedup 1.5

Exits non-zero when total events/sec (or the tracked speedup vs the
pre-optimization kernel) falls below the floor, so the ``kernel-perf-smoke``
job catches event-loop regressions the same way ``fig12-margin-smoke``
catches fidelity regressions.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="BENCH_kernel.json produced by `repro perf`")
    parser.add_argument("--min-events-per-sec", type=float, default=None)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="floor for totals.speedup_vs_pre_pr")
    args = parser.parse_args(argv)

    with open(args.bench_json) as fh:
        payload = json.load(fh)
    totals = payload["totals"]
    failed = False

    eps = totals["events_per_sec"]
    print(f"total: {eps:,.0f} events/s over {totals['wall_s']:.2f}s "
          f"({totals.get('speedup_vs_pre_pr', '?')}x vs pre-opt kernel)")
    for name, row in payload["workloads"].items():
        print(f"  {name}: {row['wall_s']:.2f}s, init_s {row['init_s']:.3f}s, "
              f"{row['events_per_sec']:,.0f} events/s")

    if args.min_events_per_sec is not None and eps < args.min_events_per_sec:
        print(f"FAIL: events/sec {eps:,.0f} < floor {args.min_events_per_sec:,.0f}")
        failed = True
    if args.min_speedup is not None:
        speedup = totals.get("speedup_vs_pre_pr", 0.0)
        if speedup < args.min_speedup:
            print(f"FAIL: speedup {speedup} < floor {args.min_speedup}")
            failed = True
    if not failed:
        print("OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
