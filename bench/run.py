"""Benchmark of locprov: one command for every workload.

    python3 bench/run.py --workload {issue,audit-full,audit-sparse}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics instead, and the spans are written under ``bench/out``.
Progress and diagnostics go to standard error. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["issue", "audit-full", "audit-sparse"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_program():
    """Import locprov from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import locprov
    except ImportError as exc:
        sys.exit(f"error: cannot import locprov from {src}: {exc}")
    if Path(locprov.__file__).resolve().parent.parent != src:
        sys.exit(f"error: locprov imported from {locprov.__file__}, "
                 f"not from {src}")


def _fmt(values) -> str:
    return "[" + " ".join(f"{v:.4g}" for v in values) + "]"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import checks
    from timing import Probe, Stopwatch
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def untraced(fn, *a):
        """Benchmark-side work, kept out of the trace."""
        if tracer is None:
            return fn(*a)
        tracer.on = False
        try:
            return fn(*a)
        finally:
            tracer.on = True

    probe = Probe()
    correct = True
    setup_times, raw_setup_times, rates, raw_rates, speeds = [], [], [], [], []
    attempted = failed = rounds = 0
    workload = None
    try:
        for _ in range(1 if tracer else workload_cls.setup_repeats):
            # Worlds hold reference cycles: free the previous set-up's
            # before the next one, so peak memory is that of one set-up.
            workload = None
            gc.collect()
            workload = workload_cls(args.seed)
            sw = Stopwatch(probe)
            workload.setup(sw)
            sw.stop()
            setup_times.append(sw.scaled_seconds)
            raw_setup_times.append(sw.seconds)
            speeds.append(sw.speed)
        untraced(workload.check_setup)
        if tracer:
            tracer.end_setup()

        loop_started = perf_counter()
        while rounds == 0 or perf_counter() - loop_started < args.seconds:
            sw = Stopwatch(probe)
            ops, outputs = workload.run_round(sw)
            sw.stop()
            rounds += 1
            attempted += ops
            failed += untraced(workload.check_round, outputs)
            del outputs
            gc.collect()
            rates.append(ops / sw.scaled_seconds)
            raw_rates.append(ops / sw.seconds)
            speeds.append(sw.speed)
    except checks.CheckFailed as exc:
        correct = False
        print(f"CHECK FAILED: {exc}", file=sys.stderr)

    print(f"{args.workload}: {rounds} rounds, {attempted} ops, {failed} "
          f"failed; set-up s {_fmt(setup_times)} raw {_fmt(raw_setup_times)}; "
          f"ops/s {_fmt(rates)} raw {_fmt(raw_rates)}; machine speed "
          f"{_fmt(speeds)}", file=sys.stderr)
    if tracer:
        tracer.uninstall()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans written to {spans_path}", file=sys.stderr)
        from tracer import PER_LAYER
        values = tracer.metrics(max(rounds, 1))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_times)
                        if setup_times else 0.0, "unit": "s"},
            "ops_per_s": {"value": statistics.median(rates) if rates else 0.0,
                          "unit": "1/s"},
            "bytes_per_op": {"value": workload.bytes_per_op if workload
                             else 0.0, "unit": "B"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
