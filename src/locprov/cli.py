"""Operator command line: run scenarios, audit exported chains, benchmark.

Subcommands:

* ``simulate``   -- run a scenario file; export chain, claims, registry,
                    trace and outcome; print the audit and the count of
                    refusals by reason. Exits 0 when the outcome matched
                    the scenario's expectation.
* ``audit``      -- audit an exported chain against a claims file (and an
                    optional registry). Exits 0 on a clean audit, 1 when
                    the audit flags the history.
* ``bench-space``-- per-entry ordering-metadata size of both schemes as a
                    function of chain length (CSV).
* ``bench-audit``-- instrumented audit cost of both schemes for worst-case
                    reveals of an honest chain (CSV).
* ``scenarios``  -- list the built-in attack scenarios or export them as
                    scenario files.

Exit codes everywhere: 0 success/clean, 1 audit failure or expectation
mismatch detected, 2 usage, parse or write errors. All commands are
deterministic for a fixed ``--seed`` (wall-time columns excepted).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from .audit import audit, render_text_report, truthful_claims
from .bloom import bloom_new
from .crypto import get_profile
from .model import (
    SCHEME_HASHCHAIN,
    SCHEMES,
    ValidationError,
    make_revealed_subsequence,
)
from .protocol import Directory, ProtocolConfig, World
from .scenarios import (
    builtin_suite,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
)
from .serialize import (
    FormatError,
    dump_audit_report_file,
    dump_chain_file,
    dump_claims_file,
    dump_registry_file,
    load_chain_file,
    load_claims_file,
    load_registry_file,
)

EXIT_OK = 0
EXIT_AUDIT_FAILURE = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    try:
        scenario = scenario_from_json(Path(args.scenario).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            ValidationError) as exc:
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        scenario.seed = args.seed
    if args.scheme is not None:
        scenario.scheme = args.scheme

    try:
        outcome = run_scenario(scenario)
    except ValidationError as exc:
        print(f"error: scenario failed to run: {exc}", file=sys.stderr)
        return EXIT_USAGE

    summary = {
        "scenario": outcome.scenario,
        "scheme": outcome.scheme,
        "expected_detection": outcome.expected_detection,
        "detected": outcome.detected,
        "prevented": outcome.prevented,
        "matched": outcome.matched,
        "threat_label": outcome.threat_label,
        "audit_ok": outcome.audit_report.ok,
        "refusals": outcome.refusals,
    }
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "chain.json").write_text(dump_chain_file(
            outcome.profile_name, outcome.subsequence, outcome.directory))
        (out_dir / "claims.json").write_text(dump_claims_file(outcome.claims))
        (out_dir / "registry.json").write_text(dump_registry_file(
            outcome.profile_name, outcome.registry))
        (out_dir / "trace.jsonl").write_text(outcome.trace_jsonl())
        (out_dir / "outcome.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True))
    except OSError as exc:
        return _cannot_write(exc)

    status = "detected" if outcome.detected else "clean"
    print(f"{outcome.scenario}: {status} "
          f"({'matched' if outcome.matched else 'MISMATCH'})")
    print(render_text_report(outcome.audit_report))
    refusals = sorted(Counter(outcome.refusals).items())
    print("refusals: " + (", ".join(f"{reason} {count}"
                                    for reason, count in refusals) or "none"))
    return EXIT_OK if outcome.matched else EXIT_AUDIT_FAILURE


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(args) -> int:
    try:
        profile_name, sub, directory = load_chain_file(
            Path(args.chain).read_text())
        claims = load_claims_file(Path(args.claims).read_text())
        registry = None
        if args.registry:
            _, registry = load_registry_file(Path(args.registry).read_text())
    except (OSError, UnicodeDecodeError, FormatError) as exc:
        print(f"error: cannot load inputs: {exc}", file=sys.stderr)
        return EXIT_USAGE

    profile = get_profile(profile_name)
    report = audit(profile, claims, sub, Directory(directory).pubkeys(),
                   registry)
    if args.out:
        try:
            Path(args.out).write_text(dump_audit_report_file(report))
        except OSError as exc:
            return _cannot_write(exc)
    print(render_text_report(report))
    return EXIT_OK if report.ok else EXIT_AUDIT_FAILURE


# ---------------------------------------------------------------------------
# bench-space
# ---------------------------------------------------------------------------

def _sweep(max_n: int) -> list[int]:
    """1-2-5 decade sweep up to and including max_n."""
    values = []
    base = 1
    while base <= max_n:
        for mult in (1, 2, 5):
            n = base * mult
            if n <= max_n:
                values.append(n)
        base *= 10
    if values[-1] != max_n:
        values.append(max_n)
    return values


def bench_space_rows(max_n: int, fpr: float, profile_name: str) -> list[dict]:
    """Per-entry ordering metadata bytes for both schemes at each chain
    length. The hash-chain is one signature regardless of length; the
    accumulator is sized for the whole chain at the target false-positive
    rate."""
    profile = get_profile(profile_name)
    rows = []
    for n in _sweep(max_n):
        accumulator = bloom_new(n, fpr)
        rows.append({
            "n": n,
            "hashchain_bytes_per_entry": profile.signature_len,
            "bloom_bytes_per_entry": len(accumulator.bits),
        })
    return rows


def cmd_bench_space(args) -> int:
    return _write_csv(
        args.out, lambda: bench_space_rows(args.max_n, args.fpr, args.profile),
        ["n", "hashchain_bytes_per_entry", "bloom_bytes_per_entry"])


# ---------------------------------------------------------------------------
# bench-audit
# ---------------------------------------------------------------------------

def build_honest_chain(scheme: str, n: int, profile_name: str = "modern",
                       seed: int = 7) -> tuple[World, "object"]:
    """Drive the full protocol for an n-entry honest chain.

    Uses a pair of alternating authorities so per-entry key resolution is
    exercised, and sizes the accumulator capacity to the chain length.
    """
    config = ProtocolConfig(hop_delay_ms=50, chain_capacity=max(n, 1))
    world = World(get_profile(profile_name), scheme, config, seed=seed)
    world.add_authority("site-a")
    world.add_authority("site-b")
    world.add_witness("w1")
    user = world.add_user("u1")
    stops = ["site-a", "site-b"]
    for i in range(n):
        stop = stops[i % 2]
        world.place("u1", stop)
        world.place("w1", stop)
        outcome = world.run_visit("u1", stop, "w1")
        if not outcome.ok:
            raise ValidationError(f"honest visit {i + 1} failed: {outcome.reason}")
        world.advance(1_000)
    world.finalize_epochs()
    return world, user.chain


def worst_case_positions(n: int, pct: float) -> list[int]:
    """Evenly spaced reveal positions always including the first and last
    entry — the spread that maximizes hash-chain audit work."""
    count = max(1, round(n * pct / 100.0))
    if count >= n:
        return list(range(1, n + 1))
    if count == 1:
        return [n]
    step = (n - 1) / (count - 1)
    positions = sorted({round(1 + i * step) for i in range(count)})
    positions[0], positions[-1] = 1, n
    return sorted(set(positions))


def bench_audit_rows(chain_n: int, reveal_pcts: list[float],
                     profile_name: str = "modern",
                     seed: int = 7) -> list[dict]:
    """Audit an honest chain of length ``chain_n`` under both schemes,
    revealing worst-case subsets, and record instrumented operation counts
    plus wall time."""
    rows = []
    for scheme in SCHEMES:
        world, chain = build_honest_chain(scheme, chain_n, profile_name, seed)
        for pct in reveal_pcts:
            positions = worst_case_positions(chain_n, pct)
            sub = make_revealed_subsequence(world.profile, chain, positions)
            claims = truthful_claims(sub)
            started = time.perf_counter()
            report = audit(world.profile, claims, sub,
                           world.directory.pubkeys(), world.registry)
            elapsed = time.perf_counter() - started
            if not report.ok:
                raise ValidationError(
                    f"honest bench audit failed: {render_text_report(report)}")
            rows.append({
                "scheme": scheme,
                "n": chain_n,
                "pct": pct,
                "revealed": len(positions),
                "ops_count": report.checks["link"] + report.checks["accumulator"],
                "signatures_verified": report.signatures_verified,
                "wall_time_s": round(elapsed, 6),
            })
    return rows


def cmd_bench_audit(args) -> int:
    return _write_csv(
        args.out, lambda: bench_audit_rows(args.chain_n, args.reveal_pct,
                                           args.profile, args.seed),
        ["scheme", "n", "pct", "revealed", "ops_count", "signatures_verified",
         "wall_time_s"])


def _write_csv(out: str | None, make_rows: Callable[[], list[dict]],
               fields: list[str]) -> int:
    """Write the rows that ``make_rows`` returns to ``out``, or to standard
    output. ``out`` is opened first, so that an unwritable path fails before
    any row is made."""
    try:
        with open(out, "w") if out else nullcontext(sys.stdout) as fh:
            rows = make_rows()
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        return _cannot_write(exc)
    return EXIT_OK


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def cmd_scenarios(args) -> int:
    suite = builtin_suite(args.scheme)
    if args.export:
        out_dir = Path(args.export)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for scenario in suite:
                path = out_dir / f"{scenario.name}.json"
                path.write_text(scenario_to_json(scenario))
        except OSError as exc:
            return _cannot_write(exc)
        print(f"wrote {len(suite)} scenario files to {out_dir}")
    else:
        for scenario in suite:
            expect = "detect" if scenario.expected_detection else "pass"
            print(f"{scenario.name:40s} row={scenario.threat_row:5s} "
                  f"attack={scenario.attack:22s} expect={expect}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# Argument types for sizes and rates; each rejects what the commands cannot
# run on, NaN included, so that argparse exits 2 with an error line.

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expects an integer of at least 1, "
                                         f"got {text!r}")
    return value


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expects a number in (0, 1), "
                                         f"got {text!r}")
    return value


def _percentages(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p]
    except ValueError:
        values = []
    if not values or not all(0.0 < v <= 100.0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expects a comma-separated list of numbers in (0, 100], "
            f"got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locprov",
        description="location-provenance toolkit: simulate, audit, benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--out-dir", default="simulate-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="audit an exported chain")
    p.add_argument("--chain", required=True)
    p.add_argument("--claims", required=True)
    p.add_argument("--registry", default=None)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("bench-space", help="per-entry metadata size sweep")
    p.add_argument("--max-n", type=_positive_int, default=10_000)
    p.add_argument("--fpr", type=_rate, default=0.001)
    p.add_argument("--profile", choices=["legacy", "modern"], default="legacy")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_space)

    p = sub.add_parser("bench-audit", help="instrumented audit cost sweep")
    p.add_argument("--chain-n", type=_positive_int, default=10_000)
    p.add_argument("--reveal-pct", type=_percentages, default="1,10,50,100")
    p.add_argument("--profile", choices=["legacy", "modern"], default="modern")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_audit)

    p = sub.add_parser("scenarios", help="list or export built-in scenarios")
    p.add_argument("--scheme", choices=SCHEMES, default=SCHEME_HASHCHAIN)
    p.add_argument("--export", default=None, metavar="DIR")
    p.set_defaults(func=cmd_scenarios)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
