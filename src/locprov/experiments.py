"""Experiments behind the ``bench-space`` and ``bench-audit`` commands:
honest chains driven through the full protocol, worst-case reveal
positions, and the rows each command writes as CSV."""

from __future__ import annotations

import time

from .audit import audit, render_text_report, truthful_claims
from .crypto import get_profile
from .model import (SCHEMES, ProvenanceChain, ValidationError, bloom_bit_size,
                    make_revealed_subsequence)
from .protocol import ProtocolConfig, World


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
    rate, its size computed, not allocated. Raises ``OverflowError`` where
    that size passes a float's range."""
    profile = get_profile(profile_name)
    return [{"n": n,
             "hashchain_bytes_per_entry": profile.signature_len,
             "bloom_bytes_per_entry": (bloom_bit_size(n, fpr) + 7) // 8}
            for n in _sweep(max_n)]


def build_honest_chain(scheme: str, n: int, profile_name: str = "modern",
                       seed: int = 7) -> tuple[World, ProvenanceChain]:
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
