"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (run pytest with -s to see
them); pytest failure output identifies any criterion that does not hold.
"""

import random
import time
from collections import Counter

from locprov.audit import LocationClaim, audit, truthful_claims
from locprov.bloom import bloom_contains, bloom_insert, bloom_new, sign_accumulator
from locprov.cli import bench_space_rows, worst_case_positions
from locprov.crypto import Digest, LEGACY, MODERN, derive_seed
from locprov.hashchain import chain_extend, chain_genesis
from locprov.model import (
    make_private_statement,
    make_proof,
    make_revealed_subsequence,
    make_statement,
    canonical_encode,
    proof_digest,
    statement_signing_bytes,
    SCHEME_BLOOM,
    SCHEME_HASHCHAIN,
)
from locprov.protocol import ProtocolConfig, World
from locprov.scenarios import builtin_suite, run_builtin_suite


def _claims_for(sub):
    return [
        LocationClaim(r.entry.elp.proof.statement.location_id,
                      r.entry.elp.proof.statement.visit_time)
        for r in sub.entries
    ]


def test_criterion_1_space_parity():
    """Hash-chain metadata is 40 bytes/entry for all n; the accumulator for
    (n=1000, p=0.001) is 1797 +/- 8 bytes. Under a second."""
    started = time.perf_counter()
    rows = bench_space_rows(10_000, 0.001, "legacy")
    assert all(r["hashchain_bytes_per_entry"] == 40 for r in rows)
    by_n = {r["n"]: r for r in rows}
    bloom_1000 = by_n[1000]["bloom_bytes_per_entry"]
    assert 1797 - 8 <= bloom_1000 <= 1797 + 8, bloom_1000
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: hashchain 40 B/entry for all n; "
          f"bloom(1000, 0.001) = {bloom_1000} B (1797 +/- 8); {elapsed:.2f}s")


def test_criterion_2_bloom_false_positive_rate():
    """1000 insertions at p=0.001: measured FPR over 1e5 non-members is in
    [0, 0.002]. Under 30 seconds."""
    started = time.perf_counter()
    rng = random.Random(2026)
    acc = bloom_new(1000, 0.001)
    inserted = [Digest(rng.randbytes(20)) for _ in range(1000)]
    for item in inserted:
        acc = bloom_insert(LEGACY, acc, item)
    assert all(bloom_contains(LEGACY, acc, item) for item in inserted)
    probes = 100_000
    false_positives = sum(
        bloom_contains(LEGACY, acc, Digest(rng.randbytes(20)))
        for _ in range(probes))
    rate = false_positives / probes
    elapsed = time.perf_counter() - started
    assert 0.0 <= rate <= 0.002, rate
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: measured FPR {rate:.5f} in [0, 0.002] "
          f"over {probes} probes; {elapsed:.1f}s")


def test_criterion_3_audit_asymmetry(honest_chain_factory):
    """n=10,000 with 1% revealed (first and last included): the hash chain
    verifies exactly 10,000 links while the accumulator scheme checks
    exactly 100 entries; at 100% revealed both do 10,000. Under 2 min."""
    started = time.perf_counter()
    ops = {}
    for scheme in (SCHEME_HASHCHAIN, SCHEME_BLOOM):
        world, chain = honest_chain_factory(scheme, 10_000)
        for pct in (1, 100):
            positions = worst_case_positions(10_000, pct)
            if pct == 1:
                assert len(positions) == 100
                assert positions[0] == 1 and positions[-1] == 10_000
            sub = make_revealed_subsequence(world.profile, chain, positions)
            report = audit(world.profile, _claims_for(sub), sub,
                           world.directory.pubkeys(), world.registry)
            assert report.ok
            ops[(scheme, pct)] = (report.checks["link"]
                                  if scheme == SCHEME_HASHCHAIN
                                  else report.checks["accumulator"])
    assert ops[(SCHEME_HASHCHAIN, 1)] == 10_000
    assert ops[(SCHEME_BLOOM, 1)] == 100
    assert ops[(SCHEME_HASHCHAIN, 100)] == 10_000
    assert ops[(SCHEME_BLOOM, 100)] == 10_000
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: 1% reveal -> hashchain {ops[('hashchain', 1)]} "
          f"links vs bloom {ops[('bloom', 1)]} checks; 100% -> both 10000; "
          f"{elapsed:.1f}s")


def test_criterion_4_proof_generation_throughput():
    """Authority-side proof generation sustains at least 60 proofs/second
    under both ordering schemes, with the legacy (slowest) primitives."""
    profile = LEGACY
    keys = profile.keygen(derive_seed(bytes(32), "bench-authority"))
    count = 200
    rates = {}
    for scheme in (SCHEME_HASHCHAIN, SCHEME_BLOOM):
        prev = None
        started = time.perf_counter()
        for i in range(count):
            lp = make_proof(profile, keys, make_statement("u1", "cafe-7", i))
            if scheme == SCHEME_HASHCHAIN:
                prev = (chain_genesis(profile, keys, lp) if prev is None
                        else chain_extend(profile, keys, lp, prev))
            else:
                acc = prev if prev is not None else bloom_new(1000, 0.001)
                acc = bloom_insert(profile, acc, proof_digest(profile, lp))
                prev = sign_accumulator(profile, keys, acc)
        elapsed = time.perf_counter() - started
        rates[scheme] = count / elapsed
        assert rates[scheme] >= 60.0, f"{scheme}: {rates[scheme]:.1f}/s"
    print(f"\nACCEPTANCE 4 PASS: proof generation "
          f"hashchain {rates['hashchain']:.0f}/s, "
          f"bloom {rates['bloom']:.0f}/s (>= 60/s)")


def test_criterion_5_private_proof_overhead():
    """Each granularity adds exactly digest_len + nonce_len = 24 bytes to
    the blinded statement under the legacy profile: a 20-byte commitment
    in the signed image plus a 4-byte nonce stored alongside it."""
    rng = random.Random(7)
    assert LEGACY.digest_len + LEGACY.nonce_len == 24
    stored, signed = [], []
    for n in range(1, 7):
        lsp = make_private_statement(LEGACY, "u1", "cafe-7", 100,
                                     [f"g{i}" for i in range(n)], rng)
        stored.append(len(canonical_encode(lsp)))
        signed.append(len(statement_signing_bytes(lsp)))
    stored_deltas = {b - a for a, b in zip(stored, stored[1:])}
    signed_deltas = {b - a for a, b in zip(signed, signed[1:])}
    assert stored_deltas == {24}
    assert signed_deltas == {LEGACY.digest_len}
    print("\nACCEPTANCE 5 PASS: +24 bytes per granularity "
          "(20-byte commitment signed + 4-byte nonce stored)")


def test_criterion_6_attack_matrix():
    """Every threat-matrix row plus the named attacks, under both ordering
    schemes: 100% of outcomes match the expected detections, including the
    two documented non-detections (post-dating, doppelganger)."""
    started = time.perf_counter()
    suite = builtin_suite(SCHEME_HASHCHAIN)
    rows = {s.threat_row for s in suite}
    assert rows == {"ULW", "uLW", "UlW", "ULw", "ulW", "uLw", "Ulw", "ulw"}
    attacks = {s.attack for s in suite}
    for required in ("reordering", "proof-switching", "backdating",
                     "future-dating", "implication", "false-endorsement"):
        assert required in attacks, required

    outcomes = run_builtin_suite()
    assert len(outcomes) == 2 * len(suite)
    mismatches = [o.scenario for o in outcomes if not o.matched]
    assert not mismatches, mismatches

    undetected = {o.scenario.rsplit("-", 1)[0]
                  for o in outcomes
                  if not o.expected_detection and not o.detected}
    assert {"post-dating", "doppelganger"} <= undetected
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 PASS: {len(outcomes)} scenario outcomes matched "
          f"(both schemes), documented gaps: post-dating, doppelganger; "
          f"{elapsed:.1f}s")


def test_criterion_7_property_suites():
    """Bundled property checks: signature tamper fuzz (1e3 mutations, zero
    false accepts); accumulator monotonicity, no false negatives, and
    exhaustive pairwise order on 16-entry chains; hash-chain soundness
    under all single tampers at n=8; honest-scenario audit completeness
    over 1e3 randomized seeds."""
    _property_signature_tamper_fuzz()
    _property_bloom_chain_16()
    _property_hashchain_single_tampers_n8()
    failures = _property_honest_completeness(runs=1000)
    assert failures == []
    print("\nACCEPTANCE 7 PASS: tamper fuzz 0/1000 false accepts; bloom "
          "chain-16 pairwise order exact; hash-chain n=8 tampers all "
          "detected; 1000/1000 honest runs audit clean")


def _property_signature_tamper_fuzz():
    rng = random.Random(77)
    keys = MODERN.keygen(bytes(range(32)))
    false_accepts = 0
    for _ in range(1000):
        msg = rng.randbytes(rng.randrange(1, 120))
        sig = MODERN.sign(keys.private_key, msg)
        bit = rng.randrange(len(msg) * 8)
        mutated = bytearray(msg)
        mutated[bit // 8] ^= 1 << (bit % 8)
        if MODERN.verify(keys.public_key, bytes(mutated), sig):
            false_accepts += 1
    assert false_accepts == 0


def _property_bloom_chain_16():
    from locprov.bloom import bloom_subset, popcount
    rng = random.Random(78)
    acc = bloom_new(1000, 0.001)
    chain = []
    inserted = []
    for _ in range(16):
        item = Digest(rng.randbytes(20))
        inserted.append(item)
        acc = bloom_insert(LEGACY, acc, item)
        chain.append(acc)
    # no false negatives, ever
    for i, accumulator in enumerate(chain):
        assert all(bloom_contains(LEGACY, accumulator, item)
                   for item in inserted[:i + 1])
    # monotone growth and exact pairwise order
    pops = [popcount(a) for a in chain]
    assert pops == sorted(pops)
    for i in range(16):
        for j in range(16):
            assert bloom_subset(chain[i], chain[j]) == (i <= j)


def _property_hashchain_single_tampers_n8():
    from dataclasses import replace
    from locprov.hashchain import chain_verify_subsequence
    from locprov.model import (ChainSlot, EndorsedLocationProof,
                               ProvenanceEntry, RevealedEntry,
                               RevealedSubsequence, ORDER_OK)

    keys = MODERN.keygen(bytes(range(32)))
    proofs = [make_proof(MODERN, keys, make_statement("u1", "L", 100 + i))
              for i in range(8)]
    links = [chain_genesis(MODERN, keys, proofs[0])]
    for lp in proofs[1:]:
        links.append(chain_extend(MODERN, keys, lp, links[-1]))
    clean = [
        ChainSlot(i + 1, "L", proof_digest(MODERN, lp), link)
        for i, (lp, link) in enumerate(zip(proofs, links))
    ]
    pubkeys = {"L": keys.public_key}

    def verdict_for(slots, last):
        entries = tuple(
            RevealedEntry(p, ProvenanceEntry(
                EndorsedLocationProof(proofs[p - 1], ()), links[p - 1]))
            for p in (1, last))
        sub = RevealedSubsequence("hashchain", entries, tuple(slots))
        return chain_verify_subsequence(MODERN, sub, pubkeys, Counter())

    # sanity: the clean chain verifies
    assert verdict_for(clean, 8).status == ORDER_OK

    outcomes = []
    for i in range(8):
        for j in range(i + 1, 8):
            slots = list(clean)
            slots[i] = ChainSlot(i + 1, "L", clean[j].proof_digest, clean[j].link)
            slots[j] = ChainSlot(j + 1, "L", clean[i].proof_digest, clean[i].link)
            outcomes.append(verdict_for(slots, 8).status != ORDER_OK)
    for k in range(7):  # deletion-with-splice inside the revealed prefix
        kept = [s for idx, s in enumerate(clean) if idx != k]
        slots = [ChainSlot(idx + 1, s.issuer_id, s.proof_digest, s.link)
                 for idx, s in enumerate(kept)]
        entries = tuple(
            RevealedEntry(p, ProvenanceEntry(
                EndorsedLocationProof(proofs[[idx for idx in range(8)
                                              if idx != k][p - 1]], ()),
                slots[p - 1].link))
            for p in (1, 7))
        sub = RevealedSubsequence("hashchain", entries, tuple(slots))
        outcomes.append(
            chain_verify_subsequence(MODERN, sub, pubkeys, Counter()).status
            != ORDER_OK)
    impostor = proof_digest(
        MODERN, make_proof(MODERN, keys, make_statement("u1", "L", 9999)))
    for k in range(8):
        slots = list(clean)
        slots[k] = replace(slots[k], proof_digest=impostor)
        outcomes.append(verdict_for(slots, 8).status != ORDER_OK)

    assert all(outcomes), f"{outcomes.count(False)} tampers slipped through"


def _property_honest_completeness(runs: int) -> list:
    """Randomized honest worlds must always audit clean."""
    failures = []
    for seed in range(runs):
        rng = random.Random(seed)
        scheme = rng.choice([SCHEME_HASHCHAIN, SCHEME_BLOOM])
        world = World(MODERN, scheme, ProtocolConfig(), seed=seed)
        locations = [f"loc-{i}" for i in range(rng.randrange(1, 4))]
        private = rng.random() < 0.4
        for i, loc in enumerate(locations):
            granularities = (["state", "city", f"spot-{i}"]
                             if private and i == 0 else None)
            world.add_authority(loc, granularities=granularities)
        world.add_witness("w1")
        user = world.add_user("u1")
        visits = rng.randrange(1, 4)
        for _ in range(visits):
            stop = rng.choice(locations)
            world.place("u1", stop)
            world.place("w1", stop)
            outcome = world.run_visit("u1", stop, "w1")
            if not outcome.ok:
                failures.append((seed, "visit", outcome.reason))
                break
            world.advance(rng.randrange(500, 5_000))
        else:
            world.finalize_epochs()
            n = len(user.chain.entries)
            count = rng.randrange(1, n + 1)
            positions = sorted(rng.sample(range(1, n + 1), count))
            disclose = {}
            for p in positions:
                stmt = user.chain.entries[p - 1].elp.proof.statement
                if hasattr(stmt, "commitments"):
                    disclose[p] = [rng.randrange(1, len(stmt.commitments) + 1)]
            sub = make_revealed_subsequence(world.profile, user.chain,
                                            positions, disclose)
            report = audit(world.profile, truthful_claims(sub), sub,
                           world.directory.pubkeys(), world.registry)
            if not report.ok:
                failures.append((seed, "audit", report))
    return failures
