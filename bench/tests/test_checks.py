"""Each output check catches an error planted in otherwise correct output."""

import hashlib
import random
from dataclasses import replace

import pytest

import checks
import workloads
from locprov.epochs import build_epoch_report
from timing import Probe, Stopwatch
from workloads import (
    PROFILE,
    ProtocolConfig,
    audit_presentation,
    build_world,
    check_outcome,
    draw_population,
    draw_schedule,
    issue_histories,
    present,
    publish,
    reveal,
    truthful_claims,
)


@pytest.fixture(scope="module")
def sw():
    return Stopwatch(Probe())


def _world(sw, scheme, seed=5, visits=6):
    rng = random.Random(seed)
    pop = draw_population(rng, 2, 3, 2, 2)
    schedule = draw_schedule(rng, pop, visits)
    world = build_world(scheme, pop, seed, ProtocolConfig(chain_capacity=64))
    issue_histories(sw, world, schedule)
    return world


@pytest.fixture(scope="module", params=["hashchain", "bloom"])
def world(request, sw):
    return _world(sw, request.param)


def _chain(world):
    return next(iter(world.users.values())).chain.entries


def _all(entries):
    return set(range(len(entries)))


def test_honest_world_passes(world):
    workloads.check_world(world, random.Random(1))


def test_flipped_signature_byte_is_caught(world):
    entries = list(_chain(world))
    e = entries[2].elp.endorsements[0]
    data = bytearray(e.witness_sig.data)
    data[7] ^= 0x10
    bad = replace(e, witness_sig=replace(e.witness_sig, data=bytes(data)))
    entries[2] = replace(entries[2], elp=replace(entries[2].elp,
                                                 endorsements=(bad,)))
    with pytest.raises(checks.CheckFailed, match="witness signature"):
        checks.check_chain(entries, world.directory.pubkeys(), _all(entries))


def test_misderived_bloom_bit_is_caught(sw):
    world = _world(sw, "bloom")
    entries = list(_chain(world))
    acc = entries[3].ordering
    digest = checks.proof_digest(entries[3].elp.proof)
    m = checks.bloom_bit_size(acc.capacity, acc.target_fpr)
    # Set the entry's own bits with h1 and h2 taken from the wrong bytes.
    h1 = int.from_bytes(hashlib.sha256(digest + b"A").digest()[8:16], "big")
    h2 = int.from_bytes(hashlib.sha256(digest + b"B").digest()[0:8], "big")
    bits = bytearray(entries[2].ordering.bits)
    for i in range(acc.hash_count):
        j = (h1 + i * h2) % m
        bits[j // 8] |= 1 << (j % 8)
    entries[3] = replace(entries[3], ordering=replace(acc, bits=bytes(bits)))
    with pytest.raises(checks.CheckFailed, match="lacks its own proof"):
        checks.check_chain(entries, world.directory.pubkeys(), set())


def test_shrinking_accumulator_is_caught(sw):
    world = _world(sw, "bloom")
    entries = list(_chain(world))
    entries[2], entries[3] = entries[3], entries[2]
    with pytest.raises(checks.CheckFailed, match="not a subset"):
        checks.check_chain(entries, world.directory.pubkeys(), set())


def test_wrong_link_payload_is_caught(sw):
    world = _world(sw, "hashchain")
    entries = list(_chain(world))
    link = entries[1].ordering
    entries[1] = replace(entries[1], ordering=replace(
        link, signed_payload=link.signed_payload[:-1] + b"\x00"))
    with pytest.raises(checks.CheckFailed, match="link payload"):
        checks.check_chain(entries, world.directory.pubkeys(), set())


def test_digest_missing_from_epoch_report_is_caught(world):
    entries = _chain(world)
    stmt = entries[0].elp.proof.statement
    epoch_len = world.config.epoch_len_ms
    key = (stmt.location_id, stmt.visit_time // epoch_len)
    # A validly signed report for the same epoch that lacks the digest.
    empty = build_epoch_report(PROFILE, world.authorities[key[0]].keys,
                               key[0], key[1], epoch_len, [])
    reports = [empty if (r.location_id, r.epoch_id) == key else r
               for r in world.registry.reports()]
    with pytest.raises(checks.CheckFailed, match="missing from epoch report"):
        checks.check_epoch_inclusion(entries, reports, epoch_len,
                                     world.directory.pubkeys())


def _presentation(sw, world, **kwargs):
    user = next(iter(world.users.values()))
    n = len(user.chain.entries)
    sub = reveal(sw, user.chain, list(range(1, n + 1)), random.Random(2))
    return present(sw, "test", sub, truthful_claims(sub),
                   dict(world.directory.parties), publish(sw, world), **kwargs)


def test_honest_presentation_passes(sw, world):
    p = _presentation(sw, world)
    assert check_outcome(p, *audit_presentation(p)) is False


def test_wrong_verdict_on_honest_presentation_is_caught(sw, world):
    p = _presentation(sw, world)
    report, _, _ = audit_presentation(p)
    verdicts = list(report.claim_verdicts)
    verdicts[1] = replace(verdicts[1], status="BadSignature",
                          detail="authority signature invalid")
    wrong = replace(report, claim_verdicts=tuple(verdicts))
    text = workloads.audit_mod.render_text_report(wrong)
    doc = workloads.serialize.dump_audit_report_file(wrong)
    with pytest.raises(checks.CheckFailed, match="honest presentation flagged"):
        check_outcome(p, wrong, text, doc)


def test_wrong_threat_class_is_caught(sw, world):
    # A real proof-switching tamper, checked against the reordering verdict.
    user = next(iter(world.users.values()))
    n = len(user.chain.entries)
    sub = reveal(sw, user.chain, list(range(1, n + 1)), random.Random(2))
    sub, claims, index = workloads.tamper("switch-proof", sub,
                                          random.Random(3), ["loc-00"])
    p = present(sw, "test", sub, claims, dict(world.directory.parties),
                publish(sw, world), tamper="switch-proof", index=index)
    assert check_outcome(p, *audit_presentation(p)) is False
    with pytest.raises(checks.CheckFailed, match="threat class"):
        check_outcome(replace(p, tamper="reorder"), *audit_presentation(p))


def test_tampered_presentation_passing_is_caught(sw, world):
    p = _presentation(sw, world, tamper="wrong-time")
    with pytest.raises(checks.CheckFailed, match="tampered presentation passed"):
        check_outcome(p, *audit_presentation(p))


def test_equal_neighbours_found():
    class Acc:
        def __init__(self, bits):
            self.bits = bits
            self.hash_count = 1

    class Revealed:
        def __init__(self, position, bits):
            self.position = position
            self.entry = type("E", (), {"ordering": Acc(bits)})()

    presented = [Revealed(1, b"\x01"), Revealed(2, b"\x03"), Revealed(3, b"\x03")]
    assert checks.equal_neighbours(presented) == (2, 3)
    assert checks.equal_neighbours(presented[:2]) is None
