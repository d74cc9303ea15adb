"""Bloom-filter accumulator: sizing, hashing, ordering, measured rates."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from scipy import stats

from locprov.crypto import Digest, LEGACY, MODERN
from locprov.bloom import (
    BloomParameterError,
    bloom_contains,
    bloom_hash_count,
    bloom_insert,
    bloom_new,
    bloom_order_verify,
    bloom_positions,
    bloom_subset,
    bloom_well_formed,
    popcount,
    sign_accumulator,
    verify_accumulator,
)
from locprov.fanout import batched
from locprov.model import (
    ValidationError,
    bloom_bit_size,
    make_revealed_subsequence,
    ORDER_OK,
    ORDER_REORDERED,
)
from locprov.protocol import World

PROFILE = LEGACY  # 20-byte digests, the space-accounting profile


def _digest(rng: random.Random) -> Digest:
    return Digest(rng.randbytes(PROFILE.digest_len))


# ---------------------------------------------------------------------------
# sizing
# ---------------------------------------------------------------------------

def test_bit_size_formula_n1000_p001():
    m = bloom_bit_size(1000, 0.001)
    # independent recomputation from first principles
    assert m == math.ceil(1000 * math.log(1 / 0.001) / math.log(2) ** 2)
    acc = bloom_new(1000, 0.001)
    assert 1789 <= len(acc.bits) <= 1805  # 1797 +/- 8 byte image


def test_hash_count_n1000_p001_is_10():
    m = bloom_bit_size(1000, 0.001)
    assert bloom_hash_count(1000, 0.001) == round(m / 1000 * math.log(2)) == 10


def test_new_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        bloom_new(0, 0.001)
    with pytest.raises(ValidationError):
        bloom_new(10, 0.0)
    with pytest.raises(ValidationError):
        bloom_new(10, 1.0)


def test_minimal_capacity_filter_is_positive():
    acc = bloom_new(1, 0.001)
    assert len(acc.bits) >= 1


def test_empty_filter_subset_of_everything():
    rng = random.Random(0)
    empty = bloom_new(100, 0.01)
    other = bloom_insert(PROFILE, bloom_new(100, 0.01), _digest(rng))
    assert bloom_subset(empty, other)
    assert bloom_subset(empty, empty)


# ---------------------------------------------------------------------------
# index derivation
# ---------------------------------------------------------------------------

def test_index_deterministic_and_in_range():
    rng = random.Random(1)
    m = bloom_bit_size(1000, 0.001)
    item = _digest(rng)
    first = bloom_positions(PROFILE, item, m, 10)
    again = bloom_positions(PROFILE, item, m, 10)
    assert first == again
    assert all(0 <= p < m for p in first)


def test_index_is_documented_double_hash():
    # bit-exact: (h1 + i*h2) mod m with h1/h2 from salted digests
    item = Digest(b"\x00" * 20)
    m = 14_378
    h1 = int.from_bytes(PROFILE.digest(item.data + b"A").data[0:8], "big")
    h2 = int.from_bytes(PROFILE.digest(item.data + b"B").data[8:16], "big")
    assert bloom_positions(PROFILE, item, m, 10) == [
        (h1 + i * h2) % m for i in range(10)]


def test_index_distribution_uniform_chi_squared():
    rng = random.Random(2)
    m = bloom_bit_size(1000, 0.001)
    counts = [0] * m
    k = 10
    for _ in range(100_000 // k):
        item = _digest(rng)
        for pos in bloom_positions(PROFILE, item, m, k):
            counts[pos] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# insert / membership / subset
# ---------------------------------------------------------------------------

def test_insert_then_contains_never_false_negative():
    rng = random.Random(3)
    acc = bloom_new(1000, 0.001)
    items = [_digest(rng) for _ in range(1000)]
    for item in items:
        acc = bloom_insert(PROFILE, acc, item)
    assert all(bloom_contains(PROFILE, acc, item) for item in items)


def test_insert_idempotent_on_bits():
    rng = random.Random(4)
    item = _digest(rng)
    once = bloom_insert(PROFILE, bloom_new(100, 0.01), item)
    twice = bloom_insert(PROFILE, once, item)
    assert once.bits == twice.bits
    assert twice.inserted_count == 2  # the count still records the insert


def test_insert_never_clears_bits():
    rng = random.Random(5)
    acc = bloom_new(200, 0.01)
    previous = 0
    for _ in range(50):
        acc = bloom_insert(PROFILE, acc, _digest(rng))
        assert popcount(acc) >= previous
        previous = popcount(acc)


def test_over_capacity_flagged_not_rejected():
    rng = random.Random(6)
    acc = bloom_new(2, 0.01)
    for _ in range(3):
        acc = bloom_insert(PROFILE, acc, _digest(rng))
    assert acc.inserted_count > acc.capacity


def test_measured_fpr_1000_inserts_100k_probes():
    rng = random.Random(7)
    acc = bloom_new(1000, 0.001)
    for _ in range(1000):
        acc = bloom_insert(PROFILE, acc, _digest(rng))
    probes = 100_000
    false_positives = sum(
        bloom_contains(PROFILE, acc, _digest(rng)) for _ in range(probes))
    rate = false_positives / probes
    assert 0.0 <= rate <= 0.002  # target 0.001, tolerance 2x


def test_subset_chain_matches_visit_order():
    rng = random.Random(8)
    acc = bloom_new(1000, 0.001)
    chain = []
    for _ in range(4):
        acc = bloom_insert(PROFILE, acc, _digest(rng))
        chain.append(acc)
    for i in range(4):
        for j in range(4):
            assert bloom_subset(chain[i], chain[j]) == (i <= j)


def test_subset_rejects_geometry_mismatch():
    with pytest.raises(BloomParameterError):
        bloom_subset(bloom_new(10, 0.01), bloom_new(1000, 0.001))


def test_disjoint_single_item_filters_rarely_subset():
    rng = random.Random(9)
    accidental = 0
    trials = 2000
    base = bloom_new(1000, 0.001)
    for _ in range(trials):
        a = bloom_insert(PROFILE, base, _digest(rng))
        b = bloom_insert(PROFILE, base, _digest(rng))
        if a.bits != b.bits and (bloom_subset(a, b) or bloom_subset(b, a)):
            accidental += 1
    assert accidental / trials <= 0.01


def test_exhaustive_pairwise_subset_order_chain16():
    """For an honest 16-entry chain, pairwise subset relation IS the visit
    order; any violation would be an ordering soundness break."""
    rng = random.Random(10)
    acc = bloom_new(1000, 0.001)
    chain = []
    for _ in range(16):
        acc = bloom_insert(PROFILE, acc, _digest(rng))
        chain.append(acc)
    for i in range(16):
        for j in range(16):
            assert bloom_subset(chain[i], chain[j]) == (i <= j), (i, j)


def test_popcount_gap_leaks_hidden_visit_count():
    """Documented privacy caveat, reproduced as a measurement: the bit-count
    difference between two accumulators grows with the number of entries
    between them, so an auditor can estimate how many visits were hidden."""
    rng = random.Random(11)
    k = bloom_hash_count(1000, 0.001)
    acc = bloom_new(1000, 0.001)
    chain = []
    for _ in range(16):
        acc = bloom_insert(PROFILE, acc, _digest(rng))
        chain.append(acc)
    gaps = [popcount(chain[j]) - popcount(chain[0]) for j in range(16)]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))  # strictly growing
    for j in range(1, 16):
        assert j <= gaps[j] <= j * k  # roughly k bits per hidden entry


# ---------------------------------------------------------------------------
# signed accumulators and order verification
# ---------------------------------------------------------------------------

def test_sign_and_verify_accumulator():
    keys = PROFILE.keygen(bytes(range(32)))
    rng = random.Random(12)
    acc = bloom_insert(PROFILE, bloom_new(100, 0.01), _digest(rng))
    signed = sign_accumulator(PROFILE, keys, acc)
    assert verify_accumulator(PROFILE, keys.public_key, signed)
    tampered = replace(signed, bits=b"\xff" + signed.bits[1:])
    assert not verify_accumulator(PROFILE, keys.public_key, tampered)


def _bloom_world(n=4, scheme="bloom"):
    world = World(MODERN, scheme, seed=21)
    world.add_authority("cafe-7")
    world.add_witness("w1")
    user = world.add_user("u1")
    for _ in range(n):
        world.place("u1", "cafe-7")
        world.place("w1", "cafe-7")
        assert world.run_visit("u1", "cafe-7", "w1").ok
        world.advance(1000)
    return world, user.chain


def test_order_verify_checks_only_revealed_entries():
    world, chain = _bloom_world(6)
    sub = make_revealed_subsequence(world.profile, chain, [1, 4, 6])
    checks = Counter()
    verdict = bloom_order_verify(world.profile, sub, world.directory.pubkeys(),
                                 checks)
    assert verdict.status == ORDER_OK
    assert checks["accumulator"] == 3


def test_order_verify_1000_chain_three_reveals_three_checks(honest_chain_factory):
    # chain-length independence: three reveals cost three accumulator
    # checks no matter how long the chain is
    world, chain = honest_chain_factory("bloom", 1000)
    sub = make_revealed_subsequence(world.profile, chain, [1, 50, 999])
    checks = Counter()
    verdict = bloom_order_verify(world.profile, sub, world.directory.pubkeys(),
                                 checks)
    assert verdict.status == ORDER_OK
    assert checks["accumulator"] == 3


def test_order_verify_flags_swapped_presentation():
    world, chain = _bloom_world(4)
    sub = make_revealed_subsequence(world.profile, chain, [2, 3])
    swapped = replace(sub, entries=(sub.entries[1], sub.entries[0]))
    verdict = bloom_order_verify(world.profile, swapped,
                                 world.directory.pubkeys(), Counter())
    assert verdict.status == ORDER_REORDERED


def test_order_verify_flags_equal_accumulators():
    """An entry that reuses its predecessor's accumulator is rejected: its
    own proof is not in the reused image."""
    world, chain = _bloom_world(2)
    first = chain.entries[0]
    # forge a second entry reusing the exact same accumulator
    duplicated = replace(chain.entries[1], ordering=first.ordering)
    from locprov.model import ProvenanceChain
    forged = ProvenanceChain("bloom", (first, duplicated))
    sub = make_revealed_subsequence(world.profile, forged, [1, 2])
    verdict = bloom_order_verify(world.profile, sub, world.directory.pubkeys(),
                                 Counter())
    assert verdict.status == ORDER_REORDERED
    assert "equal" in verdict.detail or "own proof" in verdict.detail


@pytest.mark.parametrize("geometry", [
    pytest.param({"target_fpr": 0.0}, id="fpr-0"),
    pytest.param({"target_fpr": 1.0}, id="fpr-1"),
    pytest.param({"target_fpr": -0.5}, id="fpr-negative"),
    pytest.param({"target_fpr": math.nan}, id="fpr-nan"),
    pytest.param({"capacity": 0}, id="capacity-0"),
    pytest.param({"hash_count": 0}, id="hash-count-0"),
    pytest.param({"hash_count": bloom_hash_count(16, 0.01) + 1},
                 id="hash-count-off-geometry"),
    pytest.param({"hash_count": 2**32 - 1}, id="hash-count-2^32-1"),
    pytest.param({"capacity": 2**64}, id="capacity-2^64"),
    pytest.param({"capacity": 10**400}, id="capacity-10^400"),
])
def test_hostile_geometry_is_malformed_not_a_crash(geometry):
    acc = replace(bloom_new(16, 0.01), **geometry)
    assert not bloom_well_formed(acc)


def test_bit_size_computed_once_per_object(monkeypatch):
    from locprov import model
    calls = []

    def counted_bit_size(capacity, target_fpr):
        calls.append((capacity, target_fpr))
        return bloom_bit_size(capacity, target_fpr)

    monkeypatch.setattr(model, "bloom_bit_size", counted_bit_size)
    acc = bloom_new(16, 0.01)
    assert {acc.bit_size for _ in range(3)} == {bloom_bit_size(16, 0.01)}
    assert calls == [(16, 0.01)]
    # the cached value is no field: equality and bytes ignore it
    fresh = replace(acc)
    assert fresh == acc and hash(fresh) == hash(acc)
    assert model.canonical_encode(fresh) == model.canonical_encode(acc)


def test_serialization_little_endian_lsb_first():
    # bit j lives at byte j//8, bit j%8: freeze the convention with a tiny
    # hand-built case
    acc = bloom_new(2, 0.5)  # small m
    m = acc.bit_size
    item = Digest(b"\x01" * 20)
    inserted = bloom_insert(PROFILE, acc, item)
    positions = set(bloom_positions(PROFILE, item, m, acc.hash_count))
    expected = bytearray(len(acc.bits))
    for p in positions:
        expected[p // 8] |= 1 << (p % 8)
    assert inserted.bits == bytes(expected)


def test_malformed_accumulator_rejected_not_crashing():
    """A signed accumulator whose bit image disagrees with its declared
    parameters is unusable evidence, not an auditor crash."""
    from locprov.bloom import bloom_well_formed
    world, chain = _bloom_world(2)
    good = chain.entries[1].ordering
    assert bloom_well_formed(good)
    truncated = replace(good, bits=good.bits[:10])
    assert not bloom_well_formed(truncated)
    # re-sign the malformed image with the real authority key: structure,
    # not signatures, must reject it
    authority = world.authorities["cafe-7"]
    signed_bad = sign_accumulator(world.profile, authority.keys, truncated)
    forged_entry = replace(chain.entries[1], ordering=signed_bad)
    from locprov.model import ProvenanceChain
    forged = ProvenanceChain("bloom", (chain.entries[0], forged_entry))
    sub = make_revealed_subsequence(world.profile, forged, [1, 2])
    verdict = bloom_order_verify(world.profile, sub, world.directory.pubkeys(),
                                 Counter())
    assert verdict.status == "Incomplete"
    assert "malformed" in verdict.detail


# ---------------------------------------------------------------------------
# accumulator signatures checked across processes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def twelve_visits():
    world, chain = _bloom_world(12)
    sub = make_revealed_subsequence(world.profile, chain, list(range(1, 13)))
    return world, sub


def _bad_signature(acc):
    sig = acc.authority_sig
    return replace(acc, authority_sig=replace(
        sig, data=bytes([sig.data[0] ^ 1]) + sig.data[1:]))


def _malformed(acc):
    return replace(acc, bits=acc.bits[:10])


# 12 accumulators over 3 processes: positions 1-4 stay in the caller, 5-8
# and 9-12 go to the two workers.
@pytest.mark.parametrize("tamper, order, status, detail, accumulators", [
    ({}, None, ORDER_OK, "", 12),
    ({2: _bad_signature}, None, ORDER_REORDERED,
     "accumulator signature invalid at position 2", 2),
    ({11: _bad_signature}, None, ORDER_REORDERED,
     "accumulator signature invalid at position 11", 11),
    ({5: _bad_signature}, None, ORDER_REORDERED,
     "accumulator signature invalid at position 5", 5),
    ({4: _malformed, 9: _bad_signature}, None, "Incomplete",
     "malformed accumulator at position 4", 3),
    ({3: _bad_signature, 8: _malformed}, None, ORDER_REORDERED,
     "accumulator signature invalid at position 3", 3),
    ({10: _bad_signature}, [1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12],
     ORDER_REORDERED, "accumulator at position 7 is not a subset of "
     "position 6", 7),
    ({6: _bad_signature}, [1, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11, 12],
     ORDER_REORDERED, "accumulator signature invalid at position 6", 7),
], ids=["clean", "first-chunk", "last-chunk", "start-of-second-chunk",
        "malformed-before-bad", "malformed-after-bad", "order-before-bad",
        "bad-where-order-breaks"])
def test_signatures_in_processes_match_serial(serial_and_fanned_out,
                                              twelve_visits, tamper, order,
                                              status, detail, accumulators):
    world, sub = twelve_visits
    by_position = {}
    for revealed in sub.entries:
        acc = revealed.entry.ordering
        if revealed.position in tamper:
            acc = tamper[revealed.position](acc)
        by_position[revealed.position] = replace(
            revealed, entry=replace(revealed.entry, ordering=acc))
    presented = replace(sub, entries=tuple(
        by_position[p] for p in order or sorted(by_position)))

    def walk(profile):
        checks = Counter()
        verdict = bloom_order_verify(profile, presented,
                                     world.directory.pubkeys(), checks)
        return verdict.status, verdict.detail, checks

    serial, fanned_out = serial_and_fanned_out(
        lambda: batched(world.profile, walk))
    assert serial == fanned_out == (status, detail,
                                    Counter(accumulator=accumulators))
