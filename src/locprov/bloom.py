"""Bloom-filter accumulator ordering.

Each provenance entry carries a signed Bloom filter accumulating the
digests of every proof the user has collected so far. Because the filter
only ever gains bits, an earlier entry's filter is a bitwise subset of
every later one: order between any two revealed entries is decided by a
single AND, without touching the hidden entries in between. That makes
audit cost proportional to the number of *revealed* entries, at the price
of a per-entry filter sized for the whole chain. Under ``fanout.batched``
an audit verifies the accumulator signatures ``bloom_order_verify`` checks
in one batch with its other signatures.

Double-hashing index derivation (bit-exact, so independent
implementations interoperate):

    h1 = big-endian integer from bytes [0, 8) of digest(item || "A")
    h2 = big-endian integer from bytes [8, 16) of digest(item || "B")
    position_i = (h1 + i * h2) mod m        for i in 0..k-1

where ``digest`` is the active profile's hash and m is the filter's bit
size. The bit image serializes little-endian: bit j is bit (j % 8) of
byte (j // 8).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Mapping

from .crypto import CryptoProfile, Digest, KeyPair
from .model import (
    BloomAccumulator,
    OrderingVerdict,
    RevealedSubsequence,
    ValidationError,
    bloom_bit_size,
    bloom_signing_bytes,
    proof_digest,
    ORDER_OK,
    ORDER_REORDERED,
    ORDER_INCOMPLETE,
)


# False-positive rate of every filter the simulator sizes: user
# accumulators and epoch reports. A filter read from a file carries its own.
TARGET_FPR = 0.001


class BloomParameterError(ValidationError):
    """Filters with different geometry cannot be compared."""


def bloom_hash_count(capacity: int, target_fpr: float) -> int:
    m = bloom_bit_size(capacity, target_fpr)
    return max(1, round(m / capacity * math.log(2)))


def bloom_new(capacity: int, target_fpr: float) -> BloomAccumulator:
    """Empty, unsigned accumulator sized for ``capacity`` insertions at the
    requested false-positive rate."""
    if capacity < 1:
        raise ValidationError("capacity must be at least 1")
    if not 0.0 < target_fpr < 1.0:
        raise ValidationError("target false-positive rate must be in (0, 1)")
    m = bloom_bit_size(capacity, target_fpr)
    return BloomAccumulator(
        bits=bytes((m + 7) // 8),
        hash_count=bloom_hash_count(capacity, target_fpr),
        capacity=capacity,
        target_fpr=target_fpr,
    )


def bloom_well_formed(acc: BloomAccumulator) -> bool:
    """Structural sanity of a possibly hostile accumulator: the bit image
    must match the length its declared parameters imply, so that indexing
    during membership checks cannot run off the end, and the hash count
    must be the one ``bloom_new`` derives from them. That bounds a
    membership check at about 1,000 positions, whatever the 32-bit wire
    field says, before anything has checked the accumulator's signature."""
    try:
        if not (acc.capacity >= 1 and 0.0 < acc.target_fpr < 1.0):
            return False
        return (len(acc.bits) == (acc.bit_size + 7) // 8
                and acc.hash_count == bloom_hash_count(acc.capacity,
                                                       acc.target_fpr))
    except (TypeError, ValueError, OverflowError):
        return False


def bloom_positions(profile: CryptoProfile, item: Digest, m: int,
                    k: int) -> list[int]:
    """Bit positions of ``item`` in an m-bit filter with k hash functions
    (see module doc)."""
    h1 = int.from_bytes(profile.digest(item.data + b"A").data[0:8], "big")
    h2 = int.from_bytes(profile.digest(item.data + b"B").data[8:16], "big")
    return [(h1 + i * h2) % m for i in range(k)]


def bloom_insert(profile: CryptoProfile, acc: BloomAccumulator,
                 *items: Digest) -> BloomAccumulator:
    """Set the items' bit positions, returning a new unsigned accumulator.

    The image is copied once per call, however many items it sets, so an
    epoch report built from many digests costs one copy, not one per digest.
    Inserting past capacity is allowed; the false-positive rate degrades.
    The previous signature is dropped: the issuing authority signs the new
    image before release.
    """
    bits = bytearray(acc.bits)
    for item in items:
        for pos in bloom_positions(profile, item, acc.bit_size,
                                   acc.hash_count):
            bits[pos // 8] |= 1 << (pos % 8)
    return replace(acc, bits=bytes(bits), authority_sig=None)


def bloom_contains(profile: CryptoProfile, acc: BloomAccumulator,
                   item: Digest) -> bool:
    """Membership check: false positives at the configured rate, never
    false negatives."""
    return all(
        acc.bits[pos // 8] & (1 << (pos % 8))
        for pos in bloom_positions(profile, item, acc.bit_size,
                                   acc.hash_count))


def bloom_subset(a: BloomAccumulator, b: BloomAccumulator) -> bool:
    """True iff every bit of ``a`` is also set in ``b``."""
    if (a.bit_size, a.hash_count) != (b.bit_size, b.hash_count):
        raise BloomParameterError(
            f"filter geometry mismatch: ({a.bit_size}, {a.hash_count}) vs "
            f"({b.bit_size}, {b.hash_count})")
    a_int = int.from_bytes(a.bits, "little")
    b_int = int.from_bytes(b.bits, "little")
    return a_int & b_int == a_int


def popcount(acc: BloomAccumulator) -> int:
    return int.from_bytes(acc.bits, "little").bit_count()


def sign_accumulator(profile: CryptoProfile, authority_keys: KeyPair,
                     acc: BloomAccumulator) -> BloomAccumulator:
    sig = profile.sign(authority_keys.private_key, bloom_signing_bytes(acc))
    return replace(acc, authority_sig=sig)


def verify_accumulator(profile: CryptoProfile, public_key: bytes,
                       acc: BloomAccumulator) -> bool:
    return profile.verify(public_key, bloom_signing_bytes(acc), acc.authority_sig)


def bloom_order_verify(
    profile: CryptoProfile,
    sub: RevealedSubsequence,
    authority_pubkeys: Mapping[str, bytes],
    checks: Counter,
) -> OrderingVerdict:
    """Check claimed order using only the revealed entries' accumulators.

    Each revealed entry must carry a validly signed accumulator containing
    its own proof digest, and each accumulator must be a subset of the next
    one presented; an entry carrying anything else, a hash-chain link
    included, leaves the order Incomplete, as does any hash-chain slot,
    which this audit would not read. The subset need not be strict:
    an honest insertion whose bits were all set already leaves the image
    unchanged, so two entries can carry equal accumulators and then either
    order passes. Each accumulator signature verified counts one
    ``accumulator`` in ``checks``.
    """
    if sub.chain_evidence:
        return OrderingVerdict(status=ORDER_INCOMPLETE,
                               detail="hash-chain slot in a Bloom presentation")
    previous = None
    for revealed in sub.entries:
        acc = revealed.entry.ordering
        if not isinstance(acc, BloomAccumulator):
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"entry at position {revealed.position} has no accumulator")
        if not bloom_well_formed(acc):
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"malformed accumulator at position {revealed.position}")
        issuer = revealed.entry.elp.proof.statement.location_id
        public_key = authority_pubkeys.get(issuer)
        if public_key is None or acc.authority_sig is None:
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"unverifiable accumulator at position {revealed.position}")
        checks["accumulator"] += 1
        if not verify_accumulator(profile, public_key, acc):
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"accumulator signature invalid at position {revealed.position}")
        own = proof_digest(profile, revealed.entry.elp.proof)
        if not bloom_contains(profile, acc, own):
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"own proof not in accumulator at position {revealed.position}")
        if previous is not None:
            prev_pos, prev_acc = previous
            try:
                is_subset = bloom_subset(prev_acc, acc)
            except BloomParameterError:
                return OrderingVerdict(
                    status=ORDER_REORDERED,
                    detail=(f"accumulator geometry changed between positions "
                            f"{prev_pos} and {revealed.position}"))
            if not is_subset:
                return OrderingVerdict(
                    status=ORDER_REORDERED,
                    detail=(f"accumulator at position {prev_pos} is not a subset "
                            f"of position {revealed.position}"))
        previous = (revealed.position, acc)

    return OrderingVerdict(status=ORDER_OK)
