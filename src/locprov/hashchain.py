"""Signed hash-chain chronological ordering.

Each provenance entry carries a link: the issuing authority's signature
over the current proof's digest concatenated with the previous entry's
link (a fixed all-zero sentinel stands in for the predecessor of the first
entry). Reordering, deletion or substitution anywhere in the signed prefix
breaks some link.

The cost asymmetry that motivates the alternative accumulator scheme lives
here: verifying a revealed subsequence means replaying every link from the
start of the chain through the last revealed position, so the work grows
with the position of the last revealed entry, not with how many entries
were revealed. One signature verify per link is the floor (``cryptography``
has no batch Ed25519 verify), but the links are independent of one another.
Under ``fanout.batched`` the profile ``chain_verify_subsequence`` is given
records each link's signature, so an audit's links are verified in one
batch with its claims' signatures, split across the machine's CPUs by
workers that live as long as the auditing process, which divides the wall
time of a long replay by up to the CPU count. The walk still replays link
by link, so its verdict and ``link`` count are unchanged.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional

from .crypto import CryptoProfile, Digest, KeyPair
from .model import (
    HashChainLink,
    LocationProof,
    OrderingVerdict,
    RevealedSubsequence,
    SCHEME_HASHCHAIN,
    ValidationError,
    canonical_encode,
    proof_digest,
    ORDER_OK,
    ORDER_REORDERED,
    ORDER_INCOMPLETE,
)

# Stands in for the encoding of the (nonexistent) link before the first one.
GENESIS_SENTINEL = bytes(20)


def link_payload(current: Digest, prev: Optional[HashChainLink]) -> bytes:
    """Exact bytes an authority signs for one link: the current proof's
    digest, length-prefixed, followed by the predecessor link's encoding
    (or the genesis sentinel)."""
    prefix = len(current.data).to_bytes(4, "big") + current.data
    if prev is None:
        return prefix + GENESIS_SENTINEL
    return prefix + canonical_encode(prev)


def chain_genesis(profile: CryptoProfile, authority_keys: KeyPair,
                  lp: LocationProof) -> HashChainLink:
    """Link for the first entry of a chain."""
    return _sign_link(profile, authority_keys, proof_digest(profile, lp), None)


def chain_extend(profile: CryptoProfile, authority_keys: KeyPair,
                 lp: LocationProof, prev: HashChainLink) -> HashChainLink:
    """Link that chains a new proof onto the previous entry's link."""
    return _sign_link(profile, authority_keys, proof_digest(profile, lp), prev)


def _sign_link(profile: CryptoProfile, keys: KeyPair, current: Digest,
               prev: Optional[HashChainLink]) -> HashChainLink:
    payload = link_payload(current, prev)
    return HashChainLink(
        signature=profile.sign(keys.private_key, payload),
        signed_payload=payload,
    )


def verify_link(profile: CryptoProfile, public_key: bytes, link: HashChainLink,
                current: Digest, prev: Optional[HashChainLink]) -> bool:
    return profile.verify(public_key, link_payload(current, prev), link.signature)


def chain_verify_subsequence(
    profile: CryptoProfile,
    sub: RevealedSubsequence,
    authority_pubkeys: Mapping[str, bytes],
    checks: Counter,
) -> OrderingVerdict:
    """Check that the revealed entries appear in the order claimed.

    Requires per-position evidence (link, proof digest, issuer) for every
    position from the start of the chain through the last revealed one;
    anything missing yields an Incomplete verdict. Every link in that
    prefix is replayed and its signature verified, every revealed entry
    must sit at its claimed position, and claimed positions must strictly
    increase. Each link signature verified counts one ``link`` in
    ``checks``.
    """
    if sub.scheme != SCHEME_HASHCHAIN:
        raise ValidationError(f"subsequence scheme is {sub.scheme!r}, not hash chain")
    if not sub.entries:
        return OrderingVerdict(status=ORDER_OK)

    slots = {slot.position: slot for slot in sub.chain_evidence}
    if len(slots) != len(sub.chain_evidence):
        return OrderingVerdict(
            status=ORDER_INCOMPLETE,
            detail="duplicate chain evidence for some position",
        )
    last = max(e.position for e in sub.entries)
    for position in range(1, last + 1):
        if position not in slots:
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"no chain evidence for position {position}",
            )

    # Claimed order must be strictly ascending chain positions.
    previous_position = 0
    for revealed in sub.entries:
        if revealed.position <= previous_position:
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=(f"position {revealed.position} presented after "
                        f"{previous_position}"),
            )
        previous_position = revealed.position

    # Each revealed entry must match the evidence at its claimed position.
    for revealed in sub.entries:
        slot = slots[revealed.position]
        if proof_digest(profile, revealed.entry.elp.proof) != slot.proof_digest:
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"proof digest mismatch at position {revealed.position}",
            )
        if revealed.entry.ordering != slot.link:
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"link mismatch at position {revealed.position}",
            )

    # Replay the chain prefix.
    prev_link: Optional[HashChainLink] = None
    for position in range(1, last + 1):
        slot = slots[position]
        public_key = authority_pubkeys.get(slot.issuer_id)
        if public_key is None:
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"no public key for issuer {slot.issuer_id!r}",
            )
        checks["link"] += 1
        if not verify_link(profile, public_key, slot.link, slot.proof_digest,
                           prev_link):
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"link verification failed at position {position}",
            )
        prev_link = slot.link

    return OrderingVerdict(status=ORDER_OK)
