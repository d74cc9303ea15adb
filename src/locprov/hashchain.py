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
were revealed. One signature verify per link is the floor; the links are
independent, so an audit verifies them in one batch with its other
signatures, split across the machine's CPUs (see ``fanout``).
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

    Each revealed entry carries its own issuer, proof and link, and claimed
    positions must strictly increase. The one evidence rule: the chain
    slots are the hidden positions before the last revealed one, one each,
    in order, so a slot's position is the next hidden one. An entry without
    a link, or more or fewer slots than hidden positions, leave the order
    Incomplete. Every link from the start of the chain through the last
    revealed position is replayed and its signature verified; each counts
    one ``link`` in ``checks``.
    """
    # (issuer, proof digest, link) by position, the revealed ones first
    evidence, last = {}, 0
    for r in sub.entries:
        if not isinstance(r.entry.ordering, HashChainLink):
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"entry at position {r.position} has no hash-chain link")
        if r.position <= last:
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"position {r.position} presented after {last}")
        last, lp = r.position, r.entry.elp.proof
        evidence[last] = (lp.statement.location_id, proof_digest(profile, lp),
                          r.entry.ordering)

    hidden = last - len(sub.entries)
    if len(sub.chain_evidence) > hidden:
        return OrderingVerdict(
            status=ORDER_INCOMPLETE,
            detail=f"more chain slots ({len(sub.chain_evidence)}) than "
                   f"hidden positions ({hidden})")
    # Lazily, so that a hostile position costs no more than its slots.
    slots = iter(sub.chain_evidence)
    for position in (p for p in range(1, last + 1) if p not in evidence):
        slot = next(slots, None)
        if slot is None:
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"no chain evidence for position {position}")
        evidence[position] = (slot.issuer_id, slot.proof_digest, slot.link)

    prev_link: Optional[HashChainLink] = None
    for position in range(1, last + 1):
        issuer, digest, link = evidence[position]
        public_key = authority_pubkeys.get(issuer)
        if public_key is None:
            return OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=f"no public key for issuer {issuer!r}",
            )
        checks["link"] += 1
        if not verify_link(profile, public_key, link, digest, prev_link):
            return OrderingVerdict(
                status=ORDER_REORDERED,
                detail=f"link verification failed at position {position}",
            )
        prev_link = link

    return OrderingVerdict(status=ORDER_OK)
