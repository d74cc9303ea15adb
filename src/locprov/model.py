"""Data model for witness-endorsed location proofs and provenance chains.

The centerpiece types, from the inside out:

* ``LocationStatement`` / ``PrivateLocationStatement`` -- "user U was at
  location L at time t", in plain form or with the location blinded behind
  per-granularity hash commitments.
* ``LocationProof`` -- a statement signed by the location authority.
* ``Endorsement`` -- a co-located witness's signed attestation, bound to a
  specific proof by digest and carrying an authority-signed timestamp.
* ``EndorsedLocationProof`` -- proof plus one or more endorsements.
* ``ProvenanceEntry`` / ``ProvenanceChain`` -- an endorsed proof together
  with its chronological-ordering construct, and the ordered sequence of
  those entries held by the user.
* ``RevealedSubsequence`` -- what a user hands to an auditor: a chosen
  subset of entries (``RevealedEntry``) with only the chosen granularity
  openings disclosed, plus per-position ``ChainSlot`` evidence under the
  hash-chain scheme.
* ``EpochReport`` -- an authority's signed accumulator of the proofs it
  issued in one epoch (built and checked in ``epochs``).

Canonical encoding
------------------
Every model object has exactly one byte encoding: a 1-byte type tag, then
the fields in declared order. Variable-length fields (ids, bit images)
carry a 4-byte big-endian length prefix; timestamps and epoch ids are
8-byte big-endian, positions and granularity indexes 4-byte big-endian;
fixed-width cryptographic values (digests, commitments, nonces) are emitted
raw, their width fixed by the crypto profile; lists carry a 4-byte count;
an optional signature is a 0x00 byte, or 0x01 and the signature. The
encoding is injective and decodable, which the test suite exercises by
round-tripping randomized objects.

Signatures and digests are taken over these bytes, and the chain and
registry files (``serialize``) carry them too, base64-encoded, so
``canonical_decode`` is the one decoder of everything an auditor reads
from a file. It rejects anything that is not exactly one well-formed
encoding with ``EncodingError``.

Wire tags: 0x01 statement, 0x02 private statement, 0x03 proof, 0x04
endorsement statement, 0x05 endorsement, 0x06 endorsed proof, 0x07 chain
entry, 0x08 chain, 0x0A hash-chain link, 0x0B Bloom accumulator, 0x0C
timestamp attestation, 0x0D epoch report, 0x0E revealed entry (its
disclosed openings as index, value, nonce), 0x0F chain slot, 0x10 revealed
subsequence, 0x20 sequence (a count, then objects of any tag but 0x20).
Signing views that differ from the wire form add 0x10 to the wire tag:
0x12 private statement (commitments, no nonces), 0x1B accumulator (no
count or signature), 0x1D epoch report (no signature).

Two deliberate asymmetries, both in the private-statement path:

* The encoding of a private statement that gets *signed* (and the proof
  encoding that gets *hashed* for endorsement binding) contains the
  commitments but never the nonces or granularity values. Stripping
  openings from a proof therefore does not disturb any signature or digest.
* The granularity value strings are user-side context (they mirror the
  authority's published granularity ladder) and are never encoded at all.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

from .crypto import (LEGACY, MODERN, Commitment, CryptoProfile, Digest,
                     KeyPair, Signature)


class ModelError(Exception):
    """Base class for data-model violations."""


class ValidationError(ModelError):
    """A constructor precondition failed."""


class WindowError(ModelError):
    """An endorsement timestamp fell outside the allowed window."""


class BindingError(ModelError):
    """An endorsement does not bind to the proof it is attached to."""


class EncodingError(ModelError):
    """Byte string cannot be decoded as the expected type."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocationStatement:
    # Identities are opaque strings bound to public keys by a directory;
    # an id may be a raw public-key fingerprint or an anonymized handle.
    user_id: str
    location_id: str
    visit_time: int  # authority-local milliseconds


@dataclass(frozen=True)
class PrivateLocationStatement:
    """Statement with the location blinded behind granularity commitments.

    ``commitments[i]`` commits to the i-th granularity of the location
    (coarsest first, e.g. state / city / block). ``nonces[i]`` is the
    commitment's blinding nonce, held by the user and never signed.
    ``granularity_values`` are the cleartext granularity names; they are
    user-side context excluded from both equality and encoding.
    """

    user_id: str
    location_id: str
    visit_time: int
    commitments: tuple[Commitment, ...]
    nonces: tuple[bytes, ...]
    granularity_values: tuple[str, ...] = field(default=(), compare=False)


Statement = Union[LocationStatement, PrivateLocationStatement]


@dataclass(frozen=True)
class LocationProof:
    statement: Statement
    authority_sig: Signature


@dataclass(frozen=True)
class EndorsementStatement:
    witness_id: str
    user_id: str
    location_id: str
    visit_time: int
    proof_digest: Digest
    endorsed_at: int  # authority-signed timestamp, milliseconds


@dataclass(frozen=True)
class TimestampAttestation:
    """What the authority signs when timestamping an endorsement."""

    proof_digest: Digest
    endorsed_at: int


@dataclass(frozen=True)
class Endorsement:
    statement: EndorsementStatement
    witness_sig: Signature
    # The authority's signature over TimestampAttestation(proof_digest,
    # endorsed_at), carried here so audits need no live authority contact.
    authority_time_sig: Signature


@dataclass(frozen=True)
class EndorsedLocationProof:
    proof: LocationProof
    endorsements: tuple[Endorsement, ...]


@dataclass(frozen=True)
class HashChainLink:
    """Ordering construct for the signed-hash-chain scheme.

    ``signature`` is the issuing authority's signature over the digest of
    the current proof concatenated with the encoding of the predecessor
    link (or the genesis sentinel). ``signed_payload`` keeps the exact
    bytes that were signed for inspection; it is reconstructible during
    verification and excluded from equality and encoding.
    """

    signature: Signature
    signed_payload: bytes = field(default=b"", compare=False, repr=False)


@dataclass(frozen=True)
class BloomAccumulator:
    """Ordering construct for the accumulator scheme: a signed Bloom filter
    over the digests of every proof issued to the user so far.

    ``bits`` is the little-endian byte image (bit j lives at byte ``j // 8``,
    mask ``1 << (j % 8)``). The signature covers bits, hash count, capacity
    and target false-positive rate; ``inserted_count`` is unsigned metadata
    used to flag over-capacity filters.
    """

    bits: bytes
    hash_count: int
    capacity: int
    target_fpr: float
    inserted_count: int = 0
    authority_sig: Optional[Signature] = None

    @property
    def bit_size(self) -> int:
        return bloom_bit_size(self.capacity, self.target_fpr)

    @property
    def over_capacity(self) -> bool:
        return self.inserted_count > self.capacity


def bloom_bit_size(capacity: int, target_fpr: float) -> int:
    import math

    return math.ceil(capacity * math.log(1.0 / target_fpr) / math.log(2) ** 2)


OrderingConstruct = Union[HashChainLink, BloomAccumulator]

SCHEME_HASHCHAIN = "hashchain"
SCHEME_BLOOM = "bloom"


def ordering_scheme(construct: OrderingConstruct) -> str:
    if isinstance(construct, HashChainLink):
        return SCHEME_HASHCHAIN
    if isinstance(construct, BloomAccumulator):
        return SCHEME_BLOOM
    raise ValidationError(f"not an ordering construct: {type(construct).__name__}")


@dataclass(frozen=True)
class ProvenanceEntry:
    elp: EndorsedLocationProof
    ordering: OrderingConstruct


@dataclass(frozen=True)
class ProvenanceChain:
    scheme: str
    entries: tuple[ProvenanceEntry, ...] = ()

    def append(self, entry: ProvenanceEntry) -> "ProvenanceChain":
        if ordering_scheme(entry.ordering) != self.scheme:
            raise ValidationError(
                f"entry ordering scheme {ordering_scheme(entry.ordering)!r} "
                f"does not match chain scheme {self.scheme!r}"
            )
        return ProvenanceChain(self.scheme, self.entries + (entry,))

    @property
    def latest_construct(self) -> Optional[OrderingConstruct]:
        return self.entries[-1].ordering if self.entries else None


@dataclass(frozen=True)
class RevealedEntry:
    """One disclosed chain entry, with openings limited to what the user
    chose to reveal: ``disclosed`` maps a 1-based granularity index to its
    (value, nonce) opening."""

    position: int  # 1-based position in the full chain
    entry: ProvenanceEntry
    disclosed: tuple[tuple[int, str, bytes], ...] = ()


@dataclass(frozen=True)
class ChainSlot:
    """Per-position ordering evidence for the hash-chain scheme: the link
    and proof digest for every position, including hidden ones, plus the
    issuer id needed to resolve the verifying key."""

    position: int
    issuer_id: str
    proof_digest: Digest
    link: HashChainLink


@dataclass(frozen=True)
class RevealedSubsequence:
    scheme: str
    entries: tuple[RevealedEntry, ...]
    # Hash-chain scheme only: evidence for all positions up to (at least)
    # the last revealed entry. Hidden positions expose digests and links,
    # never statements.
    chain_evidence: tuple[ChainSlot, ...] = ()


@dataclass(frozen=True)
class EpochReport:
    """A location authority's signed accumulator of the digests of every
    proof it issued in one epoch (see ``epochs``)."""

    location_id: str
    epoch_id: int
    start: int  # authority-local ms, inclusive
    end: int    # exclusive
    accumulator: BloomAccumulator
    report_sig: Optional[Signature] = None


ORDER_OK = "OK"
ORDER_REORDERED = "Reordered"
ORDER_INCOMPLETE = "Incomplete"


@dataclass(frozen=True)
class OrderingVerdict:
    """Outcome of verifying the chronological-order evidence of a revealed
    subsequence. The verifiers count their signature checks in a
    ``Counter`` that the caller passes (see ``audit``)."""

    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == ORDER_OK


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

TAG_STATEMENT = 0x01
TAG_PRIVATE_STATEMENT = 0x02
TAG_PROOF = 0x03
TAG_ENDORSEMENT_STATEMENT = 0x04
TAG_ENDORSEMENT = 0x05
TAG_ENDORSED_PROOF = 0x06
TAG_ENTRY = 0x07
TAG_CHAIN = 0x08
TAG_CHAIN_LINK = 0x0A
TAG_BLOOM = 0x0B
TAG_TIMESTAMP = 0x0C
TAG_EPOCH_REPORT = 0x0D
TAG_REVEALED_ENTRY = 0x0E
TAG_CHAIN_SLOT = 0x0F
TAG_REVEALED_SUBSEQUENCE = 0x10
TAG_SEQUENCE = 0x20
# Signing views that differ from the wire form get their own tags so no
# two distinct byte strings can be confused across contexts.
TAG_PRIVATE_STATEMENT_CORE = 0x12
TAG_BLOOM_CORE = 0x1B
TAG_EPOCH_REPORT_CORE = 0x1D

# Wire tag of each signature scheme; the profile gives its signature length.
_SIG_PROFILES = {0x01: MODERN, 0x02: LEGACY}
_SCHEME_TAGS = {p.scheme_id: tag for tag, p in _SIG_PROFILES.items()}


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def _u64(n: int) -> bytes:
    if n < 0:
        raise EncodingError("timestamps must be non-negative")
    return n.to_bytes(8, "big")


def _blob(data: bytes) -> bytes:
    return _u32(len(data)) + data


def _text(s: str) -> bytes:
    return _blob(s.encode("utf-8"))


def _sig_bytes(sig: Signature) -> bytes:
    try:
        tag = _SCHEME_TAGS[sig.scheme_id]
    except KeyError:
        raise EncodingError(f"unknown signature scheme {sig.scheme_id!r}") from None
    return bytes([tag]) + sig.data


def statement_signing_bytes(stmt: Statement) -> bytes:
    """The bytes a location authority signs: for private statements this
    covers the commitments but never the nonces."""
    if isinstance(stmt, LocationStatement):
        return canonical_encode(stmt)
    if isinstance(stmt, PrivateLocationStatement):
        out = [bytes([TAG_PRIVATE_STATEMENT_CORE]),
               _text(stmt.user_id), _text(stmt.location_id),
               _u64(stmt.visit_time), _u32(len(stmt.commitments))]
        out += [c.digest.data for c in stmt.commitments]
        return b"".join(out)
    raise EncodingError(f"not a statement: {type(stmt).__name__}")


def timestamp_signing_bytes(att: TimestampAttestation) -> bytes:
    return (bytes([TAG_TIMESTAMP]) + att.proof_digest.data
            + _u64(att.endorsed_at))


def bloom_signing_bytes(acc: BloomAccumulator) -> bytes:
    return (bytes([TAG_BLOOM_CORE]) + _blob(acc.bits) + _u32(acc.hash_count)
            + _u32(acc.capacity) + struct.pack(">d", acc.target_fpr))


def report_signing_bytes(report: EpochReport) -> bytes:
    return (bytes([TAG_EPOCH_REPORT_CORE]) + _text(report.location_id)
            + _u64(report.epoch_id) + _u64(report.start) + _u64(report.end)
            + bloom_signing_bytes(report.accumulator))


def _optional_sig(sig: Optional[Signature]) -> bytes:
    return b"\x00" if sig is None else b"\x01" + _sig_bytes(sig)


def canonical_encode(obj) -> bytes:
    """Injective, deterministic wire encoding of any model object."""
    if isinstance(obj, LocationStatement):
        return (bytes([TAG_STATEMENT]) + _text(obj.user_id)
                + _text(obj.location_id) + _u64(obj.visit_time))
    if isinstance(obj, PrivateLocationStatement):
        out = [bytes([TAG_PRIVATE_STATEMENT]),
               _text(obj.user_id), _text(obj.location_id),
               _u64(obj.visit_time), _u32(len(obj.commitments))]
        out += [c.digest.data for c in obj.commitments]
        out.append(_u32(len(obj.nonces)))
        out += list(obj.nonces)
        return b"".join(out)
    if isinstance(obj, LocationProof):
        # Embeds the signing view of the statement so that the proof's
        # encoding (and therefore every endorsement's digest binding) is
        # unchanged by stripping or disclosing openings.
        return (bytes([TAG_PROOF]) + statement_signing_bytes(obj.statement)
                + _sig_bytes(obj.authority_sig))
    if isinstance(obj, EndorsementStatement):
        return (bytes([TAG_ENDORSEMENT_STATEMENT]) + _text(obj.witness_id)
                + _text(obj.user_id) + _text(obj.location_id)
                + _u64(obj.visit_time) + obj.proof_digest.data
                + _u64(obj.endorsed_at))
    if isinstance(obj, TimestampAttestation):
        return timestamp_signing_bytes(obj)
    if isinstance(obj, Endorsement):
        return (bytes([TAG_ENDORSEMENT]) + canonical_encode(obj.statement)
                + _sig_bytes(obj.witness_sig)
                + _sig_bytes(obj.authority_time_sig))
    if isinstance(obj, EndorsedLocationProof):
        out = [bytes([TAG_ENDORSED_PROOF]), canonical_encode(obj.proof),
               _u32(len(obj.endorsements))]
        out += [canonical_encode(e) for e in obj.endorsements]
        return b"".join(out)
    if isinstance(obj, HashChainLink):
        return bytes([TAG_CHAIN_LINK]) + _sig_bytes(obj.signature)
    if isinstance(obj, BloomAccumulator):
        return (bytes([TAG_BLOOM]) + bloom_signing_bytes(obj)[1:]
                + _u32(obj.inserted_count) + _optional_sig(obj.authority_sig))
    if isinstance(obj, ProvenanceEntry):
        return (bytes([TAG_ENTRY]) + canonical_encode(obj.elp)
                + canonical_encode(obj.ordering))
    if isinstance(obj, ProvenanceChain):
        out = [bytes([TAG_CHAIN]), _text(obj.scheme), _u32(len(obj.entries))]
        out += [canonical_encode(e) for e in obj.entries]
        return b"".join(out)
    if isinstance(obj, RevealedEntry):
        out = [bytes([TAG_REVEALED_ENTRY]), _u32(obj.position),
               canonical_encode(obj.entry), _u32(len(obj.disclosed))]
        out += [_u32(index) + _text(value) + nonce
                for index, value, nonce in obj.disclosed]
        return b"".join(out)
    if isinstance(obj, ChainSlot):
        return (bytes([TAG_CHAIN_SLOT]) + _u32(obj.position)
                + _text(obj.issuer_id) + obj.proof_digest.data
                + canonical_encode(obj.link))
    if isinstance(obj, RevealedSubsequence):
        out = [bytes([TAG_REVEALED_SUBSEQUENCE]), _text(obj.scheme),
               _u32(len(obj.entries))]
        out += [canonical_encode(e) for e in obj.entries]
        out.append(_u32(len(obj.chain_evidence)))
        out += [canonical_encode(s) for s in obj.chain_evidence]
        return b"".join(out)
    if isinstance(obj, EpochReport):
        return (bytes([TAG_EPOCH_REPORT]) + _text(obj.location_id)
                + _u64(obj.epoch_id) + _u64(obj.start) + _u64(obj.end)
                + canonical_encode(obj.accumulator)
                + _optional_sig(obj.report_sig))
    if isinstance(obj, (tuple, list)):
        if any(isinstance(item, (tuple, list)) for item in obj):
            raise EncodingError("sequences do not nest")
        out = [bytes([TAG_SEQUENCE]), _u32(len(obj))]
        out += [canonical_encode(item) for item in obj]
        return b"".join(out)
    raise EncodingError(f"cannot encode {type(obj).__name__}")


def proof_digest(profile: CryptoProfile, lp: LocationProof) -> Digest:
    """Digest binding endorsements and ordering constructs to a proof."""
    return profile.digest(canonical_encode(lp))


class _Reader:
    """Bounds-checked cursor: every read past the end, and every malformed
    field, raises ``EncodingError``."""

    def __init__(self, data: bytes, profile: CryptoProfile):
        self.data = data
        self.size = len(data)
        self.pos = 0
        self.profile = profile

    def take(self, n: int) -> bytes:
        start, end = self.pos, self.pos + n
        if end > self.size:
            raise EncodingError("truncated encoding")
        self.pos = end
        return self.data[start:end]

    def peek(self) -> int:
        if self.pos >= self.size:
            raise EncodingError("truncated encoding")
        return self.data[self.pos]

    def byte(self) -> int:
        value = self.peek()
        self.pos += 1
        return value

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError:
            raise EncodingError("invalid UTF-8 in text field") from None

    def tag(self, expected: int) -> None:
        got = self.byte()
        if got != expected:
            raise EncodingError(f"expected tag {expected:#04x}, got {got:#04x}")

    def sig(self) -> Signature:
        tag = self.byte()
        try:
            profile = _SIG_PROFILES[tag]
        except KeyError:
            raise EncodingError(f"unknown signature scheme tag {tag:#04x}") from None
        return Signature(scheme_id=profile.scheme_id,
                         data=self.take(profile.signature_len))

    def optional_sig(self) -> Optional[Signature]:
        flag = self.byte()
        if flag > 1:
            raise EncodingError(f"bad signature presence flag {flag:#04x}")
        return self.sig() if flag else None

    def digest(self) -> Digest:
        return Digest(self.take(self.profile.digest_len))

    def done(self) -> None:
        if self.pos != self.size:
            raise EncodingError("trailing bytes after encoding")


def canonical_decode(data: bytes, profile: CryptoProfile):
    """Inverse of canonical_encode. Needs the crypto profile to know the
    widths of digests and nonces. Granularity values and hash-chain signed
    payloads are user-side context and come back empty. Any input that is
    not exactly one encoding raises ``EncodingError``."""
    r = _Reader(data, profile)
    obj = _decode_any(r)
    r.done()
    return obj


def _decode_any(r: _Reader):
    tag = r.peek()
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise EncodingError(f"unknown type tag {tag:#04x}")
    return decoder(r)


def _decode_statement(r: _Reader) -> LocationStatement:
    r.tag(TAG_STATEMENT)
    return LocationStatement(r.text(), r.text(), r.u64())


def _decode_private_statement(r: _Reader) -> PrivateLocationStatement:
    r.tag(TAG_PRIVATE_STATEMENT)
    user_id, location_id, t = r.text(), r.text(), r.u64()
    commitments = tuple(Commitment(r.digest()) for _ in range(r.u32()))
    nonces = tuple(r.take(r.profile.nonce_len) for _ in range(r.u32()))
    return PrivateLocationStatement(user_id, location_id, t, commitments, nonces)


def _decode_private_core(r: _Reader) -> PrivateLocationStatement:
    r.tag(TAG_PRIVATE_STATEMENT_CORE)
    user_id, location_id, t = r.text(), r.text(), r.u64()
    commitments = tuple(Commitment(r.digest()) for _ in range(r.u32()))
    return PrivateLocationStatement(user_id, location_id, t, commitments, ())


def _decode_proof(r: _Reader) -> LocationProof:
    r.tag(TAG_PROOF)
    inner = r.peek()
    if inner == TAG_STATEMENT:
        stmt: Statement = _decode_statement(r)
    elif inner == TAG_PRIVATE_STATEMENT_CORE:
        stmt = _decode_private_core(r)
    else:
        raise EncodingError(f"unexpected statement tag {inner:#04x} in proof")
    return LocationProof(stmt, r.sig())


def _decode_endorsement_statement(r: _Reader) -> EndorsementStatement:
    r.tag(TAG_ENDORSEMENT_STATEMENT)
    return EndorsementStatement(
        r.text(), r.text(), r.text(), r.u64(), r.digest(), r.u64())


def _decode_timestamp(r: _Reader) -> TimestampAttestation:
    r.tag(TAG_TIMESTAMP)
    return TimestampAttestation(r.digest(), r.u64())


def _decode_endorsement(r: _Reader) -> Endorsement:
    r.tag(TAG_ENDORSEMENT)
    return Endorsement(_decode_endorsement_statement(r), r.sig(), r.sig())


def _decode_endorsed_proof(r: _Reader) -> EndorsedLocationProof:
    r.tag(TAG_ENDORSED_PROOF)
    proof = _decode_proof(r)
    endorsements = tuple(_decode_endorsement(r) for _ in range(r.u32()))
    return EndorsedLocationProof(proof, endorsements)


def _decode_link(r: _Reader) -> HashChainLink:
    r.tag(TAG_CHAIN_LINK)
    return HashChainLink(r.sig())


def _decode_bloom(r: _Reader) -> BloomAccumulator:
    r.tag(TAG_BLOOM)
    bits = r.blob()
    hash_count, capacity = r.u32(), r.u32()
    target_fpr = struct.unpack(">d", r.take(8))[0]
    inserted = r.u32()
    return BloomAccumulator(bits, hash_count, capacity, target_fpr, inserted,
                            r.optional_sig())


def _decode_construct(r: _Reader) -> OrderingConstruct:
    if r.peek() == TAG_CHAIN_LINK:
        return _decode_link(r)
    return _decode_bloom(r)


def _decode_entry(r: _Reader) -> ProvenanceEntry:
    r.tag(TAG_ENTRY)
    elp = _decode_endorsed_proof(r)
    return ProvenanceEntry(elp, _decode_construct(r))


def _decode_chain(r: _Reader) -> ProvenanceChain:
    r.tag(TAG_CHAIN)
    scheme = r.text()
    entries = tuple(_decode_entry(r) for _ in range(r.u32()))
    return ProvenanceChain(scheme, entries)


def _decode_revealed_entry(r: _Reader) -> RevealedEntry:
    r.tag(TAG_REVEALED_ENTRY)
    position, entry = r.u32(), _decode_entry(r)
    disclosed = tuple((r.u32(), r.text(), r.take(r.profile.nonce_len))
                      for _ in range(r.u32()))
    return RevealedEntry(position, entry, disclosed)


def _decode_chain_slot(r: _Reader) -> ChainSlot:
    r.tag(TAG_CHAIN_SLOT)
    return ChainSlot(r.u32(), r.text(), r.digest(), _decode_link(r))


def _decode_revealed_subsequence(r: _Reader) -> RevealedSubsequence:
    r.tag(TAG_REVEALED_SUBSEQUENCE)
    scheme = r.text()
    entries = tuple(_decode_revealed_entry(r) for _ in range(r.u32()))
    evidence = tuple(_decode_chain_slot(r) for _ in range(r.u32()))
    return RevealedSubsequence(scheme, entries, evidence)


def _decode_epoch_report(r: _Reader) -> EpochReport:
    r.tag(TAG_EPOCH_REPORT)
    location_id, epoch_id, start, end = r.text(), r.u64(), r.u64(), r.u64()
    return EpochReport(location_id, epoch_id, start, end, _decode_bloom(r),
                       r.optional_sig())


def _decode_sequence(r: _Reader) -> tuple:
    r.tag(TAG_SEQUENCE)
    items = []
    for _ in range(r.u32()):
        if r.peek() == TAG_SEQUENCE:
            raise EncodingError("sequences do not nest")
        items.append(_decode_any(r))
    return tuple(items)


_DECODERS = {
    TAG_STATEMENT: _decode_statement,
    TAG_PRIVATE_STATEMENT: _decode_private_statement,
    TAG_PRIVATE_STATEMENT_CORE: _decode_private_core,
    TAG_PROOF: _decode_proof,
    TAG_ENDORSEMENT_STATEMENT: _decode_endorsement_statement,
    TAG_TIMESTAMP: _decode_timestamp,
    TAG_ENDORSEMENT: _decode_endorsement,
    TAG_ENDORSED_PROOF: _decode_endorsed_proof,
    TAG_CHAIN_LINK: _decode_link,
    TAG_BLOOM: _decode_bloom,
    TAG_ENTRY: _decode_entry,
    TAG_CHAIN: _decode_chain,
    TAG_REVEALED_ENTRY: _decode_revealed_entry,
    TAG_CHAIN_SLOT: _decode_chain_slot,
    TAG_REVEALED_SUBSEQUENCE: _decode_revealed_subsequence,
    TAG_EPOCH_REPORT: _decode_epoch_report,
    TAG_SEQUENCE: _decode_sequence,
}


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def make_statement(user_id: str, location_id: str, visit_time: int) -> LocationStatement:
    if not user_id:
        raise ValidationError("user_id must be non-empty")
    if not location_id:
        raise ValidationError("location_id must be non-empty")
    if not isinstance(visit_time, int) or visit_time < 0:
        raise ValidationError("visit_time must be a non-negative integer")
    return LocationStatement(user_id, location_id, visit_time)


def make_private_statement(
    profile: CryptoProfile,
    user_id: str,
    location_id: str,
    visit_time: int,
    granularities: Sequence[str],
    rng,
) -> PrivateLocationStatement:
    """Blind each granularity of the location behind a fresh commitment.

    One nonce per granularity is drawn from ``rng``; the caller keeps the
    openings by keeping the returned statement.
    """
    base = make_statement(user_id, location_id, visit_time)
    if not granularities:
        raise ValidationError("need at least one granularity")
    nonces = tuple(rng.randbytes(profile.nonce_len) for _ in granularities)
    commitments = tuple(
        profile.commit(value.encode("utf-8"), nonce)
        for value, nonce in zip(granularities, nonces)
    )
    return PrivateLocationStatement(
        base.user_id, base.location_id, base.visit_time,
        commitments, nonces, tuple(granularities),
    )


def reveal_granularity(lsp: PrivateLocationStatement, index: int) -> tuple[str, bytes]:
    """Open commitment ``index`` (1-based), leaving the others blinded."""
    if not 1 <= index <= len(lsp.commitments):
        raise ValidationError(
            f"granularity index {index} out of range 1..{len(lsp.commitments)}")
    if len(lsp.granularity_values) != len(lsp.commitments):
        raise ValidationError("granularity values not held on this statement")
    return lsp.granularity_values[index - 1], lsp.nonces[index - 1]


def make_proof(profile: CryptoProfile, authority_keys: KeyPair,
               statement: Statement) -> LocationProof:
    return LocationProof(
        statement,
        profile.sign(authority_keys.private_key, statement_signing_bytes(statement)),
    )


def make_endorsement(
    profile: CryptoProfile,
    witness_keys: KeyPair,
    witness_id: str,
    lp: LocationProof,
    endorsed_at: int,
    authority_time_sig: Signature,
    window_ms: int,
) -> Endorsement:
    """Build the witness's endorsement of a proof.

    ``endorsed_at`` must lie in [t, t + window_ms] relative to the proof's
    visit time; outside that window the witness refuses.
    """
    t = lp.statement.visit_time
    if endorsed_at < t:
        raise WindowError(f"endorsement time {endorsed_at} precedes visit time {t}")
    if endorsed_at - t > window_ms:
        raise WindowError(
            f"endorsement time {endorsed_at} exceeds visit time {t} "
            f"by more than {window_ms} ms")
    es = EndorsementStatement(
        witness_id=witness_id,
        user_id=lp.statement.user_id,
        location_id=lp.statement.location_id,
        visit_time=t,
        proof_digest=proof_digest(profile, lp),
        endorsed_at=endorsed_at,
    )
    witness_sig = profile.sign(witness_keys.private_key, canonical_encode(es))
    return Endorsement(es, witness_sig, authority_time_sig)


def assemble_elp(profile: CryptoProfile, lp: LocationProof,
                 endorsements: Iterable[Endorsement]) -> EndorsedLocationProof:
    """Bind endorsements to a proof, rejecting any that refer elsewhere."""
    endorsements = tuple(endorsements)
    if not endorsements:
        raise ValidationError("an endorsed proof needs at least one endorsement")
    expected = proof_digest(profile, lp)
    for e in endorsements:
        if e.statement.proof_digest != expected:
            raise BindingError("endorsement digest refers to a different proof")
        if (e.statement.user_id, e.statement.location_id,
                e.statement.visit_time) != (
                lp.statement.user_id, lp.statement.location_id,
                lp.statement.visit_time):
            raise BindingError("endorsement fields disagree with the proof")
    return EndorsedLocationProof(lp, endorsements)


# ---------------------------------------------------------------------------
# Disclosure
# ---------------------------------------------------------------------------

def redact_statement(stmt: Statement) -> Statement:
    """Strip user-side openings; safe because they are never signed."""
    if isinstance(stmt, PrivateLocationStatement):
        return replace(stmt, nonces=(), granularity_values=())
    return stmt


def make_revealed_entry(position: int, entry: ProvenanceEntry,
                        disclose: Sequence[int] = ()) -> RevealedEntry:
    """Prepare one chain entry for disclosure to an auditor.

    ``disclose`` lists 1-based granularity indexes to open; the entry's
    statement is stripped of all other openings.
    """
    stmt = entry.elp.proof.statement
    disclosed = []
    for index in disclose:
        if not isinstance(stmt, PrivateLocationStatement):
            raise ValidationError("plain statements have no granularities to open")
        value, nonce = reveal_granularity(stmt, index)
        disclosed.append((index, value, nonce))
    redacted = replace(
        entry,
        elp=replace(entry.elp,
                    proof=replace(entry.elp.proof,
                                  statement=redact_statement(stmt))),
    )
    return RevealedEntry(position=position, entry=redacted,
                         disclosed=tuple(disclosed))


def make_revealed_subsequence(
    profile: CryptoProfile,
    chain: ProvenanceChain,
    positions: Sequence[int],
    disclose: Optional[dict[int, Sequence[int]]] = None,
) -> RevealedSubsequence:
    """Extract the subsequence at ``positions`` (1-based, ascending for an
    honest presentation) with statements elsewhere withheld entirely.

    For the hash-chain scheme the result also carries the (link, proof
    digest, issuer) triple for *every* chain position, which is exactly the
    non-statement evidence an auditor needs to replay the chain.
    """
    disclose = disclose or {}
    n = len(chain.entries)
    for p in positions:
        if not 1 <= p <= n:
            raise ValidationError(f"position {p} out of range 1..{n}")
    if list(positions) != sorted(set(positions)):
        raise ValidationError("positions must be strictly ascending")
    revealed = tuple(
        make_revealed_entry(p, chain.entries[p - 1], disclose.get(p, ()))
        for p in positions
    )
    evidence: tuple[ChainSlot, ...] = ()
    if chain.scheme == SCHEME_HASHCHAIN:
        evidence = tuple(
            ChainSlot(
                position=i + 1,
                issuer_id=e.elp.proof.statement.location_id,
                proof_digest=proof_digest(profile, e.elp.proof),
                link=e.ordering,
            )
            for i, e in enumerate(chain.entries)
        )
    return RevealedSubsequence(chain.scheme, revealed, evidence)
