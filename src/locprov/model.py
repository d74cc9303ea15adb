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
its fields. ``LAYOUTS`` is the one statement of every layout, signing views
included, each field with its kind; the encoder, the decoder and the signing
views are all compiled from it. Signatures and digests are taken over these
bytes, and the chain and registry files (``serialize``) carry them, so
``canonical_decode``, which rejects anything that is not exactly one
encoding with ``EncodingError``, is the one decoder of what an auditor reads.

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

import math
import struct
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from functools import cached_property
from operator import attrgetter
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
    commitment's blinding nonce: held by the user, never signed, () once stripped.
    ``granularity_values`` are the cleartext granularity names; they are
    user-side context excluded from both equality and encoding.
    """

    user_id: str
    location_id: str
    visit_time: int
    commitments: tuple[Commitment, ...]
    nonces: tuple[bytes, ...] = ()
    granularity_values: tuple[str, ...] = field(default=(), compare=False)


Statement = Union[LocationStatement, PrivateLocationStatement]


@dataclass(frozen=True)
class LocationProof:
    statement: Statement
    authority_sig: Signature
    # (hash name, digest) memo of ``proof_digest``; never encoded, compared
    # or copied by ``replace``, which builds a new proof.
    _digest: Optional[tuple[str, Digest]] = field(
        default=None, init=False, compare=False, repr=False)


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
    and target false-positive rate; ``inserted_count`` is unsigned metadata.
    """

    bits: bytes
    hash_count: int
    capacity: int
    target_fpr: float
    inserted_count: int = 0
    authority_sig: Optional[Signature] = None

    @cached_property
    def bit_size(self) -> int:
        return bloom_bit_size(self.capacity, self.target_fpr)


def bloom_bit_size(capacity: int, target_fpr: float) -> int:
    return math.ceil(capacity * math.log(1.0 / target_fpr) / math.log(2) ** 2)


OrderingConstruct = Union[HashChainLink, BloomAccumulator]

SCHEME_HASHCHAIN = "hashchain"
SCHEME_BLOOM = "bloom"
SCHEMES = (SCHEME_HASHCHAIN, SCHEME_BLOOM)


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
_F64 = struct.Struct(">d")


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def _u64(n: int) -> bytes:
    if n < 0:
        raise EncodingError("timestamps must be non-negative")
    return n.to_bytes(8, "big")


def _text(s: str) -> bytes:
    data = s.encode("utf-8")
    return _u32(len(data)) + data


def _sig_bytes(sig: Signature) -> bytes:
    if sig.scheme_id not in _SCHEME_TAGS:
        raise EncodingError(f"unknown signature scheme {sig.scheme_id!r}")
    return bytes([_SCHEME_TAGS[sig.scheme_id]]) + sig.data


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

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError:
            raise EncodingError("invalid UTF-8 in text field") from None

    def sig(self) -> Signature:
        tag = self.take(1)[0]
        if tag not in _SIG_PROFILES:
            raise EncodingError(f"unknown signature scheme tag {tag:#04x}")
        profile = _SIG_PROFILES[tag]
        return Signature(scheme_id=profile.scheme_id,
                         data=self.take(profile.signature_len))

    def optional_sig(self) -> Optional[Signature]:
        flag = self.take(1)[0]
        if flag > 1:
            raise EncodingError(f"bad signature presence flag {flag:#04x}")
        return self.sig() if flag else None


# Field kinds. Each scalar kind is a (writer, reader) pair: the writer maps
# a field's value to its bytes, the reader takes one value from a _Reader.
# Integers, lengths and counts are big-endian.
TEXT = (_text, _Reader.text)  # UTF-8 behind a 4-byte length
U32 = (_u32, _Reader.u32)
U64 = (_u64, lambda r: int.from_bytes(r.take(8), "big"))  # non-negative
F64 = (_F64.pack, lambda r: _F64.unpack(r.take(8))[0])  # IEEE 754 double
BLOB = (lambda data: _u32(len(data)) + data, _Reader.blob)  # behind a 4-byte length
DIGEST = (attrgetter("data"), lambda r: Digest(r.take(r.profile.digest_len)))  # raw
COMMITMENT = (attrgetter("digest.data"), lambda r: Commitment(DIGEST[1](r)))
NONCE = (lambda nonce: nonce, lambda r: r.take(r.profile.nonce_len))  # raw
SIG = (_sig_bytes, _Reader.sig)  # scheme tag, then the signature
OPTIONAL_SIG = (lambda sig: b"\x00" if sig is None else b"\x01" + _sig_bytes(sig),
                _Reader.optional_sig)
OPENING = (lambda o: _u32(o[0]) + _text(o[1]) + o[2],  # (index, value, nonce)
           lambda r: (r.u32(), r.text(), NONCE[1](r)))


# Compound kinds: ``counted(kind)`` is a 4-byte count, then the items;
# ``nested(*tags)`` is one object, in whichever layout of ``tags`` is for its
# class. Each of ``tags`` comes earlier in ``LAYOUTS``.
def counted(kind) -> tuple:
    return ("counted", kind)


def nested(*tags: int) -> tuple:
    return ("nested", tags)


_STATEMENT = (("user_id", TEXT), ("location_id", TEXT), ("visit_time", U64))
_BLOOM_CORE = (("bits", BLOB), ("hash_count", U32), ("capacity", U32),
               ("target_fpr", F64))
_REPORT_HEAD = (("location_id", TEXT), ("epoch_id", U64), ("start", U64), ("end", U64))

# The one statement of every layout: (tag, class, fields in wire order).
# The fields are the first fields of the class, which the decoder fills by
# position; the class's other fields keep their defaults.
LAYOUTS = (
    (TAG_STATEMENT, LocationStatement, _STATEMENT),
    (TAG_PRIVATE_STATEMENT, PrivateLocationStatement, _STATEMENT + (
        ("commitments", counted(COMMITMENT)), ("nonces", counted(NONCE)))),
    (TAG_PRIVATE_STATEMENT_CORE, PrivateLocationStatement,
     _STATEMENT + (("commitments", counted(COMMITMENT)),)),
    (TAG_PROOF, LocationProof, (
        ("statement", nested(TAG_STATEMENT, TAG_PRIVATE_STATEMENT_CORE)),
        ("authority_sig", SIG))),
    (TAG_ENDORSEMENT_STATEMENT, EndorsementStatement, (
        ("witness_id", TEXT), *_STATEMENT, ("proof_digest", DIGEST),
        ("endorsed_at", U64))),
    (TAG_TIMESTAMP, TimestampAttestation, (
        ("proof_digest", DIGEST), ("endorsed_at", U64))),
    (TAG_ENDORSEMENT, Endorsement, (
        ("statement", nested(TAG_ENDORSEMENT_STATEMENT)),
        ("witness_sig", SIG), ("authority_time_sig", SIG))),
    (TAG_ENDORSED_PROOF, EndorsedLocationProof, (
        ("proof", nested(TAG_PROOF)),
        ("endorsements", counted(nested(TAG_ENDORSEMENT))))),
    (TAG_CHAIN_LINK, HashChainLink, (("signature", SIG),)),
    (TAG_BLOOM_CORE, BloomAccumulator, _BLOOM_CORE),
    (TAG_BLOOM, BloomAccumulator, _BLOOM_CORE + (
        ("inserted_count", U32), ("authority_sig", OPTIONAL_SIG))),
    (TAG_ENTRY, ProvenanceEntry, (
        ("elp", nested(TAG_ENDORSED_PROOF)),
        ("ordering", nested(TAG_CHAIN_LINK, TAG_BLOOM)))),
    (TAG_CHAIN, ProvenanceChain, (
        ("scheme", TEXT), ("entries", counted(nested(TAG_ENTRY))))),
    (TAG_REVEALED_ENTRY, RevealedEntry, (
        ("position", U32), ("entry", nested(TAG_ENTRY)),
        ("disclosed", counted(OPENING)))),
    (TAG_CHAIN_SLOT, ChainSlot, (
        ("position", U32), ("issuer_id", TEXT), ("proof_digest", DIGEST),
        ("link", nested(TAG_CHAIN_LINK)))),
    (TAG_REVEALED_SUBSEQUENCE, RevealedSubsequence, (
        ("scheme", TEXT), ("entries", counted(nested(TAG_REVEALED_ENTRY))),
        ("chain_evidence", counted(nested(TAG_CHAIN_SLOT))))),
    (TAG_EPOCH_REPORT_CORE, EpochReport, _REPORT_HEAD + (
        ("accumulator", nested(TAG_BLOOM_CORE)),)),
    (TAG_EPOCH_REPORT, EpochReport, _REPORT_HEAD + (
        ("accumulator", nested(TAG_BLOOM)), ("report_sig", OPTIONAL_SIG))),
)
# canonical_encode never gives a signing view. The decoder reads 0x12, which
# proofs carry, but not the views that are only ever signed.
SIGNING_VIEWS = {TAG_PRIVATE_STATEMENT_CORE, TAG_BLOOM_CORE, TAG_EPOCH_REPORT_CORE}
_SIGNED_ONLY = {TAG_BLOOM_CORE, TAG_EPOCH_REPORT_CORE}

# Compiled layouts by tag. A reader starts at the tag byte its caller checked.
_ENCODERS: dict = {}
_READERS: dict = {}


def _field_codec(kind) -> tuple:
    """(writer, reader) of one field kind."""
    if kind[0] == "counted":
        write_item, read_item = _field_codec(kind[1])
        return (lambda items: b"".join([_u32(len(items)), *map(write_item, items)]),
                lambda r: tuple([read_item(r) for _ in range(r.u32())]))
    if kind[0] != "nested":
        return kind
    tags = kind[1]
    by_class = {cls: _ENCODERS[tag] for tag, cls, _ in LAYOUTS if tag in tags}
    by_tag = {tag: _READERS[tag] for tag in tags}
    expected = " or ".join(f"{tag:#04x}" for tag in tags)

    def write(obj) -> bytes:
        encode = by_class.get(type(obj))
        if encode is None:
            raise EncodingError(f"cannot encode {type(obj).__name__} as tag {expected}")
        return encode(obj)

    def read(r: _Reader):
        read_tag = by_tag.get(r.peek())
        if read_tag is None:
            raise EncodingError(f"expected tag {expected}, got {r.peek():#04x}")
        return read_tag(r)

    return write, read


def _compile(tag: int, cls: type, fields) -> None:
    names = [name for name, _ in fields]
    assert names == [f.name for f in dataclass_fields(cls)][:len(names)]
    writers, readers = zip(*(_field_codec(kind) for _, kind in fields))
    steps = tuple(zip(names, writers))
    head = bytes([tag])

    def encode(obj) -> bytes:
        out = [head]
        for name, write in steps:
            out.append(write(getattr(obj, name)))
        return b"".join(out)

    def read(r: _Reader):
        r.pos += 1
        values = []
        for read_field in readers:
            values.append(read_field(r))
        return cls(*values)

    _ENCODERS[tag], _READERS[tag] = encode, read


for _layout in LAYOUTS:
    _compile(*_layout)
_WIRE_ENCODERS = {cls: _ENCODERS[tag] for tag, cls, _ in LAYOUTS
                  if tag not in SIGNING_VIEWS}
_write_signed_statement, _ = _field_codec(
    nested(TAG_STATEMENT, TAG_PRIVATE_STATEMENT_CORE))


def statement_signing_bytes(stmt: Statement) -> bytes:
    """The bytes a location authority signs: for private statements this
    covers the commitments but never the nonces."""
    return _write_signed_statement(stmt)


def bloom_signing_bytes(acc: BloomAccumulator) -> bytes:
    return _ENCODERS[TAG_BLOOM_CORE](acc)


def report_signing_bytes(report: EpochReport) -> bytes:
    return _ENCODERS[TAG_EPOCH_REPORT_CORE](report)


def canonical_encode(obj) -> bytes:
    """Injective, deterministic wire encoding of any model object, or of a
    tuple or list of them (a sequence)."""
    encode = _WIRE_ENCODERS.get(type(obj))
    if encode is not None:
        return encode(obj)
    if isinstance(obj, (tuple, list)):
        if any(isinstance(item, (tuple, list)) for item in obj):
            raise EncodingError("sequences do not nest")
        return b"".join([bytes([TAG_SEQUENCE]), _u32(len(obj)),
                         *map(canonical_encode, obj)])
    raise EncodingError(f"cannot encode {type(obj).__name__}")


def proof_digest(profile: CryptoProfile, lp: LocationProof) -> Digest:
    """Digest binding endorsements and ordering constructs to a proof,
    computed once per proof and hash."""
    memo = lp._digest
    if memo is not None and memo[0] == profile.hash_name:
        return memo[1]
    digest = profile.digest(canonical_encode(lp))
    object.__setattr__(lp, "_digest", (profile.hash_name, digest))
    return digest


def canonical_decode(data: bytes, profile: CryptoProfile):
    """Inverse of canonical_encode. Needs the crypto profile to know the
    widths of digests and nonces. Granularity values and hash-chain signed
    payloads are user-side context and come back empty. Any input that is
    not exactly one encoding raises ``EncodingError``."""
    r = _Reader(data, profile)
    if r.peek() == TAG_SEQUENCE:
        r.pos += 1
        obj = tuple([_read_item(r) for _ in range(r.u32())])
    else:
        obj = _read_item(r)
    if r.pos != r.size:
        raise EncodingError("trailing bytes after encoding")
    return obj


def _read_item(r: _Reader):
    read = _ITEM_READERS.get(r.peek())
    if read is None:
        if r.peek() == TAG_SEQUENCE:
            raise EncodingError("sequences do not nest")
        raise EncodingError(f"unknown type tag {r.peek():#04x}")
    return read(r)


# What the decoder reads alone or as an item of a sequence.
_ITEM_READERS = {tag: read for tag, read in _READERS.items() if tag not in _SIGNED_ONLY}


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


def proof_signed(profile: CryptoProfile, public_key: bytes,
                 lp: LocationProof) -> bool:
    """Whether ``lp`` carries its authority's signature under ``public_key``."""
    return profile.verify(public_key, statement_signing_bytes(lp.statement),
                          lp.authority_sig)


# Latest a witness endorses a proof, and an auditor accepts the endorsement,
# by its authority-signed timestamp counted from the proof's visit time.
ENDORSEMENT_WINDOW_MS = 60_000
# The window a colluding witness signs in: whatever timestamp it is handed,
# except one before the visit began.
COLLUDING_WINDOW_MS = 1 << 62


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
    visit time; outside that window the witness refuses. An honest witness
    passes ``ENDORSEMENT_WINDOW_MS``.
    """
    t = lp.statement.visit_time
    if not t <= endorsed_at <= t + window_ms:
        raise WindowError(f"endorsement time {endorsed_at} is outside "
                          f"[{t}, {t} + {window_ms}]")
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


def endorsement_signed(profile: CryptoProfile, public_key: bytes,
                       es: EndorsementStatement, sig: Signature) -> bool:
    """Whether ``sig`` is the witness signature ``make_endorsement`` gave."""
    return profile.verify(public_key, canonical_encode(es), sig)


def sign_timestamp(profile: CryptoProfile, keys: KeyPair, digest: Digest,
                   endorsed_at: int) -> Signature:
    """The authority's signature dating the endorsement of proof ``digest``."""
    return profile.sign(keys.private_key, canonical_encode(
        TimestampAttestation(digest, endorsed_at)))


def timestamp_signed(profile: CryptoProfile, public_key: bytes,
                     es: EndorsementStatement, sig: Signature) -> bool:
    """Whether ``sig`` is the timestamp ``sign_timestamp`` gave ``es``."""
    return profile.verify(public_key, canonical_encode(
        TimestampAttestation(es.proof_digest, es.endorsed_at)), sig)


def binding_fault(stmt: Statement, digest: Digest,
                  es: EndorsementStatement) -> Optional[str]:
    """None when ``es`` endorses the proof of ``stmt`` whose digest is
    ``digest``; else why it belongs to some other proof."""
    if es.proof_digest != digest:
        return "digest: endorsement refers to a different proof"
    if (es.user_id, es.location_id, es.visit_time) != (
            stmt.user_id, stmt.location_id, stmt.visit_time):
        return "fields: endorsement disagrees with the proof"
    return None


def assemble_elp(profile: CryptoProfile, lp: LocationProof,
                 endorsements: Iterable[Endorsement]) -> EndorsedLocationProof:
    """Bind endorsements to a proof, rejecting any that refer elsewhere."""
    endorsements = tuple(endorsements)
    if not endorsements:
        raise ValidationError("an endorsed proof needs at least one endorsement")
    digest = proof_digest(profile, lp)
    for e in endorsements:
        fault = binding_fault(lp.statement, digest, e.statement)
        if fault is not None:
            raise BindingError(fault)
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
