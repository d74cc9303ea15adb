"""Data model: constructors, canonical encoding, disclosure."""

import copy
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from locprov import model
from locprov.audit import AuditReport, ClaimVerdict, LocationClaim
from locprov.crypto import LEGACY, MODERN, Commitment, Digest, Signature
from locprov.model import (
    BindingError,
    BloomAccumulator,
    ChainSlot,
    EncodingError,
    EndorsedLocationProof,
    EpochReport,
    HashChainLink,
    OrderingVerdict,
    ProvenanceChain,
    ProvenanceEntry,
    RevealedSubsequence,
    TimestampAttestation,
    ValidationError,
    WindowError,
    assemble_elp,
    canonical_decode,
    canonical_encode,
    encode_pieces,
    make_endorsement,
    make_private_statement,
    make_proof,
    make_revealed_entry,
    make_statement,
    proof_digest,
    reveal_granularity,
)
from locprov.protocol import Message, VisitOutcome

PROFILE = MODERN
KEYS_AUTH = PROFILE.keygen(bytes(range(32)))
KEYS_WITNESS = PROFILE.keygen(bytes(range(1, 33)))
WINDOW = 60_000


def _statement(t=100):
    return make_statement("u1", "cafe-7", t)


def _private_statement(rng=None, granularities=("IL", "Chicago", "Block 5")):
    rng = rng or random.Random(4)
    return make_private_statement(PROFILE, "u1", "cafe-7", 100,
                                  list(granularities), rng)


def _endorsed(lp, endorsed_at=105):
    att = TimestampAttestation(proof_digest(PROFILE, lp), endorsed_at)
    time_sig = PROFILE.sign(KEYS_AUTH.private_key, canonical_encode(att))
    return make_endorsement(PROFILE, KEYS_WITNESS, "w1", lp, endorsed_at,
                            time_sig, WINDOW)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_make_statement_stores_fields():
    s = _statement()
    assert (s.user_id, s.location_id, s.visit_time) == ("u1", "cafe-7", 100)


def test_make_statement_rejects_empty_ids():
    with pytest.raises(ValidationError):
        make_statement("", "cafe-7", 1)
    with pytest.raises(ValidationError):
        make_statement("u1", "", 1)


def test_make_statement_accepts_epoch_origin():
    assert make_statement("u1", "cafe-7", 0).visit_time == 0


def test_make_statement_rejects_negative_time():
    with pytest.raises(ValidationError):
        make_statement("u1", "cafe-7", -1)


def test_private_statement_commitments_verify():
    lsp = _private_statement()
    assert len(lsp.commitments) == len(lsp.nonces) == 3
    for i in range(1, 4):
        value, nonce = reveal_granularity(lsp, i)
        assert PROFILE.verify_commitment(
            lsp.commitments[i - 1], value.encode(), nonce)


def test_private_statement_rejects_empty_granularities():
    with pytest.raises(ValidationError):
        make_private_statement(PROFILE, "u1", "cafe-7", 1, [], random.Random(0))


def test_private_statement_single_granularity():
    lsp = make_private_statement(PROFILE, "u1", "cafe-7", 1, ["Chicago"],
                                 random.Random(0))
    assert len(lsp.commitments) == 1


def test_private_statement_per_granularity_overhead_is_24_bytes_legacy():
    # commitment (20), encoded, plus nonce (4), kept beside it by the user,
    # under the 40-byte-signature profile
    rng = random.Random(5)
    sizes = []
    for n in (1, 2, 3, 6):
        lsp = make_private_statement(LEGACY, "u1", "cafe-7", 100,
                                     [f"g{i}" for i in range(n)], rng)
        sizes.append((n, len(canonical_encode(lsp))
                      + len(b"".join(lsp.nonces))))
    for (n1, s1), (n2, s2) in zip(sizes, sizes[1:]):
        assert (s2 - s1) == (n2 - n1) * (LEGACY.digest_len + LEGACY.nonce_len)
    assert LEGACY.digest_len + LEGACY.nonce_len == 24


def test_reveal_granularity_bounds():
    lsp = _private_statement()
    with pytest.raises(ValidationError):
        reveal_granularity(lsp, 0)
    with pytest.raises(ValidationError):
        reveal_granularity(lsp, 4)


def test_reveal_tampered_value_fails_commitment():
    lsp = _private_statement()
    value, nonce = reveal_granularity(lsp, 2)
    assert not PROFILE.verify_commitment(lsp.commitments[1],
                                         (value + "x").encode(), nonce)


def test_dictionary_attack_needs_the_nonce():
    """Commitments resist dictionary replay when the nonce is unknown."""
    dictionary = ["IL", "Chicago", "Block 5", "Block 6", "Loop", "O'Hare"]
    lsp = _private_statement(granularities=dictionary[:3])
    target = lsp.commitments[2]  # unrevealed "Block 5"
    rng = random.Random(11)
    hits = sum(
        PROFILE.verify_commitment(target, word.encode(), rng.randbytes(4))
        for word in dictionary for _ in range(10_000 // len(dictionary))
    )
    assert hits == 0
    # with the real nonce the match is immediate
    value, nonce = reveal_granularity(lsp, 3)
    assert PROFILE.verify_commitment(target, value.encode(), nonce)


# ---------------------------------------------------------------------------
# proofs and endorsements
# ---------------------------------------------------------------------------

def test_make_proof_signature_verifies():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    assert PROFILE.verify(KEYS_AUTH.public_key,
                          canonical_encode(lp.statement),
                          lp.authority_sig)


def test_mutated_statement_fails_verification():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    mutated = make_statement("u1", "cafe-7", 101)
    assert not PROFILE.verify(KEYS_AUTH.public_key,
                              canonical_encode(mutated),
                              lp.authority_sig)


def test_private_proof_signature_ignores_openings():
    from dataclasses import replace
    lsp = _private_statement()
    lp = make_proof(PROFILE, KEYS_AUTH, lsp)
    stripped = replace(lsp, nonces=(), granularity_values=())
    assert PROFILE.verify(KEYS_AUTH.public_key,
                          canonical_encode(stripped),
                          lp.authority_sig)
    # endorsement binding also survives stripping
    assert (proof_digest(PROFILE, lp)
            == proof_digest(PROFILE, replace(lp, statement=stripped)))


def test_make_endorsement_happy_path():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement(t=100))
    e = _endorsed(lp, endorsed_at=105)
    assert e.statement.proof_digest == proof_digest(PROFILE, lp)
    assert PROFILE.verify(KEYS_WITNESS.public_key,
                          canonical_encode(e.statement), e.witness_sig)


def test_make_endorsement_rejects_time_before_visit():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement(t=100))
    with pytest.raises(WindowError):
        _endorsed(lp, endorsed_at=99)


def test_make_endorsement_window_boundary_sweep():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement(t=100))
    for offset in (0, 1, WINDOW - 1, WINDOW):
        _endorsed(lp, endorsed_at=100 + offset)
    for offset in (WINDOW + 1, WINDOW + 1000):
        with pytest.raises(WindowError):
            _endorsed(lp, endorsed_at=100 + offset)


def test_assemble_elp_binds_digest():
    lp1 = make_proof(PROFILE, KEYS_AUTH, _statement(t=100))
    lp2 = make_proof(PROFILE, KEYS_AUTH, _statement(t=200))
    e1 = _endorsed(lp1)
    assert assemble_elp(PROFILE, lp1, [e1]).endorsements == (e1,)
    with pytest.raises(BindingError):
        assemble_elp(PROFILE, lp2, [e1])


def test_assemble_elp_requires_endorsement():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    with pytest.raises(ValidationError):
        assemble_elp(PROFILE, lp, [])


def test_assemble_elp_accepts_multiple_witnesses():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement(t=100))
    other_witness = PROFILE.keygen(bytes(range(2, 34)))
    att = TimestampAttestation(proof_digest(PROFILE, lp), 105)
    time_sig = PROFILE.sign(KEYS_AUTH.private_key, canonical_encode(att))
    e1 = _endorsed(lp)
    e2 = make_endorsement(PROFILE, other_witness, "w2", lp, 105, time_sig,
                          WINDOW)
    elp = assemble_elp(PROFILE, lp, [e1, e2])
    assert len(elp.endorsements) == 2


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------

def test_encoding_deterministic():
    s = _statement()
    assert canonical_encode(s) == canonical_encode(s)


def test_encoding_distinguishes_visit_times():
    assert canonical_encode(_statement(100)) != canonical_encode(_statement(101))


def test_encoding_distinguishes_field_boundaries():
    # length prefixes keep ("ab", "c") apart from ("a", "bc")
    a = make_statement("ab", "c", 1)
    b = make_statement("a", "bc", 1)
    assert canonical_encode(a) != canonical_encode(b)


def _random_object(rng: random.Random):
    kind = rng.randrange(11)
    t = rng.randrange(0, 10**9)
    user = f"u{rng.randrange(100)}"
    loc = f"loc{rng.randrange(100)}"
    if kind == 0:
        return make_statement(user, loc, t)
    if kind == 1:
        lsp = make_private_statement(
            PROFILE, user, loc, t,
            [f"g{i}" for i in range(rng.randrange(1, 5))], rng)
        return replace(lsp, nonces=())  # the user keeps them; none is encoded
    lp = make_proof(PROFILE, KEYS_AUTH, make_statement(user, loc, t))
    if kind == 2:
        return lp
    e = _make_endorsement_at(lp, t + rng.randrange(0, WINDOW))
    if kind == 3:
        return e
    elp = EndorsedLocationProof(lp, (e,))
    if kind == 4:
        return elp
    link = HashChainLink(PROFILE.sign(KEYS_AUTH.private_key, rng.randbytes(20)))
    if kind == 5:
        return ProvenanceEntry(elp, link)
    slot = ChainSlot(loc, proof_digest(PROFILE, lp), link)
    if kind == 6:
        return slot
    if kind in (7, 8):
        # a blinded entry with a random subset of its openings disclosed
        lsp = make_private_statement(PROFILE, user, loc, t,
                                     ["IL", "Chicago", "Block 5"], rng)
        plp = make_proof(PROFILE, KEYS_AUTH, lsp)
        pelp = EndorsedLocationProof(plp, (_make_endorsement_at(plp, t),))
        revealed = make_revealed_entry(
            rng.randrange(1, 10**6), ProvenanceEntry(pelp, link),
            disclose=rng.sample([1, 2, 3], rng.randrange(4)))
        if kind == 7:
            return revealed
        return RevealedSubsequence((revealed,), (slot,))
    reports = tuple(_random_report(rng, loc) for _ in range(rng.randrange(3)))
    if kind == 9:
        return reports[0] if reports else _random_report(rng, loc)
    return reports


def _random_report(rng: random.Random, loc: str) -> EpochReport:
    epoch = rng.randrange(10**6)
    # the report signature covers the accumulator, which carries none
    acc = BloomAccumulator(
        bits=rng.randbytes(rng.randrange(1, 40)), hash_count=rng.randrange(1, 12),
        capacity=rng.randrange(1, 5000), target_fpr=rng.random())
    sig = PROFILE.sign(KEYS_AUTH.private_key, rng.randbytes(8))
    return EpochReport(loc, epoch, epoch * 1000, epoch * 1000 + 1000, acc, sig)


def _make_endorsement_at(lp, endorsed_at):
    att = TimestampAttestation(proof_digest(PROFILE, lp), endorsed_at)
    time_sig = PROFILE.sign(KEYS_AUTH.private_key, canonical_encode(att))
    return make_endorsement(PROFILE, KEYS_WITNESS, "w1", lp, endorsed_at,
                            time_sig, WINDOW)


def test_roundtrip_fuzz_1000_objects():
    """decode(encode(x)) == x; granularity value strings are user-side
    context excluded from both encoding and equality, and a statement's
    nonces are never encoded."""
    rng = random.Random(123)
    for _ in range(1000):
        obj = _random_object(rng)
        data = canonical_encode(obj)
        assert canonical_decode(data, PROFILE) == obj


def test_roundtrip_chain_and_bloom():
    """A Bloom chain's entries, as a sequence, decode to themselves."""
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    elp = EndorsedLocationProof(lp, (_endorsed(lp),))
    acc = BloomAccumulator(bits=bytes(16), hash_count=3, capacity=10,
                           target_fpr=0.01, authority_sig=lp.authority_sig)
    chain = ProvenanceChain((ProvenanceEntry(elp, acc),))
    assert canonical_decode(canonical_encode(chain.entries),
                            PROFILE) == chain.entries


def _unsigned_bloom_encoding() -> bytes:
    """An accumulator as version 5 wrote an unsigned one: its signing view,
    then a 0x00 presence flag where a signature goes."""
    return (bytes([model.TAG_BLOOM]) + model.bloom_signing_bytes(
        BloomAccumulator(bytes(2), 1, 1, 0.5))[1:] + b"\x00")


@pytest.mark.parametrize("data, error", [
    pytest.param(b"", "truncated", id="empty"),
    pytest.param(bytes([0x03]), "truncated", id="proof-without-statement"),
    pytest.param(bytes([0x20, 0, 0, 0, 1]), "truncated",
                 id="sequence-missing-item"),
    pytest.param(bytes([0x20, 0, 0, 0, 1, 0x20, 0, 0, 0, 0]), "do not nest",
                 id="nested-sequence"),
    pytest.param(_unsigned_bloom_encoding(), "unknown signature scheme tag 0x00",
                 id="unsigned-flag"),
    pytest.param(bytes([0x01, 0, 0, 0, 1, 0xFF]), "UTF-8", id="invalid-utf8"),
])
def test_decode_rejects_malformed_input(data, error):
    with pytest.raises(EncodingError, match=error):
        canonical_decode(data, PROFILE)


def test_signed_bit_mutation_fuzz_no_false_accepts():
    """Any single-bit flip in a signed region invalidates the signature."""
    rng = random.Random(321)
    for profile in (MODERN, LEGACY):
        auth = profile.keygen(bytes(range(32)))
        witness = profile.keygen(bytes(range(1, 33)))
        false_accepts = 0
        for _ in range(500):
            choice = rng.randrange(3)
            if choice == 0:
                msg = canonical_encode(
                    make_statement(f"u{rng.randrange(9)}", "L", rng.randrange(10**6)))
                sig = profile.sign(auth.private_key, msg)
                key = auth.public_key
            elif choice == 1:
                lsp = make_private_statement(
                    profile, "u1", "L", rng.randrange(10**6),
                    [f"g{i}" for i in range(rng.randrange(1, 4))], rng)
                msg = canonical_encode(lsp)
                sig = profile.sign(auth.private_key, msg)
                key = auth.public_key
            else:
                lp = make_proof(profile, auth,
                                make_statement("u1", "L", rng.randrange(10**6)))
                att = TimestampAttestation(proof_digest(profile, lp), 10**6 + 5)
                ts = profile.sign(auth.private_key, canonical_encode(att))
                e = make_endorsement(profile, witness, "w1", lp, 10**6 + 5,
                                     ts, 10**9)
                msg = canonical_encode(e.statement)
                sig = e.witness_sig
                key = witness.public_key
            bit = rng.randrange(len(msg) * 8)
            mutated = bytearray(msg)
            mutated[bit // 8] ^= 1 << (bit % 8)
            if profile.verify(key, bytes(mutated), sig):
                false_accepts += 1
        assert false_accepts == 0


# ---------------------------------------------------------------------------
# disclosure
# ---------------------------------------------------------------------------

def test_revealed_entry_strips_unchosen_openings():
    lsp = _private_statement()
    lp = make_proof(PROFILE, KEYS_AUTH, lsp)
    elp = assemble_elp(PROFILE, lp, [_endorsed(lp)])
    link = HashChainLink(PROFILE.sign(KEYS_AUTH.private_key, b"x"))
    revealed = make_revealed_entry(1, ProvenanceEntry(elp, link), disclose=[2])
    stmt = revealed.entry.elp.proof.statement
    assert stmt.nonces == ()
    assert stmt.granularity_values == ()
    assert revealed.disclosed[0][0] == 2
    assert revealed.disclosed[0][1] == "Chicago"


def test_chain_append_rejects_scheme_mismatch():
    """A chain's first construct fixes its scheme: a link does not extend
    a chain of accumulators, nor an accumulator a chain of links."""
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    elp = assemble_elp(PROFILE, lp, [_endorsed(lp)])
    link = HashChainLink(PROFILE.sign(KEYS_AUTH.private_key, b"x"))
    acc = BloomAccumulator(bits=bytes(16), hash_count=3, capacity=10,
                           target_fpr=0.01, authority_sig=lp.authority_sig)
    for first, other in ((acc, link), (link, acc)):
        chain = ProvenanceChain().append(ProvenanceEntry(elp, first))
        chain = chain.append(ProvenanceEntry(elp, first))
        with pytest.raises(ValidationError, match=(
                f"^a {type(other).__name__} does not extend a chain of "
                f"{type(first).__name__}$")):
            chain.append(ProvenanceEntry(elp, other))


# ---------------------------------------------------------------------------
# round trips drawn from the layout table
# ---------------------------------------------------------------------------

def _sigs():
    return st.one_of([
        st.binary(min_size=p.signature_len, max_size=p.signature_len).map(
            lambda data, p=p: Signature(p.scheme_id, data))
        for p in (MODERN, LEGACY)])


def _digests():
    return st.binary(min_size=PROFILE.digest_len,
                     max_size=PROFILE.digest_len).map(Digest)


def _nonces():
    return st.binary(min_size=PROFILE.nonce_len, max_size=PROFILE.nonce_len)


_SCALAR_STRATEGIES = {
    model.TEXT: st.text(max_size=8),
    model.U32: st.integers(0, 2**32 - 1),
    model.U64: st.integers(0, 2**64 - 1),
    model.F64: st.floats(allow_nan=False),
    model.BLOB: st.binary(max_size=16),
    model.DIGEST: _digests(),
    model.COMMITMENT: _digests().map(Commitment),
    model.SIG: _sigs(),
    model.OPENING: st.tuples(st.integers(0, 2**32 - 1), st.text(max_size=8),
                             _nonces()),
}
_LAYOUTS = {tag: (cls, fields) for tag, cls, fields in model.LAYOUTS}


def _kind_strategy(kind):
    if kind[0] == "counted":
        return st.lists(_kind_strategy(kind[1]), max_size=2).map(tuple)
    if kind[0] == "nested":
        return st.one_of([_layout_strategy(tag) for tag in kind[1]])
    return _SCALAR_STRATEGIES[kind]


def _layout_strategy(tag):
    cls, fields = _LAYOUTS[tag]
    return st.builds(cls, *[_kind_strategy(kind) for _, kind in fields])


_WIRE_OBJECTS = st.one_of([_layout_strategy(tag) for tag in _LAYOUTS
                           if tag not in model.SIGNING_VIEWS])


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(obj=_WIRE_OBJECTS | st.lists(_WIRE_OBJECTS, max_size=2).map(tuple))
def test_roundtrip_every_layout(obj):
    """Every layout decodes to itself, and its streamed pieces join to its
    encoding."""
    assert canonical_decode(canonical_encode(obj), PROFILE) == obj
    assert b"".join(encode_pieces(obj)) == canonical_encode(obj)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(stmt=_layout_strategy(model.TAG_PRIVATE_STATEMENT_CORE))
def test_private_statement_view_decodes_without_nonces(stmt):
    data = canonical_encode(stmt)
    assert data[0] == model.TAG_PRIVATE_STATEMENT_CORE
    assert canonical_decode(data, PROFILE) == stmt


# ---------------------------------------------------------------------------
# slotted records
# ---------------------------------------------------------------------------

def _value_objects():
    """An instance of each crypto value type, message and audit record."""
    return [PROFILE.keygen(bytes(32)), Signature(MODERN.scheme_id, bytes(64)),
            Digest(bytes(32)), Commitment(Digest(bytes(32))),
            Message("pReq", "u1", "cafe-7", {}), VisitOutcome(False, "refused"), LocationClaim("cafe-7", 5),
            ClaimVerdict(1, "OK"), OrderingVerdict("OK"),
            AuditReport((ClaimVerdict(1, "OK"),), OrderingVerdict("OK"),
                        Counter(proof=1))]


@pytest.mark.parametrize("tag", sorted(_LAYOUTS))
@settings(max_examples=5, derandomize=True, deadline=None,
          phases=[Phase.generate], suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_layout_records_hold_no_instance_dict(tag, data):
    obj = data.draw(_layout_strategy(tag))
    assert not hasattr(obj, "__dict__"), type(obj).__name__


@pytest.mark.parametrize("obj", _value_objects(),
                         ids=lambda obj: type(obj).__name__)
def test_value_objects_hold_no_instance_dict(obj):
    assert not hasattr(obj, "__dict__")


def test_slotted_records_copy_pickle_and_memoise():
    """What a frozen slotted record is relied on for: ``replace``, a memo
    set through ``object.__setattr__``, equality and hash, ``copy`` and
    ``pickle``."""
    lp = make_proof(PROFILE, KEYS_AUTH, _private_statement())
    acc = model.BloomAccumulator(bytes(3), 1, 1, 0.5)
    digest, size = proof_digest(PROFILE, lp), acc.bit_size
    assert (lp._digest, acc._bit_size) == (("sha256", digest), size)
    hashable = [lp, acc, *_value_objects()[:4]]  # the crypto values
    for obj in hashable + _value_objects()[4:]:
        for again in (replace(obj), copy.copy(obj), copy.deepcopy(obj),
                      pickle.loads(pickle.dumps(obj))):
            assert again == obj and type(again) is type(obj)
    for obj in hashable:
        assert hash(replace(obj)) == hash(copy.deepcopy(obj)) == hash(
            pickle.loads(pickle.dumps(obj))) == hash(obj)
    assert replace(lp)._digest is None and replace(acc)._bit_size is None
    assert pickle.loads(pickle.dumps(lp))._digest == lp._digest


# ---------------------------------------------------------------------------
# golden vectors: the byte layout of every tag, pinned
# ---------------------------------------------------------------------------

def _golden_objects():
    """One deterministic object per layout, built from fixed byte patterns
    so that no key or random draw enters the bytes."""
    from locprov.crypto import Commitment, Digest, Signature
    from locprov.model import (
        Endorsement, EndorsementStatement, LocationProof, LocationStatement,
        PrivateLocationStatement, RevealedEntry, bloom_signing_bytes,
        report_signing_bytes)

    def sig(profile, fill):
        return Signature(profile.scheme_id, bytes([fill]) * profile.signature_len)

    def digest(fill):
        return Digest(bytes([fill]) * PROFILE.digest_len)

    stmt = LocationStatement("u1", "cafe-7", 1_000)
    lsp = PrivateLocationStatement(
        "u1", "cafe-7", 1_000, (Commitment(digest(0xC1)), Commitment(digest(0xC2))),
        (b"\x01\x02\x03\x04", b"\x05\x06\x07\x08"), ("IL", "Chicago"))
    lp = LocationProof(stmt, sig(MODERN, 0xA1))
    plp = LocationProof(lsp, sig(MODERN, 0xA2))
    es = EndorsementStatement("w1", "u1", "cafe-7", 1_000, digest(0xD1), 1_005)
    att = TimestampAttestation(digest(0xD1), 1_005)
    endorsement = Endorsement(es, sig(MODERN, 0xB1), sig(LEGACY, 0xB2))
    elp = EndorsedLocationProof(lp, (endorsement,))
    link = HashChainLink(sig(MODERN, 0xE1))
    unsigned = BloomAccumulator(bytes(range(8)), 3, 20, 0.01)
    signed = BloomAccumulator(bytes(range(8)), 3, 20, 0.01, sig(LEGACY, 0xF1))
    hc_entry = ProvenanceEntry(elp, link)
    bloom_entry = ProvenanceEntry(elp, signed)
    # the report signature covers the accumulator, which carries none
    signed_report = EpochReport("cafe-7", 7, 7_000, 8_000, unsigned, sig(MODERN, 0xF2))
    revealed = RevealedEntry(4, ProvenanceEntry(
        EndorsedLocationProof(plp, (endorsement,)), link),
        ((2, "Chicago", b"\x05\x06\x07\x08"),))
    slot = ChainSlot("cafe-7", digest(0xD2), link)
    encode = canonical_encode
    return {
        "0x01-statement": encode(stmt),
        "0x12-private-statement": encode(lsp),
        "0x03-proof": encode(lp),
        "0x03-proof-legacy-signature": encode(LocationProof(stmt, sig(LEGACY, 0xA3))),
        "0x03-proof-private": encode(plp),
        "0x04-endorsement-statement": encode(es),
        "0x05-endorsement": encode(endorsement),
        "0x06-endorsed-proof": encode(elp),
        "0x07-entry-hashchain": encode(hc_entry),
        "0x07-entry-bloom": encode(bloom_entry),
        "0x0A-link": encode(link),
        "0x0B-bloom-signed": encode(signed),
        "0x0C-timestamp": encode(att),
        "0x0D-report-signed": encode(signed_report),
        "0x0E-revealed-entry-disclosed": encode(revealed),
        "0x0F-chain-slot": encode(slot),
        "0x10-revealed-subsequence": encode(
            RevealedSubsequence((revealed,), (slot, slot))),
        "0x20-sequence": encode([signed_report, stmt]),
        "0x20-sequence-empty": encode(()),
        # what is signed: statements as they are encoded, and the views
        "0x01-view-statement": encode(stmt),
        "0x12-view-private-statement": encode(lsp),
        "0x1B-view-bloom": bloom_signing_bytes(signed),
        "0x1D-view-report": report_signing_bytes(signed_report),
    }


GOLDEN_SHA256 = {
    "0x01-statement":
        "3f5e7cf3ced5bc459b76793196295bb57dd73f0a6183d06be3ea6120149c45a5",
    "0x12-private-statement":
        "2ace9f96fdc15b726614d050a20b87d8a3a0b23909a73e689e5935c0a178d08b",
    "0x03-proof":
        "dd4d6ba0f885495e35d1ddb055b5fa9df6b96d12345465b2a047145ebc2e0c4c",
    "0x03-proof-legacy-signature":
        "11de56984f19572ba21428ea6603b0f76b5f5e477c2114c835c49aa777b3298b",
    "0x03-proof-private":
        "efbb15c3ef525d7270e9c9bb9b16e1a285f0f6a582df84dddbb8ff09da3fbdc4",
    "0x04-endorsement-statement":
        "bc3f428e4cb52f2a26d25cf6b52ece6a6ab7d47d847bbf7a7f3d9ff0caa251d8",
    "0x05-endorsement":
        "965f0edb34e8086c6222c86d00d4f1608377d3873fc8952f83d674776c23537e",
    "0x06-endorsed-proof":
        "bc3f4d30d6afbe3196c045bea91773251b8aa9aedc601c0aa918b835f4df48da",
    "0x07-entry-hashchain":
        "da301d8b901cbb1d5051585a3317e8b1d2c17c076e9b5eaca90e24174e6ffe9b",
    "0x07-entry-bloom":
        "f21064cff92947d2afadccdd3f01226825c3465d793d96fecc66c7bd396d7cf8",
    "0x0A-link":
        "860663de8c94158d9c4a5882081411e81fc5c17e33052e0fae53f7ce5d8d1815",
    "0x0B-bloom-signed":
        "bfffc1f24a24199e83410b06ec63d52dad3738464ed46298f06bffecdd0c38ea",
    "0x0C-timestamp":
        "2279b896f41a6535846739b79502d87acd638f021085b15c9ea27d67d3612eb6",
    "0x0D-report-signed":
        "9b99fa9d8c6b3a42df5dc7fc3bbf8b59d683ab5e820d73c3fc497ae79160368e",
    "0x0E-revealed-entry-disclosed":
        "19c68adc332cb41e245e10c9432104e2d8f15a95f1b891ad686b5a408a5358ab",
    "0x0F-chain-slot":
        "de602c10125c8c7dd94bf04dc1c040ed3df627c9b9bc4b0be35a807fe54ca063",
    "0x10-revealed-subsequence":
        "904f7078082623a476936f88f1eadc9c2879fb49f35c64380ea5db28a7ce1364",
    "0x20-sequence":
        "b78632bb6587ce9973a0a6d7606e4598617f55b9ad5be12587ae6804229e60f6",
    "0x20-sequence-empty":
        "ccef7d892e752044c89d5471eac8af79087c0e04e45c9ae566b05be88de30d1c",
    "0x01-view-statement":
        "3f5e7cf3ced5bc459b76793196295bb57dd73f0a6183d06be3ea6120149c45a5",
    "0x12-view-private-statement":
        "2ace9f96fdc15b726614d050a20b87d8a3a0b23909a73e689e5935c0a178d08b",
    "0x1B-view-bloom":
        "69e9681d07c8d834d1a6f1f800fbde9dbdcf5ab807ae452169b649a443fa5740",
    "0x1D-view-report":
        "2f4127d0cd775f7b547199585b7145c6a6eebac79b3a7e684a7c95057c066108",
}


def test_golden_vectors_pin_every_layout():
    import hashlib
    got = {name: hashlib.sha256(data).hexdigest()
           for name, data in _golden_objects().items()}
    assert got == GOLDEN_SHA256


@pytest.mark.parametrize("view", ["0x1B-view-bloom", "0x1D-view-report"])
def test_signing_views_do_not_decode(view):
    body = _golden_objects()[view]
    with pytest.raises(EncodingError, match="unknown type tag"):
        canonical_decode(body, PROFILE)
    with pytest.raises(EncodingError, match="unknown type tag"):
        canonical_decode(bytes([0x20, 0, 0, 0, 1]) + body, PROFILE)


def test_golden_wire_vectors_decode_back():
    """Every vector but the views that are only signed decodes to an object
    that encodes to the same bytes."""
    for name, data in _golden_objects().items():
        if data[0] in model.SIGNING_VIEWS:
            continue
        assert canonical_encode(canonical_decode(data, PROFILE)) == data, name


def test_signed_objects_are_their_view_then_the_signature():
    """A signed accumulator, a signed report and a Bloom entry are written
    as what was signed, then the signature's scheme tag and bytes: no
    presence flag, and a report's accumulator carries no signature slot."""
    acc = BloomAccumulator(bytes(range(8)), 3, 20, 0.01,
                           Signature(LEGACY.scheme_id, bytes([0xF1]) * 40))
    report = EpochReport("cafe-7", 7, 7_000, 8_000, acc,
                         Signature(MODERN.scheme_id, bytes([0xF2]) * 64))
    acc_bytes = (b"\x0b" + model.bloom_signing_bytes(acc)[1:] + b"\x02"
                 + acc.authority_sig.data)
    assert canonical_encode(acc) == acc_bytes
    assert canonical_encode(report) == (
        b"\x0d" + model.report_signing_bytes(report)[1:] + b"\x01"
        + report.report_sig.data)
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    entry = ProvenanceEntry(EndorsedLocationProof(lp, (_endorsed(lp),)), acc)
    assert canonical_encode(entry) == (
        b"\x07" + canonical_encode(entry.elp) + acc_bytes)


@pytest.mark.parametrize("obj", [
    BloomAccumulator(bytes(2), 1, 1, 0.5),
    EpochReport("cafe-7", 7, 7_000, 8_000, BloomAccumulator(bytes(2), 1, 1, 0.5)),
], ids=["accumulator", "report"])
def test_unsigned_objects_do_not_encode(obj):
    """An object built before its signature has no wire form."""
    with pytest.raises(EncodingError, match="a signature is missing"):
        canonical_encode(obj)
