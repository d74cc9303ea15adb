"""Data model: constructors, canonical encoding, disclosure."""

import random

import pytest

from locprov.crypto import LEGACY, MODERN
from locprov.model import (
    BindingError,
    BloomAccumulator,
    ChainSlot,
    EncodingError,
    EndorsedLocationProof,
    EpochReport,
    HashChainLink,
    ProvenanceChain,
    ProvenanceEntry,
    RevealedSubsequence,
    TimestampAttestation,
    ValidationError,
    WindowError,
    assemble_elp,
    canonical_decode,
    canonical_encode,
    make_endorsement,
    make_private_statement,
    make_proof,
    make_revealed_entry,
    make_statement,
    proof_digest,
    reveal_granularity,
    statement_signing_bytes,
)

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
    # commitment (20) plus nonce (4) under the 40-byte-signature profile
    rng = random.Random(5)
    sizes = []
    for n in (1, 2, 3, 6):
        lsp = make_private_statement(LEGACY, "u1", "cafe-7", 100,
                                     [f"g{i}" for i in range(n)], rng)
        sizes.append((n, len(canonical_encode(lsp))))
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
                          statement_signing_bytes(lp.statement),
                          lp.authority_sig)


def test_mutated_statement_fails_verification():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    mutated = make_statement("u1", "cafe-7", 101)
    assert not PROFILE.verify(KEYS_AUTH.public_key,
                              statement_signing_bytes(mutated),
                              lp.authority_sig)


def test_private_proof_signature_ignores_openings():
    from dataclasses import replace
    lsp = _private_statement()
    lp = make_proof(PROFILE, KEYS_AUTH, lsp)
    stripped = replace(lsp, nonces=(), granularity_values=())
    assert PROFILE.verify(KEYS_AUTH.public_key,
                          statement_signing_bytes(stripped),
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
        return lsp
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
    slot = ChainSlot(rng.randrange(1, 10**6), loc, proof_digest(PROFILE, lp),
                     link)
    if kind == 6:
        return slot
    if kind in (7, 8):
        # a blinded entry with a random subset of its openings disclosed
        lsp = make_private_statement(PROFILE, user, loc, t,
                                     ["IL", "Chicago", "Block 5"], rng)
        plp = make_proof(PROFILE, KEYS_AUTH, lsp)
        pelp = EndorsedLocationProof(plp, (_make_endorsement_at(plp, t),))
        revealed = make_revealed_entry(
            slot.position, ProvenanceEntry(pelp, link),
            disclose=rng.sample([1, 2, 3], rng.randrange(4)))
        if kind == 7:
            return revealed
        return RevealedSubsequence("hashchain", (revealed,), (slot,))
    reports = tuple(_random_report(rng, loc) for _ in range(rng.randrange(3)))
    if kind == 9:
        return reports[0] if reports else _random_report(rng, loc)
    return reports


def _random_report(rng: random.Random, loc: str) -> EpochReport:
    epoch = rng.randrange(10**6)
    acc = BloomAccumulator(
        bits=rng.randbytes(rng.randrange(1, 40)), hash_count=rng.randrange(1, 12),
        capacity=rng.randrange(1, 5000), target_fpr=rng.random(),
        inserted_count=rng.randrange(100),
        authority_sig=rng.choice(
            [None, PROFILE.sign(KEYS_AUTH.private_key, rng.randbytes(8))]))
    sig = rng.choice([None, PROFILE.sign(KEYS_AUTH.private_key, b"report")])
    return EpochReport(loc, epoch, epoch * 1000, epoch * 1000 + 1000, acc, sig)


def _make_endorsement_at(lp, endorsed_at):
    att = TimestampAttestation(proof_digest(PROFILE, lp), endorsed_at)
    time_sig = PROFILE.sign(KEYS_AUTH.private_key, canonical_encode(att))
    return make_endorsement(PROFILE, KEYS_WITNESS, "w1", lp, endorsed_at,
                            time_sig, WINDOW)


def test_roundtrip_fuzz_1000_objects():
    """decode(encode(x)) == x; granularity value strings are user-side
    context excluded from both encoding and equality."""
    rng = random.Random(123)
    for _ in range(1000):
        obj = _random_object(rng)
        data = canonical_encode(obj)
        assert canonical_decode(data, PROFILE) == obj


def test_roundtrip_chain_and_bloom():
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    elp = EndorsedLocationProof(lp, (_endorsed(lp),))
    acc = BloomAccumulator(bits=bytes(16), hash_count=3, capacity=10,
                           target_fpr=0.01, inserted_count=2,
                           authority_sig=lp.authority_sig)
    chain = ProvenanceChain("bloom", (ProvenanceEntry(elp, acc),))
    assert canonical_decode(canonical_encode(chain), PROFILE) == chain


def _unsigned_bloom_encoding() -> bytes:
    return canonical_encode(BloomAccumulator(bytes(2), 1, 1, 0.5))


@pytest.mark.parametrize("data, error", [
    pytest.param(b"", "truncated", id="empty"),
    pytest.param(bytes([0x03]), "truncated", id="proof-without-statement"),
    pytest.param(bytes([0x20, 0, 0, 0, 1]), "truncated",
                 id="sequence-missing-item"),
    pytest.param(bytes([0x20, 0, 0, 0, 1, 0x20, 0, 0, 0, 0]), "do not nest",
                 id="nested-sequence"),
    pytest.param(_unsigned_bloom_encoding()[:-1] + b"\x02", "presence flag",
                 id="signature-flag-2"),
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
                msg = statement_signing_bytes(
                    make_statement(f"u{rng.randrange(9)}", "L", rng.randrange(10**6)))
                sig = profile.sign(auth.private_key, msg)
                key = auth.public_key
            elif choice == 1:
                lsp = make_private_statement(
                    profile, "u1", "L", rng.randrange(10**6),
                    [f"g{i}" for i in range(rng.randrange(1, 4))], rng)
                msg = statement_signing_bytes(lsp)
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
    lp = make_proof(PROFILE, KEYS_AUTH, _statement())
    elp = assemble_elp(PROFILE, lp, [_endorsed(lp)])
    link = HashChainLink(PROFILE.sign(KEYS_AUTH.private_key, b"x"))
    chain = ProvenanceChain("bloom")
    with pytest.raises(ValidationError):
        chain.append(ProvenanceEntry(elp, link))
