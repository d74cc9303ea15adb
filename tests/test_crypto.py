"""Primitive layer: signatures, digests, commitments, profiles."""

import random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import dsa
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.utils import (
    decode_dss_signature,
    encode_dss_signature,
)

from locprov.crypto import (
    CryptoError,
    LEGACY,
    MODERN,
    Signature,
    commitment_payload,
    derive_seed,
    get_profile,
    _DSA_G,
    _DSA_P,
    _DSA_Q,
    _ED25519_KEY_CACHE_SIZE,
    _ed25519_signing_key,
)

PROFILES = [MODERN, LEGACY]

SEED_A = bytes(range(32))
SEED_B = bytes(range(1, 33))


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_keygen_deterministic(profile):
    assert profile.keygen(SEED_A) == profile.keygen(SEED_A)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_keygen_distinct_seeds_distinct_keys(profile):
    assert (profile.keygen(SEED_A).public_key
            != profile.keygen(SEED_B).public_key)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_keygen_roundtrip_sign_verify(profile):
    kp = profile.keygen(SEED_A)
    sig = profile.sign(kp.private_key, b"round trip")
    assert profile.verify(kp.public_key, b"round trip", sig)


def test_keygen_rejects_bad_seed_length():
    with pytest.raises(CryptoError):
        MODERN.keygen(b"short")


def test_unknown_profile_rejected():
    with pytest.raises(CryptoError):
        get_profile("dsa512")


# ---------------------------------------------------------------------------
# sign / verify
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_verify_rejects_flipped_message_bit(profile):
    kp = profile.keygen(SEED_A)
    msg = b"the user was here"
    sig = profile.sign(kp.private_key, msg)
    tampered = bytes([msg[0] ^ 0x01]) + msg[1:]
    assert not profile.verify(kp.public_key, tampered, sig)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_verify_rejects_other_party_key(profile):
    kp1 = profile.keygen(SEED_A)
    kp2 = profile.keygen(SEED_B)
    sig = profile.sign(kp1.private_key, b"msg")
    assert not profile.verify(kp2.public_key, b"msg", sig)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_verify_rejects_truncated_signature(profile):
    kp = profile.keygen(SEED_A)
    sig = profile.sign(kp.private_key, b"msg")
    truncated = Signature(sig.scheme_id, sig.data[:-1])
    assert not profile.verify(kp.public_key, b"msg", truncated)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_empty_message_signs_and_verifies(profile):
    kp = profile.keygen(SEED_A)
    assert profile.verify(kp.public_key, b"", profile.sign(kp.private_key, b""))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_signature_length_constant_over_1000_messages(profile):
    kp = profile.keygen(SEED_A)
    rng = random.Random(17)
    for _ in range(1000):
        msg = rng.randbytes(rng.randrange(0, 200))
        assert len(profile.sign(kp.private_key, msg).data) == profile.signature_len


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_signing_is_deterministic(profile):
    # byte-identical scenario replays depend on this
    kp = profile.keygen(SEED_A)
    assert profile.sign(kp.private_key, b"x") == profile.sign(kp.private_key, b"x")


def test_cached_ed25519_signer_matches_cryptography():
    """Signatures through the key cache equal those of a key loaded afresh,
    on cache misses, hits, and a key loaded again after eviction."""
    keys = [MODERN.keygen(derive_seed(SEED_A, f"cache-{i}"))
            for i in range(_ED25519_KEY_CACHE_SIZE + 1)]

    def check(kp, msg):
        expected = Ed25519PrivateKey.from_private_bytes(kp.private_key).sign(msg)
        assert MODERN.sign(kp.private_key, msg).data == expected

    _ed25519_signing_key.cache_clear()
    for i, kp in enumerate(keys):           # one more key than the cache holds
        check(kp, b"miss %d" % i)
        check(keys[max(i - 1, 0)], b"hit %d" % i)
    info = _ed25519_signing_key.cache_info()
    assert info.misses == len(keys) and info.hits == len(keys)
    assert info.currsize == _ED25519_KEY_CACHE_SIZE
    check(keys[0], b"first key, evicted")
    assert _ed25519_signing_key.cache_info().misses == len(keys) + 1

    with pytest.raises(CryptoError):
        MODERN.sign(keys[0].private_key[:31], b"x")


# ---------------------------------------------------------------------------
# legacy DSA cross-checked against an independent implementation
# ---------------------------------------------------------------------------

def _openssl_dsa_keys(kp):
    params = dsa.DSAParameterNumbers(p=_DSA_P, q=_DSA_Q, g=_DSA_G)
    y = int.from_bytes(kp.public_key, "big")
    x = int.from_bytes(kp.private_key, "big")
    pub_numbers = dsa.DSAPublicNumbers(y, params)
    priv_numbers = dsa.DSAPrivateNumbers(x, pub_numbers)
    return priv_numbers.private_key(), pub_numbers.public_key()


def test_legacy_domain_parameters_are_consistent():
    assert _DSA_P.bit_length() == 1024
    assert _DSA_Q.bit_length() == 160
    assert (_DSA_P - 1) % _DSA_Q == 0
    assert pow(_DSA_G, _DSA_Q, _DSA_P) == 1
    assert _DSA_G != 1


def test_legacy_signatures_verify_under_openssl():
    kp = LEGACY.keygen(SEED_A)
    _, openssl_pub = _openssl_dsa_keys(kp)
    for msg in (b"", b"a", b"independent oracle", bytes(1000)):
        sig = LEGACY.sign(kp.private_key, msg)
        r = int.from_bytes(sig.data[:20], "big")
        s = int.from_bytes(sig.data[20:], "big")
        openssl_pub.verify(encode_dss_signature(r, s), msg, hashes.SHA1())


def test_legacy_verifies_openssl_signatures():
    kp = LEGACY.keygen(SEED_A)
    openssl_priv, _ = _openssl_dsa_keys(kp)
    for msg in (b"", b"other direction", bytes(257)):
        der = openssl_priv.sign(msg, hashes.SHA1())
        r, s = decode_dss_signature(der)
        raw = r.to_bytes(20, "big") + s.to_bytes(20, "big")
        assert LEGACY.verify(kp.public_key, msg, Signature("dsa1024-sha1", raw))


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

def test_digest_deterministic_and_fixed_length():
    for profile in PROFILES:
        assert profile.digest(b"m") == profile.digest(b"m")
        assert len(profile.digest(b"")) == profile.digest_len


def test_digest_matches_published_vectors():
    # FIPS 180 example vectors for the underlying hash functions
    assert (LEGACY.digest(b"abc").data.hex()
            == "a9993e364706816aba3e25717850c26c9cd0d89d")
    assert (MODERN.digest(b"abc").data.hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


# ---------------------------------------------------------------------------
# commitments
# ---------------------------------------------------------------------------

def test_commit_is_digest_of_canonical_payload():
    c = LEGACY.commit(b"Chicago", b"\x01\x02\x03\x04")
    assert c.digest == LEGACY.digest(commitment_payload(b"Chicago", b"\x01\x02\x03\x04"))


def test_commit_verify_roundtrip_and_tamper():
    nonce = b"\xaa\xbb\xcc\xdd"
    c = MODERN.commit(b"Block 5", nonce)
    assert MODERN.verify_commitment(c, b"Block 5", nonce)
    assert not MODERN.verify_commitment(c, b"Block 6", nonce)
    assert not MODERN.verify_commitment(c, b"Block 5", b"\xaa\xbb\xcc\xde")


def test_commit_rejects_wrong_nonce_length():
    with pytest.raises(CryptoError):
        MODERN.commit(b"v", b"\x00" * 5)
    assert not MODERN.verify_commitment(MODERN.commit(b"v", b"\x00" * 4),
                                        b"v", b"\x00" * 5)


def test_commit_binding_exhaustive_one_byte_values():
    # at toy scale, no other (value, nonce) pair opens the commitment
    nonce = b"\x10\x20\x30\x40"
    value = b"\x2a"
    c = LEGACY.commit(value, nonce)
    for other in range(256):
        if bytes([other]) != value:
            assert not LEGACY.verify_commitment(c, bytes([other]), nonce)


def test_commit_binding_sampled_100k():
    rng = random.Random(99)
    value, nonce = rng.randbytes(8), rng.randbytes(4)
    c = MODERN.commit(value, nonce)
    hits = 0
    for _ in range(100_000):
        v2, r2 = rng.randbytes(8), rng.randbytes(4)
        if (v2, r2) == (value, nonce):
            continue
        if MODERN.verify_commitment(c, v2, r2):
            hits += 1
    assert hits == 0


def test_derive_seed_is_stable_and_label_separated():
    master = bytes(32)
    assert derive_seed(master, "a") == derive_seed(master, "a")
    assert derive_seed(master, "a") != derive_seed(master, "b")
    assert len(derive_seed(master, "a")) == 32
