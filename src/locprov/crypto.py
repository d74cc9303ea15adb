"""Pluggable cryptographic primitives: signatures, hashing, commitments.

Everything above this module is primitive-agnostic. Two built-in profiles:

* ``modern`` (default) -- Ed25519 signatures (64 bytes) and SHA-256
  digests (32 bytes).
* ``legacy`` -- 1024-bit DSA with raw 40-byte (r || s) signatures and
  SHA-1 digests (20 bytes). This profile exists to reproduce the byte
  counts of older DSA/SHA-1 deployments in space benchmarks. It is NOT
  suitable for protecting anything of value today.

All operations are deterministic: key generation expands a caller-supplied
32-byte seed, Ed25519 signing is deterministic by construction, and DSA
signing derives its per-message secret with the HMAC construction of
RFC 6979. Determinism lets simulation scenarios replay byte-identically.

The profile interface is also the seam for alternative signers: a witness
that wants to endorse anonymously would register a pseudonymous identity
under a scheme whose verification key does not identify a person (a group
signature, say). No such construction ships here; everything above this
module only ever calls sign/verify through a profile.

Ed25519 private keys are loaded once: loading one derives its public key
with a scalar multiplication, which costs more than the signature itself.
Loaded keys sit in an LRU cache keyed by the 32 private-key bytes and
bounded by a fixed size that holds every party of a simulated world; a key
evicted from it is simply loaded again. Public keys are not cached: loading
one needs no scalar multiplication, and load-and-verify measured level with
verify on a key object loaded beforehand, so a cache would hold memory and
save nothing.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.exceptions import InvalidSignature


class CryptoError(Exception):
    """Raised on unknown profiles or malformed key material."""


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class KeyPair:
    scheme_id: str
    public_key: bytes
    private_key: bytes


@dataclass(frozen=True, slots=True)
class Signature:
    scheme_id: str
    data: bytes


@dataclass(frozen=True, slots=True)
class Digest:
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True, slots=True)
class Commitment:
    digest: Digest


# ---------------------------------------------------------------------------
# Fixed 1024-bit DSA domain parameters (legacy profile)
# ---------------------------------------------------------------------------
# Generated once with a standard DSA parameter generator and frozen here so
# that keys derived from seeds are stable across releases. p and q are prime,
# q divides p - 1, and g has order q (asserted in the test suite against an
# independent implementation).

_DSA_P = int(
    "b6608b499b1155e078f74c46f0c483bb451b2fc9a724f192c324767c66d30b1c"
    "d90fcd5cd40455c8fc4acb43f86084e4f565cb394e584b8c4a8ba33ba8f9c479"
    "5f9f25973d3e19436d3e661daa075307af938cb1a8418da986af581a35d3fe36"
    "c68da6ecc38bb7f87bd0813642b6b712e47c76a569bd1c70ef03cce13568ff27",
    16,
)
_DSA_Q = int("fc4fbb81f528c478d6ad0b248d1101c150651803", 16)
_DSA_G = int(
    "7224e4d16b35e78dc07af85b7bb9783b17d1f1f67d4ae05d70708cfbcb84e430"
    "8b25fe8283a00660a9c0d48ba3d019a8687657fe61b28d237bc0264551eb7cdb"
    "d2fc07746fc6d92894980584c956d4ce10ed6a59da7508702dec943fb5e0ed6c"
    "f3339b51fa951e52081a647c538cfc38e8b61faa5e09564626f0cabb18a8c98f",
    16,
)

_DSA_QLEN = 20   # q is 160 bits
_DSA_PLEN = 128  # p is 1024 bits


def _dsa_hash_int(message: bytes) -> int:
    # SHA-1 output is exactly qlen bits, so bits2int is the identity.
    return int.from_bytes(hashlib.sha1(message).digest(), "big")


def _rfc6979_nonce(x: int, h1: bytes) -> int:
    """Derive the DSA per-message secret k deterministically (RFC 6979)."""
    q = _DSA_Q
    qlen_bytes = _DSA_QLEN
    # bits2octets(h1): reduce mod q, left-pad to qlen
    h_int = int.from_bytes(h1, "big") % q
    h_octets = h_int.to_bytes(qlen_bytes, "big")
    x_octets = x.to_bytes(qlen_bytes, "big")

    v = b"\x01" * 20
    k = b"\x00" * 20
    k = hmac.new(k, v + b"\x00" + x_octets + h_octets, hashlib.sha1).digest()
    v = hmac.new(k, v, hashlib.sha1).digest()
    k = hmac.new(k, v + b"\x01" + x_octets + h_octets, hashlib.sha1).digest()
    v = hmac.new(k, v, hashlib.sha1).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha1).digest()
        candidate = int.from_bytes(v, "big")
        if 1 <= candidate < q:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha1).digest()
        v = hmac.new(k, v, hashlib.sha1).digest()


def _dsa_keypair(seed: bytes) -> tuple[bytes, bytes]:
    expanded = hashlib.sha256(seed + b"locprov/dsa1024/x").digest()
    x = int.from_bytes(expanded, "big") % (_DSA_Q - 1) + 1
    y = pow(_DSA_G, x, _DSA_P)
    return y.to_bytes(_DSA_PLEN, "big"), x.to_bytes(_DSA_QLEN, "big")


def _dsa_sign(private_key: bytes, message: bytes) -> bytes:
    if len(private_key) != _DSA_QLEN:
        raise CryptoError("malformed dsa1024 private key")
    x = int.from_bytes(private_key, "big")
    if not 1 <= x < _DSA_Q:
        raise CryptoError("dsa1024 private key out of range")
    h1 = hashlib.sha1(message).digest()
    z = _dsa_hash_int(message)
    k = _rfc6979_nonce(x, h1)
    while True:
        r = pow(_DSA_G, k, _DSA_P) % _DSA_Q
        if r != 0:
            s = pow(k, -1, _DSA_Q) * (z + x * r) % _DSA_Q
            if s != 0:
                break
        # Vanishing r or s is astronomically unlikely; re-derive from a
        # tweaked transcript rather than looping on the same k.
        k = _rfc6979_nonce(x, hashlib.sha1(h1 + b"retry").digest())
    return r.to_bytes(_DSA_QLEN, "big") + s.to_bytes(_DSA_QLEN, "big")


def _dsa_verify(public_key: bytes, message: bytes, sig: bytes) -> bool:
    if len(public_key) != _DSA_PLEN or len(sig) != 2 * _DSA_QLEN:
        return False
    y = int.from_bytes(public_key, "big")
    if not 1 < y < _DSA_P:
        return False
    r = int.from_bytes(sig[:_DSA_QLEN], "big")
    s = int.from_bytes(sig[_DSA_QLEN:], "big")
    if not (0 < r < _DSA_Q and 0 < s < _DSA_Q):
        return False
    z = _dsa_hash_int(message)
    w = pow(s, -1, _DSA_Q)
    u1 = z * w % _DSA_Q
    u2 = r * w % _DSA_Q
    v = pow(_DSA_G, u1, _DSA_P) * pow(y, u2, _DSA_P) % _DSA_P % _DSA_Q
    return v == r


def _ed25519_keypair(seed: bytes) -> tuple[bytes, bytes]:
    private = hashlib.sha256(seed + b"locprov/ed25519").digest()
    key = Ed25519PrivateKey.from_private_bytes(private)
    return key.public_key().public_bytes_raw(), private


# Loaded signing keys kept by _ed25519_signing_key; a world holds one key
# per authority, witness and user.
_ED25519_KEY_CACHE_SIZE = 256


@lru_cache(maxsize=_ED25519_KEY_CACHE_SIZE)
def _ed25519_signing_key(private_key: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(private_key)


def _ed25519_sign(private_key: bytes, message: bytes) -> bytes:
    if len(private_key) != 32:
        raise CryptoError("malformed ed25519 private key")
    return _ed25519_signing_key(bytes(private_key)).sign(message)


def _ed25519_verify(public_key: bytes, message: bytes, sig: bytes) -> bool:
    if len(public_key) != 32 or len(sig) != 64:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(sig, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CryptoProfile:
    """Bundle of primitive choices plus their fixed output lengths: a
    seed-to-(public, private) ``keypair`` and raw-byte sign and verify."""

    name: str
    scheme_id: str
    hash_name: str
    digest_len: int
    signature_len: int
    keypair: Callable[[bytes], tuple[bytes, bytes]]
    raw_sign: Callable[[bytes, bytes], bytes]
    raw_verify: Callable[[bytes, bytes, bytes], bool]
    # commitment nonce length, the same in every profile
    nonce_len = 4

    def keygen(self, seed: bytes) -> KeyPair:
        """Derive a keypair from a 32-byte seed. Same seed, same keys."""
        if len(seed) != 32:
            raise CryptoError("seed must be exactly 32 bytes")
        pub, priv = self.keypair(seed)
        return KeyPair(scheme_id=self.scheme_id, public_key=pub, private_key=priv)

    def sign(self, private_key: bytes, message: bytes) -> Signature:
        return Signature(scheme_id=self.scheme_id,
                         data=self.raw_sign(private_key, message))

    def verify(self, public_key: bytes, message: bytes, sig: Signature) -> bool:
        """True iff sig was produced over exactly message by the matching key.

        Malformed inputs return False rather than raising.
        """
        if not isinstance(sig, Signature) or sig.scheme_id != self.scheme_id:
            return False
        return self.raw_verify(public_key, message, sig.data)

    def digest(self, message: bytes) -> Digest:
        return Digest(hashlib.new(self.hash_name, message).digest())

    def commit(self, value: bytes, nonce: bytes) -> Commitment:
        """Hash commitment over the canonical (value, nonce) concatenation."""
        if len(nonce) != self.nonce_len:
            raise CryptoError(
                f"nonce must be {self.nonce_len} bytes, got {len(nonce)}"
            )
        return Commitment(self.digest(commitment_payload(value, nonce)))

    def verify_commitment(self, c: Commitment, value: bytes, nonce: bytes) -> bool:
        if len(nonce) != self.nonce_len:
            return False
        return self.commit(value, nonce) == c


def commitment_payload(value: bytes, nonce: bytes) -> bytes:
    """Canonical encoding hashed by commit(): length-prefixed value, then nonce."""
    return (
        b"\x09"
        + len(value).to_bytes(4, "big")
        + value
        + len(nonce).to_bytes(4, "big")
        + nonce
    )


MODERN = CryptoProfile(
    name="modern",
    scheme_id="ed25519",
    hash_name="sha256",
    digest_len=32,
    signature_len=64,
    keypair=_ed25519_keypair,
    raw_sign=_ed25519_sign,
    raw_verify=_ed25519_verify,
)

LEGACY = CryptoProfile(
    name="legacy",
    scheme_id="dsa1024-sha1",
    hash_name="sha1",
    digest_len=20,
    signature_len=40,
    keypair=_dsa_keypair,
    raw_sign=_dsa_sign,
    raw_verify=_dsa_verify,
)

_PROFILES = {p.name: p for p in (MODERN, LEGACY)}


def get_profile(name: str) -> CryptoProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise CryptoError(f"unknown crypto profile {name!r}") from None


def derive_seed(master: bytes, label: str) -> bytes:
    """Expand a master seed into an independent 32-byte keygen seed."""
    return hashlib.sha256(master + b"|" + label.encode("utf-8")).digest()
