"""Output checks made apart from the program.

Every expected value here is recomputed from the formats the program
documents, with ``hashlib``, ``struct`` and the ``cryptography`` package
called directly. Nothing is taken from the program's own encoders, verifiers
or work counters: the only things read from it are the artifacts under test
(entries, reports, audit verdicts) and the public keys of its directory.

The layouts reimplemented here are those of the modern profile (Ed25519,
SHA-256), which is the profile every workload runs:

* canonical encoding (``model`` docstring): 1-byte tag, ids as 4-byte
  big-endian length plus UTF-8, times as 8-byte big-endian, digests and
  commitments raw, signatures as a scheme tag (0x01 for Ed25519) plus the
  raw signature;
* hash-chain link payload (``hashchain.link_payload``): the proof digest,
  length-prefixed, then the predecessor link's encoding or 20 zero bytes;
* Bloom index derivation (``bloom`` docstring): h1 from bytes [0, 8) of
  H(d || "A"), h2 from bytes [8, 16) of H(d || "B"), position
  (h1 + i * h2) mod m, bit j at byte j // 8, mask 1 << (j % 8).
"""

from __future__ import annotations

import hashlib
import math
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey


class CheckFailed(AssertionError):
    """A program output disagrees with the independently computed value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent encodings
# ---------------------------------------------------------------------------

ED25519_TAG = b"\x01"
GENESIS_SENTINEL = bytes(20)


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


def _u64(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _text(s: str) -> bytes:
    raw = s.encode("utf-8")
    return _u32(len(raw)) + raw


def _sig(signature) -> bytes:
    require(signature.scheme_id == "ed25519",
            f"unexpected signature scheme {signature.scheme_id!r}")
    require(len(signature.data) == 64, "Ed25519 signature is not 64 bytes")
    return ED25519_TAG + signature.data


def statement_signing_bytes(stmt) -> bytes:
    """What the authority signs: tag 0x01 for a plain statement; tag 0x12
    and the commitments, never the nonces, for a blinded one."""
    head = _text(stmt.user_id) + _text(stmt.location_id) + _u64(stmt.visit_time)
    commitments = getattr(stmt, "commitments", None)
    if commitments is None:
        return b"\x01" + head
    return (b"\x12" + head + _u32(len(commitments))
            + b"".join(c.digest.data for c in commitments))


def proof_bytes(lp) -> bytes:
    return b"\x03" + statement_signing_bytes(lp.statement) + _sig(lp.authority_sig)


def proof_digest(lp) -> bytes:
    return hashlib.sha256(proof_bytes(lp)).digest()


def endorsement_statement_bytes(es) -> bytes:
    return (b"\x04" + _text(es.witness_id) + _text(es.user_id)
            + _text(es.location_id) + _u64(es.visit_time)
            + es.proof_digest.data + _u64(es.endorsed_at))


def timestamp_bytes(digest: bytes, endorsed_at: int) -> bytes:
    return b"\x0c" + digest + _u64(endorsed_at)


def link_payload(digest: bytes, prev_link) -> bytes:
    prefix = _u32(len(digest)) + digest
    if prev_link is None:
        return prefix + GENESIS_SENTINEL
    return prefix + b"\x0a" + _sig(prev_link.signature)


def bloom_bit_size(capacity: int, target_fpr: float) -> int:
    return math.ceil(capacity * math.log(1.0 / target_fpr) / math.log(2) ** 2)


def bloom_positions(digest: bytes, m: int, k: int) -> list[int]:
    h1 = int.from_bytes(hashlib.sha256(digest + b"A").digest()[0:8], "big")
    h2 = int.from_bytes(hashlib.sha256(digest + b"B").digest()[8:16], "big")
    return [(h1 + i * h2) % m for i in range(k)]


def bloom_member(acc, digest: bytes) -> bool:
    m = bloom_bit_size(acc.capacity, acc.target_fpr)
    require(len(acc.bits) == (m + 7) // 8,
            f"accumulator is {len(acc.bits)} bytes, geometry implies "
            f"{(m + 7) // 8}")
    return all(acc.bits[j // 8] & (1 << (j % 8))
               for j in bloom_positions(digest, m, acc.hash_count))


def bloom_is_subset(a: bytes, b: bytes) -> bool:
    a_int = int.from_bytes(a, "little")
    return a_int & int.from_bytes(b, "little") == a_int


def bloom_signing_bytes(acc) -> bytes:
    return (b"\x1b" + _u32(len(acc.bits)) + acc.bits + _u32(acc.hash_count)
            + _u32(acc.capacity) + struct.pack(">d", acc.target_fpr))


def report_signing_bytes(report) -> bytes:
    return (b"\x1d" + _text(report.location_id) + _u64(report.epoch_id)
            + _u64(report.start) + _u64(report.end)
            + bloom_signing_bytes(report.accumulator))


def ed25519_ok(public_key: bytes, message: bytes, signature) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(
            signature.data, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# ---------------------------------------------------------------------------
# Checks on issued histories
# ---------------------------------------------------------------------------

def is_bloom(entry) -> bool:
    return hasattr(entry.ordering, "bits")


def check_entry_signatures(entry, prev_entry, pubkeys: dict) -> None:
    """Verify every signature an entry carries with Ed25519 directly, over
    independently encoded messages."""
    lp = entry.elp.proof
    stmt = lp.statement
    authority = pubkeys[stmt.location_id]
    require(ed25519_ok(authority, statement_signing_bytes(stmt), lp.authority_sig),
            f"authority signature of {stmt.user_id}@{stmt.visit_time} invalid")
    digest = proof_digest(lp)
    for e in entry.elp.endorsements:
        es = e.statement
        require(es.proof_digest.data == digest,
                "endorsement bound to another proof digest")
        require(ed25519_ok(pubkeys[es.witness_id],
                           endorsement_statement_bytes(es), e.witness_sig),
                "witness signature invalid")
        require(ed25519_ok(authority, timestamp_bytes(digest, es.endorsed_at),
                           e.authority_time_sig),
                "timestamp signature invalid")
    if is_bloom(entry):
        require(ed25519_ok(authority, bloom_signing_bytes(entry.ordering),
                           entry.ordering.authority_sig),
                "accumulator signature invalid")
    else:
        prev_link = prev_entry.ordering if prev_entry is not None else None
        require(ed25519_ok(authority, link_payload(digest, prev_link),
                           entry.ordering.signature),
                "hash-chain link signature invalid")


def check_chain(entries, pubkeys: dict, sample: set[int]) -> None:
    """Ordering metadata of every entry of one user's chain, and all
    signatures of the entries whose indexes are in ``sample``."""
    prev = None
    for i, entry in enumerate(entries):
        digest = proof_digest(entry.elp.proof)
        if is_bloom(entry):
            require(bloom_member(entry.ordering, digest),
                    f"accumulator at position {i + 1} lacks its own proof")
            if prev is not None:
                require(bloom_is_subset(prev.ordering.bits, entry.ordering.bits),
                        f"accumulator at position {i} is not a subset of "
                        f"position {i + 1}")
        else:
            prev_link = prev.ordering if prev is not None else None
            require(entry.ordering.signed_payload == link_payload(digest, prev_link),
                    f"link payload at position {i + 1} does not match the "
                    "documented layout")
        if i in sample:
            check_entry_signatures(entry, prev, pubkeys)
        prev = entry


def check_epoch_inclusion(entries, reports, epoch_len_ms: int,
                          pubkeys: dict) -> None:
    """Every issued digest is in the report of the epoch its (honest,
    unskewed) authority issued it in."""
    by_epoch = {(r.location_id, r.epoch_id): r for r in reports}
    verified = set()
    for entry in entries:
        stmt = entry.elp.proof.statement
        key = (stmt.location_id, stmt.visit_time // epoch_len_ms)
        report = by_epoch.get(key)
        require(report is not None, f"no epoch report for {key}")
        require((report.start, report.end)
                == (key[1] * epoch_len_ms, (key[1] + 1) * epoch_len_ms),
                f"epoch report {key} has wrong bounds")
        if key not in verified:
            require(ed25519_ok(pubkeys[stmt.location_id],
                               report_signing_bytes(report), report.report_sig),
                    f"epoch report {key} signature invalid")
            verified.add(key)
        require(bloom_member(report.accumulator, proof_digest(entry.elp.proof)),
                f"digest of {stmt.user_id}@{stmt.visit_time} missing from "
                f"epoch report {key}")


def idle_epochs(entries, epoch_len_ms: int) -> int:
    """Input property: (authority, epoch) pairs inside an authority's span
    of activity in which no proof was issued."""
    busy: dict[str, set[int]] = {}
    for entry in entries:
        stmt = entry.elp.proof.statement
        busy.setdefault(stmt.location_id, set()).add(
            stmt.visit_time // epoch_len_ms)
    return sum(max(e) - min(e) + 1 - len(e) for e in busy.values())


def chains_fingerprint(chains) -> bytes:
    """Hash of every signature and accumulator image in a set of chains, to
    show that a repeated round issued exactly what the checked round did."""
    h = hashlib.sha256()
    for entries in chains:
        for entry in entries:
            h.update(entry.elp.proof.authority_sig.data)
            for e in entry.elp.endorsements:
                h.update(e.witness_sig.data + e.authority_time_sig.data)
            if is_bloom(entry):
                h.update(entry.ordering.bits + entry.ordering.authority_sig.data)
            else:
                h.update(entry.ordering.signature.data)
    return h.digest()


# ---------------------------------------------------------------------------
# Checks on audit outcomes
# ---------------------------------------------------------------------------

def equal_neighbours(presented) -> tuple[int, int] | None:
    """First pair of consecutively presented Bloom entries whose
    accumulators are identical: the case ``bloom_order_verify`` wrongly
    rejects (an honest insertion that set no new bit)."""
    prev = None
    for revealed in presented:
        if not is_bloom(revealed.entry):
            return None
        if prev is not None and prev.entry.ordering.bits == revealed.entry.ordering.bits:
            return prev.position, revealed.position
        prev = revealed
    return None


def rendered_verdict(text: str) -> tuple[bool, str | None]:
    """Pass/fail and threat class as printed by the text report."""
    lines = text.splitlines()
    require(lines and lines[0] in ("audit result: PASS", "audit result: FAIL"),
            f"text report does not start with a verdict: {lines[:1]}")
    threat = None
    for line in lines:
        if line.startswith("  threat class: "):
            threat = line[len("  threat class: "):]
    return lines[0].endswith("PASS"), threat
