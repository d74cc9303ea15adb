"""Signed hash-chain ordering: construction, verification, tamper sweeps."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from locprov.crypto import LEGACY, MODERN
from locprov.fanout import batched
from locprov.hashchain import (
    GENESIS_SENTINEL,
    chain_extend,
    chain_genesis,
    chain_verify_subsequence,
    verify_link,
)
from locprov.model import (
    ChainSlot,
    RevealedSubsequence,
    OrderingVerdict,
    canonical_encode,
    make_proof,
    make_statement,
    make_revealed_subsequence,
    proof_digest,
    ORDER_OK,
    ORDER_REORDERED,
    ORDER_INCOMPLETE,
)
from locprov.protocol import World

PROFILE = MODERN
AUTH = PROFILE.keygen(bytes(range(32)))


def _proof(i, authority=AUTH, location="cafe-7"):
    return make_proof(PROFILE, authority, make_statement("u1", location, 100 + i))


def _build_links(n):
    proofs = [_proof(i) for i in range(n)]
    links = [chain_genesis(PROFILE, AUTH, proofs[0])]
    for lp in proofs[1:]:
        links.append(chain_extend(PROFILE, AUTH, lp, links[-1]))
    return proofs, links


def _slots(proofs, links, issuer="cafe-7"):
    """One slot per chain position, in order."""
    return tuple(
        ChainSlot(issuer_id=issuer, proof_digest=proof_digest(PROFILE, lp),
                  link=link)
        for lp, link in zip(proofs, links)
    )


# ---------------------------------------------------------------------------
# link construction
# ---------------------------------------------------------------------------

def test_genesis_verifies_against_zero_sentinel():
    lp = _proof(0)
    link = chain_genesis(PROFILE, AUTH, lp)
    assert verify_link(PROFILE, AUTH.public_key, link,
                       proof_digest(PROFILE, lp), None)
    assert GENESIS_SENTINEL == bytes(20)


def test_different_first_proofs_give_different_genesis_links():
    l1 = chain_genesis(PROFILE, AUTH, _proof(0))
    l2 = chain_genesis(PROFILE, AUTH, _proof(1))
    assert l1.signature != l2.signature


def test_signed_payload_reconstructed_by_hand():
    # rebuild the exact signed bytes independently of link_payload
    lp = _proof(0)
    d = proof_digest(PROFILE, lp)
    expected_genesis = len(d.data).to_bytes(4, "big") + d.data + bytes(20)
    link = chain_genesis(PROFILE, AUTH, lp)
    assert link.signed_payload == expected_genesis
    assert PROFILE.verify(AUTH.public_key, expected_genesis, link.signature)

    lp2 = _proof(1)
    d2 = proof_digest(PROFILE, lp2)
    link2 = chain_extend(PROFILE, AUTH, lp2, link)
    expected_extend = (len(d2.data).to_bytes(4, "big") + d2.data
                       + canonical_encode(link))
    assert link2.signed_payload == expected_extend
    assert PROFILE.verify(AUTH.public_key, expected_extend, link2.signature)


def test_four_chain_links_all_verify():
    proofs, links = _build_links(4)
    prev = None
    for lp, link in zip(proofs, links):
        assert verify_link(PROFILE, AUTH.public_key, link,
                           proof_digest(PROFILE, lp), prev)
        prev = link


# ---------------------------------------------------------------------------
# subsequence verification
# ---------------------------------------------------------------------------

def _sub(slots, revealed_positions, proofs, links, order=None):
    """The presentation of ``revealed_positions`` of the chain of ``proofs``
    and ``links``, with the slots of ``slots`` (one per chain position) for
    the hidden positions before the last revealed one."""
    from locprov.model import (EndorsedLocationProof, ProvenanceEntry,
                               RevealedEntry)
    entries = []
    for p in (order or sorted(revealed_positions)):
        elp = EndorsedLocationProof(proofs[p - 1], ())
        entries.append(RevealedEntry(position=p,
                                     entry=ProvenanceEntry(elp, links[p - 1])))
    last = max(revealed_positions)
    return RevealedSubsequence(tuple(entries), tuple(
        slots[p - 1] for p in range(1, last) if p not in revealed_positions))


def test_full_chain_reveal_first_and_last_checks_all_links():
    proofs, links = _build_links(4)
    sub = _sub(_slots(proofs, links), [1, 4], proofs, links)
    checks = Counter()
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       checks)
    assert verdict.status == ORDER_OK
    assert checks["link"] == 4


def test_reveal_middle_checks_prefix_only():
    proofs, links = _build_links(4)
    sub = _sub(_slots(proofs, links), [2, 3], proofs, links)
    checks = Counter()
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       checks)
    assert verdict.status == ORDER_OK
    # independent oracle: required work is the largest revealed position
    assert checks["link"] == max([2, 3])


def test_swapped_links_detected():
    proofs, links = _build_links(4)
    slots = list(_slots(proofs, links))
    slots[1], slots[2] = slots[2], slots[1]
    sub = _sub(tuple(slots), [1, 4], proofs, links)
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       Counter())
    assert verdict.status == ORDER_REORDERED


def test_substituted_proof_detected():
    proofs, links = _build_links(4)
    impostor = _proof(99)
    slots = list(_slots(proofs, links))
    slots[1] = replace(slots[1], proof_digest=proof_digest(PROFILE, impostor))
    sub = _sub(tuple(slots), [1, 4], proofs, links)
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       Counter())
    assert verdict.status == ORDER_REORDERED


def test_claimed_order_must_ascend():
    proofs, links = _build_links(4)
    sub = _sub(_slots(proofs, links), [2, 3], proofs, links, order=[3, 2])
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       Counter())
    assert verdict.status == ORDER_REORDERED


def test_missing_prefix_evidence_is_incomplete():
    proofs, links = _build_links(4)
    sub = _sub(_slots(proofs, links), [3], proofs, links)
    sub = replace(sub, chain_evidence=sub.chain_evidence[:1])  # no slot for 2
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       Counter())
    assert verdict == OrderingVerdict(ORDER_INCOMPLETE,
                                      "no chain evidence for position 2")


def test_unknown_issuer_is_incomplete():
    proofs, links = _build_links(2)
    sub = _sub(_slots(proofs, links), [2], proofs, links)
    verdict = chain_verify_subsequence(PROFILE, sub, {}, Counter())
    assert verdict.status == ORDER_INCOMPLETE


def test_empty_reveal_is_ok_and_costs_nothing():
    """An empty presentation is in order; one that still carries slots
    breaks the evidence rule, since no slot is before a revealed entry."""
    proofs, links = _build_links(2)
    for slots, status in (((), ORDER_OK), (_slots(proofs, links),
                                           ORDER_INCOMPLETE)):
        sub = RevealedSubsequence((), slots)
        checks = Counter()
        verdict = chain_verify_subsequence(
            PROFILE, sub, {"cafe-7": AUTH.public_key}, checks)
        assert verdict.status == status
        assert checks["link"] == 0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_per_entry_metadata_is_one_signature():
    # constant regardless of chain length; 40 bytes under the legacy profile
    auth = LEGACY.keygen(bytes(range(32)))
    lp1 = make_proof(LEGACY, auth, make_statement("u1", "L", 1))
    lp2 = make_proof(LEGACY, auth, make_statement("u1", "L", 2))
    g = chain_genesis(LEGACY, auth, lp1)
    e = chain_extend(LEGACY, auth, lp2, g)
    assert len(g.signature.data) == len(e.signature.data) == 40


def test_links_checked_equals_last_revealed_for_random_subsets():
    proofs, links = _build_links(24)
    slots = _slots(proofs, links)
    rng = random.Random(8)
    for _ in range(50):
        count = rng.randrange(1, 10)
        positions = sorted(rng.sample(range(1, 25), count))
        sub = _sub(slots, positions, proofs, links)
        checks = Counter()
        verdict = chain_verify_subsequence(PROFILE, sub,
                                           {"cafe-7": AUTH.public_key}, checks)
        assert verdict.status == ORDER_OK
        assert checks["link"] == positions[-1]


def test_exhaustive_single_tamper_n8_all_detected():
    """Every single swap, deletion-with-splice, or proof substitution in
    the verified prefix breaks verification, whether the tampered position
    is presented as a hidden slot or as the revealed first or last entry."""
    n = 8
    proofs, links = _build_links(n)
    pubkeys = {"cafe-7": AUTH.public_key}

    def detected(proofs, links):
        sub = _sub(_slots(proofs, links), [1, len(proofs)], proofs, links)
        return chain_verify_subsequence(PROFILE, sub, pubkeys,
                                        Counter()).status != ORDER_OK

    assert not detected(proofs, links)
    outcomes = []
    # all pairwise swaps of stored entries
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(range(n))
            swapped[i], swapped[j] = j, i
            outcomes.append(detected([proofs[k] for k in swapped],
                                     [links[k] for k in swapped]))

    # deletion of any non-final position, splicing the remainder together
    for k in range(n - 1):
        outcomes.append(detected(proofs[:k] + proofs[k + 1:],
                                 links[:k] + links[k + 1:]))

    # substitution of each proof
    impostor = _proof(1234)
    for k in range(n):
        outcomes.append(detected(proofs[:k] + [impostor] + proofs[k + 1:],
                                 links))

    assert len(outcomes) == 28 + 7 + 8
    assert all(outcomes)


def test_completeness_long_chain_and_random_subsets(honest_chain_factory):
    world, chain = honest_chain_factory("hashchain", 10_000)
    pubkeys = world.directory.pubkeys()
    full = make_revealed_subsequence(world.profile, chain,
                                     list(range(1, 10_001)))
    verdict = chain_verify_subsequence(world.profile, full, pubkeys, Counter())
    assert verdict.status == ORDER_OK
    rng = random.Random(5)
    for _ in range(3):
        positions = sorted(rng.sample(range(1, 10_001), 25))
        sub = make_revealed_subsequence(world.profile, chain, positions)
        checks = Counter()
        verdict = chain_verify_subsequence(world.profile, sub, pubkeys, checks)
        assert verdict.status == ORDER_OK
        assert checks["link"] == positions[-1]


def test_multi_authority_chain_resolves_per_entry_keys():
    world = World(PROFILE, "hashchain", seed=3)
    world.add_authority("site-a")
    world.add_authority("site-b")
    world.add_witness("w1")
    user = world.add_user("u1")
    for stop in ("site-a", "site-b", "site-a"):
        world.place("u1", stop)
        world.place("w1", stop)
        assert world.run_visit("u1", stop, "w1").ok
        world.advance(1000)
    sub = make_revealed_subsequence(world.profile, user.chain, [1, 3])
    checks = Counter()
    verdict = chain_verify_subsequence(world.profile, sub,
                                       world.directory.pubkeys(), checks)
    assert verdict.status == ORDER_OK
    assert checks["link"] == 3


def test_duplicate_evidence_positions_incomplete():
    """Two slots for the one hidden position 2: one slot too many."""
    proofs, links = _build_links(3)
    sub = _sub(_slots(proofs, links), [1, 3], proofs, links)
    sub = replace(sub, chain_evidence=sub.chain_evidence * 2)
    checks = Counter()
    verdict = chain_verify_subsequence(PROFILE, sub, {"cafe-7": AUTH.public_key},
                                       checks)
    assert verdict == OrderingVerdict(ORDER_INCOMPLETE,
                                      "more chain slots (2) than hidden "
                                      "positions (1)")
    assert checks["link"] == 0


# ---------------------------------------------------------------------------
# link replay split across processes
# ---------------------------------------------------------------------------

def _bad_link(slot):
    sig = slot.link.signature
    flipped = replace(sig, data=bytes([sig.data[0] ^ 1]) + sig.data[1:])
    return replace(slot, link=replace(slot.link, signature=flipped))


# 24 links over 3 processes: positions 1-8 stay in the caller, 9-16 and
# 17-24 go to the two workers.
@pytest.mark.parametrize("bad, keyless, status, detail, links_checked", [
    (None, None, ORDER_OK, "", 24),
    (3, None, ORDER_REORDERED, "link verification failed at position 3", 3),
    (23, None, ORDER_REORDERED, "link verification failed at position 23",
     23),
    (8, None, ORDER_REORDERED, "link verification failed at position 8", 8),
    (9, None, ORDER_REORDERED, "link verification failed at position 9", 9),
    (12, 5, ORDER_INCOMPLETE, "no public key for issuer 'elsewhere'", 4),
    (5, 12, ORDER_REORDERED, "link verification failed at position 5", 5),
    (None, 20, ORDER_INCOMPLETE, "no public key for issuer 'elsewhere'", 19),
], ids=["clean", "first-chunk", "last-chunk", "end-of-first-chunk",
        "start-of-second-chunk", "keyless-before-bad", "keyless-after-bad",
        "keyless-in-last-chunk"])
def test_replay_in_processes_matches_serial(serial_and_fanned_out, bad,
                                            keyless, status, detail,
                                            links_checked):
    proofs, links = _build_links(24)
    slots = list(_slots(proofs, links))
    if bad is not None:
        slots[bad - 1] = _bad_link(slots[bad - 1])
    if keyless is not None:
        slots[keyless - 1] = replace(slots[keyless - 1], issuer_id="elsewhere")
    sub = _sub(tuple(slots), [24], proofs, links)

    def walk(profile):
        checks = Counter()
        verdict = chain_verify_subsequence(
            profile, sub, {"cafe-7": AUTH.public_key}, checks)
        return verdict.status, verdict.detail, checks

    serial, fanned_out = serial_and_fanned_out(
        lambda: batched(PROFILE, walk))
    assert serial == fanned_out == (status, detail, Counter(link=links_checked))
