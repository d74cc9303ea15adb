"""Auditor: per-claim checks, ordering delegation, threat classification."""

from collections import Counter
from dataclasses import replace

import pytest

from locprov.audit import (
    AuditReport,
    ClaimVerdict,
    LocationClaim,
    CLAIM_BAD_SIGNATURE,
    CLAIM_ENDORSEMENT_MISMATCH,
    CLAIM_EPOCH_EXCLUDED,
    CLAIM_EPOCH_MISSING,
    CLAIM_GRANULARITY_MISMATCH,
    CLAIM_OK,
    CLAIM_TIME_MISMATCH,
    LABEL_FALSE_ENDORSEMENT,
    LABEL_FALSE_PRESENCE,
    LABEL_FALSE_TIME,
    LABEL_PROOF_SWITCHING,
    LABEL_REORDERING,
    LABEL_UNCLASSIFIED,
    audit,
    classify_failure,
    render_text_report,
    truthful_claims,
)
from locprov import audit as audit_module
from locprov import bloom, crypto, fanout, hashchain
from locprov.experiments import build_honest_chain
from locprov.crypto import MODERN, get_profile
from locprov.epochs import EpochRegistry, build_epoch_report
from locprov.model import (
    ChainSlot,
    HashChainLink,
    OrderingVerdict,
    RevealedEntry,
    RevealedSubsequence,
    ValidationError,
    bloom_signing_bytes,
    make_revealed_subsequence,
    proof_digest,
    report_signing_bytes,
    ORDER_OK,
    ORDER_REORDERED,
    ORDER_INCOMPLETE,
)
from locprov.protocol import Directory, ProtocolConfig, World
from locprov.scenarios import run_builtin_suite


def _world(scheme="hashchain", private=False, seed=9):
    world = World(MODERN, scheme, ProtocolConfig(), seed=seed)
    granularities = ["IL", "Chicago", "Block 5"] if private else None
    world.add_authority("cafe-7", granularities=granularities)
    world.add_authority("lib-2")
    world.add_witness("w1")
    user = world.add_user("u1")
    return world, user


def _tour(world, stops):
    entries = []
    for stop in stops:
        world.place("u1", stop)
        world.place("w1", stop)
        outcome = world.run_visit("u1", stop, "w1")
        assert outcome.ok
        entries.append(outcome.entry)
        world.advance(2_000)
    world.finalize_epochs()
    return entries


@pytest.mark.parametrize("scheme", ["hashchain", "bloom"])
def test_honest_chain_reveal_2_3_all_ok(scheme):
    world, user = _world(scheme)
    _tour(world, ["cafe-7", "lib-2", "cafe-7", "lib-2"])
    sub = make_revealed_subsequence(world.profile, user.chain, [2, 3])
    report = audit(world.profile, truthful_claims(sub), sub,
                   world.directory.pubkeys(), world.registry)
    assert report.ok, render_text_report(report)
    if scheme == "hashchain":
        assert report.checks["link"] == 3
    else:
        assert report.checks["accumulator"] == 2


def test_honest_bloom_chain_with_equal_accumulators_audits_clean():
    """At seed 7, entries 266 and 267 of this honest chain carry equal
    accumulators: the second insertion set no new bit."""
    world, chain = build_honest_chain("bloom", 300, seed=7)
    assert chain.entries[265].ordering.bits == chain.entries[266].ordering.bits
    sub = make_revealed_subsequence(world.profile, chain, range(1, 301))
    report = audit(world.profile, truthful_claims(sub), sub,
                   world.directory.pubkeys(), world.registry)
    assert report.ok, render_text_report(report)
    assert report.checks["accumulator"] == 300
    # Known limitation: equal images cannot order their two entries.
    swapped = make_revealed_subsequence(world.profile, chain, [266, 267])
    swapped = replace(swapped, entries=swapped.entries[::-1])
    report = audit(world.profile, truthful_claims(swapped), swapped,
                   world.directory.pubkeys(), world.registry)
    assert report.ok, render_text_report(report)


def test_claims_out_of_order_reordered():
    world, user = _world()
    _tour(world, ["cafe-7", "lib-2", "cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [2, 3])
    swapped = replace(sub, entries=(sub.entries[1], sub.entries[0]))
    report = audit(world.profile, truthful_claims(swapped), swapped,
                   world.directory.pubkeys(), world.registry)
    assert report.ordering.status == ORDER_REORDERED
    assert classify_failure(report) == LABEL_REORDERING


def test_granularity_claims():
    world, user = _world(private=True)
    _tour(world, ["cafe-7"])
    stmt = user.chain.entries[0].elp.proof.statement

    # claim at the disclosed granularity verifies
    sub = make_revealed_subsequence(world.profile, user.chain, [1],
                                    disclose={1: [2]})
    report = audit(world.profile, [LocationClaim("Chicago", stmt.visit_time)],
                   sub, world.directory.pubkeys(), world.registry)
    assert report.ok

    # claim at an undisclosed granularity does not
    report = audit(world.profile, [LocationClaim("Block 5", stmt.visit_time)],
                   sub, world.directory.pubkeys(), world.registry)
    assert report.claim_verdicts[0].status == CLAIM_GRANULARITY_MISMATCH


def test_truthful_claims_name_the_disclosed_granularity():
    """An entry with an opening is claimed at the opened granularity; one
    without is claimed at its authority."""
    world, user = _world(private=True)
    _tour(world, ["cafe-7", "lib-2"])
    first, second = (e.elp.proof.statement for e in user.chain.entries)
    sub = make_revealed_subsequence(world.profile, user.chain, [1, 2],
                                    disclose={1: [2]})
    claims = truthful_claims(sub)
    assert claims == [LocationClaim("Chicago", first.visit_time),
                      LocationClaim("lib-2", second.visit_time)]
    assert audit(world.profile, claims, sub, world.directory.pubkeys(),
                 world.registry).ok


def test_unrevealed_openings_never_consulted():
    """Verdicts are identical whether or not the input still carries the
    openings the user chose not to reveal."""
    world, user = _world(private=True)
    _tour(world, ["cafe-7"])
    redacted = make_revealed_subsequence(world.profile, user.chain, [1],
                                         disclose={1: [2]})
    # hand-build the same subsequence but with the full statement intact
    unredacted = RevealedSubsequence(
        (RevealedEntry(position=1, entry=user.chain.entries[0],
                       disclosed=redacted.entries[0].disclosed),),
        redacted.chain_evidence,
    )
    claims = truthful_claims(redacted)
    report_a = audit(world.profile, claims, redacted,
                     world.directory.pubkeys(), world.registry)
    report_b = audit(world.profile, claims, unredacted,
                     world.directory.pubkeys(), world.registry)
    assert report_a == report_b
    assert report_a.ok


def test_claim_time_must_match_exactly():
    world, user = _world()
    _tour(world, ["cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [1])
    truthful = truthful_claims(sub)[0]
    report = audit(world.profile,
                   [LocationClaim(truthful.location_id,
                                  truthful.visit_time + 1)],
                   sub, world.directory.pubkeys(), world.registry)
    assert report.claim_verdicts[0].status == CLAIM_TIME_MISMATCH


def test_no_registry_warns_but_passes():
    world, user = _world()
    _tour(world, ["cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [1])
    report = audit(world.profile, truthful_claims(sub), sub,
                   world.directory.pubkeys(), registry=None)
    assert report.ok
    assert any("registry" in w for w in report.warnings)


def test_missing_epoch_report_flags_claim():
    world, user = _world()
    # audit before the epoch closes: registry has no covering report
    for stop in ["cafe-7"]:
        world.place("u1", stop)
        world.place("w1", stop)
        assert world.run_visit("u1", stop, "w1").ok
    sub = make_revealed_subsequence(world.profile, user.chain, [1])
    report = audit(world.profile, truthful_claims(sub), sub,
                   world.directory.pubkeys(), world.registry)
    assert report.claim_verdicts[0].status == CLAIM_EPOCH_MISSING
    assert classify_failure(report) == LABEL_FALSE_TIME


def test_claim_count_mismatch_is_incomplete():
    world, user = _world()
    _tour(world, ["cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [1])
    report = audit(world.profile, [], sub, world.directory.pubkeys(),
                   world.registry)
    assert report.ordering.status == ORDER_INCOMPLETE
    assert not report.ok


def test_counter_law_bloom_independent_of_chain_length():
    for n in (4, 8):
        world, user = _world("bloom", seed=20 + n)
        _tour(world, ["cafe-7", "lib-2"] * (n // 2))
        sub = make_revealed_subsequence(world.profile, user.chain, [1, n])
        report = audit(world.profile, truthful_claims(sub), sub,
                       world.directory.pubkeys(), world.registry)
        assert report.ok
        assert report.checks["accumulator"] == 2


def test_counter_law_hashchain_last_revealed_index():
    world, user = _world()
    _tour(world, ["cafe-7", "lib-2", "cafe-7", "lib-2", "cafe-7"])
    for positions, expected in ([1, 2], 2), ([2, 4], 4), ([5], 5):
        sub = make_revealed_subsequence(world.profile, user.chain, positions)
        report = audit(world.profile, truthful_claims(sub), sub,
                       world.directory.pubkeys(), world.registry)
        assert report.checks["link"] == expected


# ---------------------------------------------------------------------------
# epoch reports: verified once per audit
# ---------------------------------------------------------------------------

def _shared_epoch_inputs(scheme="bloom", registry_change=None):
    """Five visits revealed in full, three in cafe-7's epoch-0 report and
    two in lib-2's, with a registry where ``registry_change`` is applied to
    cafe-7's report."""
    world, user = _world(scheme)
    _tour(world, ["cafe-7", "lib-2", "cafe-7", "lib-2", "cafe-7"])
    registry = EpochRegistry()
    for r in world.registry.reports():
        if registry_change is not None and r.location_id == "cafe-7":
            r = registry_change(world, r)
        registry.publish(r)
    sub = make_revealed_subsequence(world.profile, user.chain,
                                    [1, 2, 3, 4, 5])
    return world, sub, registry


def _shared_epoch_audit(registry_change=None):
    world, sub, registry = _shared_epoch_inputs("bloom", registry_change)
    return audit(world.profile, truthful_claims(sub), sub,
                 world.directory.pubkeys(), registry)


def test_each_epoch_report_counted_once_per_audit():
    report = _shared_epoch_audit()
    assert report.ok
    assert report.checks["report"] == 2
    assert report.checks["proof"] == 5


def _flip(sig):
    return replace(sig, data=bytes([sig.data[0] ^ 1]) + sig.data[1:])


def _flip_report_sig(world, r):
    return replace(r, report_sig=_flip(r.report_sig))


def _sign_malformed_accumulator(world, r):
    bad = replace(r, accumulator=replace(r.accumulator,
                                         bits=r.accumulator.bits[:5]))
    keys = world.authorities["cafe-7"].keys
    return replace(bad, report_sig=world.profile.sign(
        keys.private_key, report_signing_bytes(bad)))


@pytest.mark.parametrize("change, detail", [
    (_flip_report_sig,
     "epoch report: report signature invalid for 'cafe-7' epoch 0"),
    (_sign_malformed_accumulator,
     "epoch report: malformed accumulator in report for 'cafe-7' epoch 0"),
], ids=["flipped-signature", "malformed-accumulator"])
def test_bad_epoch_report_fails_every_claim_in_it(change, detail):
    report = _shared_epoch_audit(change)
    statuses = [(v.status, v.detail) for v in report.claim_verdicts]
    bad = (CLAIM_BAD_SIGNATURE, detail)
    assert statuses == [bad, (CLAIM_OK, ""), bad, (CLAIM_OK, ""), bad]
    assert report.checks["report"] == 2


@pytest.mark.parametrize("sign, status, label", [
    (lambda world, r: r, CLAIM_EPOCH_EXCLUDED, LABEL_FALSE_TIME),
    (_flip_report_sig, CLAIM_BAD_SIGNATURE, LABEL_FALSE_PRESENCE),
], ids=["signed", "flipped-signature"])
def test_empty_report_holds_no_digest(sign, status, label):
    """A report that holds no digest is read like any other: signed, it
    excludes every claim in its epoch (``EpochExcluded``); with a flipped
    signature, every claim in it fails on that (``BadSignature``). Its
    signature is verified and counted either way."""
    def empty(world, r):
        return sign(world, build_epoch_report(
            world.profile, world.authorities[r.location_id].keys,
            r.location_id, r.epoch_id, r.end - r.start, []))
    report = _shared_epoch_audit(empty)
    assert [v.status for v in report.claim_verdicts] == [
        status, CLAIM_OK, status, CLAIM_OK, status]
    assert report.checks["report"] == 2
    assert classify_failure(report) == label


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _report_with(status, detail="", ordering_status=ORDER_OK):
    return AuditReport(
        claim_verdicts=(ClaimVerdict(0, status, detail),),
        ordering=OrderingVerdict(status=ordering_status),
        checks=Counter(),
    )


def test_classify_epoch_excluded_as_false_time():
    report = _report_with(CLAIM_EPOCH_EXCLUDED, "digest absent")
    assert classify_failure(report) == LABEL_FALSE_TIME


def test_classify_digest_mismatch_as_proof_switching():
    report = _report_with(CLAIM_ENDORSEMENT_MISMATCH, "digest: elsewhere")
    assert classify_failure(report) == LABEL_PROOF_SWITCHING


def test_classify_pure_reorder():
    report = AuditReport(
        claim_verdicts=(ClaimVerdict(0, CLAIM_OK),),
        ordering=OrderingVerdict(status=ORDER_REORDERED),
        checks=Counter(),
    )
    assert classify_failure(report) == LABEL_REORDERING


def test_classify_unmapped_combo_unclassified():
    report = _report_with(CLAIM_GRANULARITY_MISMATCH, "overclaim")
    assert classify_failure(report) == LABEL_UNCLASSIFIED


def test_classify_requires_a_failure():
    report = AuditReport(
        claim_verdicts=(ClaimVerdict(0, CLAIM_OK),),
        ordering=OrderingVerdict(status=ORDER_OK),
        checks=Counter(),
    )
    with pytest.raises(ValidationError):
        classify_failure(report)


def test_text_report_renders_failures():
    report = _report_with(CLAIM_BAD_SIGNATURE, "authority signature invalid")
    text = render_text_report(report)
    assert "FAIL" in text and "BadSignature" in text and "false-presence" in text


# ---------------------------------------------------------------------------
# one signature batch per audit: split and serial paths agree
# ---------------------------------------------------------------------------

def _at(sub, position, change):
    """``sub`` with ``change`` applied to the entry revealed at
    ``position``."""
    return replace(sub, entries=tuple(
        replace(r, entry=change(r.entry)) if r.position == position else r
        for r in sub.entries))


def _endorsement(entry, change):
    """``entry`` with ``change`` applied to its first endorsement."""
    first, *rest = entry.elp.endorsements
    return replace(entry, elp=replace(
        entry.elp, endorsements=(change(first), *rest)))


def _flip_proof(position):
    return lambda sub: _at(sub, position, lambda e: replace(e, elp=replace(
        e.elp, proof=replace(e.elp.proof, authority_sig=_flip(
            e.elp.proof.authority_sig)))))


def _flip_witness(position):
    return lambda sub: _at(sub, position, lambda e: _endorsement(
        e, lambda d: replace(d, witness_sig=_flip(d.witness_sig))))


def _flip_timestamp(sub):
    return _at(sub, 4, lambda e: _endorsement(e, lambda d: replace(
        d, authority_time_sig=_flip(d.authority_time_sig))))


def _other_digest(sub):
    digest = sub.entries[0].entry.elp.endorsements[0].statement.proof_digest
    return _at(sub, 2, lambda e: _endorsement(e, lambda d: replace(
        d, statement=replace(d.statement, proof_digest=digest))))


def _unknown_witness(sub):
    return _at(sub, 5, lambda e: _endorsement(e, lambda d: replace(
        d, statement=replace(d.statement, witness_id="w9"))))


def _slot(revealed):
    """The chain slot that states ``revealed``'s issuer, proof and link."""
    lp = revealed.entry.elp.proof
    return ChainSlot(lp.statement.location_id, proof_digest(MODERN, lp),
                     revealed.entry.ordering)


def _hide(sub, position):
    """``sub`` with the entry at ``position`` hidden behind its slot, which
    goes after the slots of the hidden positions before it."""
    (revealed,) = [r for r in sub.entries if r.position == position]
    before = position - 1 - sum(r.position < position for r in sub.entries)
    slots = sub.chain_evidence
    return replace(
        sub, entries=tuple(r for r in sub.entries if r is not revealed),
        chain_evidence=(*slots[:before], _slot(revealed), *slots[before:]))


def _flip_hidden_link(sub):
    """Hide position 3 and flip its link signature."""
    sub = _hide(sub, 3)
    (slot,) = sub.chain_evidence
    return replace(sub, chain_evidence=(replace(slot, link=replace(
        slot.link, signature=_flip(slot.link.signature))),))


def _flip_accumulator(sub):
    return _at(sub, 4, lambda e: replace(e, ordering=replace(
        e.ordering, authority_sig=_flip(e.ordering.authority_sig))))


def _batch_audit(serial_and_fanned_out, scheme, change_sub=None,
                 change_report=None):
    """Audit ``_shared_epoch_inputs`` in one process and split over three;
    cafe-7's report covers claims 1, 3 and 5."""
    world, sub, registry = _shared_epoch_inputs(scheme, change_report)
    if change_sub is not None:
        sub = change_sub(sub)

    def check():
        report = audit(world.profile, truthful_claims(sub), sub,
                       world.directory.pubkeys(), registry)
        return (report.claim_verdicts, report.ordering, report.checks,
                render_text_report(report))

    serial, fanned_out = serial_and_fanned_out(check)
    assert serial == fanned_out
    verdicts, ordering, checks, _ = serial
    return ([(v.status, v.detail) for v in verdicts],
            (ordering.status, ordering.detail), checks)


OK = (CLAIM_OK, "")
REPORT_BAD = (CLAIM_BAD_SIGNATURE,
              "epoch report: report signature invalid for 'cafe-7' epoch 0")
CLEAN_CHECKS = dict(proof=5, witness=5, timestamp=5, report=2)


@pytest.mark.parametrize("scheme, change_sub, change_report, verdicts, "
                         "ordering, checks", [
    ("bloom", _flip_proof(3), None,
     [OK, OK, (CLAIM_BAD_SIGNATURE, "authority signature invalid"), OK, OK],
     (ORDER_REORDERED, "own proof not in accumulator at position 3"),
     dict(proof=5, witness=4, timestamp=4, report=2, accumulator=3)),
    ("bloom", _flip_witness(2), None,
     [OK, (CLAIM_BAD_SIGNATURE, "witness signature invalid"), OK, OK, OK],
     (ORDER_OK, ""),
     dict(proof=5, witness=5, timestamp=4, report=2, accumulator=5)),
    ("bloom", _flip_timestamp, None,
     [OK, OK, OK, (CLAIM_BAD_SIGNATURE, "timestamp signature invalid"), OK],
     (ORDER_OK, ""), dict(CLEAN_CHECKS, accumulator=5)),
    ("bloom", None, _flip_report_sig,
     [REPORT_BAD, OK, REPORT_BAD, OK, REPORT_BAD],
     (ORDER_OK, ""), dict(CLEAN_CHECKS, accumulator=5)),
    ("hashchain", _flip_hidden_link, None,
     [OK, OK, OK, OK],
     (ORDER_REORDERED, "link verification failed at position 3"),
     dict(proof=4, witness=4, timestamp=4, report=2, link=3)),
    ("bloom", _flip_accumulator, None,
     [OK, OK, OK, OK, OK],
     (ORDER_REORDERED, "accumulator signature invalid at position 4"),
     dict(CLEAN_CHECKS, accumulator=4)),
    ("bloom", _other_digest, None,
     [OK, (CLAIM_ENDORSEMENT_MISMATCH,
           "digest: endorsement refers to a different proof"), OK, OK, OK],
     (ORDER_OK, ""),
     dict(proof=5, witness=4, timestamp=4, report=2, accumulator=5)),
    ("bloom", _unknown_witness, None,
     [OK, OK, OK, OK, (CLAIM_BAD_SIGNATURE, "unknown witness 'w9'")],
     (ORDER_OK, ""),
     dict(proof=5, witness=4, timestamp=4, report=2, accumulator=5)),
    # Claim 1 plans cafe-7's report but fails before its epoch step, so
    # claim 3 is the first to verify it.
    ("hashchain", _flip_witness(1), _flip_report_sig,
     [(CLAIM_BAD_SIGNATURE, "witness signature invalid"), OK, REPORT_BAD, OK,
      REPORT_BAD],
     (ORDER_OK, ""),
     dict(proof=5, witness=5, timestamp=4, report=2, link=5)),
    ("bloom", None, None, [OK] * 5, (ORDER_OK, ""),
     dict(CLEAN_CHECKS, accumulator=5)),
    ("hashchain", None, None, [OK] * 5, (ORDER_OK, ""),
     dict(CLEAN_CHECKS, link=5)),
], ids=["proof", "witness", "timestamp", "report", "link", "accumulator",
        "endorsement-digest", "unknown-witness", "shared-bad-report",
        "clean-bloom", "clean-hashchain"])
def test_one_batch_split_matches_serial(serial_and_fanned_out, scheme,
                                        change_sub, change_report, verdicts,
                                        ordering, checks):
    """Each signature kind flipped, two structural failures and two clean
    full reveals: one batch per audit, split over three processes or not,
    gives the verdicts, details and counts of a one-by-one walk."""
    assert _batch_audit(serial_and_fanned_out, scheme, change_sub,
                        change_report) == (verdicts, ordering,
                                           Counter(checks))


def test_signature_object_shared_by_two_proofs_checked_per_proof():
    """Entry 1's proof carries entry 2's signature object: the batch holds
    both proofs' checks of that one object, and each gets its own answer."""
    world, user = _world()
    _tour(world, ["cafe-7", "cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [1, 2])
    stolen = sub.entries[1].entry.elp.proof.authority_sig
    sub = _at(sub, 1, lambda e: replace(e, elp=replace(e.elp, proof=replace(
        e.elp.proof, authority_sig=stolen))))
    report = audit(world.profile, truthful_claims(sub), sub,
                   world.directory.pubkeys(), world.registry)
    assert [(v.status, v.detail) for v in report.claim_verdicts] == [
        (CLAIM_BAD_SIGNATURE, "authority signature invalid"), OK]


# ---------------------------------------------------------------------------
# a forged hash count costs nothing before its signature is checked
# ---------------------------------------------------------------------------

def _huge_hash_count(acc):
    """``acc`` with one byte of bits for capacity 1 at rate 0.5, and the
    largest hash count the wire carries: probing it would build a list of
    2**32 - 1 positions."""
    return replace(acc, bits=b"\x00", capacity=1, target_fpr=0.5,
                   hash_count=2**32 - 1)


@pytest.fixture
def bounded_positions(monkeypatch):
    """Fail, rather than exhaust memory, when a membership check asks for
    more positions than any well-formed accumulator has."""
    real = bloom.bloom_positions

    def positions(profile, item, m, k):
        assert k <= 2_000, f"membership check of {k} positions"
        return real(profile, item, m, k)
    monkeypatch.setattr(bloom, "bloom_positions", positions)


def _unsigned(world, key_owner, signed, sig):
    return None


def _flipped(world, key_owner, signed, sig):
    return _flip(sig)


def _signed(world, key_owner, signed, sig):
    keys = world.authorities[key_owner].keys
    return world.profile.sign(keys.private_key, signed)


@pytest.mark.parametrize("sign", [_unsigned, _flipped, _signed],
                         ids=["unsigned", "bad-signature", "signed"])
def test_forged_hash_count_in_bloom_reveal_is_malformed(bounded_positions,
                                                        sign):
    world, sub, registry = _shared_epoch_inputs("bloom")

    def forge(entry):
        acc = _huge_hash_count(entry.ordering)
        return replace(entry, ordering=replace(acc, authority_sig=sign(
            world, "lib-2", bloom_signing_bytes(acc), acc.authority_sig)))
    sub = _at(sub, 4, forge)
    report = audit(world.profile, truthful_claims(sub), sub,
                   world.directory.pubkeys(), registry)
    assert [v.status for v in report.claim_verdicts] == [CLAIM_OK] * 5
    assert (report.ordering.status, report.ordering.detail) == (
        ORDER_INCOMPLETE, "malformed accumulator at position 4")


@pytest.mark.parametrize("sign, detail", [
    (_unsigned, "report signature invalid"),
    (_flipped, "report signature invalid"),
    (_signed, "malformed accumulator in report"),
], ids=["unsigned", "bad-signature", "signed"])
def test_forged_hash_count_in_epoch_report_fails_its_claims(
        bounded_positions, sign, detail):
    def forge(world, r):
        r = replace(r, accumulator=_huge_hash_count(r.accumulator))
        return replace(r, report_sig=sign(
            world, "cafe-7", report_signing_bytes(r), r.report_sig))
    report = _shared_epoch_audit(forge)
    bad = (CLAIM_BAD_SIGNATURE, f"epoch report: {detail} for 'cafe-7' epoch 0")
    assert [(v.status, v.detail) for v in report.claim_verdicts] == [
        bad, OK, bad, OK, bad]
    assert report.ordering.ok


# ---------------------------------------------------------------------------
# a clean audit batches exactly the signatures it counts
# ---------------------------------------------------------------------------

def _batches_and_verifies(monkeypatch, profile, run):
    """``run(profile)``'s result, the sizes of the batches it verified and
    the number of raw signature verifies it made in all, in the batch or on
    the spot, all in this process."""
    batches, verifies = [], []
    real_verify_each = fanout.verify_each

    def verify_each(jobs):
        batches.append(len(jobs))
        return real_verify_each(jobs)

    def raw_verify(*args):
        verifies.append(args)
        return profile.raw_verify(*args)

    counting = replace(profile, raw_verify=raw_verify)
    monkeypatch.setattr(fanout, "_cpu_count", lambda: 1)
    monkeypatch.setattr(fanout, "verify_each", verify_each)
    # the batch verifies through the profile registered under the name
    monkeypatch.setitem(crypto._PROFILES, profile.name, counting)
    return run(counting), batches, len(verifies)


def _clean_audits():
    for scheme in ("hashchain", "bloom"):
        world, chain = build_honest_chain(scheme, 40)
        sub = make_revealed_subsequence(world.profile, chain, range(1, 41))
        yield (f"full-{scheme}", world.profile, truthful_claims(sub), sub,
               world.directory.pubkeys(), world.registry)
    for outcome in run_builtin_suite():
        if not outcome.expected_detection:
            yield (outcome.scenario, get_profile(outcome.profile_name),
                   outcome.claims, outcome.subsequence,
                   Directory(outcome.directory).pubkeys(), outcome.registry)


def test_clean_audit_batches_exactly_what_it_counts(monkeypatch):
    """One batch of exactly the signatures counted, and every signature
    verified once, in that batch: none is verified on the spot."""
    seen = []
    for name, profile, claims, sub, pubkeys, registry in _clean_audits():
        report, batches, verifies = _batches_and_verifies(
            monkeypatch, profile,
            lambda p: audit(p, claims, sub, pubkeys, registry))
        assert report.ok, name
        assert batches == [report.signatures_verified], name
        assert verifies == report.signatures_verified, name
        seen.append(name)
    assert len(seen) == 14


def _adjacent_swap(sub):
    entries = list(sub.entries)
    entries[3:5] = entries[4], entries[3]
    sub = replace(sub, entries=tuple(entries))
    return sub, truthful_claims(sub)


def _switch_proof(sub):
    """Entry 4 carries entry 9's endorsements."""
    donor = sub.entries[8].entry.elp.endorsements
    sub = _at(sub, 4, lambda e: replace(e, elp=replace(
        e.elp, endorsements=donor)))
    return sub, truthful_claims(sub)


def _wrong_time(sub):
    claims = truthful_claims(sub)
    claims[3] = replace(claims[3], visit_time=claims[3].visit_time + 1)
    return sub, claims


def _wrong_location(sub):
    claims = truthful_claims(sub)
    claims[3] = replace(claims[3], location_id="elsewhere")
    return sub, claims


@pytest.mark.parametrize("scheme, tamper, failure, signatures", [
    ("hashchain", _adjacent_swap, (ORDER_REORDERED, None), 38),
    ("bloom", _adjacent_swap, (ORDER_REORDERED, None), 43),
    ("bloom", _switch_proof, (ORDER_OK, CLAIM_ENDORSEMENT_MISMATCH), 48),
    ("hashchain", _wrong_time, (ORDER_OK, CLAIM_TIME_MISMATCH), 50),
    ("bloom", _wrong_location, (ORDER_OK, CLAIM_GRANULARITY_MISMATCH), 50),
], ids=["reorder-hashchain", "reorder-bloom", "switch-proof", "wrong-time",
        "wrong-location"])
def test_audit_with_good_signatures_batches_exactly_what_it_counts(
        monkeypatch, scheme, tamper, failure, signatures):
    """A 12-entry full reveal that fails for a reason other than a
    signature: one batch of exactly the signatures counted, each verified
    once, as in a clean audit."""
    world, chain = build_honest_chain(scheme, 12)
    sub, claims = tamper(make_revealed_subsequence(world.profile, chain,
                                                   range(1, 13)))
    report, batches, verifies = _batches_and_verifies(
        monkeypatch, world.profile,
        lambda p: audit(p, claims, sub, world.directory.pubkeys(),
                        world.registry))
    ordering, claim_status = failure
    assert report.ordering.status == ordering
    assert [v.status for v in report.failures()] == (
        [] if claim_status is None else [claim_status])
    assert report.signatures_verified == signatures
    assert batches == [signatures]
    assert verifies == signatures


# ---------------------------------------------------------------------------
# a recorded batch past its byte budget is verified in pieces, same verdicts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["hashchain", "bloom"])
@pytest.mark.parametrize("bad", [None, 11], ids=["honest", "bad-proof-11"])
def test_flushed_batches_give_the_one_by_one_verdicts(monkeypatch, scheme,
                                                      bad):
    """With ``BATCH_BYTES`` patched small, a 12-entry full reveal is
    verified in several batches, the bad signature, if any, well after the
    first flush. Verdicts and counts are those of a walk that verifies each
    signature as it comes, and each signature is verified once, in a batch:
    a failing audit's second walk is answered by the first walk's batches,
    the earlier ones by the hashes of the jobs they passed."""
    world, chain = build_honest_chain(scheme, 12)
    sub = make_revealed_subsequence(world.profile, chain, range(1, 13))
    if bad is not None:
        sub = _flip_proof(bad)(sub)
    claims = truthful_claims(sub)

    def run(profile):
        report = audit(profile, claims, sub, world.directory.pubkeys(),
                       world.registry)
        return report.claim_verdicts, report.ordering, report.checks

    with monkeypatch.context() as one_by_one:
        one_by_one.setattr(audit_module, "batched",
                           lambda profile, walk: walk(profile))
        expected = run(world.profile)
    monkeypatch.setattr(fanout, "BATCH_BYTES", 1_000)
    got, batches, verifies = _batches_and_verifies(monkeypatch,
                                                   world.profile, run)
    assert got == expected
    assert len(batches) > 3
    assert verifies == sum(batches)
    if bad is not None:
        assert [v.index for v in got[0] if not v.ok] == [bad - 1]


# ---------------------------------------------------------------------------
# hostile presentations: each claim and ordering fault, serial and split
# ---------------------------------------------------------------------------

def _changed_audit(serial_and_fanned_out, scheme, change):
    """Audit ``_shared_epoch_inputs`` after ``change(world, sub, pubkeys)``
    returns the presentation (it may also edit ``pubkeys``), in one process
    and split over three; both give the same report."""
    world, sub, registry = _shared_epoch_inputs(scheme)
    pubkeys = world.directory.pubkeys()
    sub = change(world, sub, pubkeys)

    def check():
        report = audit(world.profile, truthful_claims(sub), sub, pubkeys,
                       registry)
        return report, render_text_report(report)

    serial, fanned_out = serial_and_fanned_out(check)
    assert serial == fanned_out
    report = serial[0]
    return report, [(v.status, v.detail) for v in report.claim_verdicts]


def _drop_issuer(world, sub, pubkeys):
    del pubkeys["lib-2"]
    return sub


def _wrong_user_in_endorsement(world, sub, pubkeys):
    return _at(sub, 2, lambda e: _endorsement(e, lambda d: replace(
        d, statement=replace(d.statement, user_id="u9"))))


def _no_endorsements(world, sub, pubkeys):
    return _at(sub, 2, lambda e: replace(e, elp=replace(
        e.elp, endorsements=())))


UNKNOWN_ISSUER = (CLAIM_BAD_SIGNATURE, "unknown issuer 'lib-2'")


@pytest.mark.parametrize("change, verdicts, ordering, label", [
    (_drop_issuer, [OK, UNKNOWN_ISSUER, OK, UNKNOWN_ISSUER, OK],
     (ORDER_INCOMPLETE, "unverifiable accumulator at position 2"),
     LABEL_FALSE_PRESENCE),
    (_wrong_user_in_endorsement,
     [OK, (CLAIM_ENDORSEMENT_MISMATCH,
           "fields: endorsement disagrees with the proof"), OK, OK, OK],
     (ORDER_OK, ""), LABEL_FALSE_ENDORSEMENT),
    (_no_endorsements,
     [OK, (CLAIM_ENDORSEMENT_MISMATCH, "no endorsements"), OK, OK, OK],
     (ORDER_OK, ""), LABEL_PROOF_SWITCHING),
], ids=["unknown-issuer", "endorsement-fields", "no-endorsements"])
def test_hostile_claim_faults(serial_and_fanned_out, change, verdicts,
                              ordering, label):
    report, got = _changed_audit(serial_and_fanned_out, "bloom", change)
    assert got == verdicts
    assert (report.ordering.status, report.ordering.detail) == ordering
    assert classify_failure(report) == label


@pytest.mark.parametrize("disclosed, detail", [
    (lambda index, value, nonce: (9, value, nonce),
     "disclosed index 9 out of range"),
    (lambda index, value, nonce: (index, value, bytes(len(nonce))),
     "opening for 'Chicago' does not match its commitment"),
], ids=["index-out-of-range", "wrong-nonce"])
def test_bad_disclosure_fails_the_granularity_claim(disclosed, detail):
    world, user = _world(private=True)
    _tour(world, ["cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [1],
                                    disclose={1: [2]})
    (revealed,) = sub.entries
    sub = replace(sub, entries=(replace(
        revealed, disclosed=(disclosed(*revealed.disclosed[0]),)),))
    claim = LocationClaim("Chicago",
                          revealed.entry.elp.proof.statement.visit_time)
    report = audit(world.profile, [claim], sub, world.directory.pubkeys(),
                   world.registry)
    assert [(v.status, v.detail) for v in report.claim_verdicts] == [
        (CLAIM_GRANULARITY_MISMATCH, detail)]


def _link_in_bloom_presentation(world, sub, pubkeys, position=2):
    """The entry at ``position`` carries a genesis link from its issuer."""
    def change(entry):
        proof = entry.elp.proof
        keys = world.authorities[proof.statement.location_id].keys
        return replace(entry, ordering=hashchain.chain_genesis(
            world.profile, keys, proof))
    return _at(sub, position, change)


def _link_first(world, sub, pubkeys):
    """A Bloom presentation whose first entry carries a link is checked as
    a hash chain, which refuses the accumulator after it."""
    return _link_in_bloom_presentation(world, sub, pubkeys, position=1)


def _unsigned_accumulator(world, sub, pubkeys):
    return _at(sub, 3, lambda e: replace(e, ordering=replace(
        e.ordering, authority_sig=None)))


def _smaller_accumulator(world, sub, pubkeys, position=3):
    """The entry at ``position`` (a cafe-7 visit) carries a validly signed
    64-entry filter holding its own proof; in a Bloom presentation the
    others are sized for 1,000 entries."""
    profile = world.profile
    keys = world.authorities["cafe-7"].keys

    def change(entry):
        acc = bloom.bloom_insert(profile, bloom.bloom_new(64, bloom.TARGET_FPR),
                                 proof_digest(profile, entry.elp.proof))
        return replace(entry, ordering=bloom.sign_accumulator(profile, keys,
                                                              acc))
    return _at(sub, position, change)


def _accumulator_first(world, sub, pubkeys):
    """A hash-chain presentation whose first entry carries an accumulator
    is checked as Bloom, which verifies that accumulator and refuses the
    link after it."""
    return _smaller_accumulator(world, sub, pubkeys, position=1)


def _link_of_position_2(world, sub, pubkeys):
    link = sub.entries[1].entry.ordering
    return _at(sub, 3, lambda e: replace(e, ordering=link))


def _slot_at_revealed_position(world, sub, pubkeys):
    return replace(sub, chain_evidence=(_slot(sub.entries[2]),))


def _slot_past_last_revealed(world, sub, pubkeys):
    return _hide(sub, 5)


def _hidden_without_slot(world, sub, pubkeys):
    return replace(sub, entries=tuple(r for r in sub.entries
                                      if r.position != 3))


def _two_slots_at_one_position(world, sub, pubkeys):
    sub = _hide(sub, 3)
    return replace(sub, chain_evidence=sub.chain_evidence * 2)


def _extra_slot(world, sub, pubkeys):
    """Positions 2 and 4 hidden behind their slots, then one slot more:
    that of the revealed position 5."""
    hidden = _hide(_hide(sub, 4), 2)
    return replace(hidden, chain_evidence=(*hidden.chain_evidence,
                                           _slot(sub.entries[4])))


def _last_at_the_largest_position(world, sub, pubkeys):
    """Entry 5 claims position 2^32 - 1, past 2^32 - 6 hidden ones; the
    rule reads as far as the slots go."""
    return replace(sub, entries=(*sub.entries[:4], replace(
        sub.entries[4], position=2**32 - 1)))


def _slot_alone(world, sub, pubkeys):
    """No entry and one slot: with no entry to name a scheme, the order is
    checked as Bloom, which reads no slot."""
    return replace(sub, entries=(), chain_evidence=(_slot(sub.entries[0]),))


def _slot_in_bloom_presentation(world, sub, pubkeys):
    """A made-up slot, its link signature all zeros."""
    sig = sub.entries[0].entry.elp.proof.authority_sig
    link = HashChainLink(replace(sig, data=bytes(len(sig.data))))
    return replace(sub, chain_evidence=(
        ChainSlot("lib-2", proof_digest(world.profile,
                                        sub.entries[0].entry.elp.proof),
                  link),))


@pytest.mark.parametrize("scheme, change, verdicts, ordering", [
    ("bloom", _link_in_bloom_presentation, [OK] * 5,
     (ORDER_INCOMPLETE, "entry at position 2 has no accumulator")),
    ("bloom", _unsigned_accumulator, [OK] * 5,
     (ORDER_INCOMPLETE, "unverifiable accumulator at position 3")),
    ("bloom", _smaller_accumulator, [OK] * 5,
     (ORDER_REORDERED,
      "accumulator geometry changed between positions 2 and 3")),
    ("hashchain", _link_of_position_2, [OK] * 5,
     (ORDER_REORDERED, "link verification failed at position 3")),
    ("hashchain", _slot_at_revealed_position, [OK] * 5,
     (ORDER_INCOMPLETE, "more chain slots (1) than hidden positions (0)")),
    ("hashchain", _slot_past_last_revealed, [OK] * 4,
     (ORDER_INCOMPLETE, "more chain slots (1) than hidden positions (0)")),
    ("hashchain", _hidden_without_slot, [OK] * 4,
     (ORDER_INCOMPLETE, "no chain evidence for position 3")),
    ("hashchain", _two_slots_at_one_position, [OK] * 4,
     (ORDER_INCOMPLETE, "more chain slots (2) than hidden positions (1)")),
    ("hashchain", _extra_slot, [OK] * 3,
     (ORDER_INCOMPLETE, "more chain slots (3) than hidden positions (2)")),
    ("hashchain", _last_at_the_largest_position, [OK] * 5,
     (ORDER_INCOMPLETE, "no chain evidence for position 5")),
    ("hashchain", _smaller_accumulator, [OK] * 5,
     (ORDER_INCOMPLETE, "entry at position 3 has no hash-chain link")),
    ("bloom", _slot_in_bloom_presentation, [OK] * 5,
     (ORDER_INCOMPLETE, "hash-chain slot in a Bloom presentation")),
    ("hashchain", _accumulator_first, [OK] * 5,
     (ORDER_INCOMPLETE, "entry at position 2 has no accumulator")),
    ("bloom", _link_first, [OK] * 5,
     (ORDER_INCOMPLETE, "entry at position 2 has no hash-chain link")),
    ("hashchain", _slot_alone, [],
     (ORDER_INCOMPLETE, "hash-chain slot in a Bloom presentation")),
], ids=["link-in-bloom", "unsigned-accumulator", "geometry-change",
        "link-off-its-slot", "slot-at-revealed-position",
        "slot-past-last-revealed", "hidden-without-slot",
        "two-slots-at-one-position", "extra-slot", "position-2^32-1",
        "accumulator-in-hashchain", "slot-in-bloom", "accumulator-first",
        "link-first", "slot-alone"])
def test_hostile_ordering_faults(serial_and_fanned_out, scheme, change,
                                 verdicts, ordering):
    """Each fault leaves every claim clean and is named by the ordering
    verdict; the first entry's construct picks the verifier. An unknown
    issuer's accumulator is covered by ``test_hostile_claim_faults``."""
    # A presentation without entries has no signature to split.
    run = serial_and_fanned_out if verdicts else lambda check: (check(),
                                                               check())
    report, got = _changed_audit(run, scheme, change)
    assert got == verdicts
    assert (report.ordering.status, report.ordering.detail) == ordering
