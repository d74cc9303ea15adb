"""Auditor: per-claim checks, ordering delegation, threat classification."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

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
    LABEL_FALSE_TIME,
    LABEL_PROOF_SWITCHING,
    LABEL_REORDERING,
    LABEL_UNCLASSIFIED,
    audit,
    classify_failure,
    render_text_report,
)
from locprov.cli import build_honest_chain
from locprov.crypto import MODERN
from locprov.epochs import EpochRegistry
from locprov.model import (
    OrderingVerdict,
    RevealedEntry,
    RevealedSubsequence,
    ValidationError,
    make_revealed_subsequence,
    report_signing_bytes,
    ORDER_OK,
    ORDER_REORDERED,
    ORDER_INCOMPLETE,
)
from locprov.protocol import Directory, ProtocolConfig, World
from locprov.serialize import (
    dump_audit_report_file,
    load_chain_file,
    load_claims_file,
    load_registry_file,
)

DATA = Path(__file__).parent / "data"


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


def _truthful_claims(sub):
    claims = []
    for revealed in sub.entries:
        stmt = revealed.entry.elp.proof.statement
        location = (revealed.disclosed[0][1] if revealed.disclosed
                    else stmt.location_id)
        claims.append(LocationClaim(location, stmt.visit_time))
    return claims


@pytest.mark.parametrize("scheme", ["hashchain", "bloom"])
def test_honest_chain_reveal_2_3_all_ok(scheme):
    world, user = _world(scheme)
    _tour(world, ["cafe-7", "lib-2", "cafe-7", "lib-2"])
    sub = make_revealed_subsequence(world.profile, user.chain, [2, 3])
    report = audit(world.profile, _truthful_claims(sub), sub,
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
    report = audit(world.profile, _truthful_claims(sub), sub,
                   world.directory.pubkeys(), world.registry)
    assert report.ok, render_text_report(report)
    assert report.checks["accumulator"] == 300
    # Known limitation: equal images cannot order their two entries.
    swapped = make_revealed_subsequence(world.profile, chain, [266, 267])
    swapped = replace(swapped, entries=swapped.entries[::-1])
    report = audit(world.profile, _truthful_claims(swapped), swapped,
                   world.directory.pubkeys(), world.registry)
    assert report.ok, render_text_report(report)


def test_claims_out_of_order_reordered():
    world, user = _world()
    _tour(world, ["cafe-7", "lib-2", "cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [2, 3])
    swapped = replace(sub, entries=(sub.entries[1], sub.entries[0]))
    report = audit(world.profile, _truthful_claims(swapped), swapped,
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


def test_unrevealed_openings_never_consulted():
    """Verdicts are identical whether or not the input still carries the
    openings the user chose not to reveal."""
    world, user = _world(private=True)
    _tour(world, ["cafe-7"])
    redacted = make_revealed_subsequence(world.profile, user.chain, [1],
                                         disclose={1: [2]})
    # hand-build the same subsequence but with the full statement intact
    unredacted = RevealedSubsequence(
        redacted.scheme,
        (RevealedEntry(position=1, entry=user.chain.entries[0],
                       disclosed=redacted.entries[0].disclosed),),
        redacted.chain_evidence,
    )
    claims = _truthful_claims(redacted)
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
    truthful = _truthful_claims(sub)[0]
    report = audit(world.profile,
                   [LocationClaim(truthful.location_id,
                                  truthful.visit_time + 1)],
                   sub, world.directory.pubkeys(), world.registry)
    assert report.claim_verdicts[0].status == CLAIM_TIME_MISMATCH


def test_no_registry_warns_but_passes():
    world, user = _world()
    _tour(world, ["cafe-7"])
    sub = make_revealed_subsequence(world.profile, user.chain, [1])
    report = audit(world.profile, _truthful_claims(sub), sub,
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
    report = audit(world.profile, _truthful_claims(sub), sub,
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
        report = audit(world.profile, _truthful_claims(sub), sub,
                       world.directory.pubkeys(), world.registry)
        assert report.ok
        assert report.checks["accumulator"] == 2


def test_counter_law_hashchain_last_revealed_index():
    world, user = _world()
    _tour(world, ["cafe-7", "lib-2", "cafe-7", "lib-2", "cafe-7"])
    for positions, expected in ([1, 2], 2), ([2, 4], 4), ([5], 5):
        sub = make_revealed_subsequence(world.profile, user.chain, positions)
        report = audit(world.profile, _truthful_claims(sub), sub,
                       world.directory.pubkeys(), world.registry)
        assert report.checks["link"] == expected


# ---------------------------------------------------------------------------
# epoch reports: verified once per audit
# ---------------------------------------------------------------------------

def _shared_epoch_audit(registry_change=None):
    """Three claims in cafe-7's epoch-0 report, two in lib-2's, audited
    against the world's registry with ``registry_change`` applied to
    cafe-7's report."""
    world, user = _world("bloom")
    _tour(world, ["cafe-7", "lib-2", "cafe-7", "lib-2", "cafe-7"])
    registry = EpochRegistry()
    for r in world.registry.reports():
        if registry_change is not None and r.location_id == "cafe-7":
            r = registry_change(world, r)
        registry.publish(r)
    sub = make_revealed_subsequence(world.profile, user.chain,
                                    [1, 2, 3, 4, 5])
    return audit(world.profile, _truthful_claims(sub), sub,
                 world.directory.pubkeys(), registry)


def test_each_epoch_report_counted_once_per_audit():
    report = _shared_epoch_audit()
    assert report.ok
    assert report.checks["report"] == 2
    assert report.checks["proof"] == 5


def _flip_report_sig(world, r):
    sig = r.report_sig
    return replace(r, report_sig=replace(
        sig, data=bytes([sig.data[0] ^ 1]) + sig.data[1:]))


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


def test_registry_file_written_before_keyed_lookup_audits_the_same():
    """Files exported by ``locprov simulate`` on ``scenario.json`` when the
    registry scanned every report and the auditor verified a report once
    per claim; ``report.json`` is the audit written then. The registry
    holds empty reports, and several claims share a report. Verdicts and
    ordering counts are unchanged; only the report verifies fall."""
    folder = DATA / "shared-epochs-bloom"
    _, sub, directory = load_chain_file((folder / "chain.json").read_text())
    claims = load_claims_file((folder / "claims.json").read_text())
    _, registry = load_registry_file((folder / "registry.json").read_text())
    assert any(r.accumulator.bits == bytes(len(r.accumulator.bits))
               for r in registry.reports())
    report = audit(MODERN, claims, sub, Directory(directory).pubkeys(),
                   registry)
    then = json.loads((folder / "report.json").read_text())["report"]
    now = json.loads(dump_audit_report_file(report))["report"]
    assert now["signatures_verified"] == then.pop("signatures_verified") - 3
    del now["signatures_verified"]
    assert now == then
    assert report.checks["report"] == 3


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
