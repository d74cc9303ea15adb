"""Auditing of location-history claims against revealed provenance.

The auditor receives an ordered list of location claims plus the matching
revealed subsequence and checks, per claim: the authority's proof
signature; every endorsement (witness signature, authority timestamp
signature, digest binding, field agreement, timestamp window); that the
claimed location matches the proof (exactly, or through a verified
granularity opening for blinded statements); that the claimed time equals
the proof's visit time; and, when an epoch registry is available, that the
proof's digest is included in the published report for the epoch its
timestamp falls in. Each distinct epoch report is verified (signature and
accumulator shape) once per audit, by the first claim that falls in it;
later claims in the same report reuse that result and only test membership.
Chronological order of the whole presentation is then delegated to the
active ordering scheme's verifier.

First, one ``fanout.prefetch`` call verifies, in one batch split across
the machine's CPUs when it is large, every signature a clean audit checks:
each claim's proof, witness and timestamp signatures and epoch report
(``_claim_jobs``), then the links (``hashchain.link_jobs``) or accumulators
(``bloom.accumulator_jobs``). The claims and the ordering are then walked
one by one, every signature check answered from the batch through the
``verify`` it returns, or verified on the spot if the batch lacks it. So
the batch changes how fast an audit runs, never its verdict; a failing
audit may verify signatures the walk never reads.

Verdicts separate what failed so that failures can be mapped back onto the
threat taxonomy (``classify_failure``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from . import epochs
from .bloom import accumulator_jobs, bloom_contains, bloom_order_verify
from .crypto import CryptoProfile, Signature
from .epochs import EpochRegistry, RegistryError, check_inclusion
from .fanout import prefetch
from .hashchain import chain_verify_subsequence, link_jobs
from .model import (
    EndorsementStatement,
    EpochReport,
    LocationStatement,
    OrderingVerdict,
    PrivateLocationStatement,
    RevealedEntry,
    RevealedSubsequence,
    TimestampAttestation,
    ValidationError,
    SCHEME_BLOOM,
    SCHEME_HASHCHAIN,
    canonical_encode,
    proof_digest,
    statement_signing_bytes,
    ORDER_INCOMPLETE,
)

CLAIM_OK = "OK"
CLAIM_BAD_SIGNATURE = "BadSignature"
CLAIM_ENDORSEMENT_MISMATCH = "EndorsementMismatch"
CLAIM_GRANULARITY_MISMATCH = "GranularityMismatch"
CLAIM_EPOCH_MISSING = "EpochMissing"
CLAIM_EPOCH_EXCLUDED = "EpochExcluded"
CLAIM_TIME_MISMATCH = "TimeMismatch"


@dataclass(frozen=True)
class LocationClaim:
    location_id: str  # at whatever granularity the user chose to reveal
    visit_time: int


@dataclass(frozen=True)
class ClaimVerdict:
    index: int
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == CLAIM_OK


@dataclass(frozen=True)
class AuditReport:
    claim_verdicts: tuple[ClaimVerdict, ...]
    ordering: OrderingVerdict
    # Signature verifies by kind: proof, witness, timestamp, report, link
    # and accumulator.
    checks: Counter
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.claim_verdicts) and self.ordering.ok

    @property
    def signatures_verified(self) -> int:
        return self.checks.total()

    def failures(self) -> list[ClaimVerdict]:
        return [v for v in self.claim_verdicts if not v.ok]


def audit(
    profile: CryptoProfile,
    claims: Sequence[LocationClaim],
    sub: RevealedSubsequence,
    pubkeys: Mapping[str, bytes],
    registry: Optional[EpochRegistry] = None,
    *,
    endorsement_window_ms: int = 60_000,
) -> AuditReport:
    """Audit claims against a revealed subsequence.

    ``claims[i]`` is checked against ``sub.entries[i]``; a count mismatch is
    a structural malformation and yields an Incomplete report. Without a
    registry the epoch check is skipped with a warning so that chains from
    deployments without published reports remain auditable.
    """
    warnings: list[str] = []
    checks: Counter = Counter()
    # (location, epoch) of each report verified so far -> None when it
    # verified, else the failure detail every claim in it gets.
    report_errors: dict[tuple[str, int], Optional[str]] = {}

    if len(claims) != len(sub.entries):
        return AuditReport(
            claim_verdicts=(),
            ordering=OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=(f"{len(claims)} claims for {len(sub.entries)} "
                        "revealed entries")),
            checks=checks,
        )
    if registry is None:
        warnings.append("no epoch registry supplied; epoch inclusion not checked")
    # Looked up in this module, so that wrappers installed here (the
    # benchmark times the verifiers) see the calls.
    if sub.scheme == SCHEME_HASHCHAIN:
        order_jobs, verify_order = link_jobs, chain_verify_subsequence
    elif sub.scheme == SCHEME_BLOOM:
        order_jobs, verify_order = accumulator_jobs, bloom_order_verify
    else:
        raise ValidationError(f"unknown ordering scheme {sub.scheme!r}")

    reports = [None if registry is None else registry.lookup(
        r.entry.elp.proof.statement.location_id,
        r.entry.elp.proof.statement.visit_time) for r in sub.entries]
    verify = prefetch([
        *(job for revealed, report in zip(sub.entries, reports)
          for job in _claim_jobs(profile, revealed, report, pubkeys)),
        *order_jobs(profile, sub, pubkeys)])

    verdicts = tuple(
        _audit_claim(profile, i, claim, revealed, report, pubkeys, registry,
                     endorsement_window_ms, checks, report_errors, verify)
        for i, (claim, revealed, report) in enumerate(
            zip(claims, sub.entries, reports))
    )
    return AuditReport(
        claim_verdicts=verdicts,
        ordering=verify_order(profile, sub, pubkeys, checks, verify),
        checks=checks,
        warnings=tuple(warnings),
    )


def _claim_jobs(profile: CryptoProfile, revealed: RevealedEntry,
                report: Optional[EpochReport],
                pubkeys: Mapping[str, bytes]) -> list[tuple]:
    """The signatures ``_audit_claim`` checks for one claim, as ``fanout``
    jobs, given ``report``, the epoch report covering its proof."""
    lp = revealed.entry.elp.proof
    issuer_key = pubkeys.get(lp.statement.location_id)
    if issuer_key is None:  # the claim fails before any signature
        return []
    jobs = [(_proof_signed, profile, issuer_key, lp.statement,
             lp.authority_sig)]
    for endorsement in revealed.entry.elp.endorsements:
        es = endorsement.statement
        witness_key = pubkeys.get(es.witness_id)
        if witness_key is None:
            break
        jobs.append((_witness_signed, profile, witness_key, es,
                     endorsement.witness_sig))
        jobs.append((_timestamp_signed, profile, issuer_key, es,
                     endorsement.authority_time_sig))
    if report is not None:
        # Looked up as ``check_inclusion`` looks it up, so that the batch
        # answers for a wrapper installed there (the benchmark counts it).
        jobs.append((epochs.verify_report, profile, issuer_key, report))
    return jobs


# The signature checks of a claim, each building the bytes it verifies in
# the process that runs it.

def _proof_signed(profile: CryptoProfile, public_key: bytes, stmt,
                  sig: Signature) -> bool:
    return profile.verify(public_key, statement_signing_bytes(stmt), sig)


def _witness_signed(profile: CryptoProfile, public_key: bytes,
                    es: EndorsementStatement, sig: Signature) -> bool:
    return profile.verify(public_key, canonical_encode(es), sig)


def _timestamp_signed(profile: CryptoProfile, public_key: bytes,
                      es: EndorsementStatement, sig: Signature) -> bool:
    attestation = TimestampAttestation(es.proof_digest, es.endorsed_at)
    return profile.verify(public_key, canonical_encode(attestation), sig)


def _audit_claim(
    profile: CryptoProfile,
    index: int,
    claim: LocationClaim,
    revealed: RevealedEntry,
    report: Optional[EpochReport],
    pubkeys: Mapping[str, bytes],
    registry: Optional[EpochRegistry],
    window_ms: int,
    checks: Counter,
    report_errors: dict[tuple[str, int], Optional[str]],
    verify: Callable[..., bool],
) -> ClaimVerdict:
    lp = revealed.entry.elp.proof
    stmt = lp.statement
    issuer = stmt.location_id

    def fail(status: str, detail: str) -> ClaimVerdict:
        return ClaimVerdict(index=index, status=status, detail=detail)

    # Proof signature.
    issuer_key = pubkeys.get(issuer)
    if issuer_key is None:
        return fail(CLAIM_BAD_SIGNATURE, f"unknown issuer {issuer!r}")
    checks["proof"] += 1
    if not verify(_proof_signed, profile, issuer_key, stmt, lp.authority_sig):
        return fail(CLAIM_BAD_SIGNATURE, "authority signature invalid")

    # Endorsements.
    if not revealed.entry.elp.endorsements:
        return fail(CLAIM_ENDORSEMENT_MISMATCH, "no endorsements")
    expected_digest = proof_digest(profile, lp)
    for endorsement in revealed.entry.elp.endorsements:
        es = endorsement.statement
        # Structural binding first: a digest or field mismatch means the
        # endorsement belongs to some other proof, whoever signed it.
        if es.proof_digest != expected_digest:
            return fail(CLAIM_ENDORSEMENT_MISMATCH,
                        "digest: endorsement refers to a different proof")
        if (es.user_id, es.location_id, es.visit_time) != (
                stmt.user_id, stmt.location_id, stmt.visit_time):
            return fail(CLAIM_ENDORSEMENT_MISMATCH,
                        "fields: endorsement disagrees with the proof")
        witness_key = pubkeys.get(es.witness_id)
        if witness_key is None:
            return fail(CLAIM_BAD_SIGNATURE,
                        f"unknown witness {es.witness_id!r}")
        checks["witness"] += 1
        if not verify(_witness_signed, profile, witness_key, es,
                      endorsement.witness_sig):
            return fail(CLAIM_BAD_SIGNATURE, "witness signature invalid")
        checks["timestamp"] += 1
        if not verify(_timestamp_signed, profile, issuer_key, es,
                      endorsement.authority_time_sig):
            return fail(CLAIM_BAD_SIGNATURE, "timestamp signature invalid")
        if not stmt.visit_time <= es.endorsed_at <= stmt.visit_time + window_ms:
            return fail(CLAIM_TIME_MISMATCH,
                        "endorsement-window: timestamp outside window")

    # Location claim at the revealed granularity.
    granularity_verdict = _check_location_claim(profile, claim, stmt, revealed)
    if granularity_verdict is not None:
        return ClaimVerdict(index=index, status=CLAIM_GRANULARITY_MISMATCH,
                            detail=granularity_verdict)

    # Visit-time claim is exact: the time comes from the proof itself, so
    # any disagreement is a false claim, not clock skew.
    if claim.visit_time != stmt.visit_time:
        return fail(CLAIM_TIME_MISMATCH,
                    f"claim-time: claimed {claim.visit_time}, "
                    f"proof says {stmt.visit_time}")

    # Epoch inclusion.
    if registry is not None:
        if report is None:
            return fail(CLAIM_EPOCH_MISSING,
                        f"no epoch report covers t={stmt.visit_time} "
                        f"at {issuer!r}")
        key = (report.location_id, report.epoch_id)
        if key in report_errors:
            if report_errors[key] is not None:
                return fail(CLAIM_BAD_SIGNATURE, report_errors[key])
            included = bloom_contains(profile, report.accumulator,
                                      expected_digest)
        else:
            checks["report"] += 1
            try:
                included = check_inclusion(profile, issuer_key, report, lp,
                                           verify)
            except RegistryError as exc:
                report_errors[key] = f"epoch report: {exc}"
                return fail(CLAIM_BAD_SIGNATURE, report_errors[key])
            report_errors[key] = None
        if not included:
            return fail(CLAIM_EPOCH_EXCLUDED,
                        f"digest absent from epoch {report.epoch_id} report")

    return ClaimVerdict(index=index, status=CLAIM_OK)


def _check_location_claim(profile: CryptoProfile, claim: LocationClaim,
                          stmt, revealed: RevealedEntry) -> Optional[str]:
    """None when the claimed location is supported; else a failure detail."""
    if isinstance(stmt, LocationStatement):
        if claim.location_id != stmt.location_id:
            return (f"claimed {claim.location_id!r}, proof names "
                    f"{stmt.location_id!r}")
        return None
    assert isinstance(stmt, PrivateLocationStatement)
    # Blinded statement: the claim must match a disclosed opening that
    # verifies against its commitment. Unrevealed openings are never read.
    for index, value, nonce in revealed.disclosed:
        if not 1 <= index <= len(stmt.commitments):
            return f"disclosed index {index} out of range"
        if value != claim.location_id:
            continue
        if profile.verify_commitment(stmt.commitments[index - 1],
                                     value.encode("utf-8"), nonce):
            return None
        return f"opening for {value!r} does not match its commitment"
    return f"no verified opening for claimed granularity {claim.location_id!r}"


# ---------------------------------------------------------------------------
# Threat classification
# ---------------------------------------------------------------------------

LABEL_FALSE_PRESENCE = "false-presence"
LABEL_PROOF_SWITCHING = "proof-switching"
LABEL_FALSE_ENDORSEMENT = "false-endorsement"
LABEL_FALSE_TIME = "backdating/future-dating"
LABEL_REORDERING = "reordering"
LABEL_UNCLASSIFIED = "unclassified"


def classify_failure(report: AuditReport) -> str:
    """Map a failed report onto the threat taxonomy.

    Precedence runs from forgery outward: invalid signatures mean outright
    fabrication; a digest mismatch means a genuine proof was rebound
    (proof switching); endorsement field or window trouble points at the
    witness; epoch exclusion at timestamp manipulation; and a pure
    ordering failure at reordering.
    """
    if report.ok:
        raise ValidationError("cannot classify a fully passing report")
    statuses = {v.status for v in report.failures()}
    details = [v.detail for v in report.failures()]
    if CLAIM_BAD_SIGNATURE in statuses:
        return LABEL_FALSE_PRESENCE
    if CLAIM_ENDORSEMENT_MISMATCH in statuses:
        if any(d.startswith("digest:") for d in details):
            return LABEL_PROOF_SWITCHING
        if any(d.startswith("fields:") for d in details):
            return LABEL_FALSE_ENDORSEMENT
        return LABEL_PROOF_SWITCHING
    if CLAIM_TIME_MISMATCH in statuses and any(
            d.startswith("endorsement-window:") for d in details):
        return LABEL_FALSE_ENDORSEMENT
    if CLAIM_EPOCH_EXCLUDED in statuses or CLAIM_EPOCH_MISSING in statuses:
        return LABEL_FALSE_TIME
    if not report.ordering.ok:
        return LABEL_REORDERING
    return LABEL_UNCLASSIFIED


def render_text_report(report: AuditReport) -> str:
    """Human-readable audit summary."""
    lines = []
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(f"audit result: {verdict}")
    for v in report.claim_verdicts:
        suffix = f" ({v.detail})" if v.detail else ""
        lines.append(f"  claim {v.index + 1}: {v.status}{suffix}")
    o = report.ordering
    detail = f" ({o.detail})" if o.detail else ""
    lines.append(f"  ordering: {o.status}{detail}")
    lines.append(
        f"  checks: signatures={report.signatures_verified} "
        f"links={report.checks['link']} "
        f"accumulators={report.checks['accumulator']}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    if not report.ok:
        lines.append(f"  threat class: {classify_failure(report)}")
    return "\n".join(lines)
