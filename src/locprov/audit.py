"""Auditing of location-history claims against revealed provenance.

The auditor receives an ordered list of location claims plus the matching
revealed subsequence and checks, per claim: the authority's proof
signature; every endorsement (witness signature, authority timestamp
signature, digest binding, field agreement, timestamp window); that the
claimed location matches the proof (exactly, or through a verified
granularity opening for blinded statements); that the claimed time equals
the proof's visit time; and, when an epoch registry is available, that the
proof's digest is included in the published report for the epoch its
timestamp falls in. An authority publishes a report only for an epoch in
which it issued a proof, so a claim in any other epoch draws
``EpochMissing``, and one whose report lacks its digest ``EpochExcluded``.
Every claim takes that check the same way (``check_inclusion``: report
signature, accumulator shape, membership);
the report signature is one job of the audit's batch, however many claims
fall in the report, and counts as one ``report`` check per distinct report.
Chronological order of the whole presentation is then delegated to the
verifier of the first revealed entry's construct class.

The signature, binding and window rules are the parties' own (``model``'s
``proof_signed``, ``endorsement_signed``, ``timestamp_signed``,
``binding_fault``, ``ENDORSEMENT_WINDOW_MS``), and no caller sets its own,
so every tool auditing the same files agrees.

The whole audit, claims then ordering, is one walk of the profile it is
handed, given to ``fanout.batched``. Every signature check in it ends in
that profile's ``verify``, and a failed one only ends that claim or the
ordering early. So a first run whose profile records each signature and
answers True reaches each signature a real run can check, and ``batched``
verifies all of them in batches of at most about ``fanout.BATCH_BYTES``
of messages, each split across the machine's CPUs. When they all verify,
that run was the audit. Otherwise the walk runs again, answered from the
batches. The batches change how fast an audit runs, never its verdict; a
failing audit verifies, beyond what it counts, only signatures after its
first bad one. Past a flush, a signature that an earlier batch passed is
answered from the SHA-256 of its job, so there the verdict also rests on
SHA-256's collision resistance.

Verdicts separate what failed so that failures can be mapped back onto the
threat taxonomy (``classify_failure``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .bloom import bloom_order_verify
from .crypto import CryptoProfile
from .epochs import EpochRegistry, RegistryError, check_inclusion
from .fanout import batched
from .hashchain import chain_verify_subsequence
from .model import (
    ENDORSEMENT_WINDOW_MS,
    HashChainLink,
    OrderingVerdict,
    PrivateLocationStatement,
    RevealedEntry,
    RevealedSubsequence,
    ValidationError,
    binding_fault,
    endorsement_signed,
    proof_digest,
    proof_signed,
    timestamp_signed,
    ORDER_INCOMPLETE,
)
# Unused here, but the benchmark's tracer wraps ``audit.canonical_encode``.
from .model import canonical_encode  # noqa: F401

CLAIM_OK = "OK"
CLAIM_BAD_SIGNATURE = "BadSignature"
CLAIM_ENDORSEMENT_MISMATCH = "EndorsementMismatch"
CLAIM_GRANULARITY_MISMATCH = "GranularityMismatch"
CLAIM_EPOCH_MISSING = "EpochMissing"
CLAIM_EPOCH_EXCLUDED = "EpochExcluded"
CLAIM_TIME_MISMATCH = "TimeMismatch"


@dataclass(frozen=True, slots=True)
class LocationClaim:
    location_id: str  # at whatever granularity the user chose to reveal
    visit_time: int


@dataclass(frozen=True, slots=True)
class ClaimVerdict:
    index: int
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == CLAIM_OK


@dataclass(frozen=True, slots=True)
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
) -> AuditReport:
    """Audit claims against a revealed subsequence.

    ``claims[i]`` is checked against ``sub.entries[i]``; a count mismatch is
    a structural malformation and yields an Incomplete report. Without a
    registry the epoch check is skipped with a warning so that chains from
    deployments without published reports remain auditable.
    """
    warnings: list[str] = []
    if len(claims) != len(sub.entries):
        return AuditReport(
            claim_verdicts=(),
            ordering=OrderingVerdict(
                status=ORDER_INCOMPLETE,
                detail=(f"{len(claims)} claims for {len(sub.entries)} "
                        "revealed entries")),
            checks=Counter(),
        )
    if registry is None:
        warnings.append("no epoch registry supplied; epoch inclusion not checked")
    # The first entry's construct names the scheme; a mixed presentation
    # fails its verifier's per-entry check. Looked up in this module, so
    # that wrappers installed here (the benchmark's timers) see the calls.
    first = sub.entries[0].entry.ordering if sub.entries else None
    verify_order = (chain_verify_subsequence
                    if isinstance(first, HashChainLink) else bloom_order_verify)

    def walk(profile: CryptoProfile) -> AuditReport:
        checks: Counter = Counter()
        # (location, epoch) of each report counted so far
        reports: set[tuple[str, int]] = set()
        verdicts = tuple(
            _audit_claim(profile, i, claim, revealed, pubkeys, registry,
                         checks, reports)
            for i, (claim, revealed) in enumerate(zip(claims, sub.entries)))
        return AuditReport(
            claim_verdicts=verdicts,
            ordering=verify_order(profile, sub, pubkeys, checks),
            checks=checks,
            warnings=tuple(warnings),
        )
    return batched(profile, walk)


def signer_ids(sub: RevealedSubsequence) -> set[str]:
    """The parties whose keys an audit of ``sub`` looks up: the issuer of
    each revealed proof (whose key also checks its timestamps, its epoch
    report and its accumulator), the witness of each revealed endorsement
    and the issuer of each hash-chain slot, the hidden positions' evidence.
    A chain file's directory holds these parties only
    (``serialize.dump_chain_file``)."""
    ids = {slot.issuer_id for slot in sub.chain_evidence}
    for revealed in sub.entries:
        elp = revealed.entry.elp
        ids.add(elp.proof.statement.location_id)
        ids.update(e.statement.witness_id for e in elp.endorsements)
    return ids


def claimable_at(revealed: RevealedEntry) -> tuple[tuple, ...]:
    """Where ``revealed`` can be claimed, as openings (index, location, nonce):
    a blinded statement's disclosed ones, in disclosure order (none if it
    discloses none); a plain statement's location, index and nonce None."""
    stmt = revealed.entry.elp.proof.statement
    return (revealed.disclosed if isinstance(stmt, PrivateLocationStatement)
            else ((None, stmt.location_id, None),))


def truthful_claims(sub: RevealedSubsequence) -> list[LocationClaim]:
    """Each entry of ``sub`` claimed truthfully: at its first claimable
    location (else its authority's id, which the audit flags) and time."""
    return [LocationClaim(next((where for _, where, _ in claimable_at(r)),
                               r.entry.elp.proof.statement.location_id),
                          r.entry.elp.proof.statement.visit_time)
            for r in sub.entries]


def _audit_claim(
    profile: CryptoProfile,
    index: int,
    claim: LocationClaim,
    revealed: RevealedEntry,
    pubkeys: Mapping[str, bytes],
    registry: Optional[EpochRegistry],
    checks: Counter,
    reports: set[tuple[str, int]],
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
    if not proof_signed(profile, issuer_key, lp):
        return fail(CLAIM_BAD_SIGNATURE, "authority signature invalid")

    # Endorsements.
    if not revealed.entry.elp.endorsements:
        return fail(CLAIM_ENDORSEMENT_MISMATCH, "no endorsements")
    expected_digest = proof_digest(profile, lp)
    for endorsement in revealed.entry.elp.endorsements:
        es = endorsement.statement
        # Structural binding first: a digest or field mismatch means the
        # endorsement belongs to some other proof, whoever signed it.
        fault = binding_fault(stmt, expected_digest, es)
        if fault is not None:
            return fail(CLAIM_ENDORSEMENT_MISMATCH, fault)
        witness_key = pubkeys.get(es.witness_id)
        if witness_key is None:
            return fail(CLAIM_BAD_SIGNATURE,
                        f"unknown witness {es.witness_id!r}")
        checks["witness"] += 1
        if not endorsement_signed(profile, witness_key, es,
                                  endorsement.witness_sig):
            return fail(CLAIM_BAD_SIGNATURE, "witness signature invalid")
        checks["timestamp"] += 1
        if not timestamp_signed(profile, issuer_key, es,
                                endorsement.authority_time_sig):
            return fail(CLAIM_BAD_SIGNATURE, "timestamp signature invalid")
        if not stmt.visit_time <= es.endorsed_at <= \
                stmt.visit_time + ENDORSEMENT_WINDOW_MS:
            return fail(CLAIM_TIME_MISMATCH,
                        "endorsement-window: timestamp outside window")

    # Location claim at the revealed granularity.
    fault = _check_location_claim(profile, claim, stmt, revealed)
    if fault is not None:
        return fail(CLAIM_GRANULARITY_MISMATCH, fault)

    # Visit-time claim is exact: the time comes from the proof itself, so
    # any disagreement is a false claim, not clock skew.
    if claim.visit_time != stmt.visit_time:
        return fail(CLAIM_TIME_MISMATCH,
                    f"claim-time: claimed {claim.visit_time}, "
                    f"proof says {stmt.visit_time}")

    # Epoch inclusion: an epoch with no proof has no report.
    if registry is not None:
        report = registry.lookup(issuer, stmt.visit_time)
        if report is None:
            return fail(CLAIM_EPOCH_MISSING,
                        f"no epoch report with a proof covers "
                        f"t={stmt.visit_time} at {issuer!r}")
        key = (report.location_id, report.epoch_id)
        if key not in reports:
            reports.add(key)
            checks["report"] += 1
        try:
            included = check_inclusion(profile, issuer_key, report,
                                       expected_digest)
        except RegistryError as exc:
            return fail(CLAIM_BAD_SIGNATURE, f"epoch report: {exc}")
        if not included:
            return fail(CLAIM_EPOCH_EXCLUDED,
                        f"digest absent from epoch {report.epoch_id} report")

    return ClaimVerdict(index=index, status=CLAIM_OK)


def _check_location_claim(profile: CryptoProfile, claim: LocationClaim,
                          stmt, revealed: RevealedEntry) -> Optional[str]:
    """None when the claimed location is supported; else a failure detail."""
    for index, value, nonce in claimable_at(revealed):
        if index is None:  # a plain statement's one location
            return None if claim.location_id == value else (
                f"claimed {claim.location_id!r}, proof names {value!r}")
        # A blinded statement's disclosed opening must verify; no other is read.
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
