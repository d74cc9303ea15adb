"""Per-location epoch reports: signed accumulators of issued-proof digests.

At the end of every fixed-length epoch in which it issued a proof, a
location authority publishes a signed Bloom accumulator over the digests
of all proofs it issued during that epoch; an epoch that passes with no
proof is closed in the registry instead, and gets no report. Auditors use
the reports to pin a proof's claimed visit time to the window in which it
was actually issued: a proof whose timestamp falls in an epoch whose
published report does not contain its digest, or in an epoch with no
report at all, was minted at some other time (backdated or future-dated).

Reports expose digests only; recovering identities from a report requires
the preimage proof. The registry is an append-only trusted store: once a
report for (location, epoch) is published it cannot be replaced.

The registry keys reports by ``(location_id, epoch_id)`` and keeps one epoch
length per location, set by the first report published there. A report's
``[start, end)`` must be ``epoch_bounds(epoch_id, length)`` for that length,
so the epochs of a location tile time without overlap and ``lookup`` finds
the report covering ``t`` directly, at epoch ``t // length``. A report that
breaks the rule is refused on publication, so a registry file holding one
does not load.

Late reports are refused. The registry keeps one watermark per location:
the epoch after the latest one that location has published or closed
(``close``). ``publish`` refuses a report for an epoch below the
watermark, so a report can never enter an epoch once a later one is out,
nor one that passed empty: a backdated proof finds its epoch either
reported without it or closed for good. A repeated report is refused as
already published before the watermark is read. A location's reports
therefore go in in epoch order; a registry file lists them so (sorted by
location, then epoch), and one that does not fails to load. A report that
holds no digest is read like any other: every proof claimed in its epoch
is excluded from it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from .bloom import (TARGET_FPR, bloom_contains, bloom_insert, bloom_new,
                    bloom_well_formed)
from .crypto import CryptoProfile, Digest, KeyPair
from .model import EpochReport, ValidationError, report_signing_bytes


# Digests every epoch report is sized for, at ``TARGET_FPR``.
EPOCH_CAPACITY = 4096


class RegistryError(ValidationError):
    """Violation of registry append-only or report integrity rules."""


def epoch_of(t: int, epoch_len_ms: int) -> int:
    return t // epoch_len_ms


def epoch_bounds(epoch_id: int, epoch_len_ms: int) -> tuple[int, int]:
    return epoch_id * epoch_len_ms, (epoch_id + 1) * epoch_len_ms


def build_epoch_report(
    profile: CryptoProfile,
    authority_keys: KeyPair,
    location_id: str,
    epoch_id: int,
    epoch_len_ms: int,
    digests: Sequence[Digest],
) -> EpochReport:
    """Accumulate an epoch's issued-proof digests and sign the report.

    All digests are set in one copy of the empty filter's image. The report
    signature covers the accumulator's bytes, so the accumulator itself is
    left unsigned."""
    acc = bloom_insert(profile, bloom_new(EPOCH_CAPACITY, TARGET_FPR),
                       *digests)
    start, end = epoch_bounds(epoch_id, epoch_len_ms)
    report = EpochReport(location_id, epoch_id, start, end, acc)
    sig = profile.sign(authority_keys.private_key, report_signing_bytes(report))
    return replace(report, report_sig=sig)


def verify_report(profile: CryptoProfile, public_key: bytes,
                  report: EpochReport) -> bool:
    return profile.verify(public_key, report_signing_bytes(report),
                          report.report_sig)


def check_inclusion(profile: CryptoProfile, public_key: bytes,
                    report: EpochReport, digest: Digest) -> bool:
    """True iff a proof's ``digest`` is a member of the report accumulator.

    The report signature must verify first; a report that does not is no
    evidence either way. A structurally inconsistent accumulator (even a
    signed one) is likewise rejected rather than probed.
    """
    if not verify_report(profile, public_key, report):
        raise RegistryError(
            f"report signature invalid for {report.location_id!r} "
            f"epoch {report.epoch_id}")
    if not bloom_well_formed(report.accumulator):
        raise RegistryError(
            f"malformed accumulator in report for {report.location_id!r} "
            f"epoch {report.epoch_id}")
    return bloom_contains(profile, report.accumulator, digest)


class EpochRegistry:
    """Append-only store of published epoch reports, keyed by
    (location, epoch), with one epoch length per location."""

    def __init__(self):
        self._reports: dict[tuple[str, int], EpochReport] = {}
        self._epoch_len: dict[str, int] = {}
        # per location, the first epoch a report may still be published for
        self._watermark: dict[str, int] = {}

    def publish(self, report: EpochReport) -> None:
        key = (report.location_id, report.epoch_id)
        if key in self._reports:
            raise RegistryError(
                f"report for {report.location_id!r} epoch {report.epoch_id} "
                "already published")
        length = self._epoch_len.get(report.location_id,
                                     report.end - report.start)
        if length < 1 or (report.start, report.end) != epoch_bounds(
                report.epoch_id, length):
            raise RegistryError(
                f"report for {report.location_id!r} epoch {report.epoch_id} "
                f"spans [{report.start}, {report.end}), not an epoch of "
                f"{length} ms")
        watermark = self._watermark.get(report.location_id, 0)
        if report.epoch_id < watermark:
            raise RegistryError(
                f"report for {report.location_id!r} epoch {report.epoch_id} "
                f"comes late: epochs before {watermark} are closed")
        self._epoch_len.setdefault(report.location_id, length)
        self._reports[key] = report
        self._watermark[report.location_id] = report.epoch_id + 1

    def close(self, location_id: str, epoch_id: int) -> None:
        """Close ``epoch_id`` at ``location_id`` with no report: no report
        for it, or for any earlier epoch there, can be published after."""
        self._watermark[location_id] = max(
            self._watermark.get(location_id, 0), epoch_id + 1)

    def lookup(self, location_id: str, t: int) -> Optional[EpochReport]:
        """The unique report whose [start, end) interval contains t."""
        length = self._epoch_len.get(location_id)
        if length is None:
            return None
        return self._reports.get((location_id, epoch_of(t, length)))

    def reports(self) -> list[EpochReport]:
        return sorted(self._reports.values(),
                      key=lambda r: (r.location_id, r.epoch_id))
