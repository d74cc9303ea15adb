"""Versioned file formats.

Four file formats, each a JSON object carrying a ``format_version`` field:

* chain file -- the crypto profile name, the public-key directory needed
  for the audit, and ``subsequence``: the base64 canonical encoding of a
  revealed subsequence (a full chain is the reveal-all case);
* registry file -- the crypto profile name and ``reports``: the base64
  canonical encoding of the sequence of published epoch reports;
* claims file -- the ordered location claims to audit, in plain JSON;
* report file -- a machine-readable audit report, in plain JSON.

Everything signed or hashed therefore reaches an auditor in the one
encoding of ``model``, decoded by ``model.canonical_decode``; this module
only wraps it. Version 1 files, which spelled every type out in JSON, are
not read. Every loader raises ``FormatError`` for any input it cannot take,
whatever is wrong with it.
"""

from __future__ import annotations

import base64
import json

from .audit import AuditReport, LocationClaim
from .crypto import CryptoError, CryptoProfile, get_profile
from .epochs import EpochRegistry, RegistryError
from .model import (
    EncodingError,
    EpochReport,
    RevealedSubsequence,
    SCHEMES,
    ValidationError,
    canonical_decode,
    canonical_encode,
)

FORMAT_VERSION = 2


class FormatError(ValidationError):
    """File contents do not match the expected schema."""


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text, what: str) -> bytes:
    if not isinstance(text, str):
        raise FormatError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise FormatError(f"{what} is not valid base64: {exc}") from None


def _dump(fields: dict) -> str:
    return json.dumps({"format_version": FORMAT_VERSION, **fields},
                      indent=2, sort_keys=True)


def _load(text: str, kind: str) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{kind} file is not JSON: {exc}") from None
    if not isinstance(obj, dict) or "format_version" not in obj:
        raise FormatError(f"{kind} file is missing format_version")
    if obj["format_version"] != FORMAT_VERSION:
        raise FormatError(
            f"unsupported {kind} format_version {obj['format_version']!r}")
    return obj


def _profile(obj: dict, kind: str) -> CryptoProfile:
    name = obj.get("profile")
    if not isinstance(name, str):
        raise FormatError(f"{kind} file has no profile name")
    try:
        return get_profile(name)
    except CryptoError as exc:
        raise FormatError(str(exc)) from None


def _decode(obj: dict, field: str, kind: str, profile: CryptoProfile,
            expected: type):
    try:
        value = canonical_decode(_unb64(obj.get(field), f"{kind} {field}"),
                                 profile)
    except EncodingError as exc:
        raise FormatError(f"{kind} {field}: {exc}") from None
    if not isinstance(value, expected):
        raise FormatError(f"{kind} {field} encodes a {type(value).__name__}")
    return value


def _directory_from_json(obj) -> dict[str, dict]:
    if not isinstance(obj, dict):
        raise FormatError("directory must be an object")
    directory = {}
    for pid, meta in obj.items():
        if not (isinstance(meta, dict) and all(
                isinstance(meta.get(k), str)
                for k in ("role", "scheme", "public_key"))):
            raise FormatError(f"directory entry {pid!r} needs role, scheme "
                              "and public_key strings")
        directory[pid] = {
            "role": meta["role"], "scheme_id": meta["scheme"],
            "public_key": _unb64(meta["public_key"], f"public key of {pid!r}")}
    return directory


def dump_chain_file(profile_name: str, sub: RevealedSubsequence,
                    directory: dict[str, dict]) -> str:
    return _dump({
        "profile": profile_name,
        "subsequence": _b64(canonical_encode(sub)),
        "directory": {
            pid: {"role": meta["role"], "scheme": meta["scheme_id"],
                  "public_key": _b64(meta["public_key"])}
            for pid, meta in sorted(directory.items())
        },
    })


def load_chain_file(text: str) -> tuple[str, RevealedSubsequence, dict[str, dict]]:
    obj = _load(text, "chain")
    profile = _profile(obj, "chain")
    sub = _decode(obj, "subsequence", "chain", profile, RevealedSubsequence)
    if sub.scheme not in SCHEMES:
        raise FormatError(f"unknown ordering scheme {sub.scheme!r}")
    return obj["profile"], sub, _directory_from_json(obj.get("directory"))


def dump_registry_file(profile_name: str, registry: EpochRegistry) -> str:
    return _dump({"profile": profile_name,
                  "reports": _b64(canonical_encode(registry.reports()))})


def load_registry_file(text: str) -> tuple[str, EpochRegistry]:
    obj = _load(text, "registry")
    profile = _profile(obj, "registry")
    registry = EpochRegistry()
    for report in _decode(obj, "reports", "registry", profile, tuple):
        if not isinstance(report, EpochReport):
            raise FormatError(
                f"registry holds a {type(report).__name__}, not a report")
        try:
            registry.publish(report)
        except RegistryError as exc:
            raise FormatError(str(exc)) from None
    return obj["profile"], registry


def dump_claims_file(claims: list[LocationClaim]) -> str:
    return _dump({"claims": [{"location_id": c.location_id,
                              "visit_time": c.visit_time} for c in claims]})


def load_claims_file(text: str) -> list[LocationClaim]:
    obj = _load(text, "claims")
    claims = obj.get("claims")
    if not isinstance(claims, list):
        raise FormatError("claims file has no list of claims")
    out = []
    for c in claims:
        if not (isinstance(c, dict) and isinstance(c.get("location_id"), str)
                and type(c.get("visit_time")) is int):
            raise FormatError("a claim needs a location_id string and an "
                              "integer visit_time")
        out.append(LocationClaim(c["location_id"], c["visit_time"]))
    return out


def dump_audit_report_file(report: AuditReport) -> str:
    return _dump({"report": {
        "ok": report.ok,
        "claims": [
            {"index": v.index, "status": v.status, "detail": v.detail}
            for v in report.claim_verdicts
        ],
        "ordering": {
            "status": report.ordering.status,
            "links_checked": report.checks["link"],
            "accumulators_checked": report.checks["accumulator"],
            "detail": report.ordering.detail,
        },
        "signatures_verified": report.signatures_verified,
        "warnings": list(report.warnings),
    }})
