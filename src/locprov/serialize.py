"""Versioned file formats.

Four file formats, each a JSON object carrying a ``format_version`` field:

* chain file (version 3) -- the crypto profile name, the public-key
  directory needed for the audit, and ``subsequence``: the canonical
  encoding of a revealed subsequence (a full chain is the reveal-all
  case), deflated, in base64;
* registry file (version 3) -- the crypto profile name and ``reports``:
  the canonical encoding of the sequence of published epoch reports,
  deflated, in base64;
* claims file (version 2) -- the ordered location claims to audit, in
  plain JSON;
* report file (version 2) -- a machine-readable audit report, in plain
  JSON.

Everything signed or hashed therefore reaches an auditor in the one
encoding of ``model``, decoded by ``model.canonical_decode``; this module
only wraps it. A version 3 body is ``zlib.compress(canonical bytes)`` at
the fixed level ``DEFLATE_LEVEL``: the bytes themselves, and so every
signature and digest, are those of version 2, whose chain and registry
files hold them undeflated and are still read. Version 1 files, which
spelled every type out in JSON, are not read.

A body is inflated to at most ``INFLATE_CAP`` (1,024) times its deflated
length. The worst honest ratio measured with zlib 1.2.13 is 960:1, a
registry of empty reports at the largest epoch capacity a scenario may
ask for (2 MiB filters). A day of mostly empty default-capacity reports,
6.5 MB and the largest body the tests write, is 77:1; the benchmark's
registries are 42-48:1. Deflate itself cannot pass about 1,032:1, so the
cap states the bound more than it tightens it.
A body that inflates past the cap, is truncated, has bytes after the end
of its stream or fails its Adler-32 check is refused.

Every loader raises ``FormatError`` for any input it cannot take, whatever
is wrong with it.
"""

from __future__ import annotations

import base64
import json
import zlib

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

# Chain and registry files are written at FORMAT_VERSION, with deflated
# bodies; claims and report files at PLAIN_VERSION, the version whose chain
# and registry bodies are not deflated.
FORMAT_VERSION = 3
PLAIN_VERSION = 2
_BODY_VERSIONS = (PLAIN_VERSION, FORMAT_VERSION)
DEFLATE_LEVEL = 6
INFLATE_CAP = 1024


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


def _dump(fields: dict, version: int = PLAIN_VERSION) -> str:
    return json.dumps({"format_version": version, **fields},
                      indent=2, sort_keys=True)


def _deflated(obj) -> str:
    return _b64(zlib.compress(canonical_encode(obj), DEFLATE_LEVEL))


def _inflate(data: bytes, what: str) -> bytes:
    cap = INFLATE_CAP * len(data)
    inflater = zlib.decompressobj()
    try:
        # one byte more than the cap tells a body that passes it
        out = inflater.decompress(data, cap + 1)
    except zlib.error as exc:  # not deflate, or a failed Adler-32 check
        raise FormatError(f"{what} does not inflate: {exc}") from None
    if len(out) > cap:
        raise FormatError(f"{what} inflates past {INFLATE_CAP} times its "
                          f"{len(data)} bytes")
    if not inflater.eof:
        raise FormatError(f"{what} is a truncated deflate stream")
    if inflater.unused_data:
        raise FormatError(f"{what} has trailing bytes after its deflate "
                          "stream")
    return out


def _load(text: str, kind: str,
          versions: tuple[int, ...] = (PLAIN_VERSION,)) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{kind} file is not JSON: {exc}") from None
    if not isinstance(obj, dict) or "format_version" not in obj:
        raise FormatError(f"{kind} file is missing format_version")
    if obj["format_version"] not in versions:
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
    what = f"{kind} {field}"
    data = _unb64(obj.get(field), what)
    if obj["format_version"] == FORMAT_VERSION:
        data = _inflate(data, what)
    try:
        value = canonical_decode(data, profile)
    except EncodingError as exc:
        raise FormatError(f"{what}: {exc}") from None
    if not isinstance(value, expected):
        raise FormatError(f"{what} encodes a {type(value).__name__}")
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
        "subsequence": _deflated(sub),
        "directory": {
            pid: {"role": meta["role"], "scheme": meta["scheme_id"],
                  "public_key": _b64(meta["public_key"])}
            for pid, meta in sorted(directory.items())
        },
    }, FORMAT_VERSION)


def load_chain_file(text: str) -> tuple[str, RevealedSubsequence, dict[str, dict]]:
    obj = _load(text, "chain", _BODY_VERSIONS)
    profile = _profile(obj, "chain")
    sub = _decode(obj, "subsequence", "chain", profile, RevealedSubsequence)
    if sub.scheme not in SCHEMES:
        raise FormatError(f"unknown ordering scheme {sub.scheme!r}")
    return obj["profile"], sub, _directory_from_json(obj.get("directory"))


def dump_registry_file(profile_name: str, registry: EpochRegistry) -> str:
    return _dump({"profile": profile_name,
                  "reports": _deflated(registry.reports())}, FORMAT_VERSION)


def load_registry_file(text: str) -> tuple[str, EpochRegistry]:
    obj = _load(text, "registry", _BODY_VERSIONS)
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
