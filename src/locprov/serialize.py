"""Versioned file formats.

Four file formats, each a JSON object carrying a ``format_version`` field:

* chain file (version 3) -- the crypto profile name, ``directory``: the
  public keys of the parties whose keys an audit of the subsequence looks
  up (``audit.signer_ids``) and of no one else, and ``subsequence``: the
  canonical encoding of a revealed subsequence (a full chain is the
  reveal-all case), deflated, in base64;
* registry file (version 3) -- the crypto profile name and ``reports``:
  the canonical encoding of the sequence of published epoch reports,
  deflated, in base64;
* claims file (version 2) -- the ordered location claims to audit, in
  plain JSON;
* report file (version 2) -- a machine-readable audit report, in plain
  JSON.

Chain, registry and claims files are written as compact JSON, keys sorted
and no whitespace; report files, which people read, are indented. Loaders
read JSON values only, so files written indented are read alike.

Everything signed or hashed therefore reaches an auditor in the one
encoding of ``model``, decoded by ``model.canonical_decode``; this module
only wraps it. A version 3 body is ``zlib.compress(canonical bytes)`` at
the fixed level ``DEFLATE_LEVEL``: the bytes themselves, and so every
signature and digest, are those of version 2, whose chain and registry
files hold them undeflated and are still read. Version 1 files, which
spelled every type out in JSON, are not read.

Bodies are deflated and inflated as a stream, under the bound below: a
sequence is deflated item by item (to the bytes of ``zlib.compress`` of the
whole), and a body is decoded as it inflates, ``INFLATE_PIECE`` bytes at a
time, its stream inflated to the end and checked before anything returns.
A body is inflated to at most ``INFLATE_CAP`` (1,024) times its deflated
length. The worst honest ratio measured with zlib 1.2.13 is 960:1, a
registry of empty reports at the largest epoch capacity a scenario may
ask for (2 MiB filters); authorities write no empty report, but files
that hold them still load. A day of the simulator's default-capacity
reports, three of them, is 22 KB at 41:1. Deflate itself cannot pass
about 1,032:1, so the cap states the bound more than it tightens it.
A body that inflates past the cap, is truncated, has bytes after the end
of its stream or fails its Adler-32 check is refused.

Every loader raises ``FormatError`` for any input it cannot take, whatever
is wrong with it. A JSON record that a dataclass holds, here a claim, is
checked against the fields of that class (``field_table``), its one schema.
"""

from __future__ import annotations

import base64
import json
import zlib
from dataclasses import MISSING, asdict, fields
from typing import Iterator, Optional, Union, get_args, get_origin, get_type_hints

from .audit import AuditReport, LocationClaim, signer_ids
from .crypto import CryptoError, CryptoProfile, get_profile
from .epochs import EpochRegistry, RegistryError
from .model import (
    EncodingError,
    EpochReport,
    RevealedSubsequence,
    SCHEMES,
    ValidationError,
    canonical_decode,
    check_openings,
    encode_pieces,
)

# Chain and registry files are written at FORMAT_VERSION, with deflated
# bodies; claims and report files at PLAIN_VERSION, the version whose chain
# and registry bodies are not deflated.
FORMAT_VERSION = 3
PLAIN_VERSION = 2
_BODY_VERSIONS = (PLAIN_VERSION, FORMAT_VERSION)
DEFLATE_LEVEL = 6
INFLATE_CAP = 1024
INFLATE_PIECE = 1 << 16


class FormatError(ValidationError):
    """File contents do not match the expected schema."""


def field_table(cls) -> dict:
    """The JSON record of dataclass ``cls``: field name -> accepted JSON
    types (a union's members, a generic's container), with a trailing "?"
    on a field that has a default and so may be left out."""
    hints, table = get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        members = get_args(hint) if get_origin(hint) is Union else (hint,)
        optional = f.default is not MISSING or f.default_factory is not MISSING
        table[f.name + "?" * optional] = tuple(get_origin(t) or t
                                               for t in members)
    return table


def check_type(value, types, what: str) -> None:
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types):
        raise FormatError(f"{what}: unexpected {type(value).__name__}")


def check_list(value, types, what: str) -> None:
    for item in value or ():
        check_type(item, types, what)


def check_fields(obj, table: dict, what: str) -> None:
    """Check JSON object ``obj`` against ``table`` (see ``field_table``)."""
    check_type(obj, dict, what)
    names = {name.rstrip("?") for name in table}
    unknown = sorted(set(obj) - names, key=str)
    if unknown:
        raise FormatError(f"{what}: unknown field {unknown[0]!r}")
    for name, types in table.items():
        key = name.rstrip("?")
        if key in obj:
            check_type(obj[key], types, f"{what}.{key}")
        elif not name.endswith("?"):
            raise FormatError(f"{what}: missing field {key!r}")


CLAIM_FIELDS = field_table(LocationClaim)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text, what: str) -> bytes:
    if not isinstance(text, str):
        raise FormatError(f"{what} must be a base64 string")
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise FormatError(f"{what} is not valid base64: {exc}") from None


def _dump(fields: dict, version: int = PLAIN_VERSION,
          indent: Optional[int] = None) -> str:
    return json.dumps({"format_version": version, **fields}, indent=indent,
                      separators=(",", ": " if indent else ":"),
                      sort_keys=True)


def _deflated(obj) -> str:
    deflater = zlib.compressobj(DEFLATE_LEVEL)
    body = [deflater.compress(piece) for piece in encode_pieces(obj)]
    body.append(deflater.flush())
    return _b64(b"".join(body))


def _inflated(data: bytes, what: str) -> Iterator[bytes]:
    """The deflated body ``data``, inflated a piece at a time, ending once
    the stream has ended and passed every check of the module doc."""
    cap, out = INFLATE_CAP * len(data), 0
    inflater = zlib.decompressobj()
    while not inflater.eof:
        try:
            # one byte more than the cap tells a body that passes it
            piece = inflater.decompress(data, min(INFLATE_PIECE, cap + 1 - out))
        except zlib.error as exc:  # not deflate, or a failed Adler-32 check
            raise FormatError(f"{what} does not inflate: {exc}") from None
        # what is left of the input, so the input read is freed; the cap
        # keeps its length for the message below
        data, out = inflater.unconsumed_tail, out + len(piece)
        if out > cap:
            raise FormatError(f"{what} inflates past {INFLATE_CAP} times its "
                              f"{cap // INFLATE_CAP} bytes")
        if piece:
            yield piece
        elif not inflater.eof:  # no output and no input left
            raise FormatError(f"{what} is a truncated deflate stream")
    if inflater.unused_data:
        raise FormatError(f"{what} has trailing bytes after its deflate "
                          "stream")


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
    data, pieces = _unb64(obj.get(field), what), iter(())
    if obj["format_version"] == FORMAT_VERSION:
        data, pieces = b"", _inflated(data, what)
    try:
        value = canonical_decode(data, profile, lambda: next(pieces, b""))
    except EncodingError as exc:
        for _ in pieces:  # a fault of the stream outranks one of its encoding
            pass
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
    """A chain file for ``sub``, whose directory holds the parties of
    ``directory`` that an audit of ``sub`` looks up (``audit.signer_ids``)."""
    signers = signer_ids(sub)
    return _dump({
        "profile": profile_name,
        "subsequence": _deflated(sub),
        "directory": {
            pid: {"role": meta["role"], "scheme": meta["scheme_id"],
                  "public_key": _b64(meta["public_key"])}
            for pid, meta in directory.items() if pid in signers
        },
    }, FORMAT_VERSION)


def load_chain_file(text: str) -> tuple[str, RevealedSubsequence, dict[str, dict]]:
    obj = _load(text, "chain", _BODY_VERSIONS)
    profile = _profile(obj, "chain")
    sub = _decode(obj, "subsequence", "chain", profile, RevealedSubsequence)
    if sub.scheme not in SCHEMES:
        raise FormatError(f"unknown ordering scheme {sub.scheme!r}")
    for revealed in sub.entries:
        try:
            check_openings(revealed.entry.elp.proof.statement,
                           revealed.disclosed)
        except ValidationError as exc:
            raise FormatError(f"chain entry at position {revealed.position}: "
                              f"{exc}") from None
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
    return _dump({"claims": [asdict(c) for c in claims]})


def load_claims_file(text: str) -> list[LocationClaim]:
    obj = _load(text, "claims")
    claims = obj.get("claims")
    if not isinstance(claims, list):
        raise FormatError("claims file has no list of claims")
    for c in claims:
        check_fields(c, CLAIM_FIELDS, "claim")
    return [LocationClaim(**c) for c in claims]


def dump_audit_report_file(report: AuditReport) -> str:
    """The report file, indented: people read it, and it is no part of a
    presentation."""
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
    }}, indent=2)
