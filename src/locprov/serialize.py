"""Versioned file formats.

Four file formats, each carrying a ``format_version`` field:

* chain file (version 7) -- one line of JSON, the envelope: the crypto
  profile name and ``directory``, which maps each party whose key an audit
  of the subsequence looks up (``audit.signer_ids``), and no one else, to
  an entry holding only its ``public_key`` in base64; then a newline, then
  the canonical encoding of a revealed subsequence (a full chain is the
  reveal-all case), deflated, as raw bytes;
* registry file (version 7) -- one line of JSON holding the crypto profile
  name, a newline, then the canonical encoding of the sequence of published
  epoch reports, deflated, as raw bytes;
* claims file (version 2) -- the ordered location claims to audit, in
  plain JSON;
* report file (version 2) -- a machine-readable audit report, in plain
  JSON.

JSON is written compact, keys sorted and no whitespace, except in report
files, which people read and which are indented. Loaders read JSON values
only, so a claims file written indented, or a header line written spaced,
reads alike. A ``format_version`` is an integer: 4.0 or ``true`` is no
version.

Everything signed or hashed therefore reaches an auditor in the one
encoding of ``model``, decoded by ``model.canonical_decode``; this module
only wraps it. A version 7 body is ``zlib.compress(canonical bytes)`` at
the fixed level ``DEFLATE_LEVEL``. It holds signed objects, each written
as what its signer signed plus the signature, and states each fact once:
a hash-chain slot only for a hidden position, with no position of its own
(a revealed entry carries its own proof and link), every signature
required, and no scheme name (the class of the constructs is the scheme).

A loader reads ``FORMAT_VERSION`` only: an input whose first line is not
a JSON object of that version is refused on that header line, and no
other version is read. A new version replaces ``FORMAT_VERSION`` rather
than sitting beside it.

Bodies are deflated and inflated as a stream, under the bound below: a
sequence is deflated item by item (to the bytes of ``zlib.compress`` of the
whole), and a body is decoded as it inflates, ``INFLATE_PIECE`` bytes at a
time, its stream inflated to the end and checked before anything returns.
A body is inflated to at most ``INFLATE_CAP`` (1,024) times its deflated
length. The largest ratio measured with zlib 1.2.13 is 960:1, a hostile
registry file of empty reports whose filters each declare 2 MiB: a file
states each filter's capacity, and an empty report loads as one holding
no digest, though authorities write neither. A day of the simulator's
reports, three of them, is 22 KB at 41:1. Deflate itself cannot pass
about 1,032:1, so the cap states the bound more than it tightens it.
A body that inflates past the cap, is truncated, has bytes after the end
of its stream or fails its Adler-32 check is refused.

Every loader raises ``FormatError`` for any input it cannot take, whatever
is wrong with it. A JSON record that a dataclass holds, here a claim, is
checked against the fields of that class (``field_table``), its one schema;
a directory entry, against ``DIRECTORY_ENTRY_FIELDS``.
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
    ValidationError,
    canonical_decode,
    check_openings,
    encode_pieces,
)

# Chain and registry files are written and read at FORMAT_VERSION, a JSON
# line and a raw deflated body; claims and report files, plain JSON, at
# PLAIN_VERSION.
FORMAT_VERSION = 7
PLAIN_VERSION = 2
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
DIRECTORY_ENTRY_FIELDS = {"public_key": (str,)}  # base64


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str, what: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise FormatError(f"{what} is not valid base64: {exc}") from None


def _dump(fields: dict, version: int = PLAIN_VERSION,
          indent: Optional[int] = None) -> str:
    return json.dumps({"format_version": version, **fields}, indent=indent,
                      separators=(",", ": " if indent else ":"),
                      sort_keys=True)


def _dump_file(fields: dict, obj) -> bytes:
    """A chain or registry file: the envelope ``fields`` as one line of
    JSON, then the canonical encoding of ``obj``, deflated."""
    deflater = zlib.compressobj(DEFLATE_LEVEL)
    # most pieces yield no output yet: the list holds only the output
    deflated = filter(None, map(deflater.compress, encode_pieces(obj)))
    return b"".join([_dump(fields, FORMAT_VERSION).encode("ascii"), b"\n",
                     *deflated, deflater.flush()])


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


def _load(text: bytes | str, what: str, version: int = PLAIN_VERSION) -> dict:
    """JSON object ``text`` (``bytes`` read as UTF-8), of ``format_version``
    ``version``; ``what`` names it in errors."""
    try:
        obj = json.loads(text.decode("utf-8") if isinstance(text, bytes)
                         else text)
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise FormatError(f"{what} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{what} is not a JSON object")
    if "format_version" not in obj:
        raise FormatError(f"{what} is missing format_version")
    found = obj["format_version"]
    if type(found) is not int or found != version:
        raise FormatError(f"{what} has format_version {found!r}; only "
                          f"{version} is read")
    return obj


def _profile(obj: dict, kind: str) -> CryptoProfile:
    name = obj.get("profile")
    if not isinstance(name, str):
        raise FormatError(f"{kind} file has no profile name")
    try:
        return get_profile(name)
    except CryptoError as exc:
        raise FormatError(str(exc)) from None


def _load_file(data: bytes, kind: str, field: str,
               expected: type) -> tuple[dict, object]:
    """The header line of chain or registry file ``data`` and its body,
    decoded to an ``expected``; ``field`` names the body in errors."""
    what = f"{kind} {field}"
    header, _, body = data.partition(b"\n")
    obj = _load(header, f"{kind} file header", FORMAT_VERSION)
    profile = _profile(obj, kind)
    pieces = _inflated(body, what)
    try:
        value = canonical_decode(b"", profile, lambda: next(pieces, b""))
    except EncodingError as exc:
        for _ in pieces:  # a fault of the stream outranks one of its encoding
            pass
        raise FormatError(f"{what}: {exc}") from None
    if not isinstance(value, expected):
        raise FormatError(f"{what} encodes a {type(value).__name__}")
    return obj, value


def _directory_from_json(obj) -> dict[str, dict]:
    if not isinstance(obj, dict):
        raise FormatError("chain file directory is not an object")
    directory = {}
    for pid, meta in obj.items():
        check_fields(meta, DIRECTORY_ENTRY_FIELDS,
                     f"chain file directory entry {pid!r}")
        directory[pid] = {"public_key": _unb64(meta["public_key"],
                                               f"public key of {pid!r}")}
    return directory


def dump_chain_file(profile_name: str, sub: RevealedSubsequence,
                    directory: dict[str, dict]) -> bytes:
    """A chain file for ``sub``, whose directory holds the parties of
    ``directory`` that an audit of ``sub`` looks up (``audit.signer_ids``)."""
    signers = signer_ids(sub)
    return _dump_file({
        "profile": profile_name,
        "directory": {
            pid: {"public_key": _b64(meta["public_key"])}
            for pid, meta in directory.items() if pid in signers
        },
    }, sub)


def load_chain_file(data: bytes) -> tuple[str, RevealedSubsequence,
                                        dict[str, dict]]:
    obj, sub = _load_file(data, "chain", "subsequence", RevealedSubsequence)
    for revealed in sub.entries:
        try:
            check_openings(revealed.entry.elp.proof.statement,
                           revealed.disclosed)
        except ValidationError as exc:
            raise FormatError(f"chain entry at position {revealed.position}: "
                              f"{exc}") from None
    return obj["profile"], sub, _directory_from_json(obj.get("directory"))


def dump_registry_file(profile_name: str, registry: EpochRegistry) -> bytes:
    return _dump_file({"profile": profile_name}, registry.reports())


def load_registry_file(data: bytes) -> tuple[str, EpochRegistry]:
    obj, reports = _load_file(data, "registry", "reports", tuple)
    registry = EpochRegistry()
    for report in reports:
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
    obj = _load(text, "claims file")
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
