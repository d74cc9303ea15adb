"""Canonical round trips, versioned file formats and hostile file contents."""

import base64
import json
import zlib
from dataclasses import replace

import pytest

from locprov.crypto import MODERN, get_profile
from locprov.model import (
    ProvenanceChain,
    canonical_decode,
    canonical_encode,
    make_revealed_entry,
    make_revealed_subsequence,
    statement_signing_bytes,
)
from locprov.protocol import ProtocolConfig, World
from locprov.serialize import (
    FormatError,
    dump_audit_report_file,
    dump_chain_file,
    dump_claims_file,
    dump_registry_file,
    load_chain_file,
    load_claims_file,
    load_registry_file,
)
from locprov.audit import LocationClaim, audit, truthful_claims


@pytest.fixture(scope="module")
def world_and_chain():
    world = World(MODERN, "hashchain", ProtocolConfig(), seed=33)
    world.add_authority("cafe-7", granularities=["IL", "Chicago", "Block 5"])
    world.add_authority("lib-2")
    world.add_witness("w1")
    user = world.add_user("u1")
    for stop in ("cafe-7", "lib-2", "cafe-7"):
        world.place("u1", stop)
        world.place("w1", stop)
        assert world.run_visit("u1", stop, "w1").ok
        world.advance(1_500)
    world.finalize_epochs()
    return world, user.chain


def _round_trip(obj):
    return canonical_decode(canonical_encode(obj), MODERN)


def test_chain_round_trip(world_and_chain):
    """A chain decodes to itself without the user-side openings of its
    blinded statements, which no proof encoding carries."""
    _, chain = world_and_chain
    assert chain.entries[0].elp.proof.statement.nonces
    stripped = ProvenanceChain(chain.scheme, tuple(
        make_revealed_entry(i, e).entry
        for i, e in enumerate(chain.entries, 1)))
    assert _round_trip(chain) == stripped


def test_subsequence_round_trip(world_and_chain):
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [1, 3],
                                    disclose={1: [2]})
    assert sub.entries[0].disclosed and sub.chain_evidence
    assert _round_trip(sub) == sub


def test_report_round_trip(world_and_chain):
    world, _ = world_and_chain
    for report in world.registry.reports():
        assert _round_trip(report) == report
    assert _round_trip(world.registry.reports()) == tuple(
        world.registry.reports())


def test_chain_file_reaudits_identically(world_and_chain):
    world, chain = world_and_chain
    # position 3 is a blinded statement: disclose and claim a granularity
    sub = make_revealed_subsequence(world.profile, chain, [2, 3],
                                    disclose={3: [2]})
    claims = truthful_claims(sub)
    direct = audit(world.profile, claims, sub, world.directory.pubkeys(),
                   world.registry)

    chain_text = dump_chain_file("modern", sub, dict(world.directory.parties))
    registry_text = dump_registry_file("modern", world.registry)
    claims_text = dump_claims_file(claims)

    profile_name, sub2, directory = load_chain_file(chain_text)
    _, registry2 = load_registry_file(registry_text)
    claims2 = load_claims_file(claims_text)
    assert sub2 == sub and claims2 == claims
    assert directory == dict(world.directory.parties)
    pubkeys = {pid: meta["public_key"] for pid, meta in directory.items()}
    reloaded = audit(get_profile(profile_name), claims2, sub2, pubkeys,
                     registry2)
    assert reloaded == direct
    assert reloaded.ok


def test_files_are_versioned(world_and_chain):
    """Chain and registry files, whose bodies are deflated, are version 3;
    claims and report files are still version 2."""
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [1])
    claims = [LocationClaim("cafe-7", 0)]
    report = audit(world.profile, claims, sub, world.directory.pubkeys())
    for text, version in (
            (dump_chain_file("modern", sub, dict(world.directory.parties)), 3),
            (dump_registry_file("modern", world.registry), 3),
            (dump_claims_file(claims), 2),
            (dump_audit_report_file(report), 2)):
        assert json.loads(text)["format_version"] == version


def test_wrong_version_rejected(world_and_chain):
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [1])
    obj = json.loads(dump_chain_file("modern", sub,
                                     dict(world.directory.parties)))
    for version in (1, 99):
        obj["format_version"] = version
        with pytest.raises(FormatError, match="format_version"):
            load_chain_file(json.dumps(obj))
    del obj["format_version"]
    with pytest.raises(FormatError):
        load_chain_file(json.dumps(obj))


def test_registry_file_round_trip_preserves_all_reports(world_and_chain):
    world, _ = world_and_chain
    text = dump_registry_file("modern", world.registry)
    _, registry2 = load_registry_file(text)
    assert registry2.reports() == world.registry.reports()


def test_bloom_subsequence_round_trip():
    world = World(MODERN, "bloom", ProtocolConfig(), seed=34)
    world.add_authority("cafe-7")
    world.add_witness("w1")
    user = world.add_user("u1")
    world.place("u1", "cafe-7")
    world.place("w1", "cafe-7")
    for _ in range(2):
        assert world.run_visit("u1", "cafe-7", "w1").ok
    sub = make_revealed_subsequence(world.profile, user.chain, [1, 2])
    assert _round_trip(sub) == sub
    text = dump_chain_file("modern", sub, dict(world.directory.parties))
    assert load_chain_file(text)[1] == sub


# ---------------------------------------------------------------------------
# hostile file contents: every one is a FormatError, never anything else
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def chain_file(world_and_chain):
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [1, 2])
    return sub, json.loads(dump_chain_file("modern", sub,
                                           dict(world.directory.parties)))


def _with_body(obj: dict, field: str, body: bytes) -> str:
    """The version 3 file ``obj`` with canonical bytes ``body``, deflated."""
    assert obj["format_version"] == 3
    return json.dumps({**obj,
                       field: base64.b64encode(zlib.compress(body)).decode()})


def _body(obj: dict, field: str) -> bytes:
    """The canonical bytes of the version 3 file ``obj``."""
    return zlib.decompress(base64.b64decode(obj[field]))


def _sig_tag_offset(sub) -> int:
    """Offset of the first proof's signature-scheme tag in the encoding."""
    lp = sub.entries[0].entry.elp.proof
    return (canonical_encode(sub).index(canonical_encode(lp))
            + 1 + len(statement_signing_bytes(lp.statement)))


# name -> (mutation of the encoded subsequence, expected error)
BODY_MUTATIONS = {
    "truncated": (lambda body, sub: body[:-1], "truncated"),
    "trailing-bytes": (lambda body, sub: body + b"\x00", "trailing bytes"),
    "empty": (lambda body, sub: b"", "truncated"),
    "unknown-tag": (lambda body, sub: b"\x7f" + body[1:], "unknown type tag"),
    "wrong-type": (lambda body, sub: canonical_encode(sub.chain_evidence[0]),
                   "encodes a ChainSlot"),
    "unknown-signature-scheme": (lambda body, sub: (
        body[:_sig_tag_offset(sub)] + b"\x7f"
        + body[_sig_tag_offset(sub) + 1:]), "unknown signature scheme"),
    "invalid-utf8": (lambda body, sub: body.replace(b"hashchain",
                                                    b"hash\xffhain", 1),
                     "invalid UTF-8"),
}


@pytest.mark.parametrize("mutation", sorted(BODY_MUTATIONS))
def test_malformed_chain_body_is_format_error(chain_file, mutation):
    sub, obj = chain_file
    mutate, expected = BODY_MUTATIONS[mutation]
    body = mutate(_body(obj, "subsequence"), sub)
    with pytest.raises(FormatError, match=expected):
        load_chain_file(_with_body(obj, "subsequence", body))


@pytest.mark.parametrize("text", ["not base64!", "AAA", "AAAA\n", 17, None])
def test_bad_base64_is_format_error(chain_file, text):
    _, obj = chain_file
    with pytest.raises(FormatError):
        load_chain_file(json.dumps({**obj, "subsequence": text}))


def test_unknown_scheme_is_format_error(chain_file):
    sub, obj = chain_file
    text = _with_body(obj, "subsequence",
                      canonical_encode(replace(sub, scheme="merkle")))
    with pytest.raises(FormatError, match="merkle"):
        load_chain_file(text)


def test_version_1_layout_is_format_error(chain_file):
    """The per-type JSON layout, string position and all, is not read
    under any version number."""
    _, obj = chain_file
    v1 = {"scheme": "bloom", "entries": [{"position": "1", "disclosed": []}],
          "chain_evidence": []}
    for version, expected in ((1, "format_version"),
                              (2, "must be a base64 string"),
                              (3, "must be a base64 string")):
        with pytest.raises(FormatError, match=expected):
            load_chain_file(json.dumps({**obj, "format_version": version,
                                        "subsequence": v1}))


@pytest.mark.parametrize("directory", [
    [], "keys", {"w1": []},
    {"w1": {"role": "witness", "scheme": "ed25519"}},
    {"w1": {"role": "witness", "scheme": 1, "public_key": "AAAA"}},
    {"w1": {"role": "witness", "scheme": "ed25519", "public_key": "A!"}},
])
def test_malformed_directory_is_format_error(chain_file, directory):
    _, obj = chain_file
    with pytest.raises(FormatError):
        load_chain_file(json.dumps({**obj, "directory": directory}))


@pytest.mark.parametrize("text", [
    "{not json", "[]", "[" * 100_000, '{"format_version": 2}',
    '{"format_version": 2, "profile": "rot13", "subsequence": ""}',
    pytest.param('{"format_version": 3, "profile": "modern", '
                 '"subsequence": ""}', id="v3-empty-body"),
    pytest.param('{"format_version": 3, "profile": "modern", '
                 '"subsequence": "AAAA"}', id="v3-undeflated-body"),
])
def test_unreadable_envelope_is_format_error(text):
    with pytest.raises(FormatError):
        load_chain_file(text)


@pytest.mark.parametrize("field", ["subsequence", "reports"])
def test_hostile_deflate_body_is_format_error(world_and_chain, chain_file,
                                             deflate_attack, field):
    """Each hostile version 3 body is refused by the inflate check itself,
    made from canonical bytes that load when deflated honestly."""
    world, _ = world_and_chain
    make, expected = deflate_attack
    if field == "subsequence":
        obj, load = chain_file[1], load_chain_file
    else:
        obj = json.loads(dump_registry_file("modern", world.registry))
        load = load_registry_file
    body = make(_body(obj, field))
    with pytest.raises(FormatError, match=expected):
        load(json.dumps({**obj, field: base64.b64encode(body).decode()}))


def test_registry_repeating_a_report_is_format_error(world_and_chain):
    world, _ = world_and_chain
    reports = world.registry.reports()
    obj = json.loads(dump_registry_file("modern", world.registry))
    text = _with_body(obj, "reports",
                      canonical_encode(reports + reports[:1]))
    with pytest.raises(FormatError, match="already published"):
        load_registry_file(text)


def test_registry_of_non_reports_is_format_error(world_and_chain):
    world, chain = world_and_chain
    obj = json.loads(dump_registry_file("modern", world.registry))
    for body in (canonical_encode(world.registry.reports()[0]),
                 canonical_encode([chain.entries[0]])):
        with pytest.raises(FormatError):
            load_registry_file(_with_body(obj, "reports", body))


@pytest.mark.parametrize("claims", [
    None, {}, [None], [{"location_id": "cafe-7"}],
    [{"location_id": 7, "visit_time": 0}],
    [{"location_id": "cafe-7", "visit_time": "0"}],
    [{"location_id": "cafe-7", "visit_time": True}],
])
def test_malformed_claims_are_format_error(claims):
    with pytest.raises(FormatError):
        load_claims_file(json.dumps({"format_version": 2, "claims": claims}))
