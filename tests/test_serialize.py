"""Canonical round trips, versioned file formats and hostile file contents."""

import base64
import gc
import json
import random
import re
import tracemalloc
import zlib

import pytest

from locprov.crypto import MODERN, Digest, get_profile
from locprov.epochs import EpochRegistry, build_epoch_report
from locprov.model import (
    canonical_decode,
    canonical_encode,
    make_revealed_entry,
    make_revealed_subsequence,
)
from locprov.protocol import Directory, ProtocolConfig, World
from locprov.serialize import (
    FORMAT_VERSION,
    INFLATE_PIECE,
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


def _split(data: bytes) -> tuple[dict, bytes]:
    """The JSON header and the raw deflated body of a chain or registry
    file."""
    header, newline, body = data.partition(b"\n")
    assert newline
    return json.loads(header), body


def _join(header: dict, deflated: bytes) -> bytes:
    """The chain or registry file of envelope ``header`` and deflated body
    ``deflated``."""
    line = json.dumps({**header, "format_version": FORMAT_VERSION}).encode()
    return line + b"\n" + deflated


def test_chain_round_trip(world_and_chain):
    """A chain's entries, as a sequence, decode to themselves without the
    user-side openings of their blinded statements, which no proof encoding
    carries."""
    _, chain = world_and_chain
    assert chain.entries[0].elp.proof.statement.nonces
    stripped = tuple(make_revealed_entry(i, e).entry
                     for i, e in enumerate(chain.entries, 1))
    assert _round_trip(chain.entries) == stripped


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
    # the signers only: the user u1 signs nothing an audit checks
    assert directory == {pid: world.directory.parties[pid]
                         for pid in ("cafe-7", "lib-2", "w1")}
    pubkeys = {pid: meta["public_key"] for pid, meta in directory.items()}
    reloaded = audit(get_profile(profile_name), claims2, sub2, pubkeys,
                     registry2)
    assert reloaded == direct
    assert reloaded.ok


def test_spaced_full_directory_chain_file_audits_alike(world_and_chain):
    """A chain file whose header line is spaced and names every party of
    the world audits as the compact file, which names the signers only."""
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [2, 3],
                                    disclose={3: [2]})
    claims = truthful_claims(sub)
    compact = dump_chain_file("modern", sub, dict(world.directory.parties))
    header, deflated = _split(compact)
    assert compact.partition(b"\n")[0] == json.dumps(
        header, separators=(",", ":"), sort_keys=True).encode()
    spaced = _join({**header, "directory": {
        pid: {"public_key": base64.b64encode(meta["public_key"]).decode()}
        for pid, meta in world.directory.parties.items()}}, deflated)
    reports = []
    for text in (compact, spaced):
        profile_name, sub2, directory = load_chain_file(text)
        assert sub2 == sub
        reports.append(audit(get_profile(profile_name), claims, sub2,
                             Directory(directory).pubkeys(), world.registry))
    assert reports[0] == reports[1]
    assert reports[0].ok


def test_files_are_versioned(world_and_chain):
    """Chain and registry files, a JSON header line and a raw deflated
    body, are ``FORMAT_VERSION``; claims and report files are still
    version 2."""
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [1])
    claims = [LocationClaim("cafe-7", 0)]
    report = audit(world.profile, claims, sub, world.directory.pubkeys())
    for data in (dump_chain_file("modern", sub, dict(world.directory.parties)),
                 dump_registry_file("modern", world.registry)):
        assert _split(data)[0]["format_version"] == FORMAT_VERSION
    for text in (dump_claims_file(claims), dump_audit_report_file(report)):
        assert json.loads(text)["format_version"] == 2


def test_wrong_version_rejected(world_and_chain):
    """A version no loader reads, every retired one included, or one that
    is no integer (7.0 is not 7, nor ``true`` 1), is refused on the header
    of every file kind that loads; the current version's file loads."""
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [1])
    files = {
        load_chain_file: dump_chain_file("modern", sub,
                                         dict(world.directory.parties)),
        load_registry_file: dump_registry_file("modern", world.registry)}
    for load, data in files.items():
        load(data)
        header, deflated = _split(data)
        for version in (*range(1, FORMAT_VERSION), FORMAT_VERSION + 1, 99,
                        2.0, 6.0, float(FORMAT_VERSION), True,
                        str(FORMAT_VERSION)):
            with pytest.raises(FormatError, match=(
                    f"header has format_version {version!r}; "
                    f"only {FORMAT_VERSION} is read")):
                load(json.dumps({**header, "format_version": version})
                     .encode() + b"\n" + deflated)
        del header["format_version"]
        with pytest.raises(FormatError,
                           match="header is missing format_version"):
            load(json.dumps(header).encode() + b"\n" + deflated)
    claims = json.loads(dump_claims_file([LocationClaim("cafe-7", 0)]))
    for version in (1, 3, 2.0, True, "2"):
        with pytest.raises(FormatError, match="format_version"):
            load_claims_file(json.dumps({**claims, "format_version": version}))


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
    """A subsequence that hides position 1, and the header and canonical
    bytes of its chain file."""
    world, chain = world_and_chain
    sub = make_revealed_subsequence(world.profile, chain, [2, 3])
    header, deflated = _split(dump_chain_file("modern", sub,
                                              dict(world.directory.parties)))
    return sub, header, zlib.decompress(deflated)


@pytest.fixture(scope="module")
def registry_file(world_and_chain):
    """The header and canonical bytes of the world's registry file."""
    header, deflated = _split(dump_registry_file("modern",
                                                 world_and_chain[0].registry))
    return header, zlib.decompress(deflated)


def _with_body(header: dict, body: bytes) -> bytes:
    """The file of envelope ``header`` and canonical bytes ``body``,
    deflated."""
    return _join(header, zlib.compress(body))


def _sig_tag_offset(sub) -> int:
    """Offset of the first proof's signature-scheme tag in the encoding."""
    lp = sub.entries[0].entry.elp.proof
    return (canonical_encode(sub).index(canonical_encode(lp))
            + 1 + len(canonical_encode(lp.statement)))


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
    "invalid-utf8": (lambda body, sub: body.replace(b"lib-2", b"lib\xff2", 1),
                     "invalid UTF-8"),
}


@pytest.mark.parametrize("mutation", sorted(BODY_MUTATIONS))
def test_malformed_chain_body_is_format_error(chain_file, mutation):
    sub, header, body = chain_file
    mutate, expected = BODY_MUTATIONS[mutation]
    with pytest.raises(FormatError, match=expected):
        load_chain_file(_with_body(header, mutate(body, sub)))


@pytest.mark.parametrize("text", ["not base64!", "AAA", "AAAA\n", 17, None])
def test_bad_base64_is_format_error(chain_file, text):
    """A directory public key that is no base64 string."""
    _, header, body = chain_file
    directory = {pid: {**meta, "public_key": text}
                 for pid, meta in header["directory"].items()}
    with pytest.raises(FormatError, match="public_key: unexpected|public key of"):
        load_chain_file(_with_body({**header, "directory": directory}, body))


def test_version_1_layout_is_format_error(chain_file):
    """The per-type JSON layout, string position and all, is not read:
    under version 1, nor as the body of a current version's file."""
    header = chain_file[1]
    v1 = {"scheme": "bloom", "entries": [{"position": "1", "disclosed": []}],
          "chain_evidence": []}
    with pytest.raises(FormatError, match="format_version 1"):
        load_chain_file(json.dumps({**header, "format_version": 1,
                                    "subsequence": v1}).encode())
    with pytest.raises(FormatError, match="unknown type tag"):
        load_chain_file(_with_body(header, json.dumps(v1).encode()))


@pytest.mark.parametrize("directory, message", [
    ([], "directory is not an object"),
    ("keys", "directory is not an object"),
    ({"w1": []}, "entry 'w1': unexpected list"),
    ({"w1": {}}, "entry 'w1': missing field 'public_key'"),
    ({"w1": {"public_key": 1}}, "entry 'w1'.public_key: unexpected int"),
    ({"w1": {"public_key": "A!"}}, "public key of 'w1' is not valid base64"),
    ({"w1": {"public_key": "AAAA", "role": "witness"}},
     "entry 'w1': unknown field 'role'"),
], ids=["directory0", "keys", "directory2", "directory3", "directory4",
        "directory5", "entry-with-role"])
def test_malformed_directory_is_format_error(chain_file, directory, message):
    """A directory that is no object, or an entry that is not exactly a
    base64 ``public_key``: version 5's ``role`` and ``scheme`` included."""
    _, header, body = chain_file
    with pytest.raises(FormatError, match=re.escape(message)):
        load_chain_file(_with_body({**header, "directory": directory}, body))


# The "v4-" rows have the header line and raw body that files have had
# since version 4, written at FORMAT_VERSION where the row has a version.
@pytest.mark.parametrize("text, message", [
    pytest.param(b"{not json", "header is not JSON", id="{not json"),
    pytest.param(b"[]", "header is not a JSON object", id="[]"),
    pytest.param(b"[" * 100_000, "header is not JSON", id="[" * 100_000),
    pytest.param(b'{"format_version": 2}',
                 f"header has format_version 2; only {FORMAT_VERSION} is read",
                 id='{"format_version": 2}'),
    pytest.param(b'{"format_version": 2, "profile": "rot13", '
                 b'"subsequence": ""}',
                 f"header has format_version 2; only {FORMAT_VERSION} is read",
                 id='{"format_version": 2, "profile": "rot13", '
                    '"subsequence": ""}'),
    pytest.param(b'{"format_version": 3, "profile": "modern", '
                 b'"subsequence": ""}',
                 f"header has format_version 3; only {FORMAT_VERSION} is read",
                 id="v3-empty-body"),
    pytest.param(b'{"format_version": 3, "profile": "modern", '
                 b'"subsequence": "AAAA"}',
                 f"header has format_version 3; only {FORMAT_VERSION} is read",
                 id="v3-undeflated-body"),
    pytest.param(b'[5, "modern"]\n' + zlib.compress(b"\0"),
                 "header is not a JSON object", id="v4-header-not-an-object"),
    pytest.param(b'{"format_version": %d, "profile": "mod\xffern"}\n'
                 % FORMAT_VERSION + zlib.compress(b"\0"),
                 "header is not JSON: 'utf-8' codec can't decode byte 0xff",
                 id="v4-header-not-utf8"),
    pytest.param(b"[" * 100_000 + b"\n" + zlib.compress(b"\0"),
                 "header is not JSON", id="v4-header-too-deep"),
    pytest.param(b"\n" + zlib.compress(b"\0"), "header is not JSON",
                 id="v4-header-empty"),
    pytest.param(b'{"format_version": %d, "profile": "modern"}\n'
                 % FORMAT_VERSION,
                 "subsequence is a truncated deflate stream",
                 id="v4-empty-body"),
])
def test_unreadable_envelope_is_format_error(text, message):
    """Each refused on its header line, or on the empty body after it."""
    with pytest.raises(FormatError, match=re.escape(message)):
        load_chain_file(text)


@pytest.mark.parametrize("field", ["subsequence", "reports"])
def test_hostile_deflate_body_is_format_error(chain_file, registry_file,
                                             deflate_attack, field):
    """Each hostile body is refused while it is inflated and decoded, made
    from canonical bytes that load when deflated honestly."""
    make, expected = deflate_attack
    if field == "subsequence":
        (header, body), load = chain_file[1:], load_chain_file
    else:
        (header, body), load = registry_file, load_registry_file
    with pytest.raises(FormatError, match=expected):
        load(_join(header, make(body)))


@pytest.fixture(scope="module")
def many_reports():
    """A registry of 300 signed reports, each a 7,361-byte filter image:
    2.2 MB of canonical bytes, which deflate to about 54 KB."""
    keys = MODERN.keygen(bytes(32))
    rng = random.Random(5)
    registry = EpochRegistry()
    for epoch in range(300):
        digests = [Digest(rng.randbytes(32)) for _ in range(3)]
        registry.publish(build_epoch_report(MODERN, keys, "cafe-7", epoch,
                                            300_000, digests))
    return registry


def test_streamed_dumps_match_one_shot_deflate(world_and_chain, chain_file,
                                               many_reports):
    """Bodies deflated item by item are the bytes of deflating the whole
    encoding at once."""
    sub, _, body = chain_file
    assert body == canonical_encode(sub)
    world = world_and_chain[0]
    assert _split(dump_chain_file("modern", sub, dict(
        world.directory.parties)))[1] == zlib.compress(body, 6)
    for registry in (many_reports, world.registry):
        assert _split(dump_registry_file("modern", registry))[1] == (
            zlib.compress(canonical_encode(registry.reports()), 6))


def test_registry_dump_never_holds_the_whole_encoding(many_reports):
    """Dumping peaks at a fixed slack, far below the 2.2 MB encoding: the
    reports are encoded and deflated one at a time."""
    gc.collect()
    tracemalloc.start()
    try:
        size = len(dump_registry_file("modern", many_reports))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size + 8 * INFLATE_PIECE


def test_chain_dump_never_holds_the_whole_encoding(honest_chain_factory):
    """Dumping a full reveal of a 1,000-entry Bloom chain peaks below its
    2.2 MB encoding: the body is encoded and deflated an entry at a time."""
    world, chain = honest_chain_factory("bloom", 1000)
    sub = make_revealed_subsequence(world.profile, chain, list(range(1, 1001)))
    size = len(canonical_encode(sub))
    directory = dict(world.directory.parties)
    gc.collect()
    tracemalloc.start()
    try:
        dump_chain_file("modern", sub, directory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size


def test_registry_load_never_holds_the_whole_body(many_reports):
    """Loading peaks at what the loaded registry keeps plus a fixed slack,
    far below the 2.2 MB inflated body: the body is decoded as it inflates,
    never held whole beside the reports copied out of it."""
    text = dump_registry_file("modern", many_reports)
    body_size = len(canonical_encode(many_reports.reports()))
    slack = 8 * INFLATE_PIECE
    assert body_size > 4 * slack
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, registry = load_registry_file(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert registry.reports() == many_reports.reports()
    assert peak - start < kept - start + slack


def test_registry_repeating_a_report_is_format_error(world_and_chain,
                                                     registry_file):
    world, _ = world_and_chain
    reports = world.registry.reports()
    with pytest.raises(FormatError, match="already published"):
        load_registry_file(_with_body(registry_file[0], canonical_encode(
            reports + reports[:1])))


def test_registry_of_non_reports_is_format_error(world_and_chain,
                                                 registry_file):
    world, chain = world_and_chain
    for body in (canonical_encode(world.registry.reports()[0]),
                 canonical_encode([chain.entries[0]])):
        with pytest.raises(FormatError):
            load_registry_file(_with_body(registry_file[0], body))


@pytest.mark.parametrize("claims", [
    None, {}, [None], [{"location_id": "cafe-7"}],
    [{"location_id": 7, "visit_time": 0}],
    [{"location_id": "cafe-7", "visit_time": "0"}],
    [{"location_id": "cafe-7", "visit_time": True}],
    [{"location_id": "cafe-7", "visit_time": 0, "note": 1}],
])
def test_malformed_claims_are_format_error(claims):
    with pytest.raises(FormatError):
        load_claims_file(json.dumps({"format_version": 2, "claims": claims}))
