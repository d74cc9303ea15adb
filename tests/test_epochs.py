"""Epoch reports: publication, lookup, inclusion, privacy."""

import random
import zlib
from dataclasses import replace

import pytest

from locprov.crypto import Digest, MODERN, derive_seed
from locprov.epochs import (
    EpochRegistry,
    RegistryError,
    build_epoch_report,
    check_inclusion,
    epoch_of,
    verify_report,
)
from locprov.model import (
    canonical_encode,
    make_proof,
    make_statement,
    proof_digest,
)
from locprov import protocol
from locprov.protocol import ProtocolConfig, World
from locprov.bloom import (
    bloom_contains,
    bloom_insert,
    bloom_new,
    sign_accumulator,
)
from locprov.serialize import (
    FormatError,
    dump_registry_file,
    load_registry_file,
)

PROFILE = MODERN
KEYS = PROFILE.keygen(bytes(range(32)))
EPOCH_LEN = 300_000


def _proof(t, user="u1", location="cafe-7"):
    return make_proof(PROFILE, KEYS, make_statement(user, location, t))


def _report(epoch_id, proofs, location="cafe-7", epoch_len=EPOCH_LEN):
    return build_epoch_report(
        PROFILE, KEYS, location, epoch_id, epoch_len,
        [proof_digest(PROFILE, lp) for lp in proofs])


# ---------------------------------------------------------------------------
# close / build
# ---------------------------------------------------------------------------

def test_report_contains_every_issued_digest():
    proofs = [_proof(t) for t in (1000, 2000, 3000)]
    report = _report(0, proofs)
    for lp in proofs:
        assert check_inclusion(PROFILE, KEYS.public_key, report,
                               proof_digest(PROFILE, lp))


def test_empty_epoch_report_is_valid():
    report = _report(0, [])
    assert verify_report(PROFILE, KEYS.public_key, report)
    assert not check_inclusion(PROFILE, KEYS.public_key, report,
                               proof_digest(PROFILE, _proof(1)))


def test_proof_absent_from_next_epoch_report():
    lp = _proof(1000)
    report_next = _report(1, [])
    assert not check_inclusion(PROFILE, KEYS.public_key, report_next,
                               proof_digest(PROFILE, lp))


def test_check_inclusion_refuses_bad_report_signature():
    report = _report(0, [_proof(1000)])
    other = PROFILE.keygen(bytes(range(1, 33)))
    with pytest.raises(RegistryError):
        check_inclusion(PROFILE, other.public_key, report,
                        proof_digest(PROFILE, _proof(1000)))
    forged = replace(report, epoch_id=5)
    with pytest.raises(RegistryError):
        check_inclusion(PROFILE, KEYS.public_key, forged,
                        proof_digest(PROFILE, _proof(1000)))


def test_report_signature_alone_covers_the_accumulator():
    proofs = [_proof(t) for t in (1000, 2000)]
    report = _report(0, proofs)
    assert report.accumulator.authority_sig is None
    for lp in proofs:
        assert check_inclusion(PROFILE, KEYS.public_key, report,
                               proof_digest(PROFILE, lp))
    # Earlier versions also signed the accumulator itself. Registry files
    # holding such reports still load, and their reports still verify.
    registry = EpochRegistry()
    registry.publish(replace(report, accumulator=sign_accumulator(
        PROFILE, KEYS, report.accumulator)))
    _, loaded = load_registry_file(dump_registry_file("modern", registry))
    for lp in proofs:
        assert check_inclusion(PROFILE, KEYS.public_key,
                               loaded.reports()[0], proof_digest(PROFILE, lp))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_lookup_half_open_interval_boundary_sweep():
    registry = EpochRegistry()
    registry.publish(_report(0, []))
    registry.publish(_report(1, []))
    for t, expected_epoch in (
            (0, 0), (1, 0),
            (EPOCH_LEN - 1, 0), (EPOCH_LEN, 1), (EPOCH_LEN + 1, 1),
            (2 * EPOCH_LEN - 1, 1)):
        report = registry.lookup("cafe-7", t)
        assert report is not None and report.epoch_id == expected_epoch, t
    assert registry.lookup("cafe-7", 2 * EPOCH_LEN) is None


def test_lookup_before_any_report_is_none():
    registry = EpochRegistry()
    registry.publish(_report(3, []))
    assert registry.lookup("cafe-7", 100) is None


def test_registry_is_append_only():
    registry = EpochRegistry()
    registry.publish(_report(0, []))
    with pytest.raises(RegistryError):
        registry.publish(_report(0, [_proof(5)]))


def test_lookup_agrees_with_linear_scan_across_gaps():
    registry = EpochRegistry()
    for location, epoch_len, epochs in (("cafe-7", 10, (0, 2, 3, 7)),
                                        ("lib-2", 25, (1, 4))):
        for epoch_id in epochs:
            registry.publish(_report(epoch_id, [], location, epoch_len))
    reports = registry.reports()
    for location in ("cafe-7", "lib-2", "park-9"):
        for t in range(-30, 160):
            scan = next((r for r in reports if r.location_id == location
                         and r.start <= t < r.end), None)
            assert registry.lookup(location, t) is scan, (location, t)


@pytest.mark.parametrize("bounds", [
    (1, EPOCH_LEN + 1),                 # shifted
    (0, EPOCH_LEN - 1),                 # shortened
    (EPOCH_LEN, EPOCH_LEN),             # empty
    (2 * EPOCH_LEN, 3 * EPOCH_LEN),     # another epoch's
], ids=["shifted", "shortened", "empty", "other-epoch"])
def test_publish_refuses_bounds_off_the_epoch_grid(bounds):
    registry = EpochRegistry()
    start, end = bounds
    with pytest.raises(RegistryError):
        registry.publish(replace(_report(1, []), start=start, end=end))
    assert registry.reports() == []


def test_publish_refuses_second_epoch_length_for_a_location():
    registry = EpochRegistry()
    registry.publish(_report(0, []))
    with pytest.raises(RegistryError):
        registry.publish(_report(1, [], epoch_len=2 * EPOCH_LEN))
    # another location may use another length
    registry.publish(_report(1, [], location="lib-2", epoch_len=2 * EPOCH_LEN))
    assert registry.lookup("cafe-7", EPOCH_LEN) is None
    assert registry.lookup("lib-2", 2 * EPOCH_LEN).epoch_id == 1


def test_registry_file_with_bounds_off_the_grid_does_not_load():
    registry = EpochRegistry()
    registry.publish(_report(0, []))
    header = dump_registry_file("modern", registry).partition(b"\n")[0]
    shifted = replace(registry.reports()[0], start=1, end=EPOCH_LEN + 1)
    with pytest.raises(FormatError, match="not an epoch of"):
        load_registry_file(header + b"\n"
                           + zlib.compress(canonical_encode([shifted])))


def test_epoch_of_matches_bounds():
    for t in (0, 1, EPOCH_LEN - 1, EPOCH_LEN, 7 * EPOCH_LEN + 3):
        e = epoch_of(t, EPOCH_LEN)
        assert e * EPOCH_LEN <= t < (e + 1) * EPOCH_LEN


# ---------------------------------------------------------------------------
# integration with authorities
# ---------------------------------------------------------------------------

def test_authority_publishes_on_epoch_roll():
    world = World(PROFILE, "hashchain", ProtocolConfig(), seed=5)
    world.add_authority("cafe-7")
    world.add_witness("w1")
    world.add_user("u1")
    world.place("u1", "cafe-7")
    world.place("w1", "cafe-7")
    outcome = world.run_visit("u1", "cafe-7", "w1")
    stmt = outcome.entry.elp.proof.statement
    # not yet published: epoch still in progress
    assert world.registry.lookup("cafe-7", stmt.visit_time) is None
    world.advance(world.config.epoch_len_ms)
    report = world.registry.lookup("cafe-7", stmt.visit_time)
    assert report is not None
    assert check_inclusion(PROFILE, world.directory.public_key("cafe-7"),
                           report,
                           proof_digest(PROFILE, outcome.entry.elp.proof))


def test_backdated_fabrication_excluded_from_closed_epoch():
    world = World(PROFILE, "hashchain", ProtocolConfig(), seed=6)
    world.add_authority("cafe-7")
    world.advance(400_000)  # epoch 0 passes with no proof: closed, unreported
    keys = world.authorities["cafe-7"].keys
    backdated = make_proof(PROFILE, keys,
                           make_statement("u1", "cafe-7", 250_000))
    assert world.registry.lookup("cafe-7", 250_000) is None
    late = build_epoch_report(PROFILE, keys, "cafe-7", 0, EPOCH_LEN,
                              [proof_digest(PROFILE, backdated)])
    with pytest.raises(RegistryError, match="late"):
        world.registry.publish(late)
    assert world.registry.lookup("cafe-7", 250_000) is None


def test_backdated_fabrication_excluded_from_reported_epoch():
    """An epoch that held a proof has a report, and a proof backdated into
    it later is absent from that report."""
    world = World(PROFILE, "hashchain", ProtocolConfig(), seed=6)
    world.add_authority("cafe-7")
    world.add_witness("w1")
    world.add_user("u1")
    world.place("u1", "cafe-7")
    world.place("w1", "cafe-7")
    assert world.run_visit("u1", "cafe-7", "w1").ok
    world.advance(400_000)
    keys = world.authorities["cafe-7"].keys
    backdated = make_proof(PROFILE, keys,
                           make_statement("u1", "cafe-7", 250_000))
    report = world.registry.lookup("cafe-7", 250_000)
    assert report is not None and report.epoch_id == 0
    assert not check_inclusion(PROFILE, world.directory.public_key("cafe-7"),
                               report, proof_digest(PROFILE, backdated))
    with pytest.raises(RegistryError, match="already published"):
        world.registry.publish(build_epoch_report(
            PROFILE, keys, "cafe-7", 0, EPOCH_LEN,
            [proof_digest(PROFILE, backdated)]))


def test_idle_epochs_build_no_report(monkeypatch):
    """Rolling over epochs that hold no proof builds and signs nothing, and
    closes them: the registry then refuses a report for any of them."""
    built = []

    def counted(*args, **kwargs):
        built.append(args[3])
        return build_epoch_report(*args, **kwargs)
    monkeypatch.setattr(protocol, "build_epoch_report", counted)
    world = World(PROFILE, "hashchain", ProtocolConfig(), seed=7)
    world.add_authority("cafe-7")
    world.advance(10 * EPOCH_LEN)
    assert built == []
    assert world.authorities["cafe-7"].current_epoch == 10
    assert world.registry.reports() == []
    with pytest.raises(RegistryError, match="late"):
        world.registry.publish(_report(4, []))
    # the live epoch is still open
    world.registry.publish(_report(10, []))


def _walk_epochs(authority):
    """Reference roll: end elapsed epochs one at a time, publishing each
    that holds digests and closing each that holds none."""
    world = authority.world
    length = world.config.epoch_len_ms
    while authority.local_now() >= (authority.current_epoch + 1) * length:
        digests = authority.epoch_digests.pop(authority.current_epoch, [])
        if digests:
            world.registry.publish(build_epoch_report(
                world.profile, authority.keys, authority.id,
                authority.current_epoch, length, digests))
        else:
            world.registry.close(authority.id, authority.current_epoch)
        authority.current_epoch += 1


def _epoch_state(world):
    authority = world.authorities["cafe-7"]
    return (world.registry.reports(), dict(world.registry._watermark),
            authority.current_epoch,
            {e: list(d) for e, d in authority.epoch_digests.items()})


@pytest.mark.parametrize("seed", range(8))
def test_one_step_roll_matches_an_epoch_by_epoch_walk(seed):
    """Seeded schedules of clock steps and issued proofs, some recorded for
    the current epoch and some deferred into past and future epochs, at a
    negative clock skew or none: rolling in one step leaves the reports,
    watermark, current epoch and leftover digests of the walk."""
    rng = random.Random(seed)
    length = rng.choice([1, 7, 50])
    skew = rng.choice([0, -rng.randrange(1, 20 * length)])
    worlds = []
    for _ in range(2):
        world = World(PROFILE, "hashchain",
                      ProtocolConfig(epoch_len_ms=length),
                      seed=seed)
        world.add_authority("cafe-7", skew_ms=skew)
        worlds.append(world)
    fast, walked = (w.authorities["cafe-7"] for w in worlds)
    published = 0
    for step in range(120):
        if rng.random() < 0.5:
            ms = rng.choice([0, 1, rng.randrange(4 * length),
                             rng.randrange(40 * length)])
            for world in worlds:
                world.clock.advance(ms)
            fast.roll_epochs()
            _walk_epochs(walked)
        else:
            defer = rng.random() < 0.6
            epoch = fast.current_epoch + rng.randrange(-3, 6)
            visit_time = max(0, epoch * length + rng.randrange(length))
            lp = _proof(visit_time)
            for authority in (fast, walked):
                authority.behavior.defer_record_to_visit_epoch = defer
                authority.record_issue(lp, visit_time)
        assert _epoch_state(worlds[0]) == _epoch_state(worlds[1]), step
        published = len(worlds[0].registry.reports())
    assert published


def test_an_idle_roll_of_10_to_the_12_epochs_closes_once(monkeypatch):
    """10^12 epochs pass at once: one close for all of them, and one report
    for each epoch that holds a digest, in epoch order."""
    built, closed = [], []

    def counted(*args, **kwargs):
        built.append(args[3])
        return build_epoch_report(*args, **kwargs)
    monkeypatch.setattr(protocol, "build_epoch_report", counted)
    world = World(PROFILE, "hashchain", ProtocolConfig(), seed=7)
    authority = world.add_authority("cafe-7")
    real_close = world.registry.close
    monkeypatch.setattr(world.registry, "close",
                        lambda *args: (closed.append(args), real_close(*args)))
    authority.behavior.defer_record_to_visit_epoch = True
    for epoch in (10**11, 0, 3):
        authority.record_issue(_proof(epoch * EPOCH_LEN), epoch * EPOCH_LEN)
    world.advance(10**12 * EPOCH_LEN)
    assert closed == [("cafe-7", 10**12 - 1)]
    assert built == [0, 3, 10**11]
    assert authority.current_epoch == 10**12
    assert authority.epoch_digests == {}
    with pytest.raises(RegistryError, match="late"):
        world.registry.publish(_report(10**12 - 1, []))


def test_publish_refuses_an_epoch_below_the_watermark():
    registry = EpochRegistry()
    registry.publish(_report(3, []))
    for epoch_id in (0, 2):
        with pytest.raises(RegistryError, match="late"):
            registry.publish(_report(epoch_id, []))
    with pytest.raises(RegistryError, match="already published"):
        registry.publish(_report(3, []))
    registry.close("cafe-7", 5)
    for epoch_id in (4, 5):
        with pytest.raises(RegistryError, match="late"):
            registry.publish(_report(epoch_id, []))
    registry.publish(_report(6, []))
    # closing an earlier epoch lowers nothing, and other locations are open
    registry.close("cafe-7", 1)
    registry.publish(_report(7, []))
    registry.publish(_report(0, [], location="lib-2"))
    assert [(r.location_id, r.epoch_id) for r in registry.reports()] == [
        ("cafe-7", 3), ("cafe-7", 6), ("cafe-7", 7), ("lib-2", 0)]


# ---------------------------------------------------------------------------
# measured residual false-positive risk
# ---------------------------------------------------------------------------

def test_inclusion_false_positive_rate_documented():
    # a non-member can test positive at (around) the accumulator's target
    # rate; measure it to document the residual risk
    rng = random.Random(31)
    proofs = [_proof(t) for t in rng.sample(range(1, EPOCH_LEN), 100)]
    report = _report(0, proofs)
    probes = 10_000
    from locprov.crypto import Digest
    hits = sum(
        bloom_contains(PROFILE, report.accumulator,
                       Digest(rng.randbytes(PROFILE.digest_len)))
        for _ in range(probes))
    assert hits / probes <= 0.003  # target 0.001 at far-below capacity


# ---------------------------------------------------------------------------
# privacy
# ---------------------------------------------------------------------------

def test_reports_never_leak_user_ids_1000_randomized():
    """Reports carry digests only: no user id substring ever shows up in
    the report's canonical bytes (what a registry file carries), over a
    thousand randomized report builds."""
    rng = random.Random(41)
    leaks = 0
    for trial in range(1000):
        user_id = "user-" + rng.randbytes(8).hex()
        location = "loc-" + rng.randbytes(4).hex()
        keys = PROFILE.keygen(derive_seed(bytes(16) + rng.randbytes(16), "a"))
        proofs = [
            make_proof(PROFILE, keys,
                       make_statement(user_id, location,
                                      rng.randrange(0, EPOCH_LEN)))
            for _ in range(rng.randrange(1, 4))
        ]
        report = build_epoch_report(
            PROFILE, keys, location, 0, EPOCH_LEN,
            [proof_digest(PROFILE, lp) for lp in proofs])
        if user_id.encode() in canonical_encode(report):
            leaks += 1
    assert leaks == 0


def test_malformed_signed_accumulator_rejected():
    from dataclasses import replace
    from locprov.epochs import report_signing_bytes
    lp = _proof(1000)
    report = _report(0, [lp])
    bad_acc = replace(report.accumulator, bits=report.accumulator.bits[:5])
    bad_report = replace(report, accumulator=bad_acc)
    # the malicious authority signs the malformed report itself
    bad_report = replace(
        bad_report,
        report_sig=PROFILE.sign(KEYS.private_key,
                                report_signing_bytes(bad_report)))
    with pytest.raises(RegistryError):
        check_inclusion(PROFILE, KEYS.public_key, bad_report,
                        proof_digest(PROFILE, lp))


def test_epoch_completeness_multiple_proofs_per_epoch():
    world = World(PROFILE, "hashchain", ProtocolConfig(), seed=8)
    world.add_authority("cafe-7")
    world.add_witness("w1")
    world.add_user("u1")
    world.place("u1", "cafe-7")
    world.place("w1", "cafe-7")
    proofs = []
    for _ in range(3):
        outcome = world.run_visit("u1", "cafe-7", "w1")
        assert outcome.ok
        proofs.append(outcome.entry.elp.proof)
        world.advance(2_000)
    world.finalize_epochs()
    pub = world.directory.public_key("cafe-7")
    for lp in proofs:
        report = world.registry.lookup("cafe-7", lp.statement.visit_time)
        assert report is not None
        assert check_inclusion(PROFILE, pub, report,
                               proof_digest(PROFILE, lp))


@pytest.mark.parametrize("count", [0, 1, 300])
def test_report_image_equals_one_insert_per_digest(count):
    """The report sets all its digests' bits in one copy of the image; the
    result is byte for byte the fold of one ``bloom_insert`` per digest."""
    rng = random.Random(count)
    digests = [Digest(rng.randbytes(32)) for _ in range(count)]
    folded = bloom_new(4096, 0.001)
    for digest in digests:
        folded = bloom_insert(PROFILE, folded, digest)
    report = build_epoch_report(PROFILE, KEYS, "cafe-7", 3, EPOCH_LEN,
                                digests)
    assert report.accumulator == folded
    assert verify_report(PROFILE, KEYS.public_key, report)
