"""Protocol roles over the message bus: visits, refusals, timestamps, proxy."""

import re

import pytest

from locprov.crypto import MODERN
from locprov.model import (
    HashChainLink,
    ValidationError,
    make_proof,
    make_revealed_subsequence,
    make_statement,
    proof_digest,
    statement_signing_bytes,
)
from locprov.protocol import (
    EREQ,
    ERESP,
    Message,
    PREQ,
    PRESP,
    PROXY_REQ,
    ProtocolConfig,
    ProtocolError,
    REFUSE_BAD_PROOF,
    REFUSE_UNKNOWN_PROOF,
    REFUSAL,
    TREQ,
    UnknownPartyError,
    World,
    proxy_resign,
)
from locprov.audit import LocationClaim, audit


def _world(scheme="hashchain", **config_overrides):
    config = ProtocolConfig(**config_overrides)
    world = World(MODERN, scheme, config, seed=11)
    world.add_authority("cafe-7")
    world.add_witness("w1")
    world.add_user("u1")
    world.place("u1", "cafe-7")
    world.place("w1", "cafe-7")
    return world


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["hashchain", "bloom"])
def test_visit_produces_valid_entry(scheme):
    world = _world(scheme)
    outcome = world.run_visit("u1", "cafe-7", "w1")
    assert outcome.ok
    entry = outcome.entry
    stmt = entry.elp.proof.statement
    assert stmt.user_id == "u1" and stmt.location_id == "cafe-7"
    assert entry.elp.endorsements[0].statement.proof_digest == proof_digest(
        world.profile, entry.elp.proof)


def test_visit_time_is_authority_local_time():
    world = _world()
    world.authorities["cafe-7"].skew_ms = 12_345
    outcome = world.run_visit("u1", "cafe-7", "w1")
    stmt = outcome.entry.elp.proof.statement
    # one hop of transmission delay before the authority stamps the time
    assert stmt.visit_time == world.bus.trace[0]["clock"] + 12_345


def test_trace_read_between_visits_lists_delivered_messages():
    world = _world()
    world.run_visit("u1", "cafe-7", "w1")
    first = world.bus.trace
    assert first == world.bus.trace
    assert [e["seq"] for e in first] == list(range(len(first)))
    assert first[0]["kind"] == "pReq" and first[-1]["kind"] == "eResp"
    world.run_visit("u1", "cafe-7", "w1")
    second = world.bus.trace
    assert len(second) == 2 * len(first) and second[:len(first)] == first


def test_second_visit_chains_from_first_construct():
    world = _world()
    first = world.run_visit("u1", "cafe-7", "w1")
    second = world.run_visit("u1", "cafe-7", "w1")
    assert first.ok and second.ok
    link2: HashChainLink = second.entry.ordering
    # the second link's payload embeds the first link's encoding
    from locprov.model import canonical_encode
    assert canonical_encode(first.entry.ordering) in link2.signed_payload


def test_fresh_user_gets_genesis_construct():
    world = _world()
    outcome = world.run_visit("u1", "cafe-7", "w1")
    from locprov.hashchain import verify_link
    assert verify_link(
        world.profile, world.directory.public_key("cafe-7"),
        outcome.entry.ordering,
        proof_digest(world.profile, outcome.entry.elp.proof), None)


def test_unknown_authority_rejected():
    world = _world()
    with pytest.raises(UnknownPartyError):
        world.users["u1"].start_visit("nowhere-1", "w1")


# ---------------------------------------------------------------------------
# refusals
# ---------------------------------------------------------------------------

def test_absent_user_gets_no_proof():
    world = _world()
    world.place("u1", "elsewhere")
    outcome = world.run_visit("u1", "cafe-7", "w1")
    assert not outcome.ok
    assert outcome.reason == "localization-failed"
    # no proof without presence: nothing was ever issued or logged
    assert world.authorities["cafe-7"].issue_log == {}
    assert world.authorities["cafe-7"].epoch_digests == {}


def test_witness_refuses_non_colocated_user():
    world = _world()
    world.place("w1", "elsewhere")
    outcome = world.run_visit("u1", "cafe-7", "w1")
    assert not outcome.ok
    assert outcome.reason == "co-location-failed"


def test_user_rejects_proof_with_bad_signature():
    world = _world()
    # authority whose directory registration doesn't match its signing key
    rogue = world.add_authority("rogue-1")
    rogue.keys = world.profile.keygen(bytes(range(7, 39)))
    world.place("u1", "rogue-1")
    outcome = world.run_visit("u1", "rogue-1", "w1")
    assert not outcome.ok
    assert outcome.reason == "proof-verification-failed"


def test_visit_after_a_bad_proof_completes():
    world = _world()
    rogue = world.add_authority("rogue-1")
    rogue.keys = world.profile.keygen(bytes(range(7, 39)))
    world.place("u1", "rogue-1")
    assert world.run_visit("u1", "rogue-1", "w1").reason == REFUSE_BAD_PROOF
    assert world.users["u1"]._visit is None
    world.place("u1", "cafe-7")
    assert world.run_visit("u1", "cafe-7", "w1").ok


@pytest.mark.parametrize("role, party, kind", [
    ("authority", "cafe-7", ERESP),
    ("witness", "w1", PREQ),
    ("user", "u1", TREQ),
])
def test_each_role_rejects_a_kind_it_does_not_take(role, party, kind):
    world = _world()
    world.bus.send(Message(kind, "u1", party, {}))
    with pytest.raises(ProtocolError,
                       match=re.escape(f"{role} cannot handle {kind!r}")):
        world.bus.run()


# ---------------------------------------------------------------------------
# endorsement timestamps
# ---------------------------------------------------------------------------

class _Collector:
    def __init__(self):
        self.messages = []

    def handle(self, msg):
        self.messages.append(msg)


def _issue_and_probe(world, lag_wait_ms):
    """Issue a proof, wait, then request a timestamp from a probe party."""
    outcome = world.run_visit("u1", "cafe-7", "w1")
    assert outcome.ok
    collector = _Collector()
    world.bus.register("probe", collector.handle)
    world.advance(lag_wait_ms)
    digest = proof_digest(world.profile, outcome.entry.elp.proof)
    world.bus.send(Message(TREQ, "probe", "cafe-7", {"proof_digest": digest}))
    world.bus.run()
    return collector.messages[-1]


def test_timestamp_granted_within_lag():
    world = _world(hop_delay_ms=0)
    reply = _issue_and_probe(world, lag_wait_ms=2_000)
    assert reply.kind == "tResp"


def test_timestamp_refused_after_lag():
    world = _world(hop_delay_ms=0)
    reply = _issue_and_probe(world, lag_wait_ms=31_000)
    assert reply.kind == "refusal"
    assert reply.payload["reason"] == "timestamp-request-too-late"


def test_timestamp_lag_boundary_sweep():
    for wait, expect in ((29_999, "tResp"), (30_000, "tResp"),
                         (30_001, "refusal")):
        world = _world(hop_delay_ms=0)
        reply = _issue_and_probe(world, lag_wait_ms=wait)
        assert reply.kind == expect, wait


def test_timestamp_refused_for_unknown_proof():
    world = _world(hop_delay_ms=0)
    collector = _Collector()
    world.bus.register("probe", collector.handle)
    from locprov.crypto import Digest
    world.bus.send(Message(TREQ, "probe", "cafe-7",
                           {"proof_digest": Digest(b"\x00" * 32)}))
    world.bus.run()
    assert collector.messages[-1].payload["reason"] == "unknown-proof"


def test_timestamps_monotonic_per_authority():
    world = _world()
    times = []
    for _ in range(3):
        outcome = world.run_visit("u1", "cafe-7", "w1")
        times.append(outcome.entry.elp.endorsements[0].statement.endorsed_at)
    assert times == sorted(times)


def test_witness_refuses_implausible_timestamp():
    world = _world()
    world.authorities["cafe-7"].behavior.visit_time_shift_ms = -120_000
    world.advance(300_000)
    outcome = world.run_visit("u1", "cafe-7", "w1")
    assert not outcome.ok
    assert outcome.reason == "endorsement-window-violated"


def test_witness_refuses_timestamp_far_from_own_clock():
    # a consistent forward shift keeps t <= t_e within the window, but the
    # witness's own clock gives the lie away
    world = _world()
    behavior = world.authorities["cafe-7"].behavior
    behavior.visit_time_shift_ms = 90_000
    behavior.timestamp_shift_ms = 90_000
    outcome = world.run_visit("u1", "cafe-7", "w1")
    assert not outcome.ok
    assert outcome.reason == "timestamp-implausible"


def test_authority_refusal_reaches_only_the_request_it_refuses():
    """While u1's visit runs, u2, a bare party rather than a user agent,
    asks the same witness to endorse a proof cafe-7 never issued. cafe-7
    refuses that timestamp request; the refusal names its proof, so u1's
    endorsement still goes through and only u2 hears of the refusal."""
    world = _world()
    u2 = _Collector()
    world.bus.register("u2", u2.handle)
    world.place("u2", "cafe-7")
    never_issued = make_proof(world.profile, world.authorities["cafe-7"].keys,
                              make_statement("u2", "cafe-7", 1_000))
    world.users["u1"].start_visit("cafe-7", "w1")
    world.bus.send(Message(EREQ, "u2", "w1", {"proof": never_issued}))
    world.bus.run()
    (u1_outcome,) = world.users["u1"].visit_log
    assert u1_outcome.ok
    (refusal,) = u2.messages
    assert refusal.kind == REFUSAL
    assert refusal.payload["reason"] == REFUSE_UNKNOWN_PROOF
    assert world.witnesses["w1"]._pending == {}


def test_user_refuses_a_refusal_with_no_open_visit():
    world = _world()
    world.bus.send(Message(REFUSAL, "w1", "u1", {
        "reason": REFUSE_UNKNOWN_PROOF, "re": EREQ}))
    with pytest.raises(ProtocolError, match="answers no open user eReq"):
        world.bus.run()
    assert world.users["u1"].visit_log == []


@pytest.mark.parametrize("kind, payload", [
    (REFUSAL, {"reason": REFUSE_UNKNOWN_PROOF, "re": PREQ}),
    (PRESP, {}),
])
def test_user_refuses_a_reply_to_a_request_it_is_past(kind, payload):
    """u1 has its proof and awaits the endorsement from w9 (a bare party
    that never answers): a refusal of its proof request, or a second proof,
    answers nothing it has open and leaves the visit as it was."""
    world = _world()
    world.bus.register("w9", _Collector().handle)
    user = world.users["u1"]
    user.start_visit("cafe-7", "w9")
    world.bus.run()
    world.bus.send(Message(kind, "cafe-7", "u1", payload))
    with pytest.raises(ProtocolError, match="answers no open user pReq"):
        world.bus.run()
    assert user.visit_log == [] and user._visit.request == EREQ


def test_bloom_construct_accumulates_and_is_resigned():
    world = _world("bloom")
    first = world.run_visit("u1", "cafe-7", "w1")
    second = world.run_visit("u1", "cafe-7", "w1")
    from locprov.bloom import bloom_contains, verify_accumulator
    acc2 = second.entry.ordering
    for outcome in (first, second):
        digest = proof_digest(world.profile, outcome.entry.elp.proof)
        assert bloom_contains(world.profile, acc2, digest)
    assert verify_accumulator(world.profile,
                              world.directory.public_key("cafe-7"), acc2)
    assert acc2.inserted_count == 2


# ---------------------------------------------------------------------------
# proxy proofs
# ---------------------------------------------------------------------------

def _proxy_world():
    world = World(MODERN, "hashchain", ProtocolConfig(), seed=13)
    world.add_authority("chicago-city", trusted_proxies={"block-5"})
    world.add_authority("block-5", proxy_parent="chicago-city",
                        granularities=["IL", "Chicago", "Block 5"])
    world.add_witness("w1")
    world.add_user("u1")
    world.place("u1", "block-5")
    world.place("w1", "block-5")
    return world


def test_proxy_visit_hides_issuing_block():
    world = _proxy_world()
    outcome = world.run_visit("u1", "block-5", "w1")
    assert outcome.ok
    stmt = outcome.entry.elp.proof.statement
    assert stmt.location_id == "chicago-city"
    assert "block-5" not in stmt.location_id
    assert world.profile.verify(
        world.directory.public_key("chicago-city"),
        statement_signing_bytes(stmt), outcome.entry.elp.proof.authority_sig)
    # full audit passes: the city recorded the digest and timestamps it
    world.finalize_epochs()
    user = world.users["u1"]
    sub = make_revealed_subsequence(world.profile, user.chain, [1],
                                    disclose={1: [2]})
    claims = [LocationClaim("Chicago", stmt.visit_time)]
    report = audit(world.profile, claims, sub, world.directory.pubkeys(),
                   world.registry)
    assert report.ok


def test_proxy_refused_for_untrusted_pair():
    world = _proxy_world()
    world.add_authority("block-6", proxy_parent="chicago-city")
    world.place("u1", "block-6")
    outcome = world.run_visit("u1", "block-6", "w1")
    assert not outcome.ok


def test_overlapping_proxy_requests_each_get_their_own_answer():
    """Two users' requests wait at block-5 for the city; the city refuses
    u1's (its proof arrives tampered) and re-signs u2's."""
    from dataclasses import replace
    world = _proxy_world()
    world.add_user("u2")
    world.place("u2", "block-5")
    city_handler = world.bus.handlers["chicago-city"]

    def tamper_u1(msg):
        if msg.kind == PROXY_REQ and msg.payload["requester"] == "u1":
            lp = msg.payload["proof"]
            msg = replace(msg, payload={**msg.payload, "proof": replace(
                lp, statement=replace(lp.statement, visit_time=1))})
        city_handler(msg)

    world.bus.register("chicago-city", tamper_u1)
    world.users["u1"].start_visit("block-5", "w1")
    world.users["u2"].start_visit("block-5", "w1")
    world.bus.run()
    (u1_outcome,) = world.users["u1"].visit_log
    (u2_outcome,) = world.users["u2"].visit_log
    assert not u1_outcome.ok and u1_outcome.reason == REFUSE_BAD_PROOF
    assert u2_outcome.ok
    assert u2_outcome.entry.elp.proof.statement.user_id == "u2"
    assert world.authorities["block-5"]._pending_proxy == {}


def test_proxy_resign_rejects_tampered_original():
    world = _proxy_world()
    block = world.authorities["block-5"]
    city = world.authorities["chicago-city"]
    lp = block._build_proof("u1", 1000)
    from dataclasses import replace
    tampered = replace(lp, statement=replace(lp.statement, visit_time=2000))
    with pytest.raises(ValidationError):
        proxy_resign(world.profile, city, "block-5", tampered)


def test_proxy_resign_rejects_unknown_requester():
    world = _proxy_world()
    city = world.authorities["chicago-city"]
    block = world.authorities["block-5"]
    lp = block._build_proof("u1", 1000)
    with pytest.raises(ValidationError):
        proxy_resign(world.profile, city, "someone-else", lp)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_seeds_identical_traces():
    def run():
        world = _world("bloom")
        world.run_visit("u1", "cafe-7", "w1")
        world.advance(2_000)
        world.run_visit("u1", "cafe-7", "w1")
        from locprov.protocol import trace_to_jsonl
        return trace_to_jsonl(world.bus.trace)

    assert run() == run()
