"""Provenance-entry creation protocol: User, LocationAuthority, Witness.

One visit is a request-response cascade. The user discovers the location
authority and sends a proof request (``pReq``) carrying their identity
and the ordering construct from the last entry of their chain (or a
genesis marker). The authority runs secure localization (abstracted as a
lookup in the simulator's ground truth) to confirm the user is present, then
builds and signs the location proof, derives the new ordering construct
from the supplied one, records the proof digest for its current epoch,
and replies (``pResp``). The user forwards the proof to a nearby witness
(``eReq``); the witness runs its own localization check against the user,
asks the proof's authority to timestamp the endorsement (``tReq`` /
``tResp``, refused more than ``TIMESTAMP_LAG_MS`` after issuance), accepts
the timestamp only within ``model.ENDORSEMENT_WINDOW_MS`` after the visit
time and within ``WITNESS_CLOCK_TOLERANCE_MS`` of its own clock, signs the
endorsement statement, and replies (``eResp``). The user assembles the
endorsed proof into a new chain entry. The auditor checks the same window.

All parties run as single-threaded state machines over a FIFO message
queue; a scenario is a deterministic event loop given its seed. Each agent
acts through the ``World`` it belongs to (its clock, bus, directory, ...)
and takes each message kind through its role's table of handlers.
Dishonest behavior is expressed through per-role override hooks (skip
localization, shift timestamps, defer epoch records, ...) so attacks
compose instead of being hard-coded.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from typing import Callable, Optional

from . import hashchain
from .bloom import TARGET_FPR, bloom_insert, bloom_new, sign_accumulator
from .crypto import CryptoProfile, Digest, KeyPair, Signature, derive_seed
from .epochs import EpochRegistry, build_epoch_report, epoch_of
from .model import (
    BloomAccumulator,
    COLLUDING_WINDOW_MS,
    ENDORSEMENT_WINDOW_MS,
    Endorsement,
    HashChainLink,
    LocationProof,
    OrderingConstruct,
    ProvenanceChain,
    ProvenanceEntry,
    ValidationError,
    WindowError,
    SCHEMES,
    SCHEME_HASHCHAIN,
    assemble_elp,
    canonical_encode,
    make_endorsement,
    make_private_statement,
    make_proof,
    make_statement,
    proof_digest,
    proof_signed,
    sign_timestamp,
)

# Message kinds
PREQ = "pReq"
PRESP = "pResp"
EREQ = "eReq"
TREQ = "tReq"
TRESP = "tResp"
ERESP = "eResp"
PROXY_REQ = "proxyReq"
PROXY_RESP = "proxyResp"
REFUSAL = "refusal"

# Refusal reasons
REFUSE_NOT_PRESENT = "localization-failed"
REFUSE_NOT_COLOCATED = "co-location-failed"
REFUSE_STALE_PROOF = "timestamp-request-too-late"
REFUSE_BAD_WINDOW = "endorsement-window-violated"
REFUSE_CLOCK_DISAGREEMENT = "timestamp-implausible"
REFUSE_UNKNOWN_PROOF = "unknown-proof"
REFUSE_BAD_PROOF = "proof-verification-failed"


class ProtocolError(ValidationError):
    pass


class UnknownPartyError(ProtocolError):
    pass


# Timing rules of an endorsement (see the module doc).
TIMESTAMP_LAG_MS = 30_000
WITNESS_CLOCK_TOLERANCE_MS = 60_000


@dataclass
class ProtocolConfig:
    epoch_len_ms: int = 300_000
    chain_capacity: int = 1000
    # simulated transmission delay applied before each message delivery
    hop_delay_ms: int = 200


@dataclass(frozen=True, slots=True)
class Message:
    kind: str
    sender: str
    receiver: str
    payload: dict


class SimClock:
    """Global discrete simulation clock (milliseconds)."""

    def __init__(self):
        self.now = 0

    def advance(self, ms: int) -> None:
        if ms < 0:
            raise ValidationError("clock cannot run backwards")
        self.now += ms


class GroundTruth:
    """Actual positions of parties. Honest authorities and witnesses ask it
    whether a prover is present, standing in for physical secure
    localization (distance bounding and friends)."""

    def __init__(self):
        self._positions: dict[str, set[str]] = {}

    def place(self, party_id: str, location_id: str) -> None:
        self._positions[party_id] = {location_id}

    def also_place(self, party_id: str, location_id: str) -> None:
        # A cloned device makes the same identity show up in two places.
        self._positions.setdefault(party_id, set()).add(location_id)

    def locations_of(self, party_id: str) -> set[str]:
        return self._positions.get(party_id, set())

    def present(self, prover_id: str, location_id: str) -> bool:
        return location_id in self.locations_of(prover_id)


@dataclass
class Directory:
    """Public lookup of party identities and their keys: each entry holds
    only the party's ``public_key``."""

    parties: dict[str, dict] = dataclass_field(default_factory=dict)

    def register(self, party_id: str, keys: KeyPair) -> None:
        self.parties[party_id] = {"public_key": keys.public_key}

    def public_key(self, party_id: str) -> bytes:
        try:
            return self.parties[party_id]["public_key"]
        except KeyError:
            raise UnknownPartyError(f"no directory entry for {party_id!r}") from None

    def has(self, party_id: str) -> bool:
        return party_id in self.parties

    def pubkeys(self) -> dict[str, bytes]:
        return {pid: meta["public_key"] for pid, meta in self.parties.items()}


class MessageBus:
    """FIFO queue plus an append-only trace of every delivered message.

    Delivery records one flat ``(clock, kind, sender, receiver, payload)``
    tuple, not the message; ``trace`` renders the entries when read. That
    gives the same bytes as rendering at delivery because payload values
    are frozen objects or scalars and no handler mutates a payload dict.
    """

    def __init__(self, clock: SimClock, config: ProtocolConfig):
        self.clock = clock
        self.config = config
        self.queue: deque[Message] = deque()
        self.handlers: dict[str, Callable[[Message], None]] = {}
        self._delivered: list[tuple[int, str, str, str, dict]] = []

    def register(self, party_id: str, handler: Callable[[Message], None]) -> None:
        self.handlers[party_id] = handler

    def send(self, msg: Message) -> None:
        self.queue.append(msg)

    def run(self) -> None:
        while self.queue:
            msg = self.queue.popleft()
            self.clock.advance(self.config.hop_delay_ms)
            self._delivered.append((self.clock.now, msg.kind, msg.sender,
                                    msg.receiver, msg.payload))
            handler = self.handlers.get(msg.receiver)
            if handler is None:
                raise UnknownPartyError(f"no handler for {msg.receiver!r}")
            handler(msg)

    @property
    def trace(self) -> list[dict]:
        """One dict per delivered message, in delivery order."""
        return [
            {"seq": seq, "clock": clock, "kind": kind, "sender": sender,
             "receiver": receiver, "payload": _payload_fingerprint(payload)}
            for seq, (clock, kind, sender, receiver, payload)
            in enumerate(self._delivered)
        ]


def _payload_fingerprint(payload: dict) -> dict:
    """Compact, deterministic rendering of a payload for trace logs."""
    out = {}
    for key in sorted(payload):
        value = payload[key]
        if value is None or isinstance(value, (bool, int, str)):
            out[key] = value
        elif isinstance(value, Digest):
            out[key] = value.data.hex()
        elif isinstance(value, Signature):
            out[key] = (f"Signature(scheme_id={value.scheme_id!r}, "
                        f"data={value.data!r})")
        else:
            out[key] = canonical_encode(value)[:24].hex()
    return out


def trace_to_jsonl(trace: list[dict]) -> str:
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in trace) + "\n"


# ---------------------------------------------------------------------------
# Behavior overrides (dishonest-role hooks)
# ---------------------------------------------------------------------------

@dataclass
class AuthorityBehavior:
    skip_localization: bool = False
    # added to the authority-local clock when stamping visit times
    visit_time_shift_ms: int = 0
    # added to the authority-local clock when signing endorsement timestamps
    timestamp_shift_ms: int = 0
    # record the digest in the epoch containing the (shifted) visit time
    # instead of the epoch it was actually issued in (post-dating)
    defer_record_to_visit_epoch: bool = False


@dataclass
class WitnessBehavior:
    skip_localization: bool = False
    ignore_time_checks: bool = False


# ---------------------------------------------------------------------------
# Ordering constructs
# ---------------------------------------------------------------------------

def issue_construct(profile: CryptoProfile, keys: KeyPair, scheme: str,
                    config: ProtocolConfig, lp: LocationProof,
                    prev: Optional[OrderingConstruct]) -> OrderingConstruct:
    """The ordering construct issued with ``lp``, signed with ``keys``: a
    hash-chain link onto ``prev``, or else ``prev``'s accumulator (a fresh
    one sized by ``config`` for a first entry) with the proof's digest added.
    ``World`` has checked that ``scheme`` is one of ``SCHEMES``."""
    if scheme == SCHEME_HASHCHAIN:
        if prev is None:
            return hashchain.chain_genesis(profile, keys, lp)
        if not isinstance(prev, HashChainLink):
            raise ProtocolError("previous construct is not a hash-chain link")
        return hashchain.chain_extend(profile, keys, lp, prev)
    if prev is None:
        acc = bloom_new(config.chain_capacity, TARGET_FPR)
    elif isinstance(prev, BloomAccumulator):
        acc = prev
    else:
        raise ProtocolError("previous construct is not an accumulator")
    acc = bloom_insert(profile, acc, proof_digest(profile, lp))
    return sign_accumulator(profile, keys, acc)


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------

class _Party:
    """One party of a ``World``: its identity, keys and clock skew. It reads
    everything shared (profile, config, clock, ground truth, directory,
    registry, scheme, rng, bus) from its world, and takes each message kind
    in its role's ``HANDLERS`` table (kind -> method)."""

    ROLE: str
    HANDLERS: dict[str, Callable[..., None]]

    def __init__(self, world: World, party_id: str, keys: KeyPair, *,
                 skew_ms: int = 0):
        self.world = world
        self.id = party_id
        self.keys = keys
        self.skew_ms = skew_ms

    def local_now(self) -> int:
        return self.world.clock.now + self.skew_ms

    def send(self, kind: str, receiver: str, payload: dict) -> None:
        self.world.bus.send(Message(kind, self.id, receiver, payload))

    def handle(self, msg: Message) -> None:
        handler = self.HANDLERS.get(msg.kind)
        if handler is None:
            raise ProtocolError(f"{self.ROLE} cannot handle {msg.kind!r}")
        handler(self, msg)

    def _refuse(self, receiver: str, reason: str, re_kind: str,
                **echo) -> None:
        """Refuse ``receiver``'s ``re_kind`` request, naming it by ``echo``."""
        self.send(REFUSAL, receiver, {"reason": reason, "re": re_kind, **echo})

    def _pop_request(self, pending: dict[bytes, Message], msg: Message,
                     key: str) -> Message:
        """The open request that the reply ``msg`` answers, named by the
        proof digest at ``key`` in its payload."""
        request = pending.pop(msg.payload[key].data, None)
        if request is None:
            raise ProtocolError(f"{msg.kind} answers no open {self.ROLE} request")
        return request


class AuthorityAgent(_Party):
    """Location authority: issues proofs, ordering constructs, endorsement
    timestamps, and per-epoch reports."""

    ROLE = "authority"

    def __init__(self, world: World, authority_id: str, keys: KeyPair, *,
                 granularities: Optional[list[str]] = None,
                 skew_ms: int = 0,
                 behavior: Optional[AuthorityBehavior] = None,
                 trusted_proxies: Optional[set[str]] = None,
                 proxy_parent: Optional[str] = None):
        super().__init__(world, authority_id, keys, skew_ms=skew_ms)
        self.granularities = granularities
        self.behavior = behavior or AuthorityBehavior()
        self.trusted_proxies = trusted_proxies or set()
        self.proxy_parent = proxy_parent

        # digests of issued proofs, by the epoch whose report will hold them
        self.epoch_digests: dict[int, list[Digest]] = {}
        self.issue_log: dict[bytes, int] = {}
        self.current_epoch = 0
        self.last_timestamp = 0
        self._pending_proxy: dict[bytes, Message] = {}

    # -- time ----------------------------------------------------------------

    def roll_epochs(self) -> None:
        """End every fully elapsed epoch in one step: publish a report for
        each that holds a digest, in epoch order, then close them all in
        the registry, so that no report can be published for any of them
        later. The cost is in the epochs that hold digests, not in the
        time passed. Digests deferred to an epoch already ended stay
        unpublished."""
        config = self.world.config
        now = epoch_of(self.local_now(), config.epoch_len_ms)
        if now <= self.current_epoch:
            return
        for epoch in sorted(e for e in self.epoch_digests
                            if self.current_epoch <= e < now):
            self.world.registry.publish(build_epoch_report(
                self.world.profile, self.keys, self.id, epoch,
                config.epoch_len_ms, self.epoch_digests.pop(epoch)))
        self.world.registry.close(self.id, now - 1)
        self.current_epoch = now

    # -- message handling ----------------------------------------------------

    def handle(self, msg: Message) -> None:
        self.roll_epochs()
        super().handle(msg)

    def _handle_preq(self, msg: Message) -> None:
        user_id = msg.payload["user_id"]
        prev = msg.payload.get("prev_construct")
        if not self.behavior.skip_localization and \
                not self.world.ground_truth.present(user_id, self.id):
            self._refuse(msg.sender, REFUSE_NOT_PRESENT, PREQ)
            return
        visit_time = self.local_now() + self.behavior.visit_time_shift_ms
        lp = self._build_proof(user_id, visit_time)
        if self.proxy_parent is not None:
            # Hand the proof to the broader-area authority for re-signing;
            # reply to the user once it comes back. The parent echoes the
            # original proof's digest, which names the request it answers.
            digest = proof_digest(self.world.profile, lp)
            self._pending_proxy[digest.data] = msg
            self.send(PROXY_REQ, self.proxy_parent, {
                "proof": lp, "prev_construct": prev, "requester": user_id,
                "original_digest": digest})
            return
        self._issue(msg.sender, lp, prev, visit_time)

    def _build_proof(self, user_id: str, visit_time: int) -> LocationProof:
        profile = self.world.profile
        if self.granularities:
            stmt = make_private_statement(
                profile, user_id, self.id, visit_time,
                self.granularities, self.world.rng)
        else:
            stmt = make_statement(user_id, self.id, visit_time)
        return make_proof(profile, self.keys, stmt)

    def _issue(self, receiver: str, lp: LocationProof,
               prev: Optional[OrderingConstruct], visit_time: int,
               kind: str = PRESP, **echo) -> None:
        """Issue ``lp`` with its ordering construct onto ``prev`` and send
        both to ``receiver``."""
        world = self.world
        construct = issue_construct(world.profile, self.keys, world.scheme,
                                    world.config, lp, prev)
        self.record_issue(lp, visit_time)
        self.send(kind, receiver, {"proof": lp, "construct": construct, **echo})

    def record_issue(self, lp: LocationProof, visit_time: int) -> None:
        """Log ``lp`` as issued now and queue its digest for the current
        epoch's report, or for the visit's epoch when deferring."""
        digest = proof_digest(self.world.profile, lp)
        self.issue_log[digest.data] = self.local_now()
        epoch = self.current_epoch
        if self.behavior.defer_record_to_visit_epoch:
            epoch = epoch_of(visit_time, self.world.config.epoch_len_ms)
        self.epoch_digests.setdefault(epoch, []).append(digest)

    def _handle_treq(self, msg: Message) -> None:
        digest: Digest = msg.payload["proof_digest"]
        issued_at = self.issue_log.get(digest.data)
        # the digest names the request among the witness's open ones
        if issued_at is None:
            self._refuse(msg.sender, REFUSE_UNKNOWN_PROOF, TREQ,
                         proof_digest=digest)
            return
        now = self.local_now()
        if now - issued_at > TIMESTAMP_LAG_MS:
            self._refuse(msg.sender, REFUSE_STALE_PROOF, TREQ,
                         proof_digest=digest)
            return
        endorsed_at = max(now + self.behavior.timestamp_shift_ms,
                          self.last_timestamp)
        self.last_timestamp = endorsed_at
        self.send(TRESP, msg.sender, {
            "proof_digest": digest, "endorsed_at": endorsed_at,
            "time_sig": sign_timestamp(self.world.profile, self.keys, digest,
                                       endorsed_at)})

    # -- proxy re-signing ----------------------------------------------------

    def _handle_proxy_req(self, msg: Message) -> None:
        lp: LocationProof = msg.payload["proof"]
        echo = {"original_digest": msg.payload["original_digest"]}
        try:
            new_lp = proxy_resign(self.world.profile, self, msg.sender, lp)
        except ProtocolError as exc:
            self._refuse(msg.sender, str(exc), PROXY_REQ, **echo)
            return
        self._issue(msg.sender, new_lp, msg.payload.get("prev_construct"),
                    new_lp.statement.visit_time, PROXY_RESP,
                    requester=msg.payload["requester"], **echo)

    def _handle_proxy_resp(self, msg: Message) -> None:
        original = self._pop_request(self._pending_proxy, msg, "original_digest")
        self.send(PRESP, original.sender, {
            "proof": msg.payload["proof"],
            "construct": msg.payload["construct"]})

    def _handle_parent_refusal(self, msg: Message) -> None:
        # The broader-area authority declined to re-sign; pass the refusal
        # on to the user waiting for that proof.
        original = self._pop_request(self._pending_proxy, msg, "original_digest")
        self._refuse(original.sender, msg.payload["reason"], PREQ)

    HANDLERS = {
        PREQ: _handle_preq,
        TREQ: _handle_treq,
        PROXY_REQ: _handle_proxy_req,
        PROXY_RESP: _handle_proxy_resp,
        REFUSAL: _handle_parent_refusal,
    }


def proxy_resign(profile: CryptoProfile, broad_authority: AuthorityAgent,
                 requesting_authority_id: str, lp: LocationProof) -> LocationProof:
    """Re-sign a proof under a broader-area authority, replacing the issuing
    authority's identity so auditors cannot infer the precise spot.

    The pair must appear in the broad authority's trust table, and the
    original proof must verify under the requesting authority's key.
    """
    if requesting_authority_id not in broad_authority.trusted_proxies:
        raise ProtocolError(
            f"{broad_authority.id!r} does not proxy for "
            f"{requesting_authority_id!r}")
    original_key = broad_authority.world.directory.public_key(
        requesting_authority_id)
    if not proof_signed(profile, original_key, lp):
        raise ProtocolError(REFUSE_BAD_PROOF)
    new_statement = dataclass_replace(lp.statement, location_id=broad_authority.id)
    return make_proof(profile, broad_authority.keys, new_statement)


class WitnessAgent(_Party):
    """Co-located third party that endorses location proofs."""

    ROLE = "witness"

    def __init__(self, world: World, witness_id: str, keys: KeyPair, *,
                 skew_ms: int = 0, behavior: Optional[WitnessBehavior] = None):
        super().__init__(world, witness_id, keys, skew_ms=skew_ms)
        self.behavior = behavior or WitnessBehavior()
        self._pending: dict[bytes, Message] = {}

    def _handle_ereq(self, msg: Message) -> None:
        lp: LocationProof = msg.payload["proof"]
        ground_truth = self.world.ground_truth
        if not self.behavior.skip_localization:
            here = min(ground_truth.locations_of(self.id), default=None)
            if here is None or not ground_truth.present(lp.statement.user_id, here):
                self._refuse(msg.sender, REFUSE_NOT_COLOCATED, EREQ)
                return
        digest = proof_digest(self.world.profile, lp)
        self._pending[digest.data] = msg
        self.send(TREQ, lp.statement.location_id, {"proof_digest": digest})

    def _handle_tresp(self, msg: Message) -> None:
        pending = self._pop_request(self._pending, msg, "proof_digest")
        lp: LocationProof = pending.payload["proof"]
        endorsed_at: int = msg.payload["endorsed_at"]
        colluding = self.behavior.ignore_time_checks
        try:
            endorsement = make_endorsement(
                self.world.profile, self.keys, self.id, lp, endorsed_at,
                msg.payload["time_sig"],
                window_ms=COLLUDING_WINDOW_MS if colluding else ENDORSEMENT_WINDOW_MS,
            )
        except WindowError:
            self._refuse(pending.sender, REFUSE_BAD_WINDOW, EREQ)
            return
        if not colluding and \
                abs(endorsed_at - self.local_now()) > WITNESS_CLOCK_TOLERANCE_MS:
            self._refuse(pending.sender, REFUSE_CLOCK_DISAGREEMENT, EREQ)
            return
        self.send(ERESP, pending.sender, {"endorsement": endorsement, "proof": lp})

    def _handle_authority_refusal(self, msg: Message) -> None:
        # The authority declined to timestamp; give up on that endorsement.
        pending = self._pop_request(self._pending, msg, "proof_digest")
        self._refuse(pending.sender, msg.payload["reason"], EREQ)

    HANDLERS = {
        EREQ: _handle_ereq,
        TRESP: _handle_tresp,
        REFUSAL: _handle_authority_refusal,
    }


@dataclass(slots=True)
class VisitOutcome:
    ok: bool
    reason: str = ""
    entry: Optional[ProvenanceEntry] = None


@dataclass
class _OpenVisit:
    request: str  # whose answer the user awaits: pReq, then eReq
    witness_id: str
    construct: Optional[OrderingConstruct] = None  # issued with the proof


class UserAgent(_Party):
    """Mobile user collecting endorsed proofs into a provenance chain."""

    ROLE = "user"

    def __init__(self, world: World, user_id: str, keys: KeyPair):
        super().__init__(world, user_id, keys)
        self.chain = ProvenanceChain()
        self.visit_log: list[VisitOutcome] = []
        self._visit: Optional[_OpenVisit] = None
        self._replay_construct: Optional[OrderingConstruct] = None

    def replay_construct_from(self, position: int) -> None:
        """Arrange for the next proof request to present the ordering
        construct from an older chain position (chain-forking replay)."""
        self._replay_construct = self.chain.entries[position - 1].ordering

    def start_visit(self, location_id: str, witness_id: str) -> None:
        if self._visit is not None:  # replies could not tell two apart
            raise ProtocolError(f"{self.id} already has a visit open")
        if not self.world.directory.has(location_id):
            raise UnknownPartyError(f"authority {location_id!r} not in directory")
        prev = self._replay_construct if self._replay_construct is not None \
            else self.chain.latest_construct
        self._replay_construct = None
        self._visit = _OpenVisit(PREQ, witness_id)
        self.send(PREQ, location_id, {"user_id": self.id, "prev_construct": prev})

    def _open_visit(self, msg: Message, request: str) -> _OpenVisit:
        """The open visit, when ``msg`` answers its ``request``."""
        if self._visit is None or self._visit.request != request:
            raise ProtocolError(f"{msg.kind} answers no open user {request}")
        return self._visit

    def _handle_presp(self, msg: Message) -> None:
        visit = self._open_visit(msg, PREQ)
        lp: LocationProof = msg.payload["proof"]
        issuer_key = self.world.directory.public_key(lp.statement.location_id)
        if not proof_signed(self.world.profile, issuer_key, lp):
            self._end_visit(VisitOutcome(False, REFUSE_BAD_PROOF))
            return
        visit.request = EREQ
        visit.construct = msg.payload["construct"]
        self.send(EREQ, visit.witness_id, {"proof": lp})

    def _handle_eresp(self, msg: Message) -> None:
        visit = self._open_visit(msg, EREQ)
        endorsement: Endorsement = msg.payload["endorsement"]
        lp: LocationProof = msg.payload["proof"]
        elp = assemble_elp(self.world.profile, lp, [endorsement])
        entry = ProvenanceEntry(elp, visit.construct)
        self.chain = self.chain.append(entry)
        self._end_visit(VisitOutcome(True, entry=entry))

    def _handle_refusal(self, msg: Message) -> None:
        self._open_visit(msg, msg.payload["re"])
        self._end_visit(VisitOutcome(False, msg.payload["reason"]))

    def _end_visit(self, outcome: VisitOutcome) -> None:
        self.visit_log.append(outcome)
        self._visit = None

    HANDLERS = {
        PRESP: _handle_presp,
        ERESP: _handle_eresp,
        REFUSAL: _handle_refusal,
    }


# ---------------------------------------------------------------------------
# World assembly
# ---------------------------------------------------------------------------

class World:
    """Everything one simulation run needs, wired together. ``scheme`` must
    be one of ``model.SCHEMES``: any other name raises ``ValidationError``
    here, before a party joins."""

    def __init__(self, profile: CryptoProfile, scheme: str,
                 config: Optional[ProtocolConfig] = None, seed: int = 0):
        if scheme not in SCHEMES:
            raise ValidationError(f"unknown ordering scheme {scheme!r}")
        self.profile = profile
        self.scheme = scheme
        self.config = config or ProtocolConfig()
        if not 0 <= seed < 1 << 64:
            raise ValidationError(f"seed {seed} is not a 64-bit unsigned int")
        self.master_seed = seed.to_bytes(8, "big") + bytes(24)
        self.rng = random.Random(seed)
        self.clock = SimClock()
        self.ground_truth = GroundTruth()
        self.directory = Directory()
        self.registry = EpochRegistry()
        self.bus = MessageBus(self.clock, self.config)
        self.users: dict[str, UserAgent] = {}
        self.authorities: dict[str, AuthorityAgent] = {}
        self.witnesses: dict[str, WitnessAgent] = {}

    def _join(self, role: type[_Party], party_id: str, members: dict,
              **options) -> _Party:
        """Derive ``party_id``'s keys from its role, build its agent with
        ``options`` (the role's keywords), and register it in ``members``,
        the directory and on the bus."""
        keys = self.profile.keygen(
            derive_seed(self.master_seed, f"{role.ROLE}:{party_id}"))
        agent = role(self, party_id, keys, **options)
        members[party_id] = agent
        self.directory.register(party_id, keys)
        self.bus.register(party_id, agent.handle)
        return agent

    def add_user(self, user_id: str) -> UserAgent:
        return self._join(UserAgent, user_id, self.users)

    def add_authority(self, authority_id: str, **options) -> AuthorityAgent:
        return self._join(AuthorityAgent, authority_id, self.authorities,
                          **options)

    def add_witness(self, witness_id: str, **options) -> WitnessAgent:
        return self._join(WitnessAgent, witness_id, self.witnesses, **options)

    def place(self, party_id: str, location_id: str) -> None:
        self.ground_truth.place(party_id, location_id)

    def advance(self, ms: int) -> None:
        """Advance simulated time, letting authorities publish or close
        every epoch whose boundary passes. Prompt publication is what gives
        the reports their anti-backdating power: once an epoch's report is
        out, or the epoch is closed with no proof, no later forgery can get
        into it."""
        self.clock.advance(ms)
        for authority in self.authorities.values():
            authority.roll_epochs()

    def run_visit(self, user_id: str, location_id: str,
                  witness_id: str) -> VisitOutcome:
        """Drive one full visit through the message loop."""
        user = self.users[user_id]
        visits_before = len(user.visit_log)
        user.start_visit(location_id, witness_id)
        self.bus.run()
        if len(user.visit_log) == visits_before:  # idle bus: no reply to come
            user._end_visit(VisitOutcome(False, "visit never completed"))
        return user.visit_log[-1]

    def finalize_epochs(self) -> None:
        """Advance time past the current epoch boundary everywhere and
        publish or close every outstanding epoch, so freshly issued proofs
        become auditable against the registry."""
        # Jump far enough that every authority's current epoch, and every
        # epoch holding a deferred digest, has passed its boundary.
        target_time = max(
            ((epoch + 1) * self.config.epoch_len_ms - a.skew_ms
             for a in self.authorities.values()
             for epoch in (a.current_epoch, *a.epoch_digests)),
            default=self.clock.now,
        )
        if target_time > self.clock.now:
            self.clock.advance(target_time - self.clock.now)
        for authority in self.authorities.values():
            authority.roll_epochs()
