"""Deterministic attack-scenario engine for the collusion threat matrix.

A scenario is declarative data: actors with behavior overrides (who is
malicious shows in its ``threat_row``), a script of timed visits and
attack actions, and a presentation (which chain positions get revealed, in
what claimed order, with which granularity openings). Running one replays
the protocol event loop with the scripted misbehavior, audits whatever the
presenting side ends up holding, and compares the outcome against the
expectation. A ``config`` sets only ``ProtocolConfig`` fields: endorsement
timing rules are constants.

An attack counts as defeated when either the audit flags the presented
history (``detected``) or an honest party's refusal prevented the artifact
from being created at all (``prevented``). Honesty notation in row labels:
uppercase honest, lowercase malicious (e.g. ``uLW`` is a malicious user
with honest location and witness).

The built-in suite instantiates every honesty combination of the threat
matrix plus the named attacks: false presence, reordering, proof
switching, denial of presence, doppelganger, chain forking, false time,
backdating, future dating, post-dating, false endorsement and implication.
Two attacks are expected to evade the audit and are documented as gaps
rather than asserted as detections: post-dating (the colluders premeditate
the epoch record itself) and the doppelganger (defeating cloned devices
needs hardware fingerprinting, which is out of scope here). Denial of
service (a party refusing to participate) is likewise out of scope: the
suite records refusal behavior where it arises but asserts no defense
against a party that simply stays silent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict, replace as dataclass_replace
from typing import Optional

from .audit import (AuditReport, LocationClaim, audit, classify_failure,
                    truthful_claims)
from .bloom import TARGET_FPR
from .crypto import CryptoError, derive_seed, get_profile
from .model import (
    COLLUDING_WINDOW_MS,
    EndorsedLocationProof,
    ProvenanceChain,
    ProvenanceEntry,
    ValidationError,
    SCHEMES,
    assemble_elp,
    bloom_bit_size,
    make_endorsement,
    make_proof,
    make_statement,
    make_revealed_subsequence,
    proof_digest,
    sign_timestamp,
)
from .protocol import (
    AuthorityBehavior,
    ProtocolConfig,
    WitnessBehavior,
    World,
    issue_construct,
    trace_to_jsonl,
)


class ScriptError(ValidationError):
    """The scenario script asked for something impossible."""


@dataclass
class ActorSpec:
    actor_id: str
    role: str  # "user" | "authority" | "witness"
    behavior: dict = field(default_factory=dict)
    granularities: Optional[list[str]] = None
    skew_ms: int = 0
    location: Optional[str] = None  # initial placement
    trusted_proxies: Optional[list[str]] = None
    proxy_parent: Optional[str] = None


@dataclass
class Scenario:
    name: str
    threat_row: str
    attack: str
    description: str
    seed: int
    scheme: str
    actors: list[ActorSpec]
    script: list[dict]
    expected_detection: bool
    profile_name: str = "modern"
    config: dict = field(default_factory=dict)
    reveal: dict = field(default_factory=dict)
    claims: object = "truthful"
    notes: str = ""

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        """Build a scenario from its JSON form, raising ``ValidationError``
        on anything it could not run: a missing, unknown or mistyped field,
        an unknown scheme or profile, or a script naming an undeclared user
        or a behavior its party does not have."""
        _check_scenario(obj)
        actors = [ActorSpec(**a) for a in obj["actors"]]
        kwargs = {k: v for k, v in obj.items() if k != "actors"}
        return cls(actors=actors, **kwargs)


# ---------------------------------------------------------------------------
# Scenario-file validation
# ---------------------------------------------------------------------------
# Field tables: name -> accepted JSON type(s); a trailing "?" marks a field
# that may be left out.

_OPTIONAL_STR = (str, type(None))
_OPTIONAL_LIST = (list, type(None))

_SCENARIO_FIELDS = {
    "name": str, "threat_row": str, "attack": str, "description": str,
    "seed": int, "scheme": str, "actors": list, "script": list,
    "expected_detection": bool, "profile_name?": str, "config?": dict,
    "reveal?": dict, "claims?": (str, list), "notes?": str,
}

_ACTOR_FIELDS = {
    "actor_id": str, "role": str, "behavior?": dict,
    "granularities?": _OPTIONAL_LIST, "skew_ms?": int,
    "location?": _OPTIONAL_STR, "trusted_proxies?": _OPTIONAL_LIST,
    "proxy_parent?": _OPTIONAL_STR,
}

_SCRIPT_OPS = {
    "advance": {"ms": int},
    "move": {"party": str, "location": str},
    "clone": {"identity": str, "location": str},
    "set_behavior": {"party": str, "field": str, "value": (bool, int)},
    "visit": {"user": str, "location": str, "witness": str, "attack?": bool},
    "replay_construct": {"user": str, "position": int},
    "drop_presented": {"positions": list},
    "switch_proof": {"proof_from": int, "endorsements_from": int},
    "fabricate_visit": {
        "user": str, "location": str, "witness": str,
        "forge_authority?": bool, "forge_witness?": bool,
        "record_epoch?": bool, "visit_time_shift_ms?": int,
    },
}

_REVEAL_FIELDS = {"positions?": (str, list), "disclose?": dict,
                  "presentation_order?": list}

_CLAIM_FIELDS = {"location_id": str, "visit_time": int}

_BEHAVIORS = {"authority": AuthorityBehavior, "witness": WitnessBehavior}

# Largest Bloom filter, in bits, that a scenario's config may ask for
# (2 MiB per filter).
MAX_FILTER_BITS = 1 << 24

# Most epoch reports a scenario may make its authorities build and sign,
# and most filter bits those reports may hold together (128 MiB).
MAX_EPOCH_REPORTS = 10_000
MAX_EPOCH_REPORT_BITS = 1 << 30

# Most messages one visit delivers, each after the configured hop delay:
# proof request, proxy request and response, proof, endorsement request,
# timestamp request and response, endorsement.
MESSAGES_PER_VISIT = 8


def _defaults_table(cls) -> dict:
    """Field table of a dataclass whose fields all default to a scalar; an
    int is accepted where the default is a float."""
    return {f.name + "?": (int, float) if isinstance(f.default, float)
            else type(f.default) for f in fields(cls)}


def _check_type(value, types, what: str) -> None:
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (
            isinstance(value, bool) and bool not in types):
        raise ValidationError(f"{what}: unexpected {type(value).__name__}")


def _check_list(value, types, what: str) -> None:
    for item in value or ():
        _check_type(item, types, what)


def _check_fields(obj, table: dict, what: str) -> None:
    _check_type(obj, dict, what)
    names = {name.rstrip("?") for name in table}
    unknown = sorted(set(obj) - names, key=str)
    if unknown:
        raise ValidationError(f"{what}: unknown field {unknown[0]!r}")
    for name, types in table.items():
        key = name.rstrip("?")
        if key in obj:
            _check_type(obj[key], types, f"{what}.{key}")
        elif not name.endswith("?"):
            raise ValidationError(f"{what}: missing field {key!r}")


def _check_config(config: dict) -> None:
    """Bound the work a config asks for: a non-positive epoch length would
    never close an epoch, and the capacities set the memory of every
    accumulator and epoch report."""
    if config["epoch_len_ms"] < 1:
        raise ValidationError("config.epoch_len_ms must be at least 1")
    if config["hop_delay_ms"] < 0:
        raise ValidationError("config.hop_delay_ms must not be negative")
    for key in ("epoch_capacity", "chain_capacity"):
        capacity = config[key]
        if capacity < 1:
            raise ValidationError(f"config.{key} must be at least 1")
        try:
            too_big = bloom_bit_size(capacity, TARGET_FPR) > MAX_FILTER_BITS
        except OverflowError:
            too_big = True
        if too_big:
            raise ValidationError(
                f"config.{key} asks for a filter of more than "
                f"{MAX_FILTER_BITS} bits")


def _check_scenario(obj) -> None:
    _check_fields(obj, _SCENARIO_FIELDS, "scenario")
    if obj["scheme"] not in SCHEMES:
        raise ValidationError(f"unknown scheme {obj['scheme']!r}")
    try:
        get_profile(obj.get("profile_name", "modern"))
    except CryptoError as exc:
        raise ValidationError(str(exc)) from None
    _check_fields(obj.get("config", {}), _defaults_table(ProtocolConfig),
                  "config")
    config = asdict(ProtocolConfig(**obj.get("config", {})))
    _check_config(config)

    roles: dict[str, str] = {}
    for actor in obj["actors"]:
        _check_fields(actor, _ACTOR_FIELDS, "actor")
        if actor["actor_id"] in roles:
            raise ValidationError(f"actor {actor['actor_id']!r} declared twice")
        role = actor["role"]
        if role not in ("user", *_BEHAVIORS):
            raise ValidationError(f"unknown role {role!r}")
        if actor.get("behavior"):
            if role not in _BEHAVIORS:
                raise ValidationError(f"a {role} has no behavior")
            _check_fields(actor["behavior"],
                          _defaults_table(_BEHAVIORS[role]), "behavior")
        _check_list(actor.get("granularities"), str, "granularities")
        _check_list(actor.get("trusted_proxies"), str, "trusted_proxies")
        roles[actor["actor_id"]] = role

    for op in obj["script"]:
        _check_type(op, dict, "script op")
        name = op.get("op")
        if not isinstance(name, str) or name not in _SCRIPT_OPS:
            raise ValidationError(f"unknown script op {name!r}")
        _check_fields({k: v for k, v in op.items() if k != "op"},
                      _SCRIPT_OPS[name], name)
        if name in ("visit", "replay_construct") and \
                roles.get(op["user"]) != "user":
            raise ValidationError(f"{name}: no user {op['user']!r}")
        if name == "advance" and op["ms"] < 0:
            raise ValidationError("advance: ms must not be negative")
        if name == "drop_presented":
            _check_list(op["positions"], int, "positions")
        if name == "set_behavior":
            role = roles.get(op["party"])
            if role not in _BEHAVIORS:
                raise ValidationError(
                    f"set_behavior: no authority or witness {op['party']!r}")
            table = _defaults_table(_BEHAVIORS[role])
            _check_fields({op["field"]: op["value"]}, table, "set_behavior")
        if name == "fabricate_visit":
            if not op.get("forge_authority", True) and \
                    roles.get(op["location"]) != "authority":
                raise ValidationError(
                    f"fabricate_visit: no authority {op['location']!r}")
            if not op.get("forge_witness", True) and \
                    roles.get(op["witness"]) != "witness":
                raise ValidationError(
                    f"fabricate_visit: no witness {op['witness']!r}")

    _check_epoch_work(obj, config)

    reveal = obj.get("reveal", {})
    _check_fields(reveal, _REVEAL_FIELDS, "reveal")
    if isinstance(reveal.get("positions"), str):
        if reveal["positions"] != "all":
            raise ValidationError("reveal.positions: a list or \"all\"")
    else:
        _check_list(reveal.get("positions"), int, "reveal.positions")
    _check_list(reveal.get("presentation_order"), int,
                "reveal.presentation_order")
    for position, indexes in reveal.get("disclose", {}).items():
        if not (isinstance(position, int) or str(position).isdigit()):
            raise ValidationError(f"reveal.disclose: position {position!r}")
        _check_type(indexes, list, "reveal.disclose")
        _check_list(indexes, int, "reveal.disclose")

    claims = obj.get("claims", "truthful")
    if isinstance(claims, str):
        if claims != "truthful":
            raise ValidationError(f"unknown claims spec {claims!r}")
    else:
        for claim in claims:
            _check_fields(claim, _CLAIM_FIELDS, "claim")


def _check_epoch_work(obj: dict, config: dict) -> None:
    """Bound the epoch reports a scenario makes its authorities build and
    sign: one per authority for every epoch that simulated time passes.
    Time moves by ``advance`` ops and by the hop delay of each message;
    clock skews and shifted visit times move an authority's epochs further
    (a shifted, deferred record is published when its epoch ends)."""
    script = obj["script"]
    elapsed = sum(op["ms"] for op in script if op["op"] == "advance")
    visits = sum(op["op"] == "visit" for op in script)
    elapsed += MESSAGES_PER_VISIT * config["hop_delay_ms"] * visits
    shifts = [actor.get("skew_ms", 0) for actor in obj["actors"]]
    shifts += [actor.get("behavior", {}).get("visit_time_shift_ms", 0)
               for actor in obj["actors"]]
    shifts += [op.get("visit_time_shift_ms", 0) for op in script
               if op["op"] == "fabricate_visit"]
    shifts += [op["value"] for op in script if op["op"] == "set_behavior"
               and op["field"] == "visit_time_shift_ms"]
    horizon = elapsed + max(abs(shift) for shift in [0, *shifts])
    authorities = sum(actor["role"] == "authority" for actor in obj["actors"])
    reports = authorities * (horizon // config["epoch_len_ms"] + 2)
    if reports > MAX_EPOCH_REPORTS:
        raise ValidationError(
            f"script closes about {reports} epoch reports, more than "
            f"{MAX_EPOCH_REPORTS}")
    report_bits = bloom_bit_size(config["epoch_capacity"], TARGET_FPR)
    if reports * report_bits > MAX_EPOCH_REPORT_BITS:
        raise ValidationError(
            f"script closes {reports} epoch reports of {report_bits} bits, "
            f"more than {MAX_EPOCH_REPORT_BITS} bits in all")


@dataclass
class ScenarioOutcome:
    scenario: str
    scheme: str
    audit_report: AuditReport
    prevented: bool
    expected_detection: bool
    refusals: list[str]
    trace: list[dict]
    threat_label: str = ""
    # what was presented to the auditor, for export
    subsequence: object = None
    claims: list = field(default_factory=list)
    registry: object = None
    directory: dict = field(default_factory=dict)
    profile_name: str = "modern"

    @property
    def detected(self) -> bool:
        return self.prevented or not self.audit_report.ok

    @property
    def matched(self) -> bool:
        return self.detected == self.expected_detection

    def trace_jsonl(self) -> str:
        return trace_to_jsonl(self.trace)


class _Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.world = World(get_profile(scenario.profile_name), scenario.scheme,
                           ProtocolConfig(**scenario.config), seed=scenario.seed)
        self.presented: list[ProvenanceEntry] = []
        self.prevented = False
        self.refusals: list[str] = []
        self.events: list[dict] = []
        self._forged_keys: dict[str, object] = {}
        self._build_actors()

    # -- setup ---------------------------------------------------------------

    def _build_actors(self) -> None:
        for actor in self.scenario.actors:
            if actor.role == "user":
                self.world.add_user(actor.actor_id)
            elif actor.role == "authority":
                self.world.add_authority(
                    actor.actor_id,
                    granularities=actor.granularities,
                    skew_ms=actor.skew_ms,
                    behavior=AuthorityBehavior(**actor.behavior),
                    trusted_proxies=set(actor.trusted_proxies or ()),
                    proxy_parent=actor.proxy_parent,
                )
            else:
                self.world.add_witness(actor.actor_id, skew_ms=actor.skew_ms,
                                       behavior=WitnessBehavior(**actor.behavior))
            if actor.location:
                self.world.place(actor.actor_id, actor.location)

    def _event(self, **fields) -> None:
        fields.setdefault("clock", self.world.clock.now)
        self.events.append(fields)

    def _forged_keypair(self, label: str):
        if label not in self._forged_keys:
            seed = derive_seed(self.world.master_seed, "forged:" + label)
            self._forged_keys[label] = self.world.profile.keygen(seed)
        return self._forged_keys[label]

    # -- script ops ----------------------------------------------------------

    def run(self) -> ScenarioOutcome:
        for op in self.scenario.script:
            getattr(self, "_op_" + op["op"])(op)
        self.world.finalize_epochs()
        report, sub, claims = self._audit_presentation()
        outcome = ScenarioOutcome(
            scenario=self.scenario.name,
            scheme=self.scenario.scheme,
            audit_report=report,
            prevented=self.prevented,
            expected_detection=self.scenario.expected_detection,
            refusals=self.refusals,
            trace=self.world.bus.trace + self.events,
            subsequence=sub,
            claims=claims,
            registry=self.world.registry,
            directory=dict(self.world.directory.parties),
            profile_name=self.scenario.profile_name,
        )
        if not report.ok:
            outcome.threat_label = classify_failure(report)
        return outcome

    def _op_advance(self, op: dict) -> None:
        self.world.advance(op["ms"])

    def _op_move(self, op: dict) -> None:
        self.world.place(op["party"], op["location"])
        self._event(event="move", party=op["party"], location=op["location"])

    def _op_clone(self, op: dict) -> None:
        # A cloned device makes the identity physically present in a second
        # location; only radiometric hardware fingerprinting (out of scope)
        # could tell the devices apart.
        self.world.ground_truth.also_place(op["identity"], op["location"])
        self._event(event="clone", identity=op["identity"],
                    location=op["location"])

    def _op_set_behavior(self, op: dict) -> None:
        party = op["party"]
        agent = (self.world.authorities.get(party)
                 or self.world.witnesses[party])
        setattr(agent.behavior, op["field"], op["value"])
        self._event(event="set_behavior", party=party, field=op["field"],
                    value=op["value"])

    def _op_visit(self, op: dict) -> None:
        outcome = self.world.run_visit(op["user"], op["location"], op["witness"])
        if outcome.ok:
            self.presented.append(outcome.entry)
            self._event(event="visit", user=op["user"], location=op["location"],
                        witness=op["witness"], result="ok",
                        position=len(self.presented))
        else:
            self.refusals.append(outcome.reason)
            self._event(event="visit", user=op["user"], location=op["location"],
                        witness=op["witness"], result="refused",
                        reason=outcome.reason)
            if op.get("attack"):
                self.prevented = True
            else:
                raise ScriptError(
                    f"honest visit refused: {outcome.reason} "
                    f"({op['user']} at {op['location']})")

    def _presented_index(self, position: int) -> int:
        if not 1 <= position <= len(self.presented):
            raise ScriptError(f"no presented entry at position {position}")
        return position - 1

    def _op_replay_construct(self, op: dict) -> None:
        user = self.world.users[op["user"]]
        if not 1 <= op["position"] <= len(user.chain.entries):
            raise ScriptError(f"no chain entry at position {op['position']}")
        user.replay_construct_from(op["position"])
        self._event(event="replay_construct", user=op["user"],
                    position=op["position"])

    def _op_drop_presented(self, op: dict) -> None:
        # The presenter simply leaves entries out of the history she shows.
        for position in sorted(op["positions"], reverse=True):
            del self.presented[self._presented_index(position)]
        self._event(event="drop_presented", positions=op["positions"])

    def _op_switch_proof(self, op: dict) -> None:
        """Rebind a genuine proof to another entry's endorsements."""
        i, j = op["proof_from"], op["endorsements_from"]
        at = self._presented_index(i)
        victim = self.presented[at]
        donor = self.presented[self._presented_index(j)]
        switched = ProvenanceEntry(
            elp=EndorsedLocationProof(victim.elp.proof, donor.elp.endorsements),
            ordering=victim.ordering,
        )
        self.presented[at] = switched
        self._event(event="switch_proof", proof_from=i, endorsements_from=j)

    def _op_fabricate_visit(self, op: dict) -> None:
        """Mint a chain entry outside the protocol.

        Signatures of parties the attacker does not control are forged with
        keys of the attacker's own making and will not verify against the
        directory; parties listed as colluding sign with their real keys.
        """
        user_id = op["user"]
        location_id = op["location"]
        witness_id = op["witness"]
        forge_authority = op.get("forge_authority", True)
        forge_witness = op.get("forge_witness", True)
        t = self.world.clock.now + op.get("visit_time_shift_ms", 0)
        profile = self.world.profile

        if forge_authority:
            authority_keys = self._forged_keypair("authority:" + location_id)
        else:
            authority_keys = self.world.authorities[location_id].keys
        stmt = make_statement(user_id, location_id, t)
        lp = make_proof(profile, authority_keys, stmt)

        if not forge_authority and op.get("record_epoch", False):
            # A colluding authority quietly records the digest as issued so
            # the epoch check will not give the forgery away.
            self.world.authorities[location_id].record_issue(lp, t)

        endorsed_at = t + 1_000
        time_sig = sign_timestamp(profile, authority_keys,
                                  proof_digest(profile, lp), endorsed_at)
        if forge_witness:
            witness_keys = self._forged_keypair("witness:" + witness_id)
        else:
            witness_keys = self.world.witnesses[witness_id].keys
        endorsement = make_endorsement(
            profile, witness_keys, witness_id, lp, endorsed_at,
            time_sig, window_ms=COLLUDING_WINDOW_MS)
        elp = assemble_elp(profile, lp, [endorsement])

        prev = self.presented[-1].ordering if self.presented else None
        construct = issue_construct(profile, authority_keys, self.world.scheme,
                                    self.world.config, lp, prev)
        self.presented.append(ProvenanceEntry(elp, construct))
        self._event(event="fabricate_visit", user=user_id,
                    location=location_id, witness=witness_id, visit_time=t,
                    position=len(self.presented))

    # -- presentation and audit ------------------------------------------------

    def _audit_presentation(self):
        reveal = self.scenario.reveal
        chain = ProvenanceChain(self.scenario.scheme, tuple(self.presented))
        positions = reveal.get("positions")
        if positions in (None, "all"):
            positions = list(range(1, len(self.presented) + 1))
        disclose = {int(k): v for k, v in reveal.get("disclose", {}).items()}
        sub = make_revealed_subsequence(self.world.profile, chain, positions,
                                        disclose)

        order = reveal.get("presentation_order")
        if order:
            by_position = {r.position: r for r in sub.entries}
            missing = set(order) - set(by_position)
            if missing:
                raise ScriptError(f"presentation order names unrevealed "
                                  f"position {min(missing)}")
            sub = dataclass_replace(
                sub, entries=tuple(by_position[p] for p in order))

        spec = self.scenario.claims
        claims = truthful_claims(sub) if spec == "truthful" else [
            LocationClaim(c["location_id"], c["visit_time"]) for c in spec]
        report = audit(self.world.profile, claims, sub,
                       self.world.directory.pubkeys(), self.world.registry)
        return report, sub, claims


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute one scenario deterministically and audit the result. The
    scenario passes the same check as one read from a file, so a bad one
    raises ``ValidationError`` before anything runs."""
    _check_scenario(asdict(scenario))
    return _Runner(scenario).run()


# ---------------------------------------------------------------------------
# Built-in suite
# ---------------------------------------------------------------------------

def _std_actors(*, authority_behavior=None, witness_behavior=None,
                extra=()) -> list[ActorSpec]:
    actors = [
        ActorSpec("u1", "user", location="cafe-7"),
        ActorSpec("cafe-7", "authority", behavior=authority_behavior or {}),
        ActorSpec("lib-2", "authority"),
        ActorSpec("park-9", "authority"),
        ActorSpec("w1", "witness", behavior=witness_behavior or {},
                  location="cafe-7"),
    ]
    actors.extend(extra)
    return actors


def _tour(*stops: str) -> list[dict]:
    """u1 and w1 visit each stop in turn, 5 s apart."""
    return [op for stop in stops for op in (
        {"op": "move", "party": "u1", "location": stop},
        {"op": "move", "party": "w1", "location": stop},
        {"op": "visit", "user": "u1", "location": stop, "witness": "w1"},
        {"op": "advance", "ms": 5_000})]


# Seed of the first built-in scenario; each later one takes the next.
SUITE_SEED = 20_260_811


def builtin_suite(scheme: str) -> list[Scenario]:
    """Every threat-matrix row plus the named attacks, for one ordering
    scheme. Expectations follow the security analysis: everything is
    detected or prevented except post-dating and the doppelganger."""
    scenarios: list[Scenario] = []

    def add(name: str, **kwargs) -> None:
        scenarios.append(Scenario(
            name=f"{name}-{scheme}", seed=SUITE_SEED + len(scenarios),
            scheme=scheme, **kwargs))

    # Row ULW: everyone honest; includes blinded granularities and a
    # partially revealed chain.
    add(
        "honest-baseline",
        threat_row="ULW", attack="none",
        description="all-honest multi-stop tour, partial disclosure",
        actors=[
            ActorSpec("u1", "user", location="cafe-7"),
            ActorSpec("cafe-7", "authority",
                      granularities=["IL", "Chicago", "Block 5"]),
            ActorSpec("lib-2", "authority"),
            ActorSpec("park-9", "authority"),
            ActorSpec("w1", "witness", location="cafe-7"),
        ],
        script=_tour("cafe-7", "lib-2", "park-9", "lib-2"),
        reveal={"positions": [1, 2, 4], "disclose": {1: [2]}},
        expected_detection=False,
    )

    # Row uLW: malicious user, everyone else honest.
    add(
        "false-presence",
        threat_row="uLW", attack="false-presence",
        description="user fabricates a proof and endorsement from thin air",
        actors=_std_actors(),
        script=[
            {"op": "advance", "ms": 2_000},
            {"op": "fabricate_visit", "user": "u1", "location": "lib-2",
             "witness": "w1", "forge_authority": True, "forge_witness": True},
        ],
        expected_detection=True,
        notes="an honest authority will not sign for an absent user, so the "
              "user must forge the signatures; forgeries fail verification",
    )

    add(
        "reordering",
        threat_row="uLW", attack="reordering",
        description="user presents genuine entries in a swapped order",
        actors=_std_actors(),
        script=_tour("cafe-7", "lib-2", "park-9"),
        # per-entry claims stay truthful; the forged presentation order is
        # the attack
        reveal={"positions": [2, 3], "presentation_order": [3, 2]},
        expected_detection=True,
    )

    add(
        "proof-switching",
        threat_row="uLW", attack="proof-switching",
        description="genuine proof rebound to another entry's endorsement",
        actors=_std_actors(),
        script=_tour("cafe-7", "lib-2") + [
            {"op": "switch_proof", "proof_from": 1, "endorsements_from": 2},
        ],
        expected_detection=True,
    )

    add(
        "denial-of-presence",
        threat_row="uLW", attack="denial-of-presence",
        description="user withholds a visited location from the auditor",
        actors=_std_actors(),
        script=_tour("cafe-7", "lib-2", "park-9"),
        reveal={"positions": [1, 3]},
        expected_detection=False,
        notes="selective disclosure is a feature: nothing forces the user "
              "to reveal the middle stop, and the rest still verifies",
    )

    add(
        "doppelganger",
        threat_row="uLW", attack="doppelganger",
        description="user shares keys with an accomplice who collects a "
                    "genuine proof elsewhere",
        actors=_std_actors(extra=(
            ActorSpec("w2", "witness", location="lib-2"),)),
        script=_tour("cafe-7") + [
            {"op": "clone", "identity": "u1", "location": "lib-2"},
            {"op": "visit", "user": "u1", "location": "lib-2",
             "witness": "w2", "attack": True},
        ],
        expected_detection=False,
        notes="every signature is genuine because the clone holds the real "
              "keys; telling devices apart needs radiometric fingerprinting, "
              "which is out of scope",
    )

    add(
        "chain-fork-mixed",
        threat_row="uLW", attack="chain-fork",
        description="user replays an old ordering construct to fork her "
                    "chain, then mixes both branches in one presentation",
        actors=_std_actors(),
        script=_tour("cafe-7", "lib-2", "park-9") + [
            {"op": "replay_construct", "user": "u1", "position": 1},
            {"op": "move", "party": "u1", "location": "lib-2"},
            {"op": "move", "party": "w1", "location": "lib-2"},
            {"op": "visit", "user": "u1", "location": "lib-2",
             "witness": "w1", "attack": True},
        ],
        reveal={"positions": [2, 4]},
        expected_detection=True,
        notes="the forked entry descends from position 1, so evidence "
              "mixing it with the main branch cannot verify",
    )

    add(
        "chain-fork-hidden",
        threat_row="uLW", attack="chain-fork",
        description="forked chain presented as a self-consistent view "
                    "that hides the abandoned branch",
        actors=_std_actors(),
        script=_tour("cafe-7", "lib-2", "park-9") + [
            {"op": "replay_construct", "user": "u1", "position": 1},
            {"op": "move", "party": "u1", "location": "lib-2"},
            {"op": "move", "party": "w1", "location": "lib-2"},
            {"op": "visit", "user": "u1", "location": "lib-2",
             "witness": "w1", "attack": True},
            {"op": "drop_presented", "positions": [2, 3]},
        ],
        expected_detection=False,
        notes="a single fork branch is internally consistent; nothing ties "
              "a user to one canonical chain head, so audits cannot catch a "
              "fork unless branches are mixed in one presentation",
    )

    # Row Ul(bar)W: malicious location authority, honest user and witness.
    add(
        "authority-false-time",
        threat_row="UlW", attack="false-time",
        description="authority stamps the visit far in the past; the honest "
                    "witness refuses the implausible timestamp",
        actors=_std_actors(authority_behavior={
            "visit_time_shift_ms": -120_000}),
        script=[
            {"op": "advance", "ms": 400_000},
            {"op": "move", "party": "u1", "location": "cafe-7"},
            {"op": "move", "party": "w1", "location": "cafe-7"},
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "attack": True},
        ],
        expected_detection=True,
        notes="prevented rather than audited: the endorsement window check "
              "stops the false-time proof from ever being endorsed",
    )

    # Row ULw(bar): malicious witness, everyone else honest.
    add(
        "lazy-witness",
        threat_row="ULw", attack="skipped-localization",
        description="witness endorses without checking co-location, but the "
                    "user really is present",
        actors=_std_actors(witness_behavior={"skip_localization": True}),
        script=_tour("cafe-7", "lib-2"),
        expected_detection=False,
        notes="a lone malicious witness can at worst refuse service; a "
              "truthful endorsement of a real visit harms nobody",
    )

    # Row ul(bar)W: user and location collude, witness honest.
    add(
        "offline-fake-proof",
        threat_row="ulW", attack="false-presence",
        description="user and location mint a proof while the user is "
                    "absent; the honest witness refuses, so they forge the "
                    "endorsement",
        actors=_std_actors(authority_behavior={"skip_localization": True}),
        script=[
            {"op": "advance", "ms": 2_000},
            {"op": "move", "party": "u1", "location": "far-away"},
            {"op": "move", "party": "w1", "location": "cafe-7"},
            # the colluding authority signs anyway, but the protocol visit
            # dies at the honest witness's co-location check
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "attack": True},
            # so the colluders assemble the endorsement themselves
            {"op": "fabricate_visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "forge_authority": False, "forge_witness": True,
             "record_epoch": True},
        ],
        expected_detection=True,
        notes="the witness signature is the one thing the colluding pair "
              "cannot produce",
    )

    add(
        "backdating",
        threat_row="ulW", attack="backdating",
        description="colluders stamp a proof 50 s into the just-closed "
                    "epoch; the published report cannot contain it",
        actors=_std_actors(authority_behavior={
            "visit_time_shift_ms": -50_000}),
        script=[
            # park just past an epoch boundary so the shifted timestamp
            # lands in the closed epoch while staying inside the
            # endorsement window of the honest witness
            {"op": "advance", "ms": 330_000},
            {"op": "move", "party": "u1", "location": "cafe-7"},
            {"op": "move", "party": "w1", "location": "cafe-7"},
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "attack": True},
        ],
        expected_detection=True,
        notes="the honest witness tolerates a 50 s gap, but the closed "
              "epoch's accumulator was published before the proof existed",
    )

    # Row uLw(bar): user and witness collude, location honest.
    add(
        "false-endorsement",
        threat_row="uLw", attack="false-endorsement",
        description="witness endorses an absent user, but the honest "
                    "location never signed a proof, so one is forged",
        actors=_std_actors(witness_behavior={"skip_localization": True,
                                             "ignore_time_checks": True}),
        script=[
            {"op": "advance", "ms": 2_000},
            {"op": "fabricate_visit", "user": "u1", "location": "lib-2",
             "witness": "w1", "forge_authority": True, "forge_witness": False},
        ],
        expected_detection=True,
        notes="with an honest location authority there is nothing real to "
              "endorse; the forged proof signature gives the pair away",
    )

    # Row Ul(bar)w(bar): location and witness collude to implicate a user.
    add(
        "implication",
        threat_row="Ulw", attack="implication",
        description="location and witness fabricate a past visit for a "
                    "user who never participated",
        actors=_std_actors(witness_behavior={"skip_localization": True,
                                             "ignore_time_checks": True}),
        script=[
            # u1 is never anywhere near cafe-7 and takes no part; the
            # colluders sign everything themselves, claiming a visit in
            # the previous (already reported) epoch
            {"op": "advance", "ms": 400_000},
            {"op": "fabricate_visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "forge_authority": False,
             "forge_witness": False, "visit_time_shift_ms": -350_000,
             "record_epoch": True},
        ],
        expected_detection=True,
        notes="framing a user for a past visit fails against the "
              "already-published epoch report; framing in the live epoch "
              "is blocked by key-bound secure localization, which the "
              "simulator's ground truth stands in for",
    )

    # Row ul(bar)w(bar): everyone colludes.
    add(
        "future-dating",
        threat_row="ulw", attack="future-dating",
        description="all three collude on a proof stamped into the next "
                    "epoch without managing the epoch record",
        actors=_std_actors(
            authority_behavior={"skip_localization": True,
                                "visit_time_shift_ms": 400_000,
                                "timestamp_shift_ms": 400_000},
            witness_behavior={"skip_localization": True,
                              "ignore_time_checks": True}),
        script=[
            {"op": "advance", "ms": 2_000},
            {"op": "move", "party": "u1", "location": "cafe-7"},
            {"op": "move", "party": "w1", "location": "cafe-7"},
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "attack": True},
        ],
        expected_detection=True,
        notes="the digest lands in the minting epoch's report, not the "
              "claimed one, and the mismatch shows",
    )

    add(
        "post-dating",
        threat_row="ulw", attack="post-dating",
        description="all three collude on a future-dated proof AND "
                    "premeditate its epoch record for the target epoch",
        actors=_std_actors(
            authority_behavior={"skip_localization": True,
                                "visit_time_shift_ms": 400_000,
                                "timestamp_shift_ms": 400_000,
                                "defer_record_to_visit_epoch": True},
            witness_behavior={"skip_localization": True,
                              "ignore_time_checks": True}),
        script=[
            {"op": "advance", "ms": 2_000},
            {"op": "move", "party": "u1", "location": "cafe-7"},
            {"op": "move", "party": "w1", "location": "cafe-7"},
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "attack": True},
        ],
        expected_detection=False,
        notes="documented gap: when the issuing authority itself caches the "
              "proof and publishes its digest in the premeditated future "
              "epoch, every check the auditor can run comes back clean",
    )

    return scenarios


def run_builtin_suite() -> list[ScenarioOutcome]:
    """Run the whole matrix under both ordering schemes."""
    return [run_scenario(scenario)
            for scheme in SCHEMES for scenario in builtin_suite(scheme)]


def scenario_to_json(scenario: Scenario) -> str:
    return json.dumps(asdict(scenario), indent=2, sort_keys=True)


def scenario_from_json(text: str) -> Scenario:
    return Scenario.from_dict(json.loads(text))
