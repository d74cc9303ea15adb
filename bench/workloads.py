"""The benchmark's workloads: inputs drawn from a seed, set-up, and rounds.

A workload's ``setup`` does all the program work that comes before the
first timed op; ``run_round`` performs one round of ops and returns their
outputs; ``check_round`` then checks those outputs apart from the program
(see ``checks``). Both time their program calls with the stopwatch they are
given (see ``timing``); drawing inputs and checking outputs is not timed.
Every round performs exactly the same ops, so a run that stops at a round
boundary attempts a whole number of rounds and the share of failed ops is
the same in every run.

The program is always called through module attributes (``serialize.x``,
``model.x``) so that the traced mode can wrap those functions.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass, replace
from typing import Optional

from locprov import model, serialize
from locprov.crypto import get_profile
from locprov.model import canonical_encode as _canonical_encode
from locprov.protocol import ProtocolConfig, World

import checks

# The package exports the function ``audit`` under the module's name.
audit_mod = importlib.import_module("locprov.audit")

PROFILE_NAME = "modern"
PROFILE = get_profile(PROFILE_NAME)
SCHEMES = ("hashchain", "bloom")
EPOCH_LEN_MS = ProtocolConfig().epoch_len_ms

# Gaps between visits: mostly up to 40 s, and exactly one in fifty a long
# pause, so that some epochs at some authorities pass with no proof issued,
# while the simulated time a schedule spans (and with it the number of epoch
# reports) varies little from seed to seed.
SHORT_GAP_MS = (1_000, 40_000)
LONG_GAP_MS = (300_000, 900_000)
LONG_GAP_SHARE = 0.02

# Share of issued entries whose signatures are all verified directly.
SIGNATURE_SAMPLE = 1 / 8


@dataclass(frozen=True)
class Population:
    authorities: tuple[tuple[str, Optional[tuple[str, ...]]], ...]
    witnesses: tuple[str, ...]
    users: tuple[str, ...]


@dataclass(frozen=True)
class Visit:
    user: str
    authority: str
    witness: str
    gap_ms: int  # simulated time that passes before the visit


def draw_population(rng: random.Random, users: int, authorities: int,
                    granular: int, witnesses: int) -> Population:
    """Authorities in ``granular`` of the slots commit to a three-step
    granularity ladder, so their proofs carry blinded statements."""
    blinded = set(rng.sample(range(authorities), granular))
    return Population(
        authorities=tuple(
            (f"loc-{i:02d}",
             (f"region-{i % 2}", f"city-{i % 3}", f"block-{i:02d}")
             if i in blinded else None)
            for i in range(authorities)),
        witnesses=tuple(f"wit-{i:02d}" for i in range(witnesses)),
        users=tuple(f"user-{i:02d}" for i in range(users)),
    )


def draw_schedule(rng: random.Random, pop: Population,
                  visits_per_user: int) -> list[Visit]:
    order = [u for u in pop.users for _ in range(visits_per_user)]
    rng.shuffle(order)
    long_gaps = set(rng.sample(range(len(order)),
                               round(len(order) * LONG_GAP_SHARE)))
    return [Visit(user, rng.choice(pop.authorities)[0],
                  rng.choice(pop.witnesses),
                  rng.randint(*(LONG_GAP_MS if k in long_gaps
                                else SHORT_GAP_MS)))
            for k, user in enumerate(order)]


def build_world(scheme: str, pop: Population, seed: int,
                config: ProtocolConfig) -> World:
    world = World(PROFILE, scheme, config, seed=seed)
    for authority, ladder in pop.authorities:
        world.add_authority(authority,
                            granularities=list(ladder) if ladder else None)
    for witness in pop.witnesses:
        world.add_witness(witness)
    for user in pop.users:
        world.add_user(user)
    return world


def visit(world: World, v: Visit):
    world.advance(v.gap_ms)
    world.place(v.user, v.authority)
    world.place(v.witness, v.authority)
    return world.run_visit(v.user, v.authority, v.witness)


def issue_histories(sw, world: World, schedule: list[Visit]) -> None:
    for v in schedule:
        outcome = sw.call(visit, world, v)
        checks.require(outcome.ok, f"honest visit refused: {outcome.reason}")
    sw.call(world.finalize_epochs)


def honest_chain_inputs(n: int, seed: int = 7):
    """The construction of ``locprov.cli.build_honest_chain``: one user
    alternating between two plain authorities with one witness, 50 ms hops,
    1 s between visits, and a filter sized for the n entries. Rebuilt from
    the public ``World`` API so the benchmark does not depend on a CLI
    helper; it issues byte-identical entries."""
    pop = Population(authorities=(("site-a", None), ("site-b", None)),
                     witnesses=("w1",), users=("u1",))
    schedule = [Visit("u1", ("site-a", "site-b")[i % 2], "w1",
                      0 if i == 0 else 1_000) for i in range(n)]
    config = ProtocolConfig(hop_delay_ms=50, chain_capacity=n)
    return pop, schedule, config, seed


def signature_sample(rng: random.Random, n: int) -> set[int]:
    picked = {i for i in range(n) if rng.random() < SIGNATURE_SAMPLE}
    return picked | {0, n - 1}


def check_world(world: World, rng: random.Random) -> int:
    """Checks of everything a world issued; returns its idle epochs."""
    pubkeys = world.directory.pubkeys()
    issued = []
    for user in world.users.values():
        entries = user.chain.entries
        checks.check_chain(entries, pubkeys,
                           signature_sample(rng, len(entries)))
        issued.extend(entries)
    checks.check_epoch_inclusion(issued, world.registry.reports(),
                                 world.config.epoch_len_ms, pubkeys)
    return checks.idle_epochs(issued, world.config.epoch_len_ms)


# ---------------------------------------------------------------------------
# issue
# ---------------------------------------------------------------------------

class IssueWorkload:
    """Honest visits through ``World.run_visit``, one world per scheme, both
    driven by the same seeded population and schedule. Each round starts
    from freshly built worlds, so memory does not grow with run length."""

    name = "issue"
    setup_repeats = 21
    USERS, AUTHORITIES, GRANULAR, WITNESSES = 24, 8, 3, 6
    VISITS_PER_USER = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.worlds: list[World] = []
        self.fingerprint: Optional[bytes] = None
        self.bytes_per_op = 0.0

    def setup(self, sw) -> None:
        rng = random.Random(self.seed)
        self.pop = draw_population(rng, self.USERS, self.AUTHORITIES,
                                   self.GRANULAR, self.WITNESSES)
        self.schedule = draw_schedule(rng, self.pop, self.VISITS_PER_USER)
        self.world_seed = rng.randrange(1 << 32)
        self.worlds = sw.call(self._build_worlds)

    def _build_worlds(self) -> list[World]:
        return [build_world(s, self.pop, self.world_seed, ProtocolConfig())
                for s in SCHEMES]

    def check_setup(self) -> None:
        """Set-up only builds the worlds; the first round's checks cover
        everything they issue."""

    def run_round(self, sw):
        """Rounds after the first build fresh worlds, untimed."""
        worlds = self.worlds or self._build_worlds()
        self.worlds = []
        refused = []
        for world in worlds:
            for v in self.schedule:
                outcome = sw.call(visit, world, v)
                if not outcome.ok:
                    refused.append(outcome.reason)
            sw.call(world.finalize_epochs)
        return len(worlds) * len(self.schedule), (worlds, refused)

    def check_round(self, outputs) -> int:
        worlds, refused = outputs
        checks.require(not refused, f"honest visits refused: {refused[:3]}")
        chains = [u.chain.entries for w in worlds for u in w.users.values()]
        checks.require(sum(map(len, chains)) == len(worlds) * len(self.schedule),
                       "a visit reported success but added no entry")
        fingerprint = checks.chains_fingerprint(chains)
        if self.fingerprint is None:
            rng = random.Random(self.seed ^ 0x5EED)
            idle = sum(check_world(w, rng) for w in worlds)
            checks.require(idle > 0, "no epoch passed without a proof")
            self.bytes_per_op = (sum(len(_canonical_encode(e))
                                     for c in chains for e in c)
                                 / sum(map(len, chains)))
            self.fingerprint = fingerprint
        checks.require(fingerprint == self.fingerprint,
                       "a repeated round issued different entries")
        return 0


# ---------------------------------------------------------------------------
# audit-full and audit-sparse
# ---------------------------------------------------------------------------

# The claim a tamper touches and the verdict it must draw. A false claim
# over genuine artifacts maps onto no attack of the threat matrix, which
# ``classify_failure`` reports as "unclassified".
TAMPERS = {
    "reorder": (None, "reordering"),
    "switch-proof": ("EndorsementMismatch", "proof-switching"),
    "flip-signature": ("BadSignature", "false-presence"),
    "wrong-time": ("TimeMismatch", "unclassified"),
    "wrong-location": ("GranularityMismatch", "unclassified"),
}


@dataclass
class Presentation:
    label: str
    chain_text: str
    claims_text: str
    registry: object
    claims: int
    tamper: Optional[str] = None
    index: int = 0                                   # claim the tamper hit
    equal_pair: Optional[tuple[int, int]] = None     # honest Bloom only

    @property
    def bytes(self) -> int:
        return len(self.chain_text) + len(self.claims_text)


def reveal(sw, chain, positions, rng: random.Random):
    """Reveal ``positions``, disclosing one seeded granularity of every
    blinded statement among them."""
    disclose = {}
    for p in positions:
        stmt = chain.entries[p - 1].elp.proof.statement
        if getattr(stmt, "commitments", None):
            disclose[p] = [rng.randint(1, len(stmt.commitments))]
    return sw.call(model.make_revealed_subsequence, PROFILE, chain, positions,
                   disclose)


def truthful_claims(sub) -> list:
    claims = []
    for r in sub.entries:
        stmt = r.entry.elp.proof.statement
        where = r.disclosed[0][1] if r.disclosed else stmt.location_id
        claims.append(audit_mod.LocationClaim(where, stmt.visit_time))
    return claims


def _flip(sig, rng: random.Random):
    data = bytearray(sig.data)
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return replace(sig, data=bytes(data))


def tamper(kind: str, sub, rng: random.Random, locations: list[str]):
    """Apply one tamper to a full reveal; returns (sub, claims, index)."""
    entries = list(sub.entries)
    i = rng.randrange(len(entries) - 1)
    if kind == "reorder":
        entries[i], entries[i + 1] = entries[i + 1], entries[i]
    elif kind == "switch-proof":
        j = rng.choice([k for k in range(len(entries)) if k != i])
        donor = entries[j].entry.elp.endorsements
        r = entries[i]
        entries[i] = replace(r, entry=replace(
            r.entry, elp=replace(r.entry.elp, endorsements=donor)))
    elif kind == "flip-signature":
        r = entries[i]
        elp = r.entry.elp
        target = rng.choice(("authority", "witness", "timestamp"))
        if target == "authority":
            elp = replace(elp, proof=replace(
                elp.proof, authority_sig=_flip(elp.proof.authority_sig, rng)))
        else:
            e = elp.endorsements[0]
            e = (replace(e, witness_sig=_flip(e.witness_sig, rng))
                 if target == "witness" else
                 replace(e, authority_time_sig=_flip(e.authority_time_sig, rng)))
            elp = replace(elp, endorsements=(e,) + elp.endorsements[1:])
        entries[i] = replace(r, entry=replace(r.entry, elp=elp))
    sub = replace(sub, entries=tuple(entries))
    claims = truthful_claims(sub)
    c = claims[i]
    if kind == "wrong-time":
        shift = rng.randint(1, EPOCH_LEN_MS)
        earlier = shift <= c.visit_time and rng.random() < 0.5
        claims[i] = replace(c, visit_time=c.visit_time + (-shift if earlier
                                                          else shift))
    elif kind == "wrong-location":
        claims[i] = replace(c, location_id=rng.choice(
            [loc for loc in locations if loc != c.location_id]))
    return sub, claims, i


def present(sw, label, sub, claims, directory, registry,
            **extra) -> Presentation:
    chain_text = sw.call(serialize.dump_chain_file, PROFILE_NAME, sub,
                         directory)
    claims_text = sw.call(serialize.dump_claims_file, claims)
    return Presentation(label, chain_text, claims_text, registry,
                        len(claims), **extra)


def publish(sw, world: World):
    """The registry as an auditor gets it: written out and read back."""
    text = sw.call(serialize.dump_registry_file, PROFILE_NAME, world.registry)
    return sw.call(serialize.load_registry_file, text)[1]


def audit_presentation(p: Presentation):
    """One op, handled as ``locprov audit`` handles it: parse the chain and
    claims files, audit, render the text and the JSON report."""
    profile_name, sub, directory = serialize.load_chain_file(p.chain_text)
    claims = serialize.load_claims_file(p.claims_text)
    pubkeys = {pid: meta["public_key"] for pid, meta in directory.items()}
    report = audit_mod.audit(get_profile(profile_name), claims, sub, pubkeys,
                             p.registry)
    return (report, audit_mod.render_text_report(report),
            serialize.dump_audit_report_file(report))


def check_outcome(p: Presentation, report, text: str, report_json: str) -> bool:
    """Checks one audited presentation; True when the op failed because of
    the equal-accumulator fault."""
    passed, threat = checks.rendered_verdict(text)
    doc = json.loads(report_json)["report"]
    checks.require(passed == report.ok == doc["ok"],
                   f"{p.label}: text, JSON and report verdicts disagree")
    checks.require(len(report.claim_verdicts) == len(doc["claims"]) == p.claims,
                   f"{p.label}: report does not cover every claim")
    if p.tamper is None:
        if report.ok:
            return False
        # The only failure an honest presentation may draw: equal
        # consecutive accumulators taken for a reordering.
        checks.require(p.equal_pair is not None,
                       f"{p.label}: honest presentation flagged:\n{text}")
        checks.require(all(v.ok for v in report.claim_verdicts)
                       and report.ordering.status == "Reordered"
                       and all(str(x) in report.ordering.detail
                               for x in p.equal_pair),
                       f"{p.label}: flagged for something other than the "
                       f"equal accumulators at {p.equal_pair}:\n{text}")
        return True
    status, threat_class = TAMPERS[p.tamper]
    checks.require(not passed, f"{p.label}: tampered presentation passed")
    checks.require(threat == threat_class,
                   f"{p.label}: threat class {threat!r}, expected "
                   f"{threat_class!r}")
    if status is None:
        checks.require(report.ordering.status == "Reordered",
                       f"{p.label}: ordering {report.ordering.status}")
    else:
        got = report.claim_verdicts[p.index].status
        checks.require(got == status,
                       f"{p.label}: claim {p.index + 1} is {got}, expected "
                       f"{status}")
    return False


class AuditWorkload:
    """Shared round and checks of the two audit workloads: each op audits
    one presentation prepared in set-up."""

    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.presentations: list[Presentation] = []
        self.worlds: list[World] = []

    @property
    def bytes_per_op(self) -> float:
        return (sum(p.bytes for p in self.presentations)
                / len(self.presentations))

    def check_setup(self) -> None:
        rng = random.Random(self.seed ^ 0x5EED)
        for world in self.worlds:
            check_world(world, rng)

    def run_round(self, sw):
        return len(self.presentations), [sw.call(audit_presentation, p)
                                         for p in self.presentations]

    def check_round(self, outputs) -> int:
        return sum(check_outcome(p, *out)
                   for p, out in zip(self.presentations, outputs))


class AuditFullWorkload(AuditWorkload):
    """Full reveals in both schemes: one world of short histories from a
    fixed seed, the construction of ``build_honest_chain`` at seed 7, and a
    tampered copy of a short history for each tamper."""

    name = "audit-full"
    # Fixed, so that honest Bloom histories hit the equal-accumulator fault
    # the same way under every --seed; the seed draws everything else.
    WORLD_SEED = 20_261_018
    USERS, AUTHORITIES, GRANULAR, WITNESSES = 19, 6, 3, 5
    VISITS_PER_USER = 16
    # 300 entries at seed 7: positions 266 and 267 carry equal accumulators.
    HONEST_CHAIN_N = 300

    def setup(self, sw) -> None:
        rng = random.Random(self.seed)
        fixed = random.Random(self.WORLD_SEED)
        pop = draw_population(fixed, self.USERS, self.AUTHORITIES,
                              self.GRANULAR, self.WITNESSES)
        schedule = draw_schedule(fixed, pop, self.VISITS_PER_USER)
        config = ProtocolConfig(chain_capacity=self.VISITS_PER_USER)
        h_pop, h_schedule, h_config, h_seed = honest_chain_inputs(
            self.HONEST_CHAIN_N)
        locations = [a for a, _ in pop.authorities]
        self.worlds, self.presentations = [], []
        for scheme in SCHEMES:
            clean = []
            for pop_, schedule_, config_, seed_ in (
                    (pop, schedule, config, self.WORLD_SEED),
                    (h_pop, h_schedule, h_config, h_seed)):
                world = sw.call(build_world, scheme, pop_, seed_, config_)
                issue_histories(sw, world, schedule_)
                registry = publish(sw, world)
                directory = dict(world.directory.parties)
                for user in world.users.values():
                    n = len(user.chain.entries)
                    sub = reveal(sw, user.chain, list(range(1, n + 1)), rng)
                    pair = checks.equal_neighbours(sub.entries)
                    self.presentations.append(present(
                        sw, f"{scheme}/{user.id}/n={n}", sub,
                        truthful_claims(sub), directory, registry,
                        equal_pair=pair))
                    if pair is None and pop_ is pop:
                        clean.append((user, directory, registry))
                self.worlds.append(world)
            for kind in TAMPERS:
                user, directory, registry = rng.choice(clean)
                n = len(user.chain.entries)
                sub = reveal(sw, user.chain, list(range(1, n + 1)), rng)
                sub, claims, index = tamper(kind, sub, rng, locations)
                self.presentations.append(present(
                    sw, f"{scheme}/{user.id}/{kind}", sub, claims, directory,
                    registry, tamper=kind, index=index))


class AuditSparseWorkload(AuditWorkload):
    """Seeded 1% reveals of one long history per scheme: one position drawn
    from each block of 100, so the last revealed entry is near the end."""

    name = "audit-sparse"
    AUTHORITIES, GRANULAR, WITNESSES = 4, 2, 3
    HISTORY_N = 2000
    BLOCK = 100
    PRESENTATIONS_PER_SCHEME = 2

    def setup(self, sw) -> None:
        rng = random.Random(self.seed)
        pop = draw_population(rng, 1, self.AUTHORITIES, self.GRANULAR,
                              self.WITNESSES)
        schedule = draw_schedule(rng, pop, self.HISTORY_N)
        world_seed = rng.randrange(1 << 32)
        config = ProtocolConfig(chain_capacity=self.HISTORY_N)
        self.worlds, self.presentations = [], []
        for scheme in SCHEMES:
            world = sw.call(build_world, scheme, pop, world_seed, config)
            issue_histories(sw, world, schedule)
            registry = publish(sw, world)
            directory = dict(world.directory.parties)
            chain = world.users[pop.users[0]].chain
            for k in range(self.PRESENTATIONS_PER_SCHEME):
                positions = [start + rng.randrange(self.BLOCK)
                             for start in range(1, self.HISTORY_N + 1,
                                                self.BLOCK)]
                sub = reveal(sw, chain, positions, rng)
                self.presentations.append(present(
                    sw, f"{scheme}/sparse-{k}", sub, truthful_claims(sub),
                    directory, registry,
                    equal_pair=checks.equal_neighbours(sub.entries)))
            self.worlds.append(world)


WORKLOADS = {w.name: w for w in (IssueWorkload, AuditFullWorkload,
                                 AuditSparseWorkload)}
