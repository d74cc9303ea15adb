"""What an exported chain file discloses: its directory holds the signers
only, and no hidden entry's field reaches the auditor but the hash-chain
issuer ids. Where a revealed entry can be claimed follows from what it
discloses, and the audit and the scenario runner agree on it."""

import dataclasses
import json
from typing import Mapping

import pytest

from locprov import scenarios
from locprov.audit import (CLAIM_GRANULARITY_MISMATCH, audit, claimable_at,
                           signer_ids, truthful_claims)
from locprov.crypto import get_profile
from locprov.model import (ORDER_INCOMPLETE, SCHEME_BLOOM, SCHEME_HASHCHAIN,
                           ChainSlot, proof_digest)
from locprov.protocol import Directory
from locprov.scenarios import ScriptError, run_builtin_suite, run_scenario
from locprov.serialize import dump_chain_file, load_chain_file


@pytest.fixture(scope="module")
def exported():
    """(outcome, the chain it presented, its chain file as ``locprov
    simulate`` writes it) for every built-in scenario in both schemes."""
    chains = []
    real = scenarios.make_revealed_subsequence

    def recording(profile, chain, *args):
        chains.append(chain)
        return real(profile, chain, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "make_revealed_subsequence", recording)
        outcomes = run_builtin_suite()
    assert len(chains) == len(outcomes) == 32
    return [(o, chain, dump_chain_file(o.profile_name, o.subsequence,
                                       o.directory))
            for o, chain in zip(outcomes, chains)]


class _Recording(Mapping):
    """A read-only mapping that records every key it is asked for."""

    def __init__(self, items):
        self._items = dict(items)
        self.asked = set()

    def __getitem__(self, key):
        self.asked.add(key)
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def _report(report):
    return report.claim_verdicts, report.ordering, report.checks


def test_signer_directory_audits_as_the_full_one(exported):
    """The exported file's directory holds exactly the world's parties
    among ``signer_ids``; an audit with it gives the report an audit with
    the world's whole directory gives, which looks up no one else."""
    for outcome, _, text in exported:
        _, sub, directory = load_chain_file(text)
        signers = signer_ids(sub)
        assert set(directory) == signers & set(outcome.directory), \
            outcome.scenario
        full = _Recording(Directory(outcome.directory).pubkeys())
        with_full = audit(get_profile(outcome.profile_name),
                          outcome.claims, sub, full, outcome.registry)
        pruned = audit(get_profile(outcome.profile_name),
                       outcome.claims, sub, Directory(directory).pubkeys(),
                       outcome.registry)
        assert full.asked <= signers, outcome.scenario
        assert _report(pruned) == _report(with_full) == _report(
            outcome.audit_report), outcome.scenario
    # users sign nothing an audit checks: no user id is a directory key
    for outcome, chain, text in exported:
        users = {e.elp.proof.statement.user_id for e in chain.entries}
        assert not users & set(json.loads(text.partition(b"\n")[0])
                               ["directory"]), outcome.scenario


def _atoms(value) -> set:
    """Every string and integer in ``value``, a tree of dataclasses and
    tuples."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        return {value}
    if dataclasses.is_dataclass(value):
        return set().union(*(_atoms(getattr(value, f.name))
                             for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return set().union(*map(_atoms, value))
    return set()


def _fields(entry) -> set:
    """A hidden entry's location id, visit time, witness ids and
    granularity values."""
    stmt = entry.elp.proof.statement
    return {stmt.location_id, stmt.visit_time,
            *getattr(stmt, "granularity_values", ()),
            *(e.statement.witness_id for e in entry.elp.endorsements)}


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_hidden_entries_disclose_only_hash_chain_issuers(exported, scheme):
    """For each hidden entry of each exported presentation, the values of
    its fields that no revealed entry carries and that appear anywhere in
    the file, directory included. A hash-chain file discloses each hidden
    slot's issuer id, which an audit needs to find the link's key; a Bloom
    file discloses nothing."""
    hidden_seen, disclosed = 0, set()
    for outcome, chain, text in exported:
        if outcome.scheme != scheme:
            continue
        envelope = json.loads(text.partition(b"\n")[0])
        _, sub, directory = load_chain_file(text)
        revealed = {r.position for r in sub.entries}
        hidden = {p for p in range(1, len(chain.entries) + 1)
                  if p not in revealed}
        hidden_seen += len(hidden)
        carried = _atoms(sub.entries)
        in_file = (_atoms(sub) | set(directory) | _atoms(tuple(
            value for meta in envelope["directory"].values()
            for value in meta.values())) | {envelope["profile"]})
        leaked = set().union(*(
            _fields(chain.entries[p - 1]) for p in hidden)) - carried
        # every slot is for a hidden position
        expected = {slot.issuer_id for slot in sub.chain_evidence} - carried
        assert leaked & in_file == expected, outcome.scenario
        disclosed |= expected
    assert hidden_seen
    assert bool(disclosed) == (scheme == SCHEME_HASHCHAIN)


def _slot(profile, entry) -> ChainSlot:
    """The chain slot that stands for hidden ``entry``."""
    lp = entry.elp.proof
    return ChainSlot(lp.statement.location_id, proof_digest(profile, lp),
                     entry.ordering)


def test_hash_chain_presentations_end_at_the_last_revealed_entry(exported):
    """A presentation carries a chain slot for each hidden position before
    its last revealed one, and no other: a revealed entry carries its own
    proof and link, and a slot past it would disclose the issuer of a
    later visit and how many followed. Each built-in chain is presented as
    its scenario presents it, and by its first entry and its middle one
    alone. The same presentation with slots for the later positions breaks
    the evidence rule: its claims audit alike, its order is Incomplete."""
    tails = 0
    for outcome, chain, text in exported:
        profile = get_profile(outcome.profile_name)
        n = len(chain.entries)
        presented = [load_chain_file(text)[1]] + [
            load_chain_file(dump_chain_file(
                outcome.profile_name,
                scenarios.make_revealed_subsequence(profile, chain, [p]),
                outcome.directory))[1]
            for p in sorted({1, (n + 1) // 2}) if p < n]
        for sub in presented:
            revealed = {r.position for r in sub.entries}
            last = max(revealed, default=0)
            if outcome.scheme == SCHEME_BLOOM:
                assert sub.chain_evidence == (), outcome.scenario
                continue
            assert sub.chain_evidence == tuple(
                _slot(profile, chain.entries[p - 1])
                for p in range(1, last + 1) if p not in revealed), \
                outcome.scenario
            if last == n:
                continue
            tails += 1
            hidden = len(sub.chain_evidence)
            with_tail = dataclasses.replace(sub, chain_evidence=(
                *sub.chain_evidence,
                *(_slot(profile, e) for e in chain.entries[last:])))
            pubkeys = Directory(outcome.directory).pubkeys()
            claims = truthful_claims(sub)
            report, tail_report = (
                audit(profile, claims, s, pubkeys, outcome.registry)
                for s in (sub, with_tail))
            assert tail_report.claim_verdicts == report.claim_verdicts
            assert (tail_report.ordering.status,
                    tail_report.ordering.detail) == (
                ORDER_INCOMPLETE,
                f"more chain slots ({hidden + n - last}) than hidden "
                f"positions ({hidden})"), outcome.scenario
    assert tails


def test_claim_sites_agree_on_where_an_entry_can_be_claimed(exported):
    """Every entry of each built-in scenario with a granularity ladder,
    presented alone with each granularity disclosed and with none: truthful
    claims pass the location check exactly when ``claimable_at`` gives the
    entry a location, and the runner refuses them exactly when it gives
    none."""
    laddered = {s.name: s for scheme in (SCHEME_HASHCHAIN, SCHEME_BLOOM)
                for s in scenarios.builtin_suite(scheme)
                if any(actor.granularities for actor in s.actors)}
    seen = set()
    for outcome, chain, _ in exported:
        scenario = laddered.get(outcome.scenario)
        if scenario is None:
            continue
        profile = get_profile(outcome.profile_name)
        pubkeys = Directory(outcome.directory).pubkeys()
        for position, entry in enumerate(chain.entries, 1):
            stmt = entry.elp.proof.statement
            ladder = range(1, len(getattr(stmt, "commitments", ())) + 1)
            for disclose in [[]] + [[index] for index in ladder]:
                case = (outcome.scenario, position, disclose)
                sub = scenarios.make_revealed_subsequence(
                    profile, chain, [position], {position: disclose})
                claimable = bool(claimable_at(sub.entries[0]))
                report = audit(profile, truthful_claims(sub), sub, pubkeys,
                               outcome.registry)
                statuses = {v.status for v in report.claim_verdicts}
                assert (CLAIM_GRANULARITY_MISMATCH not in statuses) == \
                    claimable, case
                reveal = {"positions": [position],
                          "disclose": {position: disclose}}
                try:
                    run_scenario(dataclasses.replace(scenario, reveal=reveal))
                except ScriptError:
                    assert not claimable, case
                else:
                    assert claimable, case
                seen.add((scenario.scheme, claimable))
    assert seen == {(scheme, claimable) for claimable in (True, False)
                    for scheme in (SCHEME_HASHCHAIN, SCHEME_BLOOM)}
