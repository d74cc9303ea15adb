"""Attack-scenario engine: the collusion matrix, determinism, serialization."""

import hashlib

import pytest

from dataclasses import replace

from locprov.audit import (
    CLAIM_BAD_SIGNATURE,
    CLAIM_EPOCH_EXCLUDED,
    CLAIM_GRANULARITY_MISMATCH,
    CLAIM_TIME_MISMATCH,
    LABEL_FALSE_ENDORSEMENT,
    LocationClaim,
    render_text_report,
)
from locprov.model import (
    SCHEME_BLOOM, SCHEME_HASHCHAIN, ORDER_REORDERED, ValidationError)
from locprov.scenarios import (
    ActorSpec,
    Scenario,
    ScriptError,
    builtin_suite,
    run_builtin_suite,
    run_scenario,
    scenario_from_json,
    scenario_to_json,
)
from locprov.serialize import dump_audit_report_file


@pytest.fixture(scope="module")
def outcomes():
    return run_builtin_suite()


def _by_name(outcomes, prefix, scheme):
    name = f"{prefix}-{scheme}"
    matches = [o for o in outcomes if o.scenario == name]
    assert len(matches) == 1, name
    return matches[0]


# ---------------------------------------------------------------------------
# matrix coverage and expectations
# ---------------------------------------------------------------------------

def test_every_scenario_matches_expectation(outcomes):
    mismatches = [o.scenario for o in outcomes if not o.matched]
    assert not mismatches, f"unexpected outcomes: {mismatches}"


def test_suite_covers_all_eight_honesty_rows():
    rows = {s.threat_row for s in builtin_suite(SCHEME_HASHCHAIN)}
    assert rows == {"ULW", "uLW", "UlW", "ULw", "ulW", "uLw", "Ulw", "ulw"}


def test_suite_covers_named_attacks():
    attacks = {s.attack for s in builtin_suite(SCHEME_BLOOM)}
    for required in ("reordering", "proof-switching", "backdating",
                     "future-dating", "implication", "false-endorsement",
                     "post-dating", "doppelganger", "denial-of-presence",
                     "false-presence"):
        assert required in attacks, required


def test_suite_runs_both_schemes(outcomes):
    schemes = {o.scheme for o in outcomes}
    assert schemes == {SCHEME_HASHCHAIN, SCHEME_BLOOM}
    assert len(outcomes) == 2 * len(builtin_suite(SCHEME_HASHCHAIN))


def test_suite_is_at_least_twelve_scenarios():
    assert len(builtin_suite(SCHEME_HASHCHAIN)) >= 12


# ---------------------------------------------------------------------------
# individual attack mechanics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_honest_row_passes_clean(outcomes, scheme):
    o = _by_name(outcomes, "honest-baseline", scheme)
    assert o.audit_report.ok and not o.prevented and not o.expected_detection


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_false_presence_fails_signatures(outcomes, scheme):
    o = _by_name(outcomes, "false-presence", scheme)
    statuses = {v.status for v in o.audit_report.failures()}
    assert CLAIM_BAD_SIGNATURE in statuses


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_reordering_detected_by_both_schemes(outcomes, scheme):
    o = _by_name(outcomes, "reordering", scheme)
    assert o.audit_report.ordering.status == ORDER_REORDERED


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_proof_switching_caught_by_digest_binding(outcomes, scheme):
    o = _by_name(outcomes, "proof-switching", scheme)
    details = [v.detail for v in o.audit_report.failures()]
    assert any(d.startswith("digest:") for d in details)
    assert o.threat_label == "proof-switching"


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_backdating_caught_by_epoch_report(outcomes, scheme):
    o = _by_name(outcomes, "backdating", scheme)
    statuses = {v.status for v in o.audit_report.failures()}
    assert statuses == {CLAIM_EPOCH_EXCLUDED}
    assert o.threat_label == "backdating/future-dating"


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_implication_of_absent_user_detected(outcomes, scheme):
    o = _by_name(outcomes, "implication", scheme)
    assert o.detected
    statuses = {v.status for v in o.audit_report.failures()}
    assert CLAIM_EPOCH_EXCLUDED in statuses


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_authority_false_time_prevented_by_witness(outcomes, scheme):
    o = _by_name(outcomes, "authority-false-time", scheme)
    assert o.prevented
    assert "endorsement-window-violated" in o.refusals


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_post_dating_documented_as_undetectable(outcomes, scheme):
    o = _by_name(outcomes, "post-dating", scheme)
    assert o.audit_report.ok and not o.prevented
    assert not o.expected_detection  # the documented gap


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_doppelganger_documented_as_undetectable(outcomes, scheme):
    o = _by_name(outcomes, "doppelganger", scheme)
    assert o.audit_report.ok and not o.prevented
    assert not o.expected_detection


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_denial_of_presence_passes_by_design(outcomes, scheme):
    o = _by_name(outcomes, "denial-of-presence", scheme)
    assert o.audit_report.ok


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_chain_fork_mixed_branches_detected(outcomes, scheme):
    o = _by_name(outcomes, "chain-fork-mixed", scheme)
    assert o.audit_report.ordering.status == ORDER_REORDERED


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_chain_fork_single_branch_undetectable(outcomes, scheme):
    o = _by_name(outcomes, "chain-fork-hidden", scheme)
    assert o.audit_report.ok  # the documented limitation


@pytest.mark.parametrize("scheme", [SCHEME_HASHCHAIN, SCHEME_BLOOM])
def test_offline_fake_proof_fails_on_witness_signature(outcomes, scheme):
    o = _by_name(outcomes, "offline-fake-proof", scheme)
    details = [v.detail for v in o.audit_report.failures()]
    assert any("witness signature" in d for d in details)
    # the honest witness refused during the protocol attempt too
    assert "co-location-failed" in o.refusals


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------

def test_same_seed_byte_identical_trace():
    scenario = builtin_suite(SCHEME_BLOOM)[1]
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.trace_jsonl() == second.trace_jsonl()
    assert first.audit_report == second.audit_report
    assert first.matched == second.matched


def test_builtin_suite_traces_pinned(outcomes):
    """The hash-chain suite, then the Bloom suite, at the default seed: the
    traces' bytes must not drift with changes to how they are recorded."""
    jsonl = "".join(o.trace_jsonl() for o in outcomes)
    assert hashlib.sha256(jsonl.encode()).hexdigest() == (
        "74a5775e04778c9b249555eb7b7af15249bce5fbad7204fcc2c1c79adca3f22a")


def test_builtin_suite_audit_reports_pinned(outcomes):
    """The text and JSON audit report of every built-in scenario, in suite
    order: the reports' bytes must not drift with changes to how the
    auditor counts its checks."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(render_text_report(o.audit_report).encode())
        h.update(dump_audit_report_file(o.audit_report).encode())
    assert h.hexdigest() == (
        "98915b127aa2978d12a3bc80bf6ac1c4e808546778b49ec8e0f8df378b85ca00")


def test_different_seed_changes_trace():
    import dataclasses
    scenario = builtin_suite(SCHEME_BLOOM)[0]
    other = dataclasses.replace(scenario, seed=scenario.seed + 1)
    assert run_scenario(scenario).trace_jsonl() != run_scenario(other).trace_jsonl()


def test_scenario_json_roundtrip_same_outcome():
    scenario = builtin_suite(SCHEME_HASHCHAIN)[11]  # backdating
    reloaded = scenario_from_json(scenario_to_json(scenario))
    assert run_scenario(reloaded).trace_jsonl() == \
        run_scenario(scenario).trace_jsonl()


def test_custom_scenario_with_midscript_behavior_change():
    """Attack hooks compose: an authority can turn dishonest between
    visits via the set_behavior op."""
    from locprov.scenarios import ActorSpec, Scenario
    scenario = Scenario(
        name="turncoat-authority",
        threat_row="ulW",
        attack="backdating",
        description="authority honest for visit 1, backdates visit 2",
        seed=99,
        scheme=SCHEME_HASHCHAIN,
        actors=[
            ActorSpec("u1", "user", location="cafe-7"),
            ActorSpec("cafe-7", "authority"),
            ActorSpec("w1", "witness", location="cafe-7"),
        ],
        script=[
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1"},
            {"op": "advance", "ms": 330_000},
            {"op": "set_behavior", "party": "cafe-7",
             "field": "visit_time_shift_ms", "value": -50_000},
            {"op": "visit", "user": "u1", "location": "cafe-7",
             "witness": "w1", "attack": True},
        ],
        expected_detection=True,
    )
    outcome = run_scenario(scenario)
    assert outcome.matched and outcome.detected
    statuses = {v.status for v in outcome.audit_report.failures()}
    assert statuses == {CLAIM_EPOCH_EXCLUDED}
    # the first, honestly issued entry still audits clean
    assert outcome.audit_report.claim_verdicts[0].ok


def _in_code_scenario(extra_actors=(), script=()):
    return Scenario(
        name="in-code", threat_row="ULW", attack="none",
        description="one honest visit, then the step under test",
        seed=5, scheme=SCHEME_HASHCHAIN,
        actors=[ActorSpec("u1", "user", location="cafe-7"),
                ActorSpec("cafe-7", "authority"),
                ActorSpec("w1", "witness", location="cafe-7"),
                *extra_actors],
        script=[{"op": "visit", "user": "u1", "location": "cafe-7",
                 "witness": "w1"}, *script],
        expected_detection=False,
    )


@pytest.mark.parametrize("scenario, message", [
    (_in_code_scenario(script=[{"op": "teleport", "user": "u1"}]),
     "unknown script op 'teleport'"),
    (_in_code_scenario(extra_actors=[ActorSpec("a1", "auditor")]),
     "unknown role 'auditor'"),
    (_in_code_scenario(script=[{"op": "set_behavior", "party": "w1",
                                "field": "visit_time_shift_ms",
                                "value": -50_000}]),
     "set_behavior: unknown field 'visit_time_shift_ms'"),
    (_in_code_scenario(extra_actors=[ActorSpec("w1", "authority")]),
     "actor 'w1' declared twice"),
], ids=["unknown-op", "unknown-role", "set-behavior-field", "duplicate-actor"])
def test_in_code_scenario_checked_before_it_runs(scenario, message):
    """A scenario built in code passes the same check as a file: the error
    comes from the check, not from a runner that already started."""
    with pytest.raises(ValidationError, match=message) as info:
        run_scenario(scenario)
    assert not isinstance(info.value, ScriptError)


# ---------------------------------------------------------------------------
# scenario features the built-in suite does not use
# ---------------------------------------------------------------------------

def test_late_timestamp_signed_by_colluding_witness_is_false_endorsement():
    """cafe-7 dates the endorsement 90 s after the visit, past the 60 s
    window, and a witness that ignores time checks signs it: the visit goes
    through, and the audit finds the endorsement outside its window."""
    scenario = _in_code_scenario()
    scenario = replace(
        scenario, threat_row="Ulw", attack="false-endorsement",
        actors=[ActorSpec("u1", "user", location="cafe-7"),
                ActorSpec("cafe-7", "authority",
                          behavior={"timestamp_shift_ms": 90_000}),
                ActorSpec("w1", "witness", location="cafe-7",
                          behavior={"ignore_time_checks": True})],
        script=[dict(scenario.script[0], attack=True)],
        expected_detection=True)
    outcome = run_scenario(scenario)
    assert outcome.refusals == [] and not outcome.prevented
    assert [(v.status, v.detail) for v in outcome.audit_report.claim_verdicts] \
        == [(CLAIM_TIME_MISMATCH, "endorsement-window: timestamp outside window")]
    assert outcome.threat_label == LABEL_FALSE_ENDORSEMENT
    assert outcome.matched


def test_scenario_with_a_claims_list_audits_those_claims():
    truthful = run_scenario(_in_code_scenario())
    (claim,) = truthful.claims

    def listed(location_id):
        return replace(_in_code_scenario(), claims=[
            {"location_id": location_id, "visit_time": claim.visit_time}])

    same = run_scenario(scenario_from_json(scenario_to_json(listed("cafe-7"))))
    assert same.claims == [claim] and same.audit_report.ok
    false = run_scenario(listed("lib-2"))
    assert false.claims == [LocationClaim("lib-2", claim.visit_time)]
    assert [v.status for v in false.audit_report.claim_verdicts] == [
        CLAIM_GRANULARITY_MISMATCH]


def test_set_behavior_turns_a_witness():
    """w1 stands elsewhere for u1's second visit: honest, it refuses to
    endorse; told by ``set_behavior`` to skip localization, it endorses."""
    away = [{"op": "move", "party": "w1", "location": "lib-2"},
            {"op": "advance", "ms": 5_000}]
    second = {"op": "visit", "user": "u1", "location": "cafe-7",
              "witness": "w1"}
    turn = {"op": "set_behavior", "party": "w1",
            "field": "skip_localization", "value": True}
    with pytest.raises(ScriptError, match="co-location-failed"):
        run_scenario(_in_code_scenario(script=[*away, second]))
    outcome = run_scenario(_in_code_scenario(script=[*away, turn, second]))
    assert outcome.refusals == [] and outcome.audit_report.ok
    assert len(outcome.audit_report.claim_verdicts) == 2
    assert [(e["party"], e["field"], e["value"]) for e in outcome.trace
            if e.get("event") == "set_behavior"] == [
        ("w1", "skip_localization", True)]
