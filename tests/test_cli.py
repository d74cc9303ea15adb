"""Command line: simulate, audit, benchmarks, exit codes, file formats."""

import base64
import csv
import json
import tempfile
import time
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from locprov.cli import main
from locprov.experiments import (
    bench_audit_rows,
    bench_space_rows,
    worst_case_positions,
)
from locprov.crypto import MODERN
from locprov.epochs import build_epoch_report
from locprov.model import (SCHEMES, BloomAccumulator, canonical_encode,
                           make_revealed_subsequence, make_statement)
from locprov.audit import audit, truthful_claims
from locprov.serialize import (
    FORMAT_VERSION,
    dump_chain_file,
    load_chain_file,
    load_registry_file,
)


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scenarios"
    assert main(["scenarios", "--export", str(out),
                 "--scheme", "hashchain"]) == 0
    return out


def _simulate(tmp_path, scenario_dir, name, out="run"):
    out_dir = tmp_path / out
    code = main(["simulate", str(scenario_dir / f"{name}.json"),
                 "--out-dir", str(out_dir)])
    return code, out_dir


def _split(data: bytes) -> tuple[dict, bytes]:
    """The JSON header and the raw deflated body of a chain or registry
    file."""
    header, _, deflated = data.partition(b"\n")
    return json.loads(header), deflated


def _join(header: dict, deflated: bytes) -> bytes:
    """The chain or registry file of ``header`` and ``deflated``, its JSON
    written as ``simulate`` writes it."""
    return json.dumps(header, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n" + deflated


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_honest_scenario_exits_zero(tmp_path, scenario_dir):
    code, out_dir = _simulate(tmp_path, scenario_dir,
                              "honest-baseline-hashchain")
    assert code == 0
    for name in ("chain.bin", "claims.json", "registry.bin",
                 "trace.jsonl", "outcome.json"):
        assert (out_dir / name).exists()
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["matched"] and not outcome["detected"]


def test_simulate_backdating_reports_detected(tmp_path, scenario_dir):
    code, out_dir = _simulate(tmp_path, scenario_dir, "backdating-hashchain")
    assert code == 0  # detection matched the expectation
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["detected"] and outcome["matched"]
    assert outcome["threat_label"] == "backdating/future-dating"


@pytest.mark.parametrize("name, refusals, line", [
    ("offline-fake-proof-hashchain", ["co-location-failed"],
     "refusals: co-location-failed 1"),
    ("honest-baseline-hashchain", [], "refusals: none"),
])
def test_simulate_prints_refusals_by_reason(tmp_path, scenario_dir, capsys,
                                            name, refusals, line):
    _, out_dir = _simulate(tmp_path, scenario_dir, name)
    assert capsys.readouterr().out.splitlines()[-1] == line
    outcome = json.loads((out_dir / "outcome.json").read_text())
    assert outcome["refusals"] == refusals


def test_simulate_malformed_file_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", str(bad), "--out-dir", str(tmp_path / "o")]) == 2


# The honest baseline's actors, u1 marked with a flag actors do not have.
_ACTORS_WITH_HONESTY_FLAG = [
    {"actor_id": "u1", "role": "user", "honest": False, "location": "cafe-7"},
    {"actor_id": "cafe-7", "role": "authority",
     "granularities": ["IL", "Chicago", "Block 5"]},
    {"actor_id": "lib-2", "role": "authority"},
    {"actor_id": "park-9", "role": "authority"},
    {"actor_id": "w1", "role": "witness", "location": "cafe-7"},
]


# The honest baseline's actors, u1 given a behavior only parties have.
_ACTORS_WITH_USER_BEHAVIOR = [
    {"actor_id": "u1", "role": "user", "location": "cafe-7",
     "behavior": {"skip_localization": True}},
    *_ACTORS_WITH_HONESTY_FLAG[1:],
]

_MISSING = object()  # the field is deleted


class _Raw(str):
    """A field value written into the file as this JSON text, unquoted."""


_LOAD = "error: cannot load scenario"
_RUN = "error: scenario failed to run: "


@pytest.mark.parametrize("field, value, error", [
    pytest.param("actors", {}, _LOAD,  # the script still names u1
                 id="actors"),
    pytest.param("actors", _ACTORS_WITH_HONESTY_FLAG, _LOAD,
                 id="actor-honest"),
    pytest.param("seed", "x", _LOAD, id="seed"),
    pytest.param("script", "visit", _LOAD, id="script"),
    pytest.param("config", {"hop_delay": 5}, _LOAD, id="config"),
    pytest.param("config", {"endorsement_window_ms": 20_000}, _LOAD,
                 id="config-endorsement-window"),
    pytest.param("config", {"timestamp_lag_ms": 30_000}, _LOAD,
                 id="config-timestamp-lag"),
    pytest.param("config", {"witness_clock_tolerance_ms": 60_000}, _LOAD,
                 id="config-witness-clock-tolerance"),
    pytest.param("config", {"epoch_fpr": 0}, _LOAD, id="config-epoch-fpr-0"),
    pytest.param("config", {"chain_fpr": 1.0}, _LOAD,
                 id="config-chain-fpr-1"),
    pytest.param("config", {"epoch_fpr": 1.5}, _LOAD,
                 id="config-epoch-fpr-above-1"),
    pytest.param("config", {"epoch_capacity": 100_000, "epoch_fpr": 1e-100},
                 _LOAD, id="config-epoch-capacity-and-fpr"),
    pytest.param("config", {"epoch_capacity": 4096},
                 f"{_LOAD}: config: unknown field 'epoch_capacity'",
                 id="config-epoch-capacity"),
    pytest.param("profile_name", "rot13", _LOAD, id="profile"),
    pytest.param("expected_detection", _MISSING,
                 f"{_LOAD}: scenario: missing field 'expected_detection'",
                 id="missing-field"),
    pytest.param("scheme", "merkle", f"{_LOAD}: unknown scheme 'merkle'",
                 id="scheme"),
    pytest.param("actors", _ACTORS_WITH_USER_BEHAVIOR,
                 f"{_LOAD}: a user has no behavior", id="user-behavior"),
    pytest.param("script", [{"op": "visit", "user": "w1",
                             "location": "cafe-7", "witness": "w1"}],
                 f"{_LOAD}: visit: no user 'w1'", id="visit-no-user"),
    pytest.param("script", [{"op": "set_behavior", "party": "u1",
                             "field": "skip_localization", "value": True}],
                 f"{_LOAD}: set_behavior: no authority or witness 'u1'",
                 id="set-behavior-no-party"),
    pytest.param("script", [{"op": "fabricate_visit", "user": "u1",
                             "location": "mall-3", "witness": "w1",
                             "forge_authority": False}],
                 f"{_LOAD}: fabricate_visit: no authority 'mall-3'",
                 id="fabricate-no-authority"),
    pytest.param("script", [{"op": "fabricate_visit", "user": "u1",
                             "location": "cafe-7", "witness": "cafe-7",
                             "forge_witness": False}],
                 f"{_LOAD}: fabricate_visit: no witness 'cafe-7'",
                 id="fabricate-no-witness"),
    pytest.param("script", [{"op": "visit", "user": "u1",
                             "location": "cafe-7", "witness": "nobody"}],
                 f"{_LOAD}: visit: no witness 'nobody'",
                 id="visit-undeclared-witness"),
    pytest.param("script", [{"op": "visit", "user": "u1",
                             "location": "w1", "witness": "w1"}],
                 f"{_LOAD}: visit: no authority 'w1'",
                 id="visit-witness-as-authority"),
    pytest.param("script", [{"op": "visit", "user": "u1",
                             "location": "mall-3", "witness": "w1"}],
                 f"{_LOAD}: visit: no authority 'mall-3'",
                 id="visit-undeclared-authority"),
    pytest.param("script", [{"op": "visit", "user": "u1",
                             "location": "cafe-7", "witness": "cafe-7"}],
                 f"{_LOAD}: visit: no witness 'cafe-7'",
                 id="visit-authority-as-witness"),
    pytest.param("reveal", {"positions": "some"},
                 f'{_LOAD}: reveal.positions: a list or "all"',
                 id="reveal-positions"),
    pytest.param("reveal", {"disclose": {"first": [2]}},
                 f"{_LOAD}: reveal.disclose: position 'first'",
                 id="reveal-disclose-key"),
    pytest.param("reveal", {"disclose": {"\u00b2": [2]}},
                 f"{_LOAD}: reveal.disclose: position '\u00b2'",
                 id="reveal-disclose-superscript-digit"),
    pytest.param("reveal", {"disclose": {"9" * 5000: [2]}},
                 f"{_LOAD}: reveal.disclose: position '999",
                 id="reveal-disclose-5000-digits"),
    pytest.param("claims", "lies", f"{_LOAD}: unknown claims spec 'lies'",
                 id="claims"),
    pytest.param("seed", _Raw("9" * 5000),
                 # Python 3.10 words it "(4300)", 3.11 "(4300 digits)"
                 f"{_LOAD}: Exceeds the limit (4300",
                 id="seed-5000-digits"),
    pytest.param("script", _Raw("[" * 200_000 + "]" * 200_000),
                 f"{_LOAD}: maximum recursion depth exceeded",
                 id="script-200000-deep"),
    pytest.param("script", [{"op": "drop_presented", "positions": [1]}],
                 f"{_RUN}no presented entry at position 1",
                 id="presented-position"),
    pytest.param("script", [{"op": "replay_construct", "user": "u1",
                             "position": 1}],
                 f"{_RUN}no chain entry at position 1", id="chain-position"),
    pytest.param("reveal", {"positions": [1, 2, 4],
                            "presentation_order": [4, 3, 1]},
                 f"{_RUN}presentation order names unrevealed position 3",
                 id="order-unrevealed"),
    pytest.param("reveal", {"positions": "all"},
                 f"{_RUN}truthful claims: blinded entry 1 discloses no "
                 f"granularity", id="truthful-claim-blinded"),
    pytest.param("reveal", {"positions": [1, 9]},
                 f"{_RUN}position 9 out of range 1..4",
                 id="reveal-position-out-of-range"),
    pytest.param("reveal", {"positions": [2, 1]},
                 f"{_RUN}positions must be strictly ascending",
                 id="reveal-positions-descending"),
    pytest.param("reveal", {"positions": [1, 1]},
                 f"{_RUN}positions must be strictly ascending",
                 id="reveal-positions-repeated"),
    pytest.param("seed", -1,
                 f"{_RUN}seed -1 is not a 64-bit unsigned int",
                 id="seed-negative"),
    pytest.param("seed", 2**64,
                 f"{_RUN}seed {2**64} is not a 64-bit unsigned int",
                 id="seed-2^64"),
])
def test_simulate_malformed_scenario_exits_two(tmp_path, scenario_dir, capsys,
                                               field, value, error):
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    if value is _MISSING:
        del doc[field]
    else:
        doc[field] = value
    text = json.dumps(doc)
    if isinstance(value, _Raw):
        text = text.replace(json.dumps(value), value)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["simulate", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config", [
    {"epoch_len_ms": 0},
    {"epoch_len_ms": -300_000},
    {"chain_capacity": -1},
    {"chain_capacity": 2**21},
    {"chain_capacity": 10**400},
], ids=["epoch-len-0", "epoch-len-negative", "chain-capacity-negative",
        "chain-capacity-2^21", "chain-capacity-10^400"])
def test_simulate_unbounded_config_exits_two(tmp_path, scenario_dir, capsys,
                                             config):
    """Refused while the file loads: no filter is built, no epoch rolled."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    doc["config"] = config
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load scenario: config.")
    assert not (tmp_path / "o").exists()


def _long_advance(doc, ms):
    doc["script"].append({"op": "advance", "ms": ms})


def _visit_every_epoch(doc, epochs):
    """Append a visit to cafe-7 in each of ``epochs`` default-length epochs."""
    doc["script"] += [{"op": "move", "party": party, "location": "cafe-7"}
                      for party in ("u1", "w1")]
    for _ in range(epochs):
        doc["script"] += [{"op": "visit", "user": "u1", "location": "cafe-7",
                           "witness": "w1"}, {"op": "advance", "ms": 300_000}]


def _set_actor(doc, actor_id, **fields):
    actor = next(a for a in doc["actors"] if a["actor_id"] == actor_id)
    actor.update(fields)


@pytest.mark.parametrize("edit, refusal", [
    (lambda d: _visit_every_epoch(d, 18_233), "bits in all"),
    (lambda d: _long_advance(d, -1), "advance: ms must not be negative"),
    (lambda d: d.update(config={"hop_delay_ms": -1}),
     "config.hop_delay_ms must not be negative"),
], ids=["large-reports", "negative-advance", "negative-hop-delay"])
def test_simulate_unbounded_epoch_work_exits_two(tmp_path, scenario_dir,
                                                 capsys, edit, refusal):
    """Refused while the file loads, before any epoch report is built: each
    file asks for more than 128 MiB of report filters (18,233 visits in as
    many epochs, each report a 58,891-bit filter), or time that runs
    backwards."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load scenario: ")
    assert refusal in err
    assert not (tmp_path / "o").exists()


def test_simulate_bloom_chain_filters_share_the_budget(tmp_path, scenario_dir,
                                                       capsys):
    """Under ``bloom`` each recorded proof is charged its chain accumulator
    as well as its report: 80 visits at chain capacity 1,000,000 (14.4 Mbit
    accumulators) pass the 2^30-bit budget and are refused while the file
    loads. In a hash chain the same visits build reports only, and run."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    doc["config"] = {"chain_capacity": 1_000_000}
    _visit_every_epoch(doc, 80)
    path = tmp_path / "many.json"
    for scheme, code in (("bloom", 2), ("hashchain", 0)):
        doc["scheme"] = scheme
        path.write_text(json.dumps(doc))
        out = tmp_path / scheme
        assert main(["simulate", str(path), "--out-dir", str(out)]) == code
        assert out.exists() == (code == 0)
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load scenario: ")
    assert "bits in all" in err


@pytest.mark.parametrize("edit, code, error", [
    (lambda d: _long_advance(d, 10**12), 0, None),
    (lambda d: (d.update(config={"epoch_len_ms": 1}),
                _long_advance(d, 100_000)), 0, None),
    (lambda d: d.update(config={"hop_delay_ms": 10**11}), 2,
     "honest visit refused: timestamp-request-too-late"),
    (lambda d: _set_actor(d, "cafe-7", skew_ms=10**12), 2,
     "honest visit refused: timestamp-implausible"),
    (lambda d: _set_actor(d, "lib-2", skew_ms=-10**12), 2,
     "visit_time must be a non-negative integer"),
    (lambda d: _set_actor(d, "cafe-7", behavior={
        "visit_time_shift_ms": 10**12, "defer_record_to_visit_epoch": True}),
     2, "honest visit refused: endorsement-window-violated"),
], ids=["advance-10^12", "epoch-len-1-long-advance", "hop-delay-10^11",
        "authority-skew-10^12", "authority-skew-minus-10^12",
        "deferred-visit-time-shift-10^12"])
def test_simulate_long_clock_runs_finish_quickly(tmp_path, scenario_dir,
                                                 capsys, edit, code, error):
    """Scripts whose clocks pass 10^5 to 10^12 epochs run to the end in
    well under 5 s: an authority ends every elapsed epoch in one step.
    Those that exit 2 do so for what the protocol refused, with one
    ``error:`` line."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    edit(doc)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    got = main(["simulate", str(path), "--out-dir", str(tmp_path / "o")])
    assert time.perf_counter() - started < 5
    assert got == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1
        assert err.startswith(_RUN + error)


@pytest.mark.parametrize("edit", [
    lambda d: d["script"].insert(0, {"op": "advance", "ms": 2**64}),
    lambda d: d.update(config={"epoch_len_ms": 2**64}),
    lambda d: _set_actor(d, "cafe-7", behavior={"timestamp_shift_ms": 2**64}),
    lambda d: _set_actor(d, "cafe-7", skew_ms=2**64),
    lambda d: _set_actor(d, "cafe-7", behavior={"visit_time_shift_ms": 2**64}),
    lambda d: d["script"].append({
        "op": "fabricate_visit", "user": "u1", "location": "cafe-7",
        "witness": "w1", "visit_time_shift_ms": 2**64}),
], ids=["advance", "epoch-len", "timestamp-shift", "skew",
        "visit-time-shift", "fabricate-visit-time-shift"])
def test_simulate_time_past_64_bits_exits_two(tmp_path, scenario_dir, capsys,
                                              edit):
    """A time or epoch a script reaches that does not fit the wire's 64
    bits is one rule, met while the scenario runs: exit 2, one ``error:``
    line, no output written."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == (_RUN + "a time or epoch is outside 0..2^64-1\n")
    assert not (tmp_path / "o").exists()


def test_simulate_idle_epochs_are_charged_no_report_bits(tmp_path,
                                                          scenario_dir):
    """Idle epochs build no report, so they are not charged one: 6,100 of
    them at three authorities run to the end, though a 58,891-bit report
    for every epoch passed would exceed the filter budget."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    _long_advance(doc, 6_100 * 300_000)
    path = tmp_path / "idle.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 0


def test_simulate_long_run_within_the_bound_exits_zero(tmp_path, scenario_dir):
    """A day of simulated time at the default 5-minute epochs ends
    3 x 290 epochs; only those holding a proof get a report."""
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    _long_advance(doc, 86_400_000)
    path = tmp_path / "day.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    outcome = json.loads((tmp_path / "o" / "outcome.json").read_text())
    assert outcome["matched"]


def test_simulate_missing_file_exits_two(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_simulate_scenario_without_authority_exits_zero(tmp_path, capsys):
    """With no authority there are no epochs to close: the run is clean."""
    doc = {"name": "lone-user", "threat_row": "U", "attack": "none",
           "description": "one user, no authority", "seed": 1,
           "scheme": "hashchain", "expected_detection": False,
           "actors": [{"actor_id": "u1", "role": "user"}],
           "script": [{"op": "advance", "ms": 1000}]}
    path = tmp_path / "lone-user.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    outcome = json.loads((tmp_path / "o" / "outcome.json").read_text())
    assert outcome["matched"] and not outcome["detected"]
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_scheme_override(tmp_path, scenario_dir):
    out_dir = tmp_path / "override"
    code = main(["simulate",
                 str(scenario_dir / "honest-baseline-hashchain.json"),
                 "--scheme", "bloom", "--out-dir", str(out_dir)])
    assert code == 0
    _, sub, _ = load_chain_file((out_dir / "chain.bin").read_bytes())
    assert sub.entries and all(isinstance(r.entry.ordering, BloomAccumulator)
                               for r in sub.entries)


def test_simulate_seed_override(tmp_path, scenario_dir):
    """``--seed 5`` runs the file as if its seed field read 5."""
    name = "honest-baseline-hashchain"
    doc = json.loads((scenario_dir / f"{name}.json").read_text())
    assert doc["seed"] != 5
    doc["seed"] = 5
    (tmp_path / "seed-5.json").write_text(json.dumps(doc))
    runs = {}
    for run, argv in [
            ("file", [str(scenario_dir / f"{name}.json")]),
            ("flag", [str(scenario_dir / f"{name}.json"), "--seed", "5"]),
            ("edited", [str(tmp_path / "seed-5.json")])]:
        out_dir = tmp_path / run
        assert main(["simulate", *argv, "--out-dir", str(out_dir)]) == 0
        runs[run] = [(out_dir / f).read_bytes()
                     for f in ("chain.bin", "trace.jsonl")]
    assert runs["flag"] == runs["edited"]
    assert runs["flag"] != runs["file"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scenarios_lists_the_suite(capsys, scheme):
    assert main(["scenarios", "--scheme", scheme]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert lines[0].split() == [f"honest-baseline-{scheme}", "row=ULW",
                                "attack=none", "expect=pass"]
    assert all(line.endswith(("expect=pass", "expect=detect"))
               for line in lines)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_honest_export_exits_zero(tmp_path, scenario_dir):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    report_path = tmp_path / "report.json"
    code = main(["audit", "--chain", str(out_dir / "chain.bin"),
                 "--claims", str(out_dir / "claims.json"),
                 "--registry", str(out_dir / "registry.bin"),
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["report"]["ok"]


def test_audit_tampered_chain_exits_one(tmp_path, scenario_dir):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    profile_name, sub, directory = load_chain_file(
        (out_dir / "chain.bin").read_bytes())
    first = sub.entries[0]
    proof = first.entry.elp.proof
    raw = bytearray(proof.authority_sig.data)
    raw[0] ^= 0x01
    proof = replace(proof, authority_sig=replace(proof.authority_sig,
                                                 data=bytes(raw)))
    first = replace(first, entry=replace(
        first.entry, elp=replace(first.entry.elp, proof=proof)))
    sub = replace(sub, entries=(first,) + sub.entries[1:])
    tampered = out_dir / "tampered.bin"
    tampered.write_bytes(dump_chain_file(profile_name, sub, directory))
    code = main(["audit", "--chain", str(tampered),
                 "--claims", str(out_dir / "claims.json"),
                 "--registry", str(out_dir / "registry.bin")])
    assert code == 1


def test_audit_without_registry_warns_but_passes(tmp_path, scenario_dir, capsys):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    code = main(["audit", "--chain", str(out_dir / "chain.bin"),
                 "--claims", str(out_dir / "claims.json")])
    assert code == 0
    assert "warning" in capsys.readouterr().out


def test_audit_unparseable_input_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["audit", "--chain", str(bad), "--claims", str(bad)]) == 2


def _audit_exit(out_dir, capsys, chain="chain.bin", registry="registry.bin"):
    code = main(["audit", "--chain", str(out_dir / chain),
                 "--claims", str(out_dir / "claims.json"),
                 "--registry", str(out_dir / registry)])
    return code, capsys.readouterr().err


def test_audit_openings_on_a_plain_statement_exits_two(tmp_path, capsys):
    """A chain file disclosing an opening on a plain statement is refused
    while loading, as ``make_revealed_entry`` refuses to make one: openings
    exist only on blinded statements."""
    data = SHARED.parent / "shared-epochs-hashchain"
    profile_name, sub, directory = load_chain_file(
        (data / "chain.bin").read_bytes())
    opened = replace(sub.entries[0],
                     disclosed=((7, "anywhere", bytes(MODERN.nonce_len)),))
    (tmp_path / "chain.bin").write_bytes(dump_chain_file(
        profile_name, replace(sub, entries=(opened, *sub.entries[1:])),
        directory))
    (tmp_path / "claims.json").write_text((data / "claims.json").read_text())
    code, err = _audit_exit(tmp_path, capsys,
                            registry=str(data / "registry.bin"))
    assert code == 2
    assert err.splitlines() == [
        "error: cannot load inputs: chain entry at position 1: plain "
        "statements have no granularities to open"]


def test_audit_string_position_exits_two(tmp_path, scenario_dir, capsys):
    """A position spelled as a JSON string, in the per-type JSON layout
    that files no longer use: refused on its version 1 header, and under
    the current version for want of a deflated body."""
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    chain, _ = _split((out_dir / "chain.bin").read_bytes())
    for version, message in (
            (1, "chain file header has format_version 1; "
                f"only {FORMAT_VERSION} is read"),
            (FORMAT_VERSION, "chain subsequence is a truncated deflate stream")):
        chain["format_version"] = version
        chain["subsequence"] = {
            "scheme": "bloom", "chain_evidence": [],
            "entries": [{"position": "1", "disclosed": [], "entry": {}}]}
        (out_dir / "v1.json").write_text(json.dumps(chain))
        code, err = _audit_exit(out_dir, capsys, chain="v1.json")
        assert code == 2
        assert err == f"error: cannot load inputs: {message}\n"


def test_audit_repeated_report_exits_two(tmp_path, scenario_dir, capsys):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    data = (out_dir / "registry.bin").read_bytes()
    _, registry = load_registry_file(data)
    header, _ = _split(data)
    reports = registry.reports()
    assert header["format_version"] == FORMAT_VERSION
    (out_dir / "twice.bin").write_bytes(_join(header, zlib.compress(
        canonical_encode(reports + reports[:1]))))
    code, err = _audit_exit(out_dir, capsys, registry="twice.bin")
    assert code == 2 and err.startswith("error:")
    assert "already published" in err


# Version 5 bodies of the two layouts version 6 dropped: a private
# statement with its nonces after its commitments, and a whole chain.
RETIRED_LAYOUTS = {
    "private-statement-with-nonces": (
        b"\x02" + canonical_encode(make_statement("u1", "cafe-7", 1_000))[1:]
        + (1).to_bytes(4, "big") + bytes(MODERN.digest_len)
        + (1).to_bytes(4, "big") + bytes(MODERN.nonce_len)),
    "chain": b"\x08" + (9).to_bytes(4, "big") + b"hashchain" + bytes(4),
}


@pytest.mark.parametrize("layout", sorted(RETIRED_LAYOUTS))
def test_audit_retired_layout_body_exits_two(tmp_path, capsys, layout):
    """A chain file whose body is a bare item of a dropped layout is
    refused on its tag."""
    data = SHARED.parent / "shared-epochs-hashchain"
    header, _ = _split((data / "chain.bin").read_bytes())
    assert header["format_version"] == FORMAT_VERSION
    (tmp_path / "chain.bin").write_bytes(_join(header, zlib.compress(
        RETIRED_LAYOUTS[layout])))
    (tmp_path / "claims.json").write_text((data / "claims.json").read_text())
    code, err = _audit_exit(tmp_path, capsys,
                            registry=str(data / "registry.bin"))
    tag = RETIRED_LAYOUTS[layout][0]
    assert code == 2
    assert err.splitlines() == [
        f"error: cannot load inputs: chain subsequence: unknown type tag "
        f"{tag:#04x}"]


def test_audit_registry_out_of_epoch_order_exits_two(tmp_path, scenario_dir,
                                                    capsys):
    """A registry file must list a location's reports in epoch order: one
    that lists a later epoch first closes the earlier one."""
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    data = (out_dir / "registry.bin").read_bytes()
    _, registry = load_registry_file(data)
    first = registry.reports()[0]
    later = build_epoch_report(MODERN, MODERN.keygen(bytes(32)),
                               first.location_id, first.epoch_id + 1,
                               first.end - first.start, [])
    (out_dir / "unordered.bin").write_bytes(_join(
        _split(data)[0],
        zlib.compress(canonical_encode([later, *registry.reports()]))))
    code, err = _audit_exit(out_dir, capsys, registry="unordered.bin")
    assert code == 2 and err.startswith("error:")
    assert "late" in err


def test_audit_gives_the_verdict_simulate_gave(tmp_path, capsys):
    """``locprov audit`` on each simulation's exported chain, claims and
    registry exits 0 exactly when the simulation's own audit passed: the
    parties and every auditor hold one endorsement policy."""
    for scheme in SCHEMES:
        assert main(["scenarios", "--export", str(tmp_path / "s"),
                     "--scheme", scheme]) == 0
    files = sorted((tmp_path / "s").glob("*.json"))
    assert len(files) == 32
    verdicts = set()
    for i, scenario in enumerate([*files, SHARED / "scenario.json"]):
        out_dir = tmp_path / f"run-{i}"
        assert main(["simulate", str(scenario),
                     "--out-dir", str(out_dir)]) in (0, 1)
        audit_ok = json.loads((out_dir / "outcome.json").read_text())["audit_ok"]
        code, _ = _audit_exit(out_dir, capsys)
        assert code == (0 if audit_ok else 1), scenario.name
        verdicts.add(audit_ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_committed_presentation_is_what_simulate_writes(tmp_path, scheme):
    """``simulate`` on the committed scenario writes the committed chain,
    registry and claims files (``tests/data/shared-epochs-<scheme>``) byte
    for byte, and auditing them writes the committed ``report.json`` byte
    for byte. Their headers and inflated bodies are compared first, so a
    zlib that deflates the same canonical bytes differently is told apart
    from a change of the wire format."""
    data = SHARED.parent / f"shared-epochs-{scheme}"
    out = tmp_path / "out"
    assert main(["simulate", str(SHARED / "scenario.json"),
                 "--scheme", scheme, "--out-dir", str(out)]) in (0, 1)
    for name in ("chain.bin", "registry.bin"):
        fixture, written = ((folder / name).read_bytes()
                            for folder in (data, out))
        (header, body), (new_header, new_body) = map(_split,
                                                     (fixture, written))
        assert (header, zlib.decompress(body)) == (
            new_header, zlib.decompress(new_body)), f"{name}: wire format"
        assert written == fixture, f"{name}: zlib deflates differently"
    assert (out / "claims.json").read_bytes() == (
        data / "claims.json").read_bytes()
    committed = (data / "report.json").read_bytes()
    exit_code = 0 if json.loads(committed)["report"]["ok"] else 1
    report = tmp_path / "report.json"
    assert main(["audit", "--chain", str(data / "chain.bin"),
                 "--claims", str(data / "claims.json"),
                 "--registry", str(data / "registry.bin"),
                 "--out", str(report)]) == exit_code
    assert report.read_bytes() == committed


# ---------------------------------------------------------------------------
# audit on mutated files: a verdict or a parse error, never a crash
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Honest exports of both schemes, as file texts by name."""
    root = tmp_path_factory.mktemp("exported")
    assert main(["scenarios", "--export", str(root / "s"),
                 "--scheme", "hashchain"]) == 0
    runs = []
    for scheme in ("hashchain", "bloom"):
        out = root / scheme
        assert main(["simulate", str(root / "s/honest-baseline-hashchain.json"),
                     "--scheme", scheme, "--out-dir", str(out)]) == 0
        runs.append({name: (out / name).read_bytes()
                     for name in ("chain.bin", "claims.json",
                                  "registry.bin")})
    return runs


def _mutate_file(content: bytes, data) -> bytes:
    at = data.draw(st.integers(0, len(content)))
    cut = data.draw(st.integers(0, 8))
    return (content[:at] + data.draw(st.text(max_size=4)).encode()
            + content[at + cut:])


def _mutate_body(content: bytes, data) -> bytes:
    """Flip, drop or insert bytes inside the canonical encoding, and deflate
    it again: the mutation reaches the decoder, not the inflate check."""
    header, deflated = _split(content)
    body = bytearray(zlib.decompress(deflated))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(body) - 1))
        op = data.draw(st.sampled_from(["flip", "drop", "insert"]))
        if op == "flip":
            body[at] ^= data.draw(st.integers(1, 255))
        elif op == "drop":
            del body[at]
        else:
            body.insert(at, data.draw(st.integers(0, 255)))
    return _join(header, zlib.compress(bytes(body)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_audit_mutated_files_exit_0_1_or_2(exported, data):
    files = dict(data.draw(st.sampled_from(exported)))
    name = data.draw(st.sampled_from(sorted(files)))
    if name == "claims.json" or data.draw(st.booleans()):
        files[name] = _mutate_file(files[name], data)
    else:
        files[name] = _mutate_body(files[name], data)
    with tempfile.TemporaryDirectory() as tmp:
        for fname, content in files.items():
            Path(tmp, fname).write_bytes(content)
        code = main(["audit", "--chain", str(Path(tmp, "chain.bin")),
                     "--claims", str(Path(tmp, "claims.json")),
                     "--registry", str(Path(tmp, "registry.bin"))])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("name, field", [("chain.json", "subsequence"),
                                         ("registry.json", "reports")])
def test_audit_hostile_deflate_body_exits_two(tmp_path, exported, capsys,
                                              deflate_attack, name, field):
    """A bomb, a truncated stream, trailing bytes, a bad Adler-32 or an
    undeflated body, in a chain or registry file saved as ``name`` (a
    loader goes by the header line, not the name): an error line naming
    the ``field`` body, and exit 2."""
    make, expected = deflate_attack
    for fname, content in exported[0].items():
        (tmp_path / fname).write_bytes(content)
    kind = name.split(".")[0]
    header, deflated = _split(exported[0][f"{kind}.bin"])
    (tmp_path / name).write_bytes(
        _join(header, make(zlib.decompress(deflated))))
    code, err = _audit_exit(tmp_path, capsys, **{kind: name})
    assert code == 2 and err.startswith("error:") and expected in err
    assert f"{kind} {field}" in err and "Traceback" not in err


def _retired_version_3(header: dict, deflated: bytes) -> bytes:
    """The version 3 form, no longer read, of the file of ``header`` and
    ``deflated``: one JSON object whose ``subsequence`` (a chain file's
    header holds a directory) or ``reports`` field holds the body in
    base64."""
    field = "subsequence" if "directory" in header else "reports"
    return json.dumps({**header, "format_version": 3,
                       field: base64.b64encode(deflated).decode()},
                      separators=(",", ":"), sort_keys=True).encode()


def _directory_entry_role(header: dict, deflated: bytes) -> bytes | None:
    """The chain file of ``header`` and ``deflated`` with a ``role`` in each
    directory entry, as version 5 wrote; None for a registry file, which
    has no directory."""
    if "directory" not in header:
        return None
    return _join({**header, "directory": {
        pid: {**meta, "role": "authority"}
        for pid, meta in header["directory"].items()}}, deflated)


# Hostile chain and registry files: name -> (the file, made from the header
# and the deflated body of an honest one, or None where the attack has no
# place; a fragment of its one error line).
# 16 MiB of zeros deflate past the cap.
HOSTILE_FILES = {
    "first-line-not-an-object": (lambda header, deflated: (
        b"[%d]\n" % FORMAT_VERSION + deflated),
        "file header is not a JSON object"),
    **{f"header-version-{version}": (
        lambda header, deflated, version=version: (
            _join({**header, "format_version": version}, deflated)),
        f"file header has format_version {version}; "
        f"only {FORMAT_VERSION} is read")
       for version in range(3, FORMAT_VERSION)},
    "retired-version-3": (_retired_version_3,
                          "file header has format_version 3; "
                          f"only {FORMAT_VERSION} is read"),
    "header-not-utf8": (lambda header, deflated: (
        b'{"\xff":0,' + _join(header, deflated)[1:]),
        "file header is not JSON"),
    "nothing-after-the-newline": (lambda header, deflated: (
        _join(header, b"")), "truncated deflate stream"),
    "truncated-body": (lambda header, deflated: (
        _join(header, deflated[:-10])), "truncated deflate stream"),
    "bytes-after-the-stream": (lambda header, deflated: (
        _join(header, deflated + b"\0")), "trailing bytes after its deflate"),
    "bomb": (lambda header, deflated: (
        _join(header, zlib.compress(bytes(16 << 20)))), "inflates past"),
    "directory-entry-role": (_directory_entry_role,
                             "directory entry 'cafe-7': unknown field 'role'"),
}


@pytest.mark.parametrize("attack", sorted(HOSTILE_FILES))
def test_audit_hostile_version_4_file_exits_two(tmp_path, exported, capsys,
                                                attack):
    """Each hostile chain or registry file: one error line, which names
    what is wrong, no output and exit 2, never a traceback."""
    make, expected = HOSTILE_FILES[attack]
    for fname, content in exported[0].items():
        (tmp_path / fname).write_bytes(content)
    for kind in ("chain", "registry"):
        hostile = make(*_split(exported[0][f"{kind}.bin"]))
        if hostile is None:
            continue
        (tmp_path / "hostile.bin").write_bytes(hostile)
        code = main(["audit", "--chain", str(tmp_path / "chain.bin"),
                     "--claims", str(tmp_path / "claims.json"),
                     "--registry", str(tmp_path / "registry.bin"),
                     f"--{kind}", str(tmp_path / "hostile.bin")])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", kind
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"error: cannot load inputs: {kind} ")
        assert expected in err, err


# ---------------------------------------------------------------------------
# bench-space
# ---------------------------------------------------------------------------

def test_bench_space_reference_row():
    rows = {r["n"]: r for r in bench_space_rows(1000, 0.001, "legacy")}
    assert rows[1000]["hashchain_bytes_per_entry"] == 40
    assert 1789 <= rows[1000]["bloom_bytes_per_entry"] <= 1805


def test_bench_space_hashchain_constant_bloom_monotone():
    rows = bench_space_rows(5000, 0.001, "legacy")
    assert {r["hashchain_bytes_per_entry"] for r in rows} == {40}
    bloom = [r["bloom_bytes_per_entry"] for r in rows]
    assert bloom == sorted(bloom)
    assert rows[0]["n"] == 1 and bloom[0] >= 1


def test_bench_space_csv_schema(tmp_path):
    out = tmp_path / "space.csv"
    assert main(["bench-space", "--max-n", "100", "--out", str(out)]) == 0
    with out.open() as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["n", "hashchain_bytes_per_entry",
                                     "bloom_bytes_per_entry"]
        assert len(list(reader)) > 0


@pytest.mark.parametrize("args, last_row", [
    ([], ["1000", "40", "1798"]),
    (["--fpr", "0.01"], ["1000", "40", "1199"]),
], ids=["default-rate", "fpr-0.01"])
def test_bench_space_fpr_sweeps_the_rate(tmp_path, args, last_row):
    """The simulator's filters use one fixed rate; ``--fpr`` still sizes the
    sweep's accumulators at another."""
    out = tmp_path / "space.csv"
    assert main(["bench-space", "--max-n", "1000", *args,
                 "--out", str(out)]) == 0
    with out.open() as fh:
        assert list(csv.reader(fh))[-1] == last_row


def test_bench_space_computes_sizes_it_could_not_allocate(tmp_path):
    """Filter sizes are computed, not allocated: at n = 10^10 one filter
    would be 18 GB."""
    out = tmp_path / "space.csv"
    assert main(["bench-space", "--max-n", "10000000000",
                 "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[-1] == ["10000000000", "40", "17971984458"]
    assert ["1000", "40", "1798"] in rows


# ---------------------------------------------------------------------------
# bench-audit
# ---------------------------------------------------------------------------

def test_worst_case_positions_include_ends():
    positions = worst_case_positions(1000, 1)
    assert positions[0] == 1 and positions[-1] == 1000
    assert len(positions) == 10
    assert worst_case_positions(100, 100) == list(range(1, 101))


def test_bench_audit_counts_small_chain(tmp_path):
    rows = bench_audit_rows(60, [10.0, 100.0], seed=3)
    by_key = {(r["scheme"], r["pct"]): r for r in rows}
    # hash chain always walks to the last revealed entry: the whole chain
    assert by_key[("hashchain", 10.0)]["ops_count"] == 60
    assert by_key[("hashchain", 100.0)]["ops_count"] == 60
    # the accumulator scheme touches only what was revealed
    assert by_key[("bloom", 10.0)]["ops_count"] == 6
    assert by_key[("bloom", 100.0)]["ops_count"] == 60


def test_bench_audit_csv_schema(tmp_path):
    out = tmp_path / "audit.csv"
    assert main(["bench-audit", "--chain-n", "20", "--reveal-pct", "50,100",
                 "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["scheme"] for r in rows} == {"hashchain", "bloom"}


SHARED = Path(__file__).parent / "data" / "shared-epochs-bloom"
# A file in a directory that does not exist.
UNWRITABLE = "{tmp}/missing/out"


@pytest.mark.parametrize("argv", [
    ["bench-audit", "--chain-n", "10", "--reveal-pct", "ten,20"],
    ["bench-audit", "--chain-n", "10", "--reveal-pct", "nan"],
    ["bench-audit", "--chain-n", "10", "--reveal-pct", "10,inf"],
    ["bench-audit", "--chain-n", "10", "--reveal-pct", "0,50"],
    ["bench-audit", "--chain-n", "10", "--reveal-pct", "100.5"],
    ["bench-audit", "--chain-n", "10", "--reveal-pct", ","],
    ["bench-audit", "--chain-n", "0"],
    ["bench-space", "--max-n", "0"],
    ["bench-space", "--fpr", "0"],
    ["bench-space", "--fpr", "1.5"],
    ["bench-space", "--fpr", "nan"],
    # A filter size past a float's range.
    ["bench-space", "--max-n", "1" + "0" * 400],
    ["bench-space", "--max-n", "5", "--out", UNWRITABLE],
    ["bench-audit", "--chain-n", "2", "--reveal-pct", "100",
     "--out", UNWRITABLE],
    ["audit", "--chain", str(SHARED / "chain.bin"),
     "--claims", str(SHARED / "claims.json"), "--out", UNWRITABLE],
    # The output directory is an existing file.
    ["simulate", str(SHARED / "scenario.json"),
     "--out-dir", str(SHARED / "scenario.json")],
    ["scenarios", "--export", str(SHARED / "scenario.json")],
], ids=["bench-audit-pct-not-a-number", "bench-audit-pct-nan",
        "bench-audit-pct-inf", "bench-audit-pct-0",
        "bench-audit-pct-above-100", "bench-audit-pct-empty",
        "bench-audit-chain-n-0", "bench-space-max-n-0", "bench-space-fpr-0",
        "bench-space-fpr-above-1", "bench-space-fpr-nan",
        "bench-space-max-n-overflow", "bench-space-out",
        "bench-audit-out", "audit-out", "simulate-out-dir",
        "scenarios-export"])
def test_usage_errors_exit_two(tmp_path, capsys, argv):
    """Bad sizes, rates and percentages, and outputs that cannot be
    written: an error line and exit 2, the code for usage errors, never a
    traceback (exit 1 reads as a flagged audit)."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["bench-audit", "--chain-n", "10"], id="bench-audit"),
    pytest.param(["bench-space", "--max-n", "10"], id="bench-space"),
])
def test_unwritable_bench_out_fails_before_any_work(tmp_path, monkeypatch,
                                                    capsys, argv):
    """The output path is checked before the (at default sizes, minutes
    long) sweep is run, not after."""
    from locprov import cli

    def no_work(*args):
        raise AssertionError("rows made for an output that cannot be written")

    monkeypatch.setattr(cli, "bench_audit_rows", no_work)
    monkeypatch.setattr(cli, "bench_space_rows", no_work)
    assert main(argv + ["--out", str(tmp_path / "missing" / "out.csv")]) == 2
    assert "error: cannot write output" in capsys.readouterr().err


def test_bloom_ops_independent_of_chain_length(honest_chain_factory):
    """Fixed reveal count, growing chains: accumulator checks stay flat."""
    ops = []
    for n in (100, 1000, 10_000):
        world, chain = honest_chain_factory("bloom", n)
        positions = sorted(set([1, n] + [1 + i * (n - 1) // 9 for i in range(10)]))
        positions = positions[:10] if len(positions) > 10 else positions
        sub = make_revealed_subsequence(world.profile, chain, positions)
        report = audit(world.profile, truthful_claims(sub), sub,
                       world.directory.pubkeys(), world.registry)
        assert report.ok
        ops.append(report.checks["accumulator"])
    assert ops[0] == ops[1] == ops[2]
