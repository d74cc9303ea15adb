"""Command line: simulate, audit, benchmarks, exit codes, file formats."""

import base64
import csv
import json
import tempfile
import zlib
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from locprov.cli import (
    bench_audit_rows,
    bench_space_rows,
    main,
    worst_case_positions,
)
from locprov.model import SCHEMES, canonical_encode, make_revealed_subsequence
from locprov.audit import audit, truthful_claims
from locprov.serialize import (
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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_honest_scenario_exits_zero(tmp_path, scenario_dir):
    code, out_dir = _simulate(tmp_path, scenario_dir,
                              "honest-baseline-hashchain")
    assert code == 0
    for name in ("chain.json", "claims.json", "registry.json",
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
    pytest.param("reveal", {"positions": "some"},
                 f'{_LOAD}: reveal.positions: a list or "all"',
                 id="reveal-positions"),
    pytest.param("reveal", {"disclose": {"first": [2]}},
                 f"{_LOAD}: reveal.disclose: position 'first'",
                 id="reveal-disclose-key"),
    pytest.param("claims", "lies", f"{_LOAD}: unknown claims spec 'lies'",
                 id="claims"),
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
])
def test_simulate_malformed_scenario_exits_two(tmp_path, scenario_dir, capsys,
                                               field, value, error):
    doc = json.loads(
        (scenario_dir / "honest-baseline-hashchain.json").read_text())
    if value is _MISSING:
        del doc[field]
    else:
        doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(error)
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [
    {"epoch_len_ms": 0},
    {"epoch_len_ms": -300_000},
    {"epoch_capacity": 0},
    {"chain_capacity": -1},
    {"epoch_capacity": 2**64},
    {"chain_capacity": 2**21},
    {"chain_capacity": 10**400},
], ids=["epoch-len-0", "epoch-len-negative", "epoch-capacity-0",
        "chain-capacity-negative", "epoch-capacity-2^64", "chain-capacity-2^21",
        "chain-capacity-10^400"])
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


def _set_actor(doc, actor_id, **fields):
    actor = next(a for a in doc["actors"] if a["actor_id"] == actor_id)
    actor.update(fields)


@pytest.mark.parametrize("edit, refusal", [
    (lambda d: _long_advance(d, 10**12), "epoch reports"),
    (lambda d: (d.update(config={"epoch_len_ms": 1}),
                _long_advance(d, 100_000)), "epoch reports"),
    (lambda d: d.update(config={"hop_delay_ms": 10**11}), "epoch reports"),
    (lambda d: _set_actor(d, "cafe-7", skew_ms=10**12), "epoch reports"),
    (lambda d: _set_actor(d, "lib-2", skew_ms=-10**12), "epoch reports"),
    (lambda d: _set_actor(d, "cafe-7", behavior={
        "visit_time_shift_ms": 10**12, "defer_record_to_visit_epoch": True}),
     "epoch reports"),
    (lambda d: (d.update(config={"epoch_capacity": 500_000}),
                _long_advance(d, 60 * 300_000)), "bits in all"),
    (lambda d: _long_advance(d, -1), "advance: ms must not be negative"),
    (lambda d: d.update(config={"hop_delay_ms": -1}),
     "config.hop_delay_ms must not be negative"),
], ids=["advance-10^12", "epoch-len-1-long-advance", "hop-delay-10^11",
        "authority-skew-10^12", "authority-skew-minus-10^12",
        "deferred-visit-time-shift-10^12", "large-reports", "negative-advance",
        "negative-hop-delay"])
def test_simulate_unbounded_epoch_work_exits_two(tmp_path, scenario_dir,
                                                 capsys, edit, refusal):
    """Refused while the file loads, before any epoch report is built: each
    file asks for at least 10^5 signed reports, 128 MiB of report filters,
    or time that runs backwards."""
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


def test_simulate_long_run_within_the_bound_exits_zero(tmp_path, scenario_dir):
    """A day of simulated time at the default 5-minute epochs closes
    3 x 290 reports, well inside the bound."""
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
    _, sub, _ = load_chain_file((out_dir / "chain.json").read_text())
    assert sub.scheme == "bloom"


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
        runs[run] = [(out_dir / f).read_text()
                     for f in ("chain.json", "trace.jsonl")]
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
    code = main(["audit", "--chain", str(out_dir / "chain.json"),
                 "--claims", str(out_dir / "claims.json"),
                 "--registry", str(out_dir / "registry.json"),
                 "--out", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["report"]["ok"]


def test_audit_tampered_chain_exits_one(tmp_path, scenario_dir):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    profile_name, sub, directory = load_chain_file(
        (out_dir / "chain.json").read_text())
    first = sub.entries[0]
    proof = first.entry.elp.proof
    raw = bytearray(proof.authority_sig.data)
    raw[0] ^= 0x01
    proof = replace(proof, authority_sig=replace(proof.authority_sig,
                                                 data=bytes(raw)))
    first = replace(first, entry=replace(
        first.entry, elp=replace(first.entry.elp, proof=proof)))
    sub = replace(sub, entries=(first,) + sub.entries[1:])
    tampered = out_dir / "tampered.json"
    tampered.write_text(dump_chain_file(profile_name, sub, directory))
    code = main(["audit", "--chain", str(tampered),
                 "--claims", str(out_dir / "claims.json"),
                 "--registry", str(out_dir / "registry.json")])
    assert code == 1


def test_audit_without_registry_warns_but_passes(tmp_path, scenario_dir, capsys):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    code = main(["audit", "--chain", str(out_dir / "chain.json"),
                 "--claims", str(out_dir / "claims.json")])
    assert code == 0
    assert "warning" in capsys.readouterr().out


def test_audit_unparseable_input_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["audit", "--chain", str(bad), "--claims", str(bad)]) == 2


def _audit_exit(out_dir, capsys, chain="chain.json", registry="registry.json"):
    code = main(["audit", "--chain", str(out_dir / chain),
                 "--claims", str(out_dir / "claims.json"),
                 "--registry", str(out_dir / registry)])
    return code, capsys.readouterr().err


def test_audit_unknown_scheme_exits_two(tmp_path, scenario_dir, capsys):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    profile_name, sub, directory = load_chain_file(
        (out_dir / "chain.json").read_text())
    (out_dir / "merkle.json").write_text(dump_chain_file(
        profile_name, replace(sub, scheme="merkle"), directory))
    code, err = _audit_exit(out_dir, capsys, chain="merkle.json")
    assert code == 2 and err.startswith("error:") and "merkle" in err


def test_audit_string_position_exits_two(tmp_path, scenario_dir, capsys):
    """A position spelled as a JSON string, in the per-type JSON layout
    that files no longer use, under any version number."""
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    chain = json.loads((out_dir / "chain.json").read_text())
    for version in (1, 2, 3):
        chain["format_version"] = version
        chain["subsequence"] = {
            "scheme": "bloom", "chain_evidence": [],
            "entries": [{"position": "1", "disclosed": [], "entry": {}}]}
        (out_dir / "v1.json").write_text(json.dumps(chain))
        code, err = _audit_exit(out_dir, capsys, chain="v1.json")
        assert code == 2 and err.startswith("error:")


def test_audit_repeated_report_exits_two(tmp_path, scenario_dir, capsys):
    _, out_dir = _simulate(tmp_path, scenario_dir, "honest-baseline-hashchain")
    profile_name, registry = load_registry_file(
        (out_dir / "registry.json").read_text())
    doc = json.loads((out_dir / "registry.json").read_text())
    reports = registry.reports()
    assert doc["format_version"] == 3
    doc["reports"] = base64.b64encode(zlib.compress(
        canonical_encode(reports + reports[:1]))).decode()
    (out_dir / "twice.json").write_text(json.dumps(doc))
    code, err = _audit_exit(out_dir, capsys, registry="twice.json")
    assert code == 2 and err.startswith("error:")
    assert "already published" in err


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
        runs.append({name: (out / name).read_text()
                     for name in ("chain.json", "claims.json",
                                  "registry.json")})
    return runs


def _mutate_text(text: str, data) -> str:
    at = data.draw(st.integers(0, len(text)))
    cut = data.draw(st.integers(0, 8))
    return text[:at] + data.draw(st.text(max_size=4)) + text[at + cut:]


def _mutate_body(text: str, data) -> str:
    """Flip, drop or insert bytes inside the canonical encoding, and deflate
    it again: the mutation reaches the decoder, not the inflate check."""
    doc = json.loads(text)
    field = "subsequence" if "subsequence" in doc else "reports"
    body = bytearray(zlib.decompress(base64.b64decode(doc[field])))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(body) - 1))
        op = data.draw(st.sampled_from(["flip", "drop", "insert"]))
        if op == "flip":
            body[at] ^= data.draw(st.integers(1, 255))
        elif op == "drop":
            del body[at]
        else:
            body.insert(at, data.draw(st.integers(0, 255)))
    doc[field] = base64.b64encode(zlib.compress(bytes(body))).decode()
    return json.dumps(doc)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_audit_mutated_files_exit_0_1_or_2(exported, data):
    files = dict(data.draw(st.sampled_from(exported)))
    name = data.draw(st.sampled_from(sorted(files)))
    if name == "claims.json" or data.draw(st.booleans()):
        files[name] = _mutate_text(files[name], data)
    else:
        files[name] = _mutate_body(files[name], data)
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in files.items():
            Path(tmp, fname).write_text(text)
        code = main(["audit", "--chain", str(Path(tmp, "chain.json")),
                     "--claims", str(Path(tmp, "claims.json")),
                     "--registry", str(Path(tmp, "registry.json"))])
    assert code in (0, 1, 2)


@pytest.mark.parametrize("name, field", [("chain.json", "subsequence"),
                                         ("registry.json", "reports")])
def test_audit_hostile_deflate_body_exits_two(tmp_path, exported, capsys,
                                              deflate_attack, name, field):
    """A bomb, a truncated stream, trailing bytes, a bad Adler-32 or an
    undeflated body in a version 3 file: an error line and exit 2."""
    make, expected = deflate_attack
    for fname, text in exported[0].items():
        (tmp_path / fname).write_text(text)
    doc = json.loads(exported[0][name])
    body = zlib.decompress(base64.b64decode(doc[field]))
    doc[field] = base64.b64encode(make(body)).decode()
    (tmp_path / name).write_text(json.dumps(doc))
    code, err = _audit_exit(tmp_path, capsys)
    assert code == 2 and err.startswith("error:") and expected in err
    assert "Traceback" not in err


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
    ["bench-space", "--max-n", "5", "--out", UNWRITABLE],
    ["bench-audit", "--chain-n", "2", "--reveal-pct", "100",
     "--out", UNWRITABLE],
    ["audit", "--chain", str(SHARED / "chain.json"),
     "--claims", str(SHARED / "claims.json"), "--out", UNWRITABLE],
    # The output directory is an existing file.
    ["simulate", str(SHARED / "scenario.json"),
     "--out-dir", str(SHARED / "scenario.json")],
    ["scenarios", "--export", str(SHARED / "scenario.json")],
], ids=["bench-audit-pct-not-a-number", "bench-audit-pct-nan",
        "bench-audit-pct-inf", "bench-audit-pct-0",
        "bench-audit-pct-above-100", "bench-audit-pct-empty",
        "bench-audit-chain-n-0", "bench-space-max-n-0", "bench-space-fpr-0",
        "bench-space-fpr-above-1", "bench-space-fpr-nan", "bench-space-out",
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
