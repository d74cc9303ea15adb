"""Every workload runs to its end at a tiny size, untraced and traced."""

import json

import pytest

import run
import tracer
import workloads

BENCHMARK = run.ROOT / "BENCHMARK.json"

TINY = {
    workloads.IssueWorkload: dict(USERS=2, AUTHORITIES=8, GRANULAR=1,
                                  WITNESSES=2, VISITS_PER_USER=16,
                                  setup_repeats=3),
    workloads.AuditFullWorkload: dict(USERS=4, VISITS_PER_USER=6,
                                      HONEST_CHAIN_N=12),
    workloads.AuditSparseWorkload: dict(HISTORY_N=120, BLOCK=20),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    for cls, sizes in TINY.items():
        for name, value in sizes.items():
            monkeypatch.setattr(cls, name, value)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_untraced(capsys, workload):
    result = _run(capsys, workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = json.loads(BENCHMARK.read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_traced(capsys, tmp_path, workload):
    result = _run(capsys, workload, 1)
    assert result["correct"] is True
    spec = json.loads(BENCHMARK.read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert (tmp_path / f"spans-{workload}-3.jsonl").stat().st_size > 0


def test_per_layer_spec_matches_tracer():
    spec = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.PER_LAYER


def test_tracer_leaves_program_unpatched():
    from locprov.crypto import CryptoProfile
    original = CryptoProfile.sign
    t = tracer.Tracer()
    t.install()
    assert CryptoProfile.sign is not original
    t.uninstall()
    assert CryptoProfile.sign is original
