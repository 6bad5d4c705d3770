"""Self-tests of the benchmark (tiny model sizes; about 15 s).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import workloads  # noqa: E402
from run import percentile, run_workload, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(name: str, trace: bool = False, **kwargs) -> dict:
    return run_workload(name, seed=7, seconds=1.0, trace=trace, size="tiny", **kwargs)


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = _tiny(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    trace_file = tmp_path / "trace.json"
    result = _tiny(name, trace=True, trace_file=trace_file)
    # correct includes the coverage and predicted-call-pattern checks
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.coverage_ratio"]["value"] >= 0.9
    from repro.obs.tracer import validate_trace_file

    assert validate_trace_file(trace_file) == []


def test_same_seed_repeats_bounds_exactly():
    first, second = _tiny("dse-usecases"), _tiny("dse-usecases")
    for name in ("bound_cycles_geomean", "wcet_speedup_geomean"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_corrupted_output_is_a_failure(monkeypatch):
    real = workloads.simulate_parallel_program

    def corrupted(*args, **kwargs):
        sim = real(*args, **kwargs)
        for key in sim.env:
            if key.startswith("out_"):
                sim.env[key] = sim.env[key] + 1.0
        return sim

    monkeypatch.setattr(workloads, "simulate_parallel_program", corrupted)
    result = _tiny("synthetic-1000")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tampered_certificate_is_a_failure(monkeypatch):
    import repro.analysis.certify.chain as chain

    real = chain.build_schedule_certificate

    def tampered(*args, **kwargs):
        cert = real(*args, **kwargs)
        return dataclasses.replace(cert, wcet_bound=cert.wcet_bound - 1.0)

    real_ops = workloads.DseUsecases.ops

    def tampered_ops(self):  # the set-up warm-up designs must still certify
        monkeypatch.setattr(chain, "build_schedule_certificate", tampered)
        yield from real_ops(self)

    monkeypatch.setattr(workloads.DseUsecases, "ops", tampered_ops)
    result = _tiny("dse-usecases")
    assert not result["correct"] and result["failed"] > 0


def test_divergent_incremental_round_is_a_failure(monkeypatch):
    real = workloads.Pipeline.run_incremental

    def skewed(self, prev, diagram):
        result = real(self, prev, diagram)
        result.sequential_bound += 1.0
        return result

    monkeypatch.setattr(workloads.Pipeline, "run_incremental", skewed)
    result = _tiny("edit-incremental")
    assert not result["correct"] and result["failed"] > 0


def test_missed_binding_fails_the_traced_run(monkeypatch):
    import repro.core.pipeline as pipeline
    from layers import LayerTimer

    baseline = _tiny("synthetic-1000", trace=True)["metrics"]
    real_install = LayerTimer.install

    def install_missing_one(self):
        real_install(self)
        # the pipeline's own binding of extract_htg stays unwrapped
        for owner, attr, original in self._installed:
            if owner is pipeline and attr == "extract_htg":
                setattr(pipeline, attr, original)

    monkeypatch.setattr(LayerTimer, "install", install_missing_one)
    result = _tiny("synthetic-1000", trace=True)
    missed = result["metrics"]
    assert not result["correct"] and missed["htg.calls"]["value"] == 0
    # the missed layer's time shows up as pipeline residual
    htg_share = baseline["htg.self_s"]["value"] / baseline["trace.wall_s"]["value"]
    assert (
        missed["trace.residual_ratio"]["value"]
        > baseline["trace.residual_ratio"]["value"] + htg_share / 2
    )


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(180) == 90
    assert tail_percentile(8) == 100
    values = list(range(1, 181))
    assert sum(v > percentile(values, tail_percentile(180)) for v in values) >= 10


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.1}
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    assert compare.verdict(parent, parent, spec) == "unchanged"
    assert compare.verdict(parent, {s: v * 1.3 for s, v in parent.items()}, spec) == "worse"
    assert compare.verdict(parent, {s: v * 0.8 for s, v in parent.items()}, spec) == "better"
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert compare.verdict(noisy, noisy, spec) == "unresolved"


def test_refuses_to_run_without_the_product_code(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
