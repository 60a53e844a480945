"""Tests of the benchmark itself: every metric is emitted, the correctness
gates can fail, and the tracer's self times exclude child spans.

    python3 -m pytest bench/tests -q     # from the repository root, ~4 min
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from potvit import accelsim, intengine  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# layers each workload exists to exercise: their traced counts must be non-zero
EXERCISED = {
    "pipeline-tiny": ["cli.search_bits.wall_s", "mpsearch.hessian_matvec.calls",
                      "mpsearch.candidates_evaluated", "autodiff.backward.calls",
                      "checkpoint.bytes", "accelsim.events"],
    "deit-block-b8": ["quantizer.adaptive_pot_round_weight.calls", "intengine.psmac_matmul.macs",
                      "intengine.shift_attention_v.temp_bytes", "accelsim.events"],
    "tiny-b1-latency": ["intengine.int_forward.calls", "intengine.shift_round_array.calls"],
}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values()), values
    else:
        assert all(values[name] > 0 for name in EXERCISED[workload]), values


def test_a_single_flipped_code_is_a_failed_request(monkeypatch, tmp_path):
    real = intengine.int_forward
    calls = []

    def flip_first_call(qm, x):
        logits, trace = real(qm, x)
        if not calls:
            trace["block0.attn.out"] = trace["block0.attn.out"].copy()
            trace["block0.attn.out"].flat[0] ^= 1
        calls.append(1)
        return logits, trace

    monkeypatch.setattr(intengine, "int_forward", flip_first_call)
    out = workloads.tiny_b1_latency(1, 0, None, tmp_path)
    assert (out.attempted, out.failed, out.mismatch_points) == (len(calls), 1, 1)
    assert "block0.attn.out" in out.failures[0]


def test_a_single_cycle_mismatch_is_a_failed_check(monkeypatch):
    real = accelsim.event_driven_oracle

    def one_cycle_late(workload, arch, inter=False, intra=False):
        report = real(workload, arch, inter=inter, intra=intra)
        if inter and intra:
            report.total_cycles += 1
        return report

    monkeypatch.setattr(accelsim, "event_driven_oracle", one_cycle_late)
    out = workloads.Outcome(primary="pipeline_s")
    workloads.simulate_modes(out, accelsim.deit_tiny_workload(), accelsim.AcceleratorConfig())
    assert (out.attempted, out.failed) == (4, 1)
    assert out.failures[0].startswith("simulate inter,intra")


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "deit-block-b8", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.05)
        time.sleep(0.01)
    stats = tracer.stats()
    assert stats["outer"]["wall_s"] >= 0.06
    assert stats["outer"]["self_s"] == pytest.approx(
        stats["outer"]["wall_s"] - stats["inner"]["wall_s"]
    )
    assert stats["outer"]["self_s"] < 0.05


def test_nested_stats_select_by_ancestor_and_exclusion():
    tracer = Tracer()
    with tracer.span("engine"):
        with tracer.span("shift"):
            pass
        with tracer.span("attention"):
            with tracer.span("shift"):
                pass
    with tracer.span("shift"):
        pass
    assert tracer.stats()["shift"]["calls"] == 3
    assert tracer.stats_under("shift", ["engine"])["calls"] == 2
    assert tracer.stats_under("shift", ["engine"], exclude=["attention"])["calls"] == 1
    assert tracer.stats_under("shift", ["attention"])["calls"] == 1
    assert tracer.stats_under("shift", ["missing"])["calls"] == 0
