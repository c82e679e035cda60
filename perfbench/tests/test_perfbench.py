"""Tests of the benchmark itself, on tiny inputs.

Run with ``python3 -m pytest perfbench/tests``; they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

run.import_splsim()

import splsim.fast_sim  # noqa: E402
import splsim.oracle  # noqa: E402
from perfbench import tracing, workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _tiny(workload, trace, seed=3, cwd=ROOT):
    proc = _cli("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [json.loads(line) for line in lines[:-1]]


def _in_process(workload, trace, capsys):
    result = run.run(run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--size", "tiny"]))
    info = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    return result, info


def test_benchmark_json_lists_every_traced_metric():
    assert workloads.WORKLOADS.keys() == set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == tracing.metric_specs()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    result, _ = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert np.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0


def test_same_seed_gives_identical_output():
    digests = [
        next(line["passes"]["output_sha256"] for line in _tiny("train_pipeline", 0)[1] if "passes" in line)
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_cull_that_keeps_every_arrival_fails_image_oracle(monkeypatch, capsys):
    monkeypatch.setattr(splsim.oracle, "cull_dead_time",
                        lambda abs_times, t_d: np.asarray(abs_times, dtype=np.float64).copy())
    result, _ = _in_process("image_oracle", 0, capsys)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_removed_layer_is_reported_absent(monkeypatch, capsys):
    monkeypatch.delattr(splsim.fast_sim, "predict_pdf")
    result, info = _in_process("image_oracle", 1, capsys)
    assert result["correct"]
    trace = next(line["trace"] for line in info if "trace" in line)
    assert trace["absent_layers"] == ["pdf_net.predict_pdf"]
    assert result["metrics"]["pdf_net.predict_pdf.calls"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
