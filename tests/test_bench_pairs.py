import importlib.util
import json
import resource
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def perfbench_stdout(rate, failed=0, digest="0" * 64, setup_s=1.0):
    """What perfbench/run.py prints for one run: environment, passes and result lines, 3 operations."""
    metrics = {"setup_s": {"unit": "s", "value": setup_s}, "items_per_s": {"unit": "1/s", "value": rate},
               "peak_rss_mb": {"unit": "MB", "value": 50.0}}
    lines = [
        {"env": {k: k for k in ("nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads", "commit")}},
        {"passes": {"item": "px", "output_sha256": digest}},
        {"attempted": 3, "failed": failed, "metrics": metrics},
    ]
    return "\n".join(map(json.dumps, lines))


def compiling_first(fake, compiled):
    """A subprocess.run stand-in: a compile call appends its checkout's name to compiled; any other call
    goes to fake, and only after both checkouts compiled."""
    def run(cmd, cwd, **kwargs):
        if cmd == [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]:
            compiled.append(Path(cwd).name)
            return subprocess.CompletedProcess(cmd, 0)
        assert sorted(compiled) == ["after", "before"], "a benchmark ran before both checkouts compiled"
        return fake(cmd, cwd, **kwargs)
    return run


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_usage_error(tmp_path, monkeypatch, capsys, pairs):
    bench_pairs = load_bench_pairs()

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--before", str(tmp_path), "--after", str(tmp_path), "--workload", "image_fast",
                          "--pairs", pairs, "--out", str(tmp_path / "b.json")])
    assert info.value.code == 2
    assert "at least 2 pairs" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_minor_faults_recorded_per_run(tmp_path, monkeypatch):
    # The stand-in benchmark run k adds 1000 + k faults to the children's
    # count, so each side's runs must read back exactly those differences.
    bench_pairs = load_bench_pairs()
    calls, compiled = [], []
    children_faults = [0]

    def fake_getrusage(who):
        assert who == resource.RUSAGE_CHILDREN
        return SimpleNamespace(ru_minflt=children_faults[0], ru_utime=0.0, ru_stime=0.0)

    def fake_benchmark(cmd, cwd, **kwargs):
        calls.append((Path(cwd).name, cmd[cmd.index("--seed") + 1]))
        children_faults[0] += 1000 + len(calls)
        rate = 10.0 if Path(cwd).name == "before" else 12.0
        return subprocess.CompletedProcess(cmd, 0, stdout="noise\n" + perfbench_stdout(rate))

    monkeypatch.setattr(bench_pairs.resource, "getrusage", fake_getrusage)
    monkeypatch.setattr(bench_pairs.subprocess, "run", compiling_first(fake_benchmark, compiled))
    out = tmp_path / "b.json"
    assert bench_pairs.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                             "--workload", "image_oracle", "--pairs", "3", "--seed", "40",
                             "--seconds", "1", "--out", str(out)]) == 0
    assert calls == [("before", "40"), ("after", "40"), ("after", "41"), ("before", "41"),
                     ("before", "42"), ("after", "42")]
    assert compiled == ["before", "after"]
    record = json.loads(out.read_text())
    assert record["claim_check"]["wins"] == 3
    assert record["before"]["minor_faults"] == {"q1": 1002.5, "median": 1004, "q3": 1004.5,
                                                "runs": [1001, 1004, 1005]}
    assert record["after"]["minor_faults"]["runs"] == [1002, 1003, 1006]


def test_cpu_seconds_recorded_per_run(tmp_path, monkeypatch):
    # The stand-in benchmark run k adds k user and k / 4 system seconds to
    # the children's CPU time, so each run must read back 1.25 k seconds.
    bench_pairs = load_bench_pairs()
    calls, compiled = [], []
    children_cpu = {"ru_utime": 0.0, "ru_stime": 0.0}

    def fake_getrusage(who):
        assert who == resource.RUSAGE_CHILDREN
        return SimpleNamespace(ru_minflt=0, **children_cpu)

    def fake_benchmark(cmd, cwd, **kwargs):
        calls.append(Path(cwd).name)
        children_cpu["ru_utime"] += len(calls)
        children_cpu["ru_stime"] += len(calls) / 4
        rate = 10.0 if Path(cwd).name == "before" else 12.0
        return subprocess.CompletedProcess(cmd, 0, stdout=perfbench_stdout(rate))

    monkeypatch.setattr(bench_pairs.resource, "getrusage", fake_getrusage)
    monkeypatch.setattr(bench_pairs.subprocess, "run", compiling_first(fake_benchmark, compiled))
    out = tmp_path / "b.json"
    assert bench_pairs.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                             "--workload", "image_oracle", "--pairs", "3", "--seed", "40",
                             "--seconds", "1", "--out", str(out)]) == 0
    assert calls == ["before", "after", "after", "before", "before", "after"]
    assert compiled == ["before", "after"]
    record = json.loads(out.read_text())
    assert record["before"]["cpu_s"] == {"q1": 3.125, "median": 5.0, "q3": 5.625, "runs": [1.25, 5.0, 6.25]}
    assert record["after"]["cpu_s"]["runs"] == [2.5, 3.75, 7.5]
    assert record["before"]["minor_faults"]["runs"] == [0, 0, 0]


@pytest.mark.parametrize(
    "before, after, after_failed, wins, met",
    [
        pytest.param([10, 11, 10.5, 10.2], [20, 21, 20.5, 20.2], 0, 4, True, id="met"),
        pytest.param([10, 11, 10.5, 10.2], [20, 21, 20.5, 10.0], 0, 3, False, id="too-few-wins"),
        pytest.param([10, 10, 11, 11], [10, 11, 11, 11], 0, 1, False, id="ties-count-for-neither"),
        pytest.param([10, 30, 10, 30], [11, 31, 11, 31], 0, 4, False, id="gain-inside-spread"),
        pytest.param([10, 11, 10.5, 10.2], [20, 21, 20.5, 20.2], 1, 4, False, id="more-failures"),
    ],
)
def test_claim_check(tmp_path, monkeypatch, before, after, after_failed, wins, met):
    # Pair i's items_per_s on each side is before[i] / after[i]; each run
    # attempts 3 operations, and each after run fails after_failed of them.
    bench_pairs = load_bench_pairs()
    rates = {"before": before, "after": after}

    def fake_benchmark(cmd, cwd, **kwargs):
        side, pair = Path(cwd).name, int(cmd[cmd.index("--seed") + 1]) - 40
        failed = after_failed if side == "after" else 0
        return subprocess.CompletedProcess(cmd, 0, stdout=perfbench_stdout(rates[side][pair], failed))

    monkeypatch.setattr(bench_pairs.subprocess, "run", compiling_first(fake_benchmark, []))
    out = tmp_path / "b.json"
    bench_pairs.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                      "--workload", "train_pipeline", "--pairs", "4", "--seed", "40", "--out", str(out)])
    check = json.loads(out.read_text())["claim_check"]
    assert (check["wins"], check["wins_needed"], check["met"]) == (wins, 4, met)
    assert check["failed"] == {"before": "0/12", "after": f"{4 * after_failed}/12"}


@pytest.mark.parametrize(
    "after_digests, same",
    [(["s40", "s41", "s42"], True), (["s40", "x41", "s42"], False), (["s41", "s40", "s42"], False)],
    ids=["same", "one-pair-differs", "digests-swapped-across-pairs"],
)
def test_output_digests_recorded_and_compared_pair_by_pair(tmp_path, monkeypatch, after_digests, same):
    # The before run with seed 40 + i prints digest "s{40 + i}"; the after
    # run of the same pair prints after_digests[i].
    bench_pairs = load_bench_pairs()

    def fake_benchmark(cmd, cwd, **kwargs):
        seed = int(cmd[cmd.index("--seed") + 1])
        digest = f"s{seed}" if Path(cwd).name == "before" else after_digests[seed - 40]
        return subprocess.CompletedProcess(cmd, 0, stdout=perfbench_stdout(10.0, digest=digest))

    monkeypatch.setattr(bench_pairs.subprocess, "run", compiling_first(fake_benchmark, []))
    out = tmp_path / "b.json"
    bench_pairs.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                      "--workload", "image_oracle", "--pairs", "3", "--seed", "40", "--out", str(out)])
    record = json.loads(out.read_text())
    assert record["before"]["output_sha256"] == ["s40", "s41", "s42"]
    assert record["after"]["output_sha256"] == after_digests
    assert record["same_output"] is same


@pytest.mark.parametrize(
    "name, better, before, after, worsening, within, unresolved",
    [
        pytest.param("setup_s", "lower", [10, 10, 10, 10], [11, 11, 11, 11], 0.1, True, False, id="lower-within"),
        pytest.param("setup_s", "lower", [10, 10, 10, 10], [13, 13, 13, 13], 0.3, False, False, id="lower-beyond"),
        pytest.param("items_per_s", "higher", [100, 100, 100, 100], [90, 90, 90, 90], 0.1, True, False,
                     id="higher-within"),
        pytest.param("items_per_s", "higher", [100, 100, 100, 100], [70, 70, 70, 70], 0.3, False, False,
                     id="higher-beyond"),
        pytest.param("items_per_s", "higher", [100, 100, 100, 100], [120, 120, 120, 120], -0.2, True, False,
                     id="higher-improved"),
        pytest.param("setup_s", "lower", [10, 20, 10, 20], [15, 15, 15, 15], 0.0, True, True, id="unresolved"),
        pytest.param("setup_s", "lower", [10, 20, 10, 20], [5, 6, 5, 6], -0.6333, True, False,
                     id="spread-but-every-after-run-wins"),
    ],
)
def test_regression_check(tmp_path, monkeypatch, name, better, before, after, worsening, within, unresolved):
    # Pair i's value of the one end-to-end metric is before[i] / after[i];
    # with bound 0.25, a before side of 10, 20, 10, 20 spreads (20 - 10) / 15.
    bench_pairs = load_bench_pairs()
    benchmark = tmp_path / "BENCHMARK.json"
    spec = {"name": name, "unit": "x", "better": better, "bound": 0.25}
    benchmark.write_text(json.dumps({"end_to_end": [spec]}))
    values = {"before": before, "after": after}

    def fake_benchmark(cmd, cwd, **kwargs):
        value = values[Path(cwd).name][int(cmd[cmd.index("--seed") + 1]) - 40]
        stdout = perfbench_stdout(value, setup_s=value) if name == "setup_s" else perfbench_stdout(value)
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout)

    monkeypatch.setattr(bench_pairs, "BENCHMARK", benchmark)
    monkeypatch.setattr(bench_pairs.subprocess, "run", compiling_first(fake_benchmark, []))
    out = tmp_path / "b.json"
    bench_pairs.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                      "--workload", "image_fast", "--pairs", "4", "--seed", "40", "--out", str(out)])
    checks = json.loads(out.read_text())["regression_check"]
    assert list(checks) == [name]
    check = checks[name]
    assert check["worsening"] == pytest.approx(worsening, abs=1e-4)
    assert (check["better"], check["bound"], check["within_bound"], check["unresolved"]) == (
        better, 0.25, within, unresolved)


def test_regression_check_covers_every_end_to_end_metric(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
    def fake_benchmark(cmd, cwd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=perfbench_stdout(10.0))

    monkeypatch.setattr(bench_pairs.subprocess, "run", compiling_first(fake_benchmark, []))
    out = tmp_path / "b.json"
    bench_pairs.main(["--before", str(tmp_path / "before"), "--after", str(tmp_path / "after"),
                      "--workload", "image_fast", "--pairs", "2", "--out", str(out)])
    end_to_end = json.loads(bench_pairs.BENCHMARK.read_text())["end_to_end"]
    checks = json.loads(out.read_text())["regression_check"]
    assert list(checks) == [spec["name"] for spec in end_to_end]
    assert all(c["worsening"] == 0.0 and c["within_bound"] and not c["unresolved"] for c in checks.values())
