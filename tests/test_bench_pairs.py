import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_usage_error(tmp_path, monkeypatch, capsys, pairs):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--before", str(tmp_path), "--after", str(tmp_path), "--workload", "image_fast",
                          "--pairs", pairs, "--out", str(tmp_path / "b.json")])
    assert info.value.code == 2
    assert "at least 2 pairs" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
