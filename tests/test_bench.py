from types import SimpleNamespace

import splsim.bench
from splsim import EnvParams, RngHandle, SystemParams, TimeGrid
from splsim.bench import WARMUP_REPS, run_benchmark


def test_every_rep_runs_on_its_own_stream(monkeypatch):
    # Rep r of engine e at cycle index c runs on rng.child(c).child(e).child(r).
    # From 100 reps up, a flat child index such as c * 1000 + e * 100 + r
    # would give oracle rep 100 + k the stream of fast rep k.
    streams = []

    def oracle(sys_p, env, grid, rng):
        streams.append(rng.stream)
        return SimpleNamespace(m_r=1)

    def fast(sys_p, env, model, grid, rng):
        streams.append(rng.stream)
        return SimpleNamespace(count=1)

    monkeypatch.setattr(splsim.bench, "simulate_registrations", oracle)
    monkeypatch.setattr(splsim.bench, "fast_simulate", fast)
    rng, reps = RngHandle(5), 101
    rows = run_benchmark(SystemParams(), EnvParams(4.0, 2.0, 1.0), [100, 1000], reps, None, TimeGrid(16, 10.0), rng)
    assert [(row.n_cycles, row.engine) for row in rows] == [
        (100, "oracle"), (100, "fast"), (1000, "oracle"), (1000, "fast")]
    assert streams == [rng.child(c).child(e).child(r).stream
                       for c in range(2) for e in range(2) for r in range(WARMUP_REPS + reps)]
    assert len(set(streams)) == len(streams) == 408
