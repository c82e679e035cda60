"""Run one splsim benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload image_fast --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the splsim sources are taken from
``src/`` beside this directory, never from an installed copy. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, timed with tracing off; with
``--trace 1`` they are the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_REPEATS = 3  # input builds per run; setup_s takes their median
MIN_PASSES = 3     # timed passes per run, however short --seconds is


def _die(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_splsim():
    """Import splsim from this checkout's ``src/`` and return the benchmark modules."""
    if not (SRC / "splsim" / "__init__.py").is_file():
        _die(f"no splsim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import splsim

    if Path(splsim.__file__).resolve().parent != SRC / "splsim":
        _die(f"imported splsim from {splsim.__file__}, not from {SRC}")
    from perfbench import tracing, workloads

    return tracing, workloads


def _import_seconds() -> float:
    """Wall time of a fresh interpreter that imports splsim (and numpy)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import splsim"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _blas_threads() -> "int | None":
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "workload": workload.name,
        "size": args.size,
        "sizes": workload.size,
        "seed": args.seed,
        "seconds": args.seconds,
    }


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures: "list[str]" = []
        self.failed = 0

    def record(self, failures: "list[str]") -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures.extend(failures[: max(0, 10 - len(self.failures))])


class SetupClock:
    """Set-up time, sampled at intervals through a run.

    The machine's speed drifts over tens of seconds, so the import and
    build samples are spread over the whole run rather than taken back to
    back; ``setup_s`` is the median import time plus the median build time.
    """

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.imports: "list[float]" = []
        self.builds: "list[float]" = []

    def time_import(self) -> None:
        self.imports.append(_import_seconds())

    def build(self):
        t0 = time.perf_counter()
        state = self.workload.setup(self.seed)
        self.builds.append(time.perf_counter() - t0)
        return state

    def rebuild(self) -> None:
        """Time one more build and release it; the run keeps its first inputs."""
        self.workload.close(self.build())

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.builds)


def _timed_pass(workload, state, index):
    t0 = time.perf_counter()
    out = workload.run(state, index)
    return out, time.perf_counter() - t0


def measure(workload, state, seconds: float, tally: Tally, clock: SetupClock) -> dict:
    """Timed passes until they add up to ``seconds``, each checked, then pass 0 again.

    Between passes ``clock`` times an import after every second pass and
    a build at each further 1/SETUP_REPEATS of the run.
    """
    rates = []
    first_digest = None
    timed = 0.0
    index = 0
    while index < MIN_PASSES or timed < seconds:
        out, elapsed = _timed_pass(workload, state, index)
        timed += elapsed
        rates.append(out.items / elapsed)
        tally.record(workload.check(state, out))
        if index == 0:
            first_digest = workload.digest(out)
        del out  # keep one pass's output alive at a time, so peak memory is steady
        if index % 2:
            clock.time_import()
        if len(clock.builds) < SETUP_REPEATS and timed >= seconds * len(clock.builds) / SETUP_REPEATS:
            clock.rebuild()
        index += 1
    again, _ = _timed_pass(workload, state, 0)
    same = workload.digest(again) == first_digest
    del again
    tally.record([] if same else ["pass 0 run twice gave different output"])
    return {"items_per_s": rates, "digest": first_digest}


def trace(workload, state, seconds: float, tracer, tally: Tally) -> "tuple[int, float, float]":
    """Pairs of one untraced and one traced run of the same pass, in alternating order.

    Both runs of a pair must give identical output. Returns the traced
    pass count and the traced and untraced wall seconds.
    """
    workload.run(state, 0)  # warm-up, so neither side of the first pair pays for cold caches
    traced_s = untraced_s = 0.0
    start = time.perf_counter()
    pairs = 0
    while pairs < 1 or time.perf_counter() - start < seconds:
        digests = []
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    out, elapsed = _timed_pass(workload, state, pairs)
                traced_s += elapsed
            else:
                out, elapsed = _timed_pass(workload, state, pairs)
                untraced_s += elapsed
            tally.record(workload.check(state, out))
            digests.append(workload.digest(out))
            del out
        tally.record([] if digests[0] == digests[1] else ["traced and untraced runs differ"])
        pairs += 1
    return pairs, traced_s, untraced_s


def _summary(values: "list[float]") -> dict:
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": statistics.median(values), "q1": qs[0], "q3": qs[2],
            "min": min(values), "max": max(values)}


def run(args) -> dict:
    tracing, workloads = import_splsim()
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.size)
    print(json.dumps({"env": environment(workload, args)}), flush=True)
    tally = Tally()
    clock = SetupClock(workload, args.seed)
    state = None
    try:
        state = clock.build()
        workload.prepare(state)
        if args.trace:
            tracer = tracing.Tracer()
            passes, traced_s, untraced_s = trace(workload, state, args.seconds, tracer, tally)
            metrics = tracer.metrics(passes, traced_s, untraced_s)
            print(json.dumps({"trace": {"passes": passes, "traced_s": traced_s, "untraced_s": untraced_s,
                                        "absent_layers": tracer.absent()}}), flush=True)
        else:
            clock.time_import()
            m = measure(workload, state, args.seconds, tally, clock)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (clock.seconds(), "s"),
                "items_per_s": (statistics.median(m["items_per_s"]), "1/s"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
            print(json.dumps({"passes": {"item": workload.item, "import_s": _summary(clock.imports),
                                         "build_s": clock.builds,
                                         "items_per_s": _summary(m["items_per_s"]),
                                         "output_sha256": m["digest"]}}),
                  flush=True)
    finally:
        if state is not None:
            workload.close(state)
    if tally.failures:
        print(json.dumps({"failures": tally.failures}), flush=True)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    result = run(parse_args(argv))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
