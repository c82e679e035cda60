"""Alternating before/after runs of one perfbench workload, summarised as JSON.

Runs ``perfbench/run.py`` (tracing off) in two checkouts, pair by pair,
swapping which side goes first on every other pair, and writes each
side's median and quartiles of every end-to-end metric, of each run's
minor page faults and of its CPU seconds, each run's ``output_sha256``,
the environment both sides reported (core count, numpy, BLAS, commit),
``same_output``: whether both sides of every pair printed the same
digest, ``claim_check``: whether the after side's gain on ``items_per_s``
may be claimed, and ``regression_check``: whether each end-to-end metric
of ``BENCHMARK.json`` stayed within its bound.

    python3 scripts/bench_pairs.py --before ../parent --after . --workload image_fast \\
        --pairs 10 --seed 101 --seconds 30 --out BENCH_batched_image.json

A gain may be claimed only when the after side wins at least nine tenths
of the pairs (ties count for neither side), its median beats the before
side's by more than the before side's q3 - q1, and no larger share of its
operations failed.

An end-to-end metric regresses when its after median is worse than the
before median by more than the metric's ``bound``, as a fraction of the
before median, in the direction its ``better`` names. The check is
``unresolved`` when the before side's (q3 - q1) / median exceeds the bound,
unless every after run beats every before run.

Pair i uses seed ``--seed + i`` on both sides. Each checkout should be a
git clone, so that its commit is recorded. Before the first pair, both
checkouts are byte-compiled (``python -m compileall -q src perfbench``,
which writes ``.pyc`` files even under ``PYTHONDONTWRITEBYTECODE``), so
that ``setup_s`` times the import of compiled code on both sides.

A run's minor faults are the ``RUSAGE_CHILDREN`` ``ru_minflt`` difference
around it, and its CPU seconds the ``ru_utime + ru_stime`` difference: the
benchmark process and the interpreters it starts to time imports. CPU
seconds above the wall time show work spread over more than one core.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _child_usage() -> "tuple[int, float]":
    """Minor faults and CPU seconds (user + system) of every finished child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_minflt, usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; returns its environment and result lines, minor faults, CPU seconds and digest."""
    faults, cpu_s = _child_usage()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    faults_after, cpu_s_after = _child_usage()
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    digest = next(line["passes"]["output_sha256"] for line in lines if "passes" in line)
    return {"env": lines[0]["env"], "result": lines[-1], "minor_faults": faults_after - faults,
            "cpu_s": cpu_s_after - cpu_s, "output_sha256": digest}


def quartiles(values: "list[float]") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def summarise(runs: "list[dict]") -> dict:
    metrics = runs[0]["result"]["metrics"]
    return {
        "env": {k: runs[0]["env"][k] for k in ("nproc", "cpus_usable", "python", "numpy", "blas",
                                                 "blas_threads", "commit")},
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {
            name: dict(unit=spec["unit"], **quartiles([r["result"]["metrics"][name]["value"] for r in runs]))
            for name, spec in metrics.items()
        },
        "minor_faults": quartiles([r["minor_faults"] for r in runs]),
        "cpu_s": quartiles([r["cpu_s"] for r in runs]),
        "output_sha256": [r["output_sha256"] for r in runs],
    }


def claim_check(before: dict, after: dict) -> dict:
    """The claim verdict on items_per_s from two summarise() records of the same pairs."""
    b, a = before["metrics"]["items_per_s"], after["metrics"]["items_per_s"]
    wins = sum(x > y for x, y in zip(a["runs"], b["runs"]))
    wins_needed = math.ceil(9 * len(b["runs"]) / 10)
    median_gain = a["median"] - b["median"]
    before_spread = b["q3"] - b["q1"]
    no_more_failures = after["failed"] * before["attempted"] <= before["failed"] * after["attempted"]
    return {
        "metric": "items_per_s",
        "wins": wins,
        "wins_needed": wins_needed,
        "median_gain": median_gain,
        "before_spread": before_spread,
        "failed": {"before": f"{before['failed']}/{before['attempted']}",
                   "after": f"{after['failed']}/{after['attempted']}"},
        "met": wins >= wins_needed and median_gain > before_spread and no_more_failures,
    }


def regression_check(before: dict, after: dict, end_to_end: "list[dict]") -> dict:
    """Per end-to-end metric of BENCHMARK.json: the after median's relative worsening against its bound."""
    checks = {}
    for spec in end_to_end:
        b, a = before["metrics"][spec["name"]], after["metrics"][spec["name"]]
        sign = 1.0 if spec["better"] == "lower" else -1.0  # worse is larger when lower is better
        worsening = sign * (a["median"] - b["median"]) / b["median"]
        before_spread = (b["q3"] - b["q1"]) / b["median"]
        after_beats_all = max(sign * x for x in a["runs"]) < min(sign * y for y in b["runs"])
        checks[spec["name"]] = {
            "better": spec["better"],
            "bound": spec["bound"],
            "worsening": worsening,
            "within_bound": worsening <= spec["bound"],
            "before_spread": before_spread,
            "unresolved": before_spread > spec["bound"] and not after_beats_all,
        }
    return checks


def pair_count(text: str) -> int:
    """--pairs: at least two, because the summary takes quartiles over the pairs."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs for quartiles, got {pairs}")
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sides = {"before": args.before, "after": args.after}
    runs: "dict[str, list[dict]]" = {"before": [], "after": []}
    for checkout in sides.values():  # so that no timed import compiles the sources
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout, check=True)
    for i in range(args.pairs):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed + i, args.seconds))
        rates = {side: runs[side][-1]["result"]["metrics"]["items_per_s"]["value"] for side in sides}
        print(f"pair {i}: first {order[0]}, items_per_s before {rates['before']:.1f} after {rates['after']:.1f}",
              file=sys.stderr)

    before, after = summarise(runs["before"]), summarise(runs["after"])
    record = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed <{args.seed}+pair> "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "before first on even pairs, after first on odd pairs",
        "before": before,
        "after": after,
        "same_output": before["output_sha256"] == after["output_sha256"],
        "claim_check": claim_check(before, after),
        "regression_check": regression_check(before, after, json.loads(BENCHMARK.read_text())["end_to_end"]),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    check = record["claim_check"]
    print(f"items_per_s claim {'met' if check['met'] else 'not met'}: {check['wins']}/{args.pairs} wins "
          f"(need {check['wins_needed']}), median gain {check['median_gain']:.3g} vs before q3-q1 "
          f"{check['before_spread']:.3g}, failed {check['failed']['before']} -> {check['failed']['after']}; "
          f"{'same' if record['same_output'] else 'different'} output digests", file=sys.stderr)
    for name, reg in record["regression_check"].items():
        verdict = "unresolved" if reg["unresolved"] else "within" if reg["within_bound"] else "beyond"
        print(f"{name}: worse by {reg['worsening']:+.3f} ({reg['better']} is better), {verdict} bound "
              f"{reg['bound']:g}; before (q3-q1)/median {reg['before_spread']:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
