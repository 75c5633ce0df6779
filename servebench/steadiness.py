"""Steadiness proof: run each workload over several seeds and report spreads.

Usage (from the repository root)::

    python3 servebench/steadiness.py --seeds 10 [--workloads skew-450 ...]
        [--out servebench/results/steadiness.json]

For every end-to-end metric it prints the median over the seeds and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread above the metric's bound in ``BENCHMARK.json`` fails the proof;
one above a third of the bound is flagged.  The first seed is run a second time and its
cache/flush counters must repeat exactly.  The host calibration timings
of every run are reported beside the metrics, so that a spread that moves
with the calibration reads as host drift, not program drift.

Runs are sequential: the served stack and its client already use both
CPUs of the reference host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run: its result line, the ``#`` diagnostics and its
    wall time."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1]), "wall_s": time.perf_counter() - started}
    for line in lines[:-1]:
        if line.startswith("# ") and " " in line[2:]:
            label, payload = line[2:].split(" ", 1)
            if label in ("calibration", "counters"):
                out[label] = json.loads(payload)
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (q3 - q1) / median of ``values``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        repeat = run_once(workload, seeds[0], args.seconds)
        deterministic = repeat["counters"] == runs[0]["counters"]
        correct = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs + [repeat])
        rows = {}
        print(f"\n{workload}  ({len(seeds)} seeds, {args.seconds} s)")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median, share = spread(values)
            verdict = "ok"
            if share > bound:
                verdict, ok = "FAIL", False
            elif share > bound / 3:
                verdict = "wide"
            rows[name] = {"median": median, "spread": share, "bound": bound, "values": values, "verdict": verdict}
            print(f"  {name:16s} median {median:12.4f}  spread {share:7.2%}  bound {bound:5.0%}  {verdict}")
        calib = [r["calibration"]["start"] for r in runs] + [r["calibration"]["end"] for r in runs]
        calib_median, calib_spread = spread(calib)
        print(f"  calibration      median {calib_median:12.4f}  spread {calib_spread:7.2%}  (host, diagnostic)")
        # A metric whose run-to-run movement tracks the calibration loop's
        # is moving with the host, not with the program.
        per_run = [(r["calibration"]["start"] + r["calibration"]["end"]) / 2 for r in runs]
        for name, row in rows.items():
            try:
                row["host_correlation"] = statistics.correlation(per_run, row["values"])
            except statistics.StatisticsError:
                row["host_correlation"] = None
        print("  correlation with calibration: " + ", ".join(
            f"{name} {row['host_correlation']:+.2f}" for name, row in rows.items()
            if row["host_correlation"] is not None))
        walls = [r["wall_s"] for r in runs]
        print(f"  run wall time    median {statistics.median(walls):12.1f}  max {max(walls):.1f} s")
        print(f"  counters repeat exactly for seed {seeds[0]}: {deterministic}; all runs correct: {correct}")
        ok = ok and deterministic and correct
        summary["workloads"][workload] = {
            "seeds": seeds,
            "metrics": rows,
            "calibration_s": {"median": calib_median, "spread": calib_spread,
                              "per_run": [r["calibration"] for r in runs]},
            "wall_s": walls,
            "counters_repeat": deterministic,
            "all_correct": correct,
        }
    summary["ok"] = ok
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
