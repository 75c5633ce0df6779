"""Served-routing benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 servebench/run.py --workload skew-450 --seed 1 --seconds 40 --trace 0

``--trace 0`` repeats the workload's trial (a fresh server each time;
see ``harness.py``) as many times as ``--seconds`` holds on the
reference host and reports the end-to-end metrics.  ``--trace 1`` makes two passes of half the time
each in the same process layout -- untraced, then with spans installed
before every server fork -- and reports the per-layer metrics, the
tracing overhead (traced minus untraced) and checks that each request's
spans reconcile with its client latency.  ``--out FILE`` also writes
the full report as JSON.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Lines before it starting with ``#`` are diagnostics: the host calibration
timing at the start and end of the run (never used to scale results),
the deterministic cache/flush counters, and the schedule facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    return parser.parse_args(argv)


def _diag(label: str, payload: object) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def _untraced(workload, args) -> tuple[dict, dict]:
    import harness

    schedule, result = harness.run_pass(workload, args.seed, args.seconds)
    e2e = harness.end_to_end(result)
    report = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "counters": harness.counters(result.trials[0]),
        "passes": [_pass_facts(schedule, result)],
    }
    verdict = {
        "attempted": result.requests(),
        "failed": result.mismatches,
        "problems": list(result.problems),
    }
    return report, verdict


def _pass_facts(schedule, result) -> dict:
    import harness
    from workloads import tail_rank

    _, percentile = tail_rank(len(schedule.requests))
    per_trial = [harness.trial_metrics(t) for t in result.trials if t.updates and len(t.latencies) > 10]
    return {
        "trials": len(result.trials),
        "requests_per_trial": len(schedule.requests),
        "checked_against_oracle": result.checked,
        "mismatches": result.mismatches,
        "non_200": sum(1 for t in result.trials for s in t.statuses if s != 200),
        "predicted_miss_share": schedule.miss_share(),
        "tail_percentile": percentile,
        "e2e": {k: v for k, (v, _) in harness.end_to_end(result).items()},
        "per_trial": {k: [m[k] for m in per_trial] for k in harness.UNITS},
    }


def _traced(workload, args) -> tuple[dict, dict]:
    import harness
    import layers
    import spans as spanlib

    seconds = args.seconds / 2
    _, plain = harness.run_pass(workload, args.seed, seconds)
    out_dir = Path.cwd() / ".servebench"
    recorders: list = []
    patches: list = []

    def before_fork() -> None:
        recorders.append(spanlib.SpanRecorder(out_dir))
        patches.append(spanlib.install(recorders[-1]))

    def after_fork() -> None:
        patches.pop().restore()

    schedule, traced = harness.run_pass(
        workload, args.seed, seconds, before_fork=before_fork, after_fork=after_fork
    )
    trial_spans = []
    for recorder, trial in zip(recorders, traced.trials):
        span_file = recorder.path(trial.server_pid)
        try:
            trial_spans.append(spanlib.load(span_file))
        finally:
            span_file.unlink(missing_ok=True)
    counts = harness.counters(traced.trials[0])
    metrics, residuals, problems = layers.layer_metrics(traced, trial_spans, counts)
    plain_e2e = harness.end_to_end(plain)
    traced_e2e = harness.end_to_end(traced)
    metrics["tracing.overhead_p50_ms"] = traced_e2e["p50_ms"][0] - plain_e2e["p50_ms"][0]
    metrics["tracing.overhead_mean_ms"] = 1e3 * (
        statistics.fmean(x for t in traced.trials for x in t.latencies)
        - statistics.fmean(x for t in plain.trials for x in t.latencies)
    )
    problems = problems + plain.problems + traced.problems
    if harness.counters(plain.trials[0]) != counts:
        problems.append("cache/flush counters differ between the untraced and traced pass")
    if plain.trials[0].bodies != traced.trials[0].bodies:
        problems.append("traced responses differ from untraced responses")
    traced_ms = [x * 1e3 for t in traced.trials for x in t.latencies]
    report = {
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
        "counters": counts,
        "passes": [_pass_facts(schedule, plain), _pass_facts(schedule, traced)],
        "reconciliation": {
            "residual_limit_ms": layers.RESIDUAL_LIMIT_MS,
            "residual_ms_p50": statistics.median(residuals) if residuals else None,
            "residual_ms_max": max(residuals) if residuals else None,
            "requests": len(residuals),
            "spans": sum(len(s) for s in trial_spans),
            "mean_latency_ms": statistics.fmean(traced_ms),
            "layer_sum_ms": sum(metrics[m] for m in layers.QUERY_METRICS),
        },
        "problems": problems[:20],
    }
    verdict = {
        "attempted": plain.requests() + traced.requests(),
        "failed": plain.mismatches + traced.mismatches,
        "problems": problems,
    }
    return report, verdict


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "hit_rate", "survival")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"servebench: the routing package is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"servebench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    calib_start = harness.calibrate()
    report, verdict = (_traced if args.trace else _untraced)(workload, args)
    calib_end = harness.calibrate()
    report["workload"] = workload.name
    report["seed"] = args.seed
    report["seconds"] = args.seconds
    report["calibration_s"] = {"start": calib_start, "end": calib_end}
    _diag("calibration", report["calibration_s"])
    _diag("counters", report["counters"])
    _diag("passes", report["passes"])
    for problem in verdict["problems"][:20]:
        print(f"# problem: {problem}", flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    correct = verdict["failed"] == 0 and not verdict["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": report["metrics"],
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
