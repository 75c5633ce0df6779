"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``    generate a scenario, build the abstraction, route sample pairs
``route``   route one source→target pair (optionally render an SVG)
``trace``   run the distributed §5 pipeline and print per-stage costs;
            ``--export``/``--diff`` emit and compare deterministic JSONL
            event traces (see ``docs/observability.md``)
``bench``   a quick competitiveness comparison table
``sweep``   evaluate a parameter grid, optionally over worker processes
            with a resumable JSONL checkpoint (see
            ``docs/parallel_execution.md``)
``chaos``   re-run the §5 pipeline under an injected fault plan and compare
``churn-serve`` serve a routing query stream while the network churns,
            measuring rebuild, rebind and serve latency (E15; see
            ``docs/dynamic_serving.md``)
``serve``   run the asyncio HTTP routing service (route/locate queries
            over JSON, ``/healthz`` + ``/metrics``; see
            ``docs/service.md``)
``lint``    run the model-invariant static checks (RPR001..) over sources;
            ``--deep`` adds the whole-program passes (cache-key
            soundness, nondeterminism taint, async/ownership contracts),
            ``--changed`` lints only git-dirty files, ``--baseline``
            subtracts accepted findings, ``--format sarif`` feeds code
            scanning; see ``docs/static_analysis.md`` for the catalog

All commands accept ``--width/--holes/--seed`` to shape the instance.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis.tables import format_table
from .core.abstraction import build_abstraction
from .graphs.ldel import build_ldel
from .graphs.shortest_paths import euclidean_shortest_path_length
from .routing import hull_router, sample_pairs
from .scenarios import perturbed_grid_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Competitive routing in hybrid communication networks "
        "(SPAA 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--width", type=float, default=14.0, help="region size")
        p.add_argument("--holes", type=int, default=2, help="number of radio holes")
        p.add_argument("--hole-scale", type=float, default=2.2)
        p.add_argument("--seed", type=int, default=0)

    p_demo = sub.add_parser("demo", help="scenario + abstraction + sample routes")
    common(p_demo)
    p_demo.add_argument("--pairs", type=int, default=6)

    p_route = sub.add_parser("route", help="route one pair or a batch")
    common(p_route)
    p_route.add_argument("source", type=int, nargs="?", default=None)
    p_route.add_argument("target", type=int, nargs="?", default=None)
    p_route.add_argument("--svg", type=str, default=None, help="write scene SVG")
    p_route.add_argument(
        "--pairs",
        type=int,
        default=None,
        metavar="N",
        help="route N random pairs as one engine batch instead of s/t",
    )
    p_route.add_argument(
        "--batch",
        type=str,
        default=None,
        metavar="S:T,S:T,...",
        help="route an explicit pair list as one engine batch",
    )
    p_route.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the query engine's caches",
    )

    p_trace = sub.add_parser("trace", help="distributed pipeline trace")
    common(p_trace)
    p_trace.add_argument(
        "--export",
        type=str,
        default=None,
        metavar="PATH",
        help="write the run's event trace as JSONL",
    )
    p_trace.add_argument(
        "--diff",
        type=str,
        default=None,
        metavar="PATH",
        help="compare the run's trace against a previously exported JSONL "
        "(exit 1 and print the first divergence on mismatch)",
    )
    p_trace.add_argument(
        "--show",
        type=int,
        default=0,
        metavar="N",
        help="print the last N trace events",
    )

    p_bench = sub.add_parser("bench", help="quick strategy comparison")
    common(p_bench)
    p_bench.add_argument("--pairs", type=int, default=60)

    p_sweep = sub.add_parser(
        "sweep",
        help="parameter-grid sweep (parallel, checkpointed)",
    )
    p_sweep.add_argument(
        "--grid",
        type=str,
        required=True,
        metavar="K=V1,V2;K2=...",
        help="parameters to sweep (cartesian product); non-instance keys "
        "such as `strategy` are passed to the evaluation",
    )
    p_sweep.add_argument(
        "--base",
        type=str,
        default=None,
        metavar="K=V;K2=V2",
        help="fixed parameters merged under every grid point",
    )
    p_sweep.add_argument(
        "--metric",
        choices=("instance", "strategy"),
        default="instance",
        help="row evaluation: structural counts, or routing "
        "competitiveness for --strategy",
    )
    p_sweep.add_argument(
        "--strategy",
        type=str,
        default="hull",
        help="default routing strategy for --metric strategy "
        "(override per-point with a `strategy` grid key)",
    )
    p_sweep.add_argument("--pairs", type=int, default=60)
    p_sweep.add_argument("--eval-seed", type=int, default=0)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = serial in-process)",
    )
    p_sweep.add_argument("--chunk-size", type=int, default=None)
    p_sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-grid-point time limit in seconds",
    )
    p_sweep.add_argument("--retries", type=int, default=1)
    p_sweep.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        metavar="PATH",
        help="append completed rows to a JSONL checkpoint file",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="restore completed rows from --checkpoint instead of "
        "re-evaluating them",
    )
    p_sweep.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the result rows as JSON",
    )

    p_chaos = sub.add_parser(
        "chaos", help="distributed pipeline under an injected fault plan"
    )
    common(p_chaos)
    p_chaos.add_argument("--fault-seed", type=int, default=0)
    p_chaos.add_argument("--drop", type=float, default=0.1, help="drop probability")
    p_chaos.add_argument("--duplicate", type=float, default=0.0)
    p_chaos.add_argument("--delay", type=float, default=0.0, help="delay probability")
    p_chaos.add_argument("--max-delay", type=int, default=3)
    p_chaos.add_argument(
        "--retries", type=int, default=25, help="transport retransmission budget"
    )
    p_chaos.add_argument(
        "--crashes", type=int, default=0, help="hole-boundary nodes to crash"
    )
    p_chaos.add_argument("--crash-round", type=int, default=2)
    p_chaos.add_argument(
        "--recover-round", type=int, default=None, help="default: never"
    )
    p_chaos.add_argument(
        "--crash-stage", type=str, default=None, help="restrict crashes to one stage"
    )
    p_chaos.add_argument(
        "--blackout",
        type=str,
        default=None,
        metavar="START:END",
        help="long-range outage rounds (inclusive)",
    )
    p_chaos.add_argument("--blackout-stage", type=str, default=None)
    p_chaos.add_argument("--pairs", type=int, default=20)

    p_churn = sub.add_parser(
        "churn-serve",
        help="serve a query stream under continuous churn (E15)",
    )
    common(p_churn)
    p_churn.add_argument("--steps", type=int, default=8)
    p_churn.add_argument("--queries", type=int, default=32, help="queries per step")
    p_churn.add_argument("--speed", type=float, default=0.04)
    p_churn.add_argument("--p-join", type=float, default=0.1)
    p_churn.add_argument("--p-leave", type=float, default=0.1)
    p_churn.add_argument(
        "--move-fraction",
        type=float,
        default=0.15,
        help="fraction of nodes that move on a mobility step",
    )
    p_churn.add_argument(
        "--verify",
        action="store_true",
        help="replay every batch on a cache-less engine and count mismatches",
    )
    p_churn.add_argument(
        "--json", type=str, default=None, metavar="PATH", help="write results JSON"
    )

    p_serve = sub.add_parser(
        "serve",
        help="asyncio HTTP routing service (see docs/service.md)",
    )
    common(p_serve)
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8177,
        help="listen port (0 picks an ephemeral port)",
    )
    p_serve.add_argument(
        "--mode",
        choices=("hull", "visibility", "delaunay"),
        default="hull",
        help="default router mode of the initial instance",
    )
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=512,
        help="pair budget for one coalesced route_many call",
    )
    p_serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        help="wait this long after the first queued request before "
        "draining, so sparse bursts coalesce (0 = no added latency)",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve with the query engine's caches disabled",
    )
    p_serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="shut down after N handled requests (smoke runs/tests)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="serve with N forked worker processes sharing the port via "
        "SO_REUSEPORT (1 = single-process, in-loop serving)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="DEPTH",
        help="admission bound on queued route requests per engine; "
        "overflow is shed with 429 + Retry-After (default: unbounded)",
    )
    p_serve.add_argument(
        "--warm-nodes",
        type=int,
        default=0,
        metavar="K",
        help="pre-warm each worker's engine by locating ~K spread nodes "
        "before serving (multi-process mode)",
    )

    p_lint = sub.add_parser(
        "lint", help="model-invariant static analysis (RPR rule suite)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "github", "sarif"),
        default="text",
        help=(
            "report format (text, json, GitHub workflow annotations, or "
            "SARIF 2.1.0 for code scanning)"
        ),
    )
    p_lint.add_argument(
        "--deep",
        action="store_true",
        help=(
            "run the whole-program analyzer (call graph + dataflow: "
            "RPR2xx/RPR3xx) on top of the syntactic rules"
        ),
    )
    p_lint.add_argument(
        "--changed",
        action="store_true",
        help=(
            "lint only git-dirty .py files (staged, unstaged, untracked); "
            "with --deep the project is built from those files alone, so "
            "cross-file resolution is limited to the changed set"
        ),
    )
    p_lint.add_argument(
        "--baseline",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "subtract findings recorded in this baseline file; only new "
            "findings fail the run"
        ),
    )
    p_lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="record the current findings into --baseline and exit 0",
    )
    p_lint.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p_lint.add_argument(
        "--output",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the report (in the chosen format) to a file",
    )
    p_lint.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts to the text report",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )

    return parser


def _make(args) -> tuple:
    sc = perturbed_grid_scenario(
        width=args.width,
        height=args.width,
        hole_count=args.holes,
        hole_scale=args.hole_scale,
        seed=args.seed,
    )
    graph = build_ldel(sc.points)
    abst = build_abstraction(graph)
    return sc, graph, abst


def cmd_demo(args) -> int:
    sc, graph, abst = _make(args)
    inner = [h for h in abst.holes if not h.is_outer]
    print(
        f"n={sc.n} nodes, {len(inner)} radio holes, "
        f"{len(abst.hull_nodes())} hull corners, "
        f"hulls disjoint: {abst.hulls_disjoint()}"
    )
    router = hull_router(abst)
    rng = np.random.default_rng(args.seed + 1)
    rows = []
    for s, t in sample_pairs(sc.n, args.pairs, rng):
        out = router.route(s, t)
        opt = euclidean_shortest_path_length(graph.points, graph.udg, s, t)
        rows.append(
            {
                "s": s,
                "t": t,
                "case": out.case,
                "hops": len(out.path) - 1,
                "stretch": round(out.length(graph.points) / opt, 3),
            }
        )
    print(format_table(rows))
    return 0


def _parse_batch(spec: str, n: int) -> list[tuple]:
    pairs = []
    for chunk in spec.split(","):
        s, _, t = chunk.partition(":")
        try:
            pair = (int(s), int(t))
        except ValueError:
            raise ValueError(f"malformed pair {chunk!r} (expected S:T)")
        if not (0 <= pair[0] < n and 0 <= pair[1] < n):
            raise ValueError(f"pair {chunk!r} outside [0, {n})")
        pairs.append(pair)
    return pairs


def _route_batch(args, sc, graph, engine, metrics) -> int:
    import math

    from .service.contracts import route_record

    if args.batch is not None:
        try:
            pairs = _parse_batch(args.batch, sc.n)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        rng = np.random.default_rng(args.seed + 1)
        pairs = sample_pairs(sc.n, args.pairs, rng)
    rows = []
    for out in engine.route_many(pairs):
        rec = route_record(
            out, graph.points, engine.optimal(out.source, out.target)
        )
        rows.append(
            {
                "s": out.source,
                "t": out.target,
                "case": out.case,
                "delivered": rec.delivered,
                "hops": len(out.path) - 1,
                "stretch": round(rec.stretch, 3)
                if math.isfinite(rec.stretch)
                else "-",
            }
        )
    print(format_table(rows, title=f"n={sc.n}, {len(pairs)} queries (batched)"))
    if not args.no_cache:
        cache_rows = [
            {"cache": name, **{k: round(v, 3) for k, v in row.items()}}
            for name, row in metrics.cache_summary().items()
        ]
        print(format_table(cache_rows, title="engine caches"))
    return 0


def cmd_route(args) -> int:
    """Route one pair or a batch — both through the same `QueryEngine`.

    Scoring follows the evaluation-path rules (PR 3, shared via
    `repro.service.contracts.route_record`): an unreachable pair is
    reported non-delivered with no stretch, and a degenerate ``s == t``
    query scores stretch 1.0 against its zero-length optimum.
    """
    import math

    from .routing import QueryEngine
    from .service.contracts import route_record
    from .simulation.metrics import MetricsCollector

    sc, graph, abst = _make(args)
    metrics = MetricsCollector()
    engine = QueryEngine(
        abst,
        "hull",
        udg=graph.udg,
        caching=not args.no_cache,
        metrics=metrics,
    )
    if args.pairs is not None or args.batch is not None:
        return _route_batch(args, sc, graph, engine, metrics)
    if args.source is None or args.target is None:
        print("route needs SOURCE TARGET (or --pairs/--batch)", file=sys.stderr)
        return 2
    if not (0 <= args.source < sc.n and 0 <= args.target < sc.n):
        print(f"node ids must be in [0, {sc.n})", file=sys.stderr)
        return 2
    out = engine.route(args.source, args.target)
    opt = engine.optimal(args.source, args.target)
    rec = route_record(out, graph.points, opt)
    opt_text = f"{opt:.3f}" if math.isfinite(opt) else "unreachable"
    stretch_text = (
        f"{rec.stretch:.3f}" if math.isfinite(rec.stretch) else "-"
    )
    print(f"case:      {out.case}")
    print(f"delivered: {rec.delivered}")
    print(f"hops:      {len(out.path) - 1}")
    print(f"length:    {rec.path_length:.3f} (optimal {opt_text})")
    print(f"stretch:   {stretch_text}")
    print(f"waypoints: {out.waypoints}")
    print(f"path:      {out.path}")
    if not rec.reachable:
        print(
            "target is unreachable from source in the UDG; "
            "the pair counts as non-delivered and has no stretch"
        )
    if args.svg:
        from .analysis.viz import render_scene

        with open(args.svg, "w") as fh:
            fh.write(render_scene(abst, routes=[out.path]))
        print(f"scene written to {args.svg}")
    return 0


def cmd_trace(args) -> int:
    from .protocols.setup import run_distributed_setup
    from .simulation.tracing import (
        TraceRecorder,
        first_divergence,
        format_divergence,
        load_jsonl,
    )

    sc, graph, abst = _make(args)
    recorder = TraceRecorder()
    setup = run_distributed_setup(
        sc.points, seed=args.seed, udg=graph.udg, trace=recorder
    )
    rows = [
        {
            "stage": stage,
            "rounds": int(m["rounds"]),
            "adhoc": int(m["adhoc_messages"]),
            "long_range": int(m["long_range_messages"]),
            "wall_s": round(spans.get(stage, {}).get("seconds", 0.0), 3),
        }
        for spans in (recorder.span_report(),)
        for stage, m in setup.stage_metrics.items()
    ]
    print(format_table(rows, title=f"distributed pipeline on n={sc.n}"))
    print(f"total rounds: {setup.total_rounds}")
    print(f"trace: {len(recorder)} events, digest {recorder.digest()}")
    if args.show:
        for ev in recorder.events()[-args.show :]:
            print(f"  {ev.to_json()}")
    if args.export:
        digest = recorder.export_jsonl(args.export)
        print(f"trace written to {args.export} (digest {digest})")
    if args.diff:
        golden = load_jsonl(args.diff)
        div = first_divergence(golden, recorder.events())
        if div is not None:
            print(format_divergence(div, golden, recorder.events()))
            return 1
        print(f"trace matches {args.diff} ({len(golden)} events)")
    return 0


def cmd_bench(args) -> int:
    from .analysis.experiments import Instance, strategy_route_fn
    from .routing.competitiveness import evaluate_routing

    sc, graph, abst = _make(args)
    inst = Instance(scenario=sc, graph=graph, abstraction=abst)
    rng = np.random.default_rng(args.seed + 2)
    pairs = sample_pairs(sc.n, args.pairs, rng)
    rows = []
    for strategy in ("hull", "greedy", "greedy_face", "goafr"):
        fn = strategy_route_fn(inst, strategy)
        rep = evaluate_routing(graph.points, graph.udg, fn, pairs)
        s = rep.summary()
        rows.append(
            {
                "strategy": strategy,
                "delivery": round(s["delivery_rate"], 3),
                "stretch_mean": round(s["stretch_mean"], 3),
                "stretch_max": round(s["stretch_max"], 3),
            }
        )
    print(format_table(rows, title=f"n={sc.n}, {args.pairs} pairs"))
    return 0


def _parse_param_spec(spec: str, *, lists: bool) -> dict:
    """Parse ``k=v1,v2;k2=v3`` into a dict (value lists when ``lists``)."""
    import ast

    def value(tok: str):
        try:
            return ast.literal_eval(tok)
        except (ValueError, SyntaxError):
            return tok

    out: dict = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, rest = chunk.partition("=")
        if not eq or not key.strip() or not rest.strip():
            raise ValueError(f"malformed parameter {chunk!r} (expected K=V)")
        vals = [value(tok.strip()) for tok in rest.split(",") if tok.strip()]
        out[key.strip()] = vals if lists else vals[0]
    return out


def cmd_sweep(args) -> int:
    import functools
    import json

    from .analysis.executor import CheckpointMismatch, SweepPointError
    from .analysis.experiments import competitiveness_row, instance_summary_row
    from .analysis.sweeps import run_sweep
    from .simulation.metrics import ExecutorTelemetry

    try:
        grid = _parse_param_spec(args.grid, lists=True)
        base = _parse_param_spec(args.base, lists=False) if args.base else None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.metric == "strategy":
        evaluate = functools.partial(
            competitiveness_row,
            strategy=args.strategy,
            pair_count=args.pairs,
            eval_seed=args.eval_seed,
        )
    else:
        evaluate = instance_summary_row
    telemetry = ExecutorTelemetry()
    try:
        rows = run_sweep(
            grid,
            evaluate,
            base=base,
            workers=args.workers,
            chunk_size=args.chunk_size,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
            resume=args.resume,
            telemetry=telemetry,
        )
    except (CheckpointMismatch, SweepPointError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(format_table(rows, title=f"sweep: {len(rows)} grid points"))
    t = telemetry.summary()
    print(
        f"workers: {telemetry.workers}  evaluated: {telemetry.rows_completed}"
        f"  from checkpoint: {telemetry.rows_from_checkpoint}"
        f"  infeasible: {telemetry.infeasible_rows}"
        f"  retries: {telemetry.retries}  timeouts: {telemetry.timeouts}"
    )
    print(
        f"throughput: {t['rows_per_second']:.2f} rows/s"
        f"  utilization: {t['worker_utilization']:.0%}"
        f"  wall: {t['wall_seconds']:.2f}s"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        print(f"rows written to {args.output}")
    return 0


def cmd_chaos(args) -> int:
    from .protocols.setup import run_distributed_setup
    from .scenarios.adversarial import hole_boundary_targets
    from .simulation import Blackout, ChannelFaults, CrashEvent, FaultPlan

    sc, graph, abst = _make(args)
    baseline = run_distributed_setup(sc.points, seed=args.seed, udg=graph.udg)

    crashes = ()
    if args.crashes:
        targets = hole_boundary_targets(
            baseline.abstraction, args.crashes, seed=args.fault_seed
        )
        crashes = tuple(
            CrashEvent(
                node=v,
                at_round=args.crash_round,
                recover_round=args.recover_round,
                stage=args.crash_stage,
            )
            for v in targets
        )
        print(f"crashing hole-boundary nodes: {[c.node for c in crashes]}")
    blackouts = ()
    if args.blackout:
        start, _, end = args.blackout.partition(":")
        blackouts = (
            Blackout(start=int(start), end=int(end), stage=args.blackout_stage),
        )
    noise = ChannelFaults(
        drop=args.drop,
        duplicate=args.duplicate,
        delay=args.delay,
        max_delay=args.max_delay,
    )
    plan = FaultPlan(
        seed=args.fault_seed,
        adhoc=noise,
        long_range=noise,
        crashes=crashes,
        blackouts=blackouts,
        retries=args.retries,
    )
    faulted = run_distributed_setup(
        sc.points, seed=args.seed, udg=graph.udg, faults=plan
    )

    rows = []
    for stage in baseline.stage_metrics:
        fm = faulted.stage_metrics.get(stage)
        rows.append(
            {
                "stage": stage,
                "clean_rounds": int(baseline.stage_metrics[stage]["rounds"]),
                "faulty_rounds": "-" if fm is None else int(fm["rounds"]),
            }
        )
    print(format_table(rows, title=f"pipeline under faults on n={sc.n}"))
    injected = {k: v for k, v in faulted.fault_summary().items() if v}
    print(f"faults injected: {injected or 'none'}")
    print(
        f"rounds: {baseline.total_rounds} clean -> {faulted.total_rounds} faulty"
    )
    if not faulted.ok:
        print(f"setup FAILED at stage: {faulted.failed_stage}")
        return 1
    router = hull_router(faulted.abstraction)
    rng = np.random.default_rng(args.seed + 1)
    pairs = sample_pairs(sc.n, args.pairs, rng)
    reached = sum(1 for s, t in pairs if router.route(s, t).reached)
    print(f"setup completed under faults; delivery: {reached}/{len(pairs)}")
    return 0


def cmd_churn_serve(args) -> int:
    import json

    from .analysis.churn import run_churn_serving

    res = run_churn_serving(
        width=args.width,
        height=args.width,
        hole_count=args.holes,
        hole_scale=args.hole_scale,
        seed=args.seed,
        steps=args.steps,
        queries_per_step=args.queries,
        speed=args.speed,
        p_join=args.p_join,
        p_leave=args.p_leave,
        move_fraction=args.move_fraction,
        verify=args.verify,
    )
    rows = [
        {
            k: (round(v, 3) if isinstance(v, float) else v)
            for k, v in row.items()
        }
        for row in res["rows"]
    ]
    print(format_table(rows, title="serving under churn (E15)"))
    s = res["summary"]
    print(
        f"mean rebuild {s['mean_rebuild_ms']:.1f} ms, "
        f"mean rebind {s['mean_rebind_ms']:.2f} ms, "
        f"mean serve {s['mean_serve_ms']:.1f} ms"
    )
    print(f"availability: {s['mean_availability']:.3f}")
    if args.verify:
        print(f"differential mismatches: {s['mismatches']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=2, sort_keys=True, default=str)
        print(f"wrote {args.json}")
    return 0 if s.get("mismatches", 0) == 0 else 1


def cmd_serve(args) -> int:
    import asyncio

    from .service import InstanceRegistry, RoutingService

    params = {
        "width": args.width,
        "height": args.width,
        "hole_count": args.holes,
        "hole_scale": args.hole_scale,
        "seed": args.seed,
        "mode": args.mode,
    }
    if args.workers > 1:
        return _serve_multiproc(args, params)
    registry = InstanceRegistry(
        caching=not args.no_cache,
        max_batch=args.max_batch,
        batch_window=args.batch_window_ms / 1000.0,
        queue_limit=args.queue_limit,
    )
    service = RoutingService(registry, max_requests=args.max_requests)

    async def run() -> None:
        instance = await registry.create(params)
        await service.start(args.host, args.port)
        print(
            f"serving instance {instance.digest[:12]} "
            f"(n={instance.n}, {instance.holes} holes, mode={instance.mode}) "
            f"on http://{args.host}:{service.port}",
            flush=True,
        )
        print(
            "endpoints: /healthz /metrics /v1/instances /v1/route "
            "/v1/route/batch /v1/locate",
            flush=True,
        )
        try:
            await service.wait_done()
        finally:
            await service.shutdown()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_multiproc(args, params: dict) -> int:
    """`repro serve --workers N`: the SO_REUSEPORT process group."""
    import time

    from .analysis.experiments import make_instance
    from .service import InstanceStore, ServiceSupervisor

    build = {k: v for k, v in params.items() if k != "mode"}
    inst = make_instance(**build)
    store = InstanceStore()
    entry = store.publish(
        inst.abstraction, inst.graph.udg, mode=params["mode"], params=params
    )
    supervisor = ServiceSupervisor(
        store,
        workers=args.workers,
        host=args.host,
        port=args.port,
        caching=not args.no_cache,
        max_batch=args.max_batch,
        batch_window=args.batch_window_ms / 1000.0,
        queue_limit=args.queue_limit,
        warm_nodes=args.warm_nodes,
    )
    supervisor.start()
    pids = ", ".join(str(h.pid) for h in supervisor.handles())
    print(
        f"serving instance {entry.digest[:12]} "
        f"(n={entry.n}, {entry.holes} holes, mode={entry.mode}) "
        f"on http://{args.host}:{supervisor.port} "
        f"with {args.workers} workers (pids {pids})",
        flush=True,
    )
    print(
        "endpoints: /healthz /metrics /v1/instances /v1/route "
        "/v1/route/batch /v1/locate",
        flush=True,
    )
    try:
        while supervisor.alive() == args.workers:
            time.sleep(0.5)
        print("a worker exited; shutting down", flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        supervisor.stop()
    return 0


def _changed_python_files() -> list[str]:
    """Git-dirty ``.py`` files (staged, unstaged, untracked) in this repo."""
    import subprocess

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", "") or str(exc)
        raise RuntimeError(f"--changed needs a git checkout: {detail.strip()}")
    files: set[str] = set()
    for line in status.splitlines():
        if len(line) < 4:
            continue
        path = line[3:]
        if " -> " in path:  # rename: lint the new name
            path = path.split(" -> ")[-1]
        path = path.strip().strip('"')
        if not path.endswith(".py"):
            continue
        full = os.path.join(top, path)
        if os.path.exists(full):  # deletions have nothing to lint
            files.add(os.path.relpath(full))
    return sorted(files)


def cmd_lint(args) -> int:
    from .devtools import (
        apply_baseline,
        deep_lint_paths,
        deep_rule_catalog,
        is_deep_code,
        lint_paths,
        load_baseline,
        render_github,
        render_json,
        render_sarif,
        render_text,
        rule_catalog,
        write_baseline,
    )

    if args.list_rules:
        rows = [
            {
                "code": r["code"],
                "tier": "syntactic",
                "name": r["name"],
                "scope": r["scope"],
            }
            for r in rule_catalog()
        ] + [
            {
                "code": r["code"],
                "tier": "deep",
                "name": r["name"],
                "scope": r["scope"],
            }
            for r in deep_rule_catalog()
        ]
        rows.sort(key=lambda r: r["code"])
        print(format_table(rows, title="repro lint rule catalog"))
        return 0
    select = (
        [c.strip() for c in args.select.split(",") if c.strip()]
        if args.select
        else None
    )
    if select and not args.deep:
        deep_selected = sorted(c for c in select if is_deep_code(c))
        if deep_selected:
            print(
                f"rule code(s) {', '.join(deep_selected)} are whole-program "
                "rules; add --deep to run them",
                file=sys.stderr,
            )
            return 2
    if args.update_baseline and not args.baseline:
        print("--update-baseline requires --baseline PATH", file=sys.stderr)
        return 2
    paths = args.paths
    if args.changed:
        try:
            paths = _changed_python_files()
        except RuntimeError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not paths:
            print("no changed python files")
            return 0
    try:
        if args.deep:
            report = deep_lint_paths(paths, select=select)
        else:
            report = lint_paths(paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.baseline and args.update_baseline:
        n = write_baseline(args.baseline, report)
        print(f"baseline updated: {n} finding(s) recorded in {args.baseline}")
        return 0
    baselined = 0
    if args.baseline:
        try:
            allowed = load_baseline(args.baseline)
        except (FileNotFoundError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        baselined = apply_baseline(report, allowed)
    renderers = {
        "text": lambda r: render_text(r, statistics=args.statistics),
        "json": render_json,
        "github": render_github,
        "sarif": render_sarif,
    }
    rendered = renderers[args.format](report)
    if rendered:
        print(rendered)
    if baselined and args.format == "text":
        print(f"{baselined} baselined finding(s) not counted")
    if args.output:
        if args.output.endswith(".sarif"):
            out_format = "sarif"
        elif args.output.endswith(".json"):
            out_format = "json"
        else:
            out_format = args.format
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(renderers[out_format](report))
            fh.write("\n")
    return report.exit_code


COMMANDS = {
    "demo": cmd_demo,
    "route": cmd_route,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "sweep": cmd_sweep,
    "chaos": cmd_chaos,
    "churn-serve": cmd_churn_serve,
    "serve": cmd_serve,
    "lint": cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the chosen command."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
