"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


ARGS = ["--width", "9", "--holes", "1", "--hole-scale", "2.0", "--seed", "3"]


def _make_disconnected(args):
    """Two UDG-connected 3x3 clusters 50 units apart: nodes 0-8 and 9-17.

    Perturbed-grid scenarios are always connected, so the unreachable-pair
    regression needs a hand-built instance; routing 0 -> 12 crosses the gap.
    """
    import numpy as np

    from repro.core.abstraction import build_abstraction
    from repro.graphs.ldel import build_ldel
    from repro.scenarios.generators import Scenario

    base = np.array(
        [[x * 0.8, y * 0.8] for x in range(3) for y in range(3)], dtype=float
    )
    points = np.vstack([base, base + 50.0])
    sc = Scenario(
        points=points,
        hole_polygons=[],
        radius=1.0,
        width=60.0,
        height=60.0,
        seed=0,
    )
    graph = build_ldel(sc.points)
    return sc, graph, build_abstraction(graph)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.width == 14.0

    def test_route_positional(self):
        args = build_parser().parse_args(["route", "3", "7"])
        assert args.source == 3 and args.target == 7

    def test_route_batch_flags(self):
        args = build_parser().parse_args(["route", "--pairs", "5"])
        assert args.source is None and args.pairs == 5
        args = build_parser().parse_args(["route", "--batch", "0:4,1:9"])
        assert args.batch == "0:4,1:9"

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "--grid", "seed=1,2"])
        assert args.command == "sweep"
        assert args.workers == 0 and args.retries == 1
        assert args.metric == "instance" and not args.resume

    def test_sweep_requires_grid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8177
        assert args.max_batch == 512
        assert args.max_requests is None and args.mode == "hull"


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", *ARGS, "--pairs", "3"]) == 0
        out = capsys.readouterr().out
        assert "radio holes" in out
        assert "stretch" in out

    def test_route_runs(self, capsys):
        assert main(["route", "0", "40", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "delivered: True" in out
        assert "path:" in out

    def test_route_bad_ids(self, capsys):
        assert main(["route", "0", "999999", *ARGS]) == 2

    def test_route_self_pair_scores_one(self, capsys):
        # Regression: `repro route 5 5` used to die on ZeroDivisionError;
        # a delivered s == t query is exactly optimal (stretch 1.0).
        assert main(["route", "5", "5", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "delivered: True" in out
        assert "stretch:   1.000" in out

    def test_route_unreachable_pair(self, capsys, monkeypatch):
        # Regression: an unreachable pair used to crash on the infinite
        # optimum; it must exit 0, report non-delivery, and show no stretch.
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_make", _make_disconnected)
        assert main(["route", "0", "12", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "delivered: False" in out
        assert "optimal unreachable" in out
        assert "stretch:   -" in out
        assert "non-delivered" in out

    def test_route_batch_self_and_unreachable(self, capsys, monkeypatch):
        import repro.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_make", _make_disconnected)
        assert main(["route", *ARGS, "--batch", "5:5,0:12"]) == 0
        out = capsys.readouterr().out
        assert "2 queries (batched)" in out
        self_row = next(l for l in out.splitlines() if l.startswith("5 | 5"))
        assert "True" in self_row and self_row.rstrip().endswith("1")
        gap_row = next(l for l in out.splitlines() if l.startswith("0 | 12"))
        assert "False" in gap_row and gap_row.rstrip().endswith("-")

    def test_route_missing_args(self, capsys):
        assert main(["route", *ARGS]) == 2
        assert "SOURCE TARGET" in capsys.readouterr().err

    def test_route_random_batch(self, capsys):
        assert main(["route", *ARGS, "--pairs", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 queries (batched)" in out
        assert "engine caches" in out

    def test_route_explicit_batch(self, capsys):
        assert main(["route", *ARGS, "--batch", "0:40,0:40,5:20"]) == 0
        out = capsys.readouterr().out
        assert "3 queries (batched)" in out

    def test_route_batch_no_cache(self, capsys):
        assert main(["route", *ARGS, "--pairs", "3", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "3 queries (batched)" in out
        assert "engine caches" not in out

    def test_route_batch_malformed(self, capsys):
        assert main(["route", *ARGS, "--batch", "0:zed"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_route_batch_out_of_range(self, capsys):
        assert main(["route", *ARGS, "--batch", "0:999999"]) == 2

    def test_route_svg(self, tmp_path, capsys):
        svg = tmp_path / "scene.svg"
        assert main(["route", "0", "40", *ARGS, "--svg", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "</svg>" in text

    def test_bench_runs(self, capsys):
        assert main(["bench", *ARGS, "--pairs", "10"]) == 0
        out = capsys.readouterr().out
        assert "hull" in out and "greedy" in out

    def test_trace_runs(self, capsys):
        assert main(["trace", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "total rounds" in out
        assert "tree" in out
        assert "wall_s" in out  # per-stage span timers
        assert "digest" in out


class TestSweepCommand:
    GRID = ["--grid", "hole_count=0,1;seed=3"]
    BASE = ["--base", "width=8.0;height=8.0;hole_scale=2.5"]

    def test_sweep_serial(self, capsys):
        assert main(["sweep", *self.GRID, *self.BASE]) == 0
        out = capsys.readouterr().out
        assert "sweep: 2 grid points" in out
        assert "workers: 1  evaluated: 2" in out
        assert "throughput:" in out

    def test_sweep_parallel_matches_serial(self, capsys):
        assert main(["sweep", *self.GRID, *self.BASE]) == 0
        serial = capsys.readouterr().out.splitlines()
        assert main(["sweep", *self.GRID, *self.BASE, "--workers", "2"]) == 0
        parallel = capsys.readouterr().out.splitlines()
        # identical tables; only the telemetry footer differs
        assert parallel[:4] == serial[:4]

    def test_sweep_strategy_metric(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--grid",
                    "hole_count=1;seed=3;strategy='hull','greedy'",
                    *self.BASE,
                    "--metric",
                    "strategy",
                    "--pairs",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "strategy" in out and "stretch_mean" in out
        assert "hull" in out and "greedy" in out

    def test_sweep_resume_skips_completed(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(["sweep", *self.GRID, *self.BASE, "--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        assert "evaluated: 2  from checkpoint: 0" in first
        assert (
            main(["sweep", *self.GRID, *self.BASE, "--checkpoint", ck, "--resume"])
            == 0
        )
        second = capsys.readouterr().out
        assert "evaluated: 0  from checkpoint: 2" in second
        # identical result tables either way
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_sweep_resume_rejects_other_grid(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.jsonl")
        assert main(["sweep", *self.GRID, *self.BASE, "--checkpoint", ck]) == 0
        capsys.readouterr()
        rc = main(
            ["sweep", "--grid", "hole_count=0;seed=9", *self.BASE,
             "--checkpoint", ck, "--resume"]
        )
        assert rc == 1
        assert "different sweep" in capsys.readouterr().err

    def test_sweep_output_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "rows.json"
        assert (
            main(["sweep", *self.GRID, *self.BASE, "--output", str(out_path)])
            == 0
        )
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2
        assert {r["hole_count"] for r in rows} == {0, 1}

    def test_sweep_malformed_grid(self, capsys):
        assert main(["sweep", "--grid", "seed"]) == 2
        assert "malformed" in capsys.readouterr().err


class TestTraceRoundTrip:
    # small instance: the trace subcommand runs the full §5 pipeline
    TRACE_ARGS = ["--width", "7", "--holes", "0", "--seed", "5"]

    def test_export_reloads_and_redigests_identically(self, tmp_path, capsys):
        from repro.simulation import digest_events, load_jsonl

        path = tmp_path / "run.jsonl"
        assert main(["trace", *self.TRACE_ARGS, "--export", str(path)]) == 0
        out = capsys.readouterr().out
        printed = [l for l in out.splitlines() if "trace written to" in l]
        assert printed, out
        digest = printed[0].rsplit("digest ", 1)[1].rstrip(")")
        events = load_jsonl(path)
        assert events, "exported trace is empty"
        assert digest_events(events) == digest
        # byte-level identity: re-serializing the loaded events reproduces
        # the file exactly
        text = "".join(ev.to_json() + "\n" for ev in events)
        assert text == path.read_text()

    def test_diff_matches_identical_run(self, tmp_path, capsys):
        path = tmp_path / "golden.jsonl"
        assert main(["trace", *self.TRACE_ARGS, "--export", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", *self.TRACE_ARGS, "--diff", str(path)]) == 0
        assert "trace matches" in capsys.readouterr().out

    def test_diff_reports_divergence(self, tmp_path, capsys):
        path = tmp_path / "golden.jsonl"
        assert main(["trace", *self.TRACE_ARGS, "--export", str(path)]) == 0
        capsys.readouterr()
        # perturb one event in the golden file
        lines = path.read_text().splitlines()
        lines[5] = lines[5].replace('"ev":"', '"ev":"tampered_')
        path.write_text("\n".join(lines) + "\n")
        assert main(["trace", *self.TRACE_ARGS, "--diff", str(path)]) == 1
        out = capsys.readouterr().out
        assert "first divergence at event 5" in out
        assert "- expected:" in out and "+ actual:" in out

    def test_show_prints_events(self, capsys):
        assert main(["trace", *self.TRACE_ARGS, "--show", "3"]) == 0
        out = capsys.readouterr().out
        shown = [l for l in out.splitlines() if l.startswith("  {")]
        assert len(shown) == 3
        assert '"ev":' in shown[-1]


class TestChaosCommand:
    # width 8 converges fast under the default noise profile
    CHAOS_ARGS = ["--width", "8", "--holes", "1", "--hole-scale", "2.0",
                  "--seed", "2"]

    def test_chaos_recoverable(self, capsys):
        rc = main(
            ["chaos", *self.CHAOS_ARGS, "--drop", "0.1", "--pairs", "5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults injected" in out
        assert "setup completed under faults" in out

    def test_chaos_unrecoverable_reports_stage(self, capsys):
        rc = main(
            [
                "chaos",
                *self.CHAOS_ARGS,
                "--drop",
                "0.9",
                "--retries",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "setup FAILED at stage" in out

    def test_chaos_crash_and_blackout_flags(self, capsys):
        rc = main(
            [
                "chaos",
                *self.CHAOS_ARGS,
                "--drop",
                "0",
                "--crashes",
                "1",
                "--crash-round",
                "2",
                "--recover-round",
                "5",
                "--crash-stage",
                "ring_hulls",
                "--blackout",
                "2:4",
                "--blackout-stage",
                "ring_doubling",
                "--pairs",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "crashing hole-boundary nodes" in out


class TestChurnServeCommand:
    SERVE_ARGS = ["--width", "8", "--holes", "1", "--hole-scale", "2.0",
                  "--seed", "3", "--steps", "2", "--queries", "6"]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["churn-serve"])
        assert args.command == "churn-serve"
        assert args.steps == 8 and args.queries == 32
        assert not args.verify

    def test_churn_serve_runs(self, capsys):
        rc = main(["churn-serve", *self.SERVE_ARGS, "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serving under churn" in out
        assert "differential mismatches: 0" in out

    def test_churn_serve_json_artifact(self, tmp_path, capsys):
        import json

        path = tmp_path / "churn.json"
        rc = main(["churn-serve", *self.SERVE_ARGS, "--json", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert len(payload["rows"]) == 2
        assert "mean_serve_ms" in payload["summary"]
        assert "warm_query_p50_us" not in payload["summary"]
        assert "mean_survival_scoped" not in payload["summary"]
        assert all(
            "scope" not in row and "survival" not in row
            for row in payload["rows"]
        )
