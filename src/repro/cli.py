"""Command-line runner: the paper's figures and every sweep.

Usage::

    python -m repro list
    python -m repro run all
    python -m repro sweep fig07 --set samples=100
    python -m repro sweep fig07 --trace trace.json --metrics-out metrics.txt
    python -m repro sweep fig09 --jobs 2 --json fig09.json
    python -m repro sweep chaos --set "rates=(0, 8, 16)" --seed 1 --jobs 4
    python -m repro sweep chaos --plan plan.json --stream-spans spans.jsonl
    python -m repro sweep autoscale --set "loads=(1, 4, 16)" --json autoscale.json
    python -m repro sweep loadstorm --set "shards=(1, 2, 4, 8)" --jobs 4
    python -m repro certify --budget 5 --standbys 1
    python -m repro obs kinds spans.jsonl

Every figure, table and sweep is a registered sweep
(:data:`repro.experiments.base.SWEEPS`), and ``list`` prints the
registry.  ``sweep <name>`` runs one through
:func:`repro.sweep.run_sweep`: ``--set key=value`` pairs are parsed as
Python literals and passed to the sweep's ``plan_scenarios()`` (an
unknown key is a usage error naming the accepted parameters),
``--plan FILE`` replays a saved :class:`~repro.faults.FaultPlan`, and
scenarios fan out across ``--jobs`` worker processes and merge in
canonical plan order, so the report and every output file are
byte-identical at every jobs count.  Telemetry leaves a sweep one way:
each scenario streams its spans as it runs, and the parent merges the
streams in plan order.  ``--stream-spans`` keeps that JSONL stream,
``--trace`` converts it to a Chrome ``trace_event`` JSON (open in
Perfetto / about://tracing), and ``--metrics-out`` writes the
scenarios' metric registries as Prometheus-style text.

``run all`` reproduces the paper: it runs every figure and table entry
of the registry (those not in a ``*_sweep`` module) at its defaults,
through the same code as ``sweep <name>``.

``certify`` runs the ``certify`` sweep, prints any invariant violation,
and exits 1 if there was one.  ``obs`` analyses an exported span file.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import sys
import tempfile
import time
from typing import Any, Callable

from .experiments.base import SWEEPS, get_sweep, registered_sweeps
from .faults import FaultPlan
from .sweep import SweepScenarioError, run_sweep, sweep_names
from .telemetry import (
    SloConfig,
    critical_path_table,
    load_spans,
    red_rows,
    slo_episodes,
    span_summary_table,
    trace_index,
    trace_summaries,
    write_chrome_trace,
    write_prometheus_text,
)
from .analysis.tables import render_table

__all__ = ["main"]


def _figure_names() -> list[str]:
    """The paper's figures and tables: registry entries not in a sweep module."""
    return [name for name, module in SWEEPS.items() if not module.endswith("_sweep")]


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw  # plain string
    return overrides


def _trace_ref(text: str) -> tuple[int, int]:
    """``--trace-id``: ``RUN:ID``, or a bare ``ID`` in run 0."""
    run, _, trace_id = text.rpartition(":")
    try:
        return int(run or 0), int(trace_id)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ID or RUN:ID, got {text!r}") from None


def _trace_label(run: int, trace_id: int) -> str:
    return f"{run}:{trace_id}" if run else str(trace_id)


def _list_sweeps(out: Callable[[str], None]) -> None:
    sweeps = registered_sweeps()
    width = max(len(name) for name in sweeps)
    for name, sweep in sweeps.items():
        out(f"{name.ljust(width)}  {sweep.description}")


def _write_json(result, path: str | None, parser: argparse.ArgumentParser,
                out: Callable[[str], None]) -> None:
    """Write ``result.to_json()`` to ``path`` when one was given."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(result.to_json() + "\n")
        except OSError as exc:
            parser.error(f"cannot write JSON output: {exc}")
        out(f"[json -> {path}]")


def _run_sweep_command(args: argparse.Namespace,
                       parser: argparse.ArgumentParser,
                       out: Callable[[str], None]) -> int:
    """``repro sweep <name>``: plan, fan out, merge, report.

    Fan-out and in-order merge go through :func:`repro.sweep.run_sweep`,
    so the report and every output file are byte-identical at every
    ``--jobs`` count.  ``--trace`` and ``--metrics-out`` come from the
    merged span stream and the scenarios' metric samples, so they stream
    to a scratch file when ``--stream-spans`` is not given.
    """
    name = args.name
    kwargs = _parse_overrides(args.set)
    kwargs.setdefault("seed", args.seed)
    if args.plan:
        try:
            kwargs["plan"] = FaultPlan.load(args.plan)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            parser.error(f"cannot load fault plan: {exc}")
    plan_scenarios = get_sweep(name).plan
    try:
        plan_scenarios(**kwargs)  # reject bad parameters before any work
    except (TypeError, ValueError) as exc:
        accepted = ", ".join(inspect.signature(plan_scenarios).parameters)
        parser.error(f"sweep {name!r}: {exc} (parameters: {accepted})")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # Fail on an unwritable export path up front, not after the run.
    for export_path in (args.trace, args.metrics_out):
        if export_path:
            try:
                with open(export_path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write telemetry output: {exc}")
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        stream = args.stream_spans
        if stream is None and (args.trace or args.metrics_out):
            stream = os.path.join(scratch, "spans.jsonl")
        try:
            result = run_sweep(name, jobs=args.jobs, stream_spans=stream, **kwargs)
        except SweepScenarioError as exc:
            out(str(exc))
            return 1
        jobs_note = f" with {args.jobs} jobs" if args.jobs > 1 else ""
        out(result.format_report())
        out(f"[{name} completed in {time.perf_counter() - t0:.2f}s{jobs_note}]\n")
        _write_json(result, args.json_out, parser, out)
        if args.stream_spans:
            with open(stream, "r", encoding="utf-8") as fh:
                count = sum(1 for _ in fh)
            out(f"[stream: {count} spans -> {stream}]")
        if args.trace:
            n = write_chrome_trace(load_spans(stream), args.trace)
            out(f"[trace: {n} events -> {args.trace}]")
    if args.metrics_out:
        write_prometheus_text(result.metrics, args.metrics_out)
        out(f"[metrics -> {args.metrics_out}]")
    return 0


def _run_obs(args: argparse.Namespace, parser: argparse.ArgumentParser,
             out: Callable[[str], None]) -> int:
    """The ``repro obs`` family: analyse an exported span file."""
    # Reject bad arguments before reading a possibly large file.
    if args.obs_command == "slo":
        try:
            config = SloConfig(latency_threshold_s=args.threshold,
                               error_budget=args.budget, window_s=args.window)
        except ValueError as exc:
            parser.error(f"obs slo: {exc}")
    if args.obs_command == "tail" and args.count < 0:
        parser.error("obs tail: -n/--count must be >= 0")
    try:
        spans = load_spans(args.tracefile)
    except OSError as exc:
        parser.error(f"cannot read trace file: {exc}")

    if args.obs_command == "kinds":
        out(span_summary_table(spans))
        return 0

    if args.obs_command == "critical-path":
        summaries = trace_summaries(spans)
        if not summaries:
            out("no spans with a trace_id (was the run traced?)")
            return 1
        if args.all:
            rows = [[s["run"], s["trace_id"], s["root"], s["spans"],
                     f"{s['start']:.6f}", f"{s['duration_s']:.6f}"]
                    for s in summaries]
            out(render_table(["run", "trace", "root", "spans", "start",
                              "duration_s"],
                             rows, title=f"{len(summaries)} trace(s)"))
            return 0
        traces = trace_index(spans)
        if args.trace_id is not None:
            if args.trace_id not in traces:
                parser.error(f"trace {_trace_label(*args.trace_id)} "
                             f"not in {args.tracefile}")
            chosen = args.trace_id
        else:
            longest = max(summaries, key=lambda s: s["duration_s"])
            chosen = (longest["run"], longest["trace_id"])
        out(critical_path_table(traces[chosen], trace_id=_trace_label(*chosen)))
        return 0

    if args.obs_command == "slo":
        rows = [[e["run"], e["tenant"], f"{e['t']:.3f}", e["burn_rate"],
                 e["bad"], e["total"]]
                for e in slo_episodes(spans, config)]
        if rows:
            out(render_table(["run", "tenant", "t", "burn_rate", "bad", "total"],
                             rows, title=f"{len(rows)} slo.breach episode(s)"))
        else:
            out("no SLO breaches")
        return 0

    if args.obs_command == "red":
        rows = [[r["tenant"], r["count"], r["errors"], f"{r['mean']:.6f}",
                 f"{r['p50']:.6f}", f"{r['p95']:.6f}", f"{r['p99']:.6f}"]
                for r in red_rows(spans)]
        if rows:
            out(render_table(
                ["tenant", "requests", "errors", "mean_s", "p50_s", "p95_s", "p99_s"],
                rows, title="per-tenant RED rollup"))
        else:
            out("no request-root spans (capacity.invocation / rfaas.request)")
        return 0

    # obs tail
    closed = [s for s in spans if s.end is not None]
    rows = [[s.attrs.get("trace_id", ""), s.name, s.track,
             f"{s.start:.6f}", f"{s.duration:.6f}"]
            for s in closed[len(closed) - args.count:]]
    out(render_table(["trace", "span", "track", "start", "duration_s"], rows,
                     title=f"last {len(rows)} of {len(closed)} span(s)"))
    return 0


def main(argv: list[str] | None = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the registered figures and sweeps")
    run_parser = sub.add_parser(
        "run", help="'run all': every paper figure and table at its defaults",
    )
    run_parser.add_argument("experiment", choices=["all"])
    certify_parser = sub.add_parser(
        "certify",
        help="chaos certification: control-plane invariants under randomized "
             "fault schedules",
    )
    certify_parser.add_argument(
        "--budget", type=int, default=5, metavar="N",
        help="randomized schedules to run (default 5)",
    )
    certify_parser.add_argument("--seed", type=int, default=0)
    certify_parser.add_argument(
        "--standbys", type=int, default=1, metavar="K",
        help="control-plane standby replicas (default 1)",
    )
    certify_parser.add_argument(
        "--window", type=float, default=8.0, metavar="SECONDS",
        help="simulated window per schedule",
    )
    certify_parser.add_argument(
        "--events", type=int, default=6, metavar="N",
        help="fault events drawn per schedule",
    )
    certify_parser.add_argument(
        "--json", metavar="FILE", default=None, dest="json_out",
        help="write the certify sweep result as JSON",
    )
    sweep_parser = sub.add_parser(
        "sweep",
        help="run any registered figure or sweep ('sweep list' shows them) "
             "across a pool",
    )
    sweep_parser.add_argument(
        "name", choices=[*sweep_names(), "list"],
        help="registered sweep name, or 'list' to enumerate the registry",
    )
    sweep_parser.add_argument(
        "--set", action="append", default=[], metavar="key=value",
        help="override a plan_scenarios() keyword argument (repeatable)",
    )
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument(
        "--plan", metavar="FILE", default=None,
        help="JSON FaultPlan to replay (passed to the sweep as plan=)",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes to fan scenarios across (default 1; "
             "the merged result is byte-identical at any count)",
    )
    sweep_parser.add_argument("--trace", metavar="FILE", default=None,
                              help="write a Chrome trace_event JSON of the "
                                   "run's span stream")
    sweep_parser.add_argument("--metrics-out", metavar="FILE", default=None,
                              help="write a Prometheus-style text metrics "
                                   "dump of every scenario")
    sweep_parser.add_argument(
        "--stream-spans", metavar="FILE", default=None,
        help="stream spans to FILE as JSONL while the run executes "
             "(one run of ids per scenario, merged in plan order; "
             "'repro obs' analyses the file)",
    )
    sweep_parser.add_argument(
        "--json", metavar="FILE", default=None, dest="json_out",
        help="write the machine-readable sweep result as JSON",
    )
    obs_parser = sub.add_parser(
        "obs", help="causal observability: critical paths, SLO burn, RED rollups",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    kinds_parser = obs_sub.add_parser(
        "kinds", help="per-span-kind latency table of a span file",
    )
    kinds_parser.add_argument(
        "tracefile", help="a --trace (Chrome JSON) or --stream-spans (JSONL) file",
    )
    cp_parser = obs_sub.add_parser(
        "critical-path", help="the latency-determining span chain of one trace",
    )
    cp_parser.add_argument("tracefile", help="a --stream-spans JSONL "
                                             "(or --trace Chrome JSON) file")
    cp_parser.add_argument(
        "--trace-id", type=_trace_ref, default=None, metavar="[RUN:]ID",
        help="trace to analyse, in run RUN of the file (default 0); "
             "default: the longest-running trace",
    )
    cp_parser.add_argument(
        "--all", action="store_true",
        help="list every trace instead of analysing one",
    )
    slo_parser = obs_sub.add_parser(
        "slo", help="per-tenant SLO burn-rate episodes, replayed run by run",
    )
    slo_parser.add_argument("tracefile")
    slo_parser.add_argument("--threshold", type=float, default=1.0,
                            metavar="SECONDS",
                            help="latency above which a request is 'bad'")
    slo_parser.add_argument("--budget", type=float, default=0.01,
                            help="allowed bad-request fraction")
    slo_parser.add_argument("--window", type=float, default=60.0,
                            metavar="SECONDS", help="sliding window length")
    red_parser = obs_sub.add_parser(
        "red", help="per-tenant rate/errors/duration rollup of a span file",
    )
    red_parser.add_argument("tracefile")
    tail_parser = obs_sub.add_parser(
        "tail", help="the last N spans of a span file",
    )
    tail_parser.add_argument("tracefile")
    tail_parser.add_argument("-n", "--count", type=int, default=20)
    args = parser.parse_args(argv)

    if args.command == "list":
        _list_sweeps(out)
        return 0

    if args.command == "obs":
        return _run_obs(args, parser, out)

    if args.command == "certify":
        t0 = time.perf_counter()
        try:
            result = run_sweep("certify", budget=args.budget, seed=args.seed,
                               standbys=args.standbys, window_s=args.window,
                               events=args.events)
        except ValueError as exc:
            parser.error(f"certify: {exc}")
        violations = [v for point in result.points for v in point.violations]
        out(result.format_report())
        out("\n".join(violations) or "all invariants held")
        out(f"[certify completed in {time.perf_counter() - t0:.2f}s]\n")
        _write_json(result, args.json_out, parser, out)
        return 1 if violations else 0

    if args.command == "sweep":
        if args.name == "list":
            _list_sweeps(out)
            return 0
        return _run_sweep_command(args, parser, out)

    # run all
    for name in _figure_names():
        code = _run_sweep_command(parser.parse_args(["sweep", name]), parser, out)
        if code:
            return code
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
