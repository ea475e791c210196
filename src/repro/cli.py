"""Command-line experiment runner.

Usage::

    python -m repro list
    python -m repro run fig07 --set samples=100
    python -m repro run fig07 --trace trace.json --metrics-out metrics.txt
    python -m repro run all
    python -m repro telemetry summary trace.json
    python -m repro sweep list
    python -m repro sweep chaos --set "rates=(0, 8, 16)" --seed 1 --jobs 4
    python -m repro sweep chaos --plan plan.json --spans spans.jsonl
    python -m repro sweep autoscale --set "loads=(1, 4, 16)" --json autoscale.json
    python -m repro sweep memdurability --set "factors=(1, 2, 3)" --jobs 3
    python -m repro sweep loadstorm --set "shards=(1, 2, 4, 8)" --jobs 4
    python -m repro certify --budget 5 --standbys 1

``run`` executes one figure/table module; ``--set key=value`` pairs are
parsed as Python literals and forwarded to its ``run()`` (an unknown
key is a usage error naming the accepted parameters).  ``--trace``
writes a Chrome ``trace_event`` JSON (open in Perfetto /
about://tracing), ``--spans`` a JSONL span dump, and ``--metrics-out`` a
Prometheus-style text exposition; all three observe the run through a
:class:`~repro.telemetry.TelemetryCollector` without perturbing
simulated time.

``sweep <name>`` runs any registered sweep through
:func:`repro.sweep.run_sweep`: ``--set`` pairs are the sweep's
``plan_scenarios()`` arguments, ``--plan FILE`` replays a saved
:class:`~repro.faults.FaultPlan`, and scenarios fan out across ``--jobs``
worker processes and merge in canonical plan order, so the report, the
``--json`` file, and the ``--stream-spans`` stream are byte-identical at
every jobs count.  The batch exporters (``--trace`` / ``--spans`` /
``--metrics-out``) observe the whole run in one process and therefore
require ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import sys
import time
from typing import Any, Callable

from .experiments import (
    fig01_utilization,
    fig07_latency,
    fig08_storage,
    fig09_cpu_sharing,
    fig10_utilization,
    fig11_memory_sharing,
    fig12_gpu_sharing,
    fig13_offloading,
    tab03_idle_node,
)
from .experiments.base import get_sweep, registered_sweeps
from .faults import FaultPlan, certify
from .sweep import SweepScenarioError, run_sweep, sweep_names
from .telemetry import (
    MetricsRegistry,
    RedAggregator,
    SloConfig,
    SloMonitor,
    SpanPipeline,
    TelemetryCollector,
    critical_path_table,
    load_spans,
    span_summary_table,
    trace_index,
    trace_summaries,
    write_chrome_trace,
    write_prometheus_text,
    write_spans_jsonl,
)
from .analysis.tables import render_table

__all__ = ["EXPERIMENTS", "main"]

#: name -> (module, one-line description)
EXPERIMENTS: dict[str, tuple[Any, str]] = {
    "fig01": (fig01_utilization, "Piz Daint utilization: idle nodes, memory, idle periods"),
    "fig07": (fig07_latency, "rFaaS vs libfabric invocation latency"),
    "fig08": (fig08_storage, "Lustre vs MinIO function I/O"),
    "tab03": (tab03_idle_node, "idle-node throughput with NAS functions"),
    "fig09": (fig09_cpu_sharing, "CPU sharing: batch + FaaS-like workloads"),
    "fig10": (fig10_utilization, "system utilization across placement scenarios"),
    "fig11": (fig11_memory_sharing, "remote-memory traffic perturbation"),
    "fig12": (fig12_gpu_sharing, "GPU co-location overheads"),
    "fig13": (fig13_offloading, "real offloading: Black-Scholes + MC transport"),
}


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


def _run_one(name: str, overrides: dict[str, Any], out: Callable[[str], None]) -> None:
    module, _ = EXPERIMENTS[name]
    t0 = time.perf_counter()
    result = module.run(**overrides)
    elapsed = time.perf_counter() - t0
    out(module.format_report(result))
    out(f"[{name} completed in {elapsed:.2f}s]\n")


def _make_collector(args: argparse.Namespace) -> TelemetryCollector | None:
    """A collector when any telemetry export was requested.

    With ``--stream-spans`` the collector's sink is a bounded
    :class:`SpanPipeline` streaming every span to disk as it closes;
    the batch exporters then only see the flight-recorder tail.
    """
    stream = getattr(args, "stream_spans", None)
    if stream:
        return TelemetryCollector(pipeline=SpanPipeline(stream_path=stream))
    if args.trace or args.spans or args.metrics_out:
        return TelemetryCollector()
    return None


def _export_telemetry(collector: TelemetryCollector, args: argparse.Namespace,
                      out: Callable[[str], None]) -> None:
    pipeline = collector.pipeline
    if pipeline is not None:
        pipeline.close()
        stream = getattr(args, "stream_spans", None)
        out(f"[stream: {pipeline.seen} spans -> {stream} "
            f"(peak retained {pipeline.peak_retained}, "
            f"slo breaches {len(pipeline.slo.breaches)})]")
    if args.trace:
        n = write_chrome_trace(list(collector.spans), args.trace)
        out(f"[trace: {n} events -> {args.trace}]")
    if args.spans:
        n = write_spans_jsonl(collector.spans, args.spans)
        out(f"[spans: {n} spans -> {args.spans}]")
    if args.metrics_out:
        registries = collector.registries()
        if pipeline is not None:
            registries = registries + [pipeline.metrics]
        write_prometheus_text(registries, args.metrics_out)
        out(f"[metrics -> {args.metrics_out}]")


def _list_sweeps(out: Callable[[str], None], width: int = 0) -> None:
    sweeps = registered_sweeps()
    width = max(width, *(len(name) for name in sweeps))
    for name, sweep in sweeps.items():
        out(f"{name.ljust(width)}  {sweep.description}")


def _run_sweep_command(args: argparse.Namespace,
                       parser: argparse.ArgumentParser,
                       out: Callable[[str], None]) -> int:
    """``repro sweep <name>``: plan, fan out, merge, report.

    Fan-out and in-order merge go through :func:`repro.sweep.run_sweep`,
    so the report, ``--json`` file, and ``--stream-spans`` stream are
    byte-identical at every ``--jobs`` count.  The whole-run batch
    exporters (``--trace``/``--spans``/``--metrics-out``) observe one
    process and therefore require ``--jobs 1``.
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
    batch_exports = args.trace or args.spans or args.metrics_out
    if batch_exports and args.jobs != 1:
        parser.error("--trace/--spans/--metrics-out observe the whole run in "
                     "one process; use --jobs 1 (or --stream-spans, which "
                     "works at any jobs count)")
    t0 = time.perf_counter()
    stream_stats: dict[str, int] = {}
    collector = None
    try:
        if batch_exports:
            # Whole-run collector: the batch exporters (and a combined
            # --stream-spans) see every scenario in this process.
            collector = _make_collector(args)
            with collector:
                result = run_sweep(name, jobs=1, **kwargs)
        else:
            result = run_sweep(
                name, jobs=args.jobs, stream_spans=args.stream_spans,
                stream_stats=stream_stats, **kwargs,
            )
    except SweepScenarioError as exc:
        out(str(exc))
        return 1
    jobs_note = f" with {args.jobs} jobs" if args.jobs > 1 else ""
    out(result.format_report())
    out(f"[{name} completed in {time.perf_counter() - t0:.2f}s{jobs_note}]\n")
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(result.to_json() + "\n")
        except OSError as exc:
            parser.error(f"cannot write JSON output: {exc}")
        out(f"[json -> {args.json_out}]")
    if collector is not None:
        _export_telemetry(collector, args, out)
    elif args.stream_spans:
        out(f"[stream: {stream_stats['seen']} spans -> {args.stream_spans} "
            f"(peak retained {stream_stats['peak_retained']}, "
            f"slo breaches {stream_stats['slo_breaches']})]")
    return 0


def _run_obs(args: argparse.Namespace, parser: argparse.ArgumentParser,
             out: Callable[[str], None]) -> int:
    """The ``repro obs`` family: analyse an exported span file."""
    try:
        spans = load_spans(args.tracefile)
    except OSError as exc:
        parser.error(f"cannot read trace file: {exc}")

    if args.obs_command == "critical-path":
        summaries = trace_summaries(spans)
        if not summaries:
            out("no spans with a trace_id (was the run traced?)")
            return 1
        if args.all:
            rows = [[s["trace_id"], s["root"], s["spans"],
                     f"{s['start']:.6f}", f"{s['duration_s']:.6f}"]
                    for s in summaries]
            out(render_table(["trace", "root", "spans", "start", "duration_s"],
                             rows, title=f"{len(summaries)} trace(s)"))
            return 0
        traces = trace_index(spans)
        if args.trace_id is not None:
            if args.trace_id not in traces:
                parser.error(f"trace {args.trace_id} not in {args.tracefile}")
            chosen = args.trace_id
        else:
            chosen = max(summaries, key=lambda s: s["duration_s"])["trace_id"]
        out(critical_path_table(traces[chosen], trace_id=chosen))
        return 0

    if args.obs_command == "slo":
        config = SloConfig(latency_threshold_s=args.threshold,
                           error_budget=args.budget, window_s=args.window)
        monitor = SloMonitor(MetricsRegistry(lambda: 0.0, scope="replay"), config)
        for span in spans:
            monitor.observe(span)
        rows = [[b.attrs["tenant"], f"{b.start:.3f}", b.attrs["burn_rate"],
                 b.attrs["bad"], b.attrs["total"]]
                for b in monitor.breaches]
        if rows:
            out(render_table(["tenant", "t", "burn_rate", "bad", "total"], rows,
                             title=f"{len(rows)} slo.breach episode(s)"))
        else:
            out("no SLO breaches")
        return 0

    if args.obs_command == "red":
        red = RedAggregator(MetricsRegistry(lambda: 0.0, scope="replay"))
        for span in spans:
            red.observe(span)
        rows = [[r["tenant"], r["count"], r["errors"], f"{r['mean']:.6f}",
                 f"{r['p50']:.6f}", f"{r['p95']:.6f}", f"{r['p99']:.6f}"]
                for r in red.table()]
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
            for s in closed[-max(args.count, 0):]]
    out(render_table(["trace", "span", "track", "start", "duration_s"], rows,
                     title=f"last {len(rows)} of {len(closed)} span(s)"))
    return 0


def main(argv: list[str] | None = None, out: Callable[[str], None] = print) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_parser = sub.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run_parser.add_argument(
        "--set", action="append", default=[], metavar="key=value",
        help="override a run() keyword argument (repeatable)",
    )
    run_parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace_event JSON of the run (Perfetto-loadable)",
    )
    run_parser.add_argument(
        "--spans", metavar="FILE", default=None,
        help="write a JSONL dump of all recorded spans",
    )
    run_parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write a Prometheus-style text dump of all metrics",
    )
    run_parser.add_argument(
        "--stream-spans", metavar="FILE", default=None,
        help="stream spans to FILE as JSONL while the run executes "
             "(bounded memory; batch exports then cover only the tail)",
    )
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
        help="write the machine-readable certification report as JSON",
    )
    sweep_parser = sub.add_parser(
        "sweep",
        help="run any registered sweep ('sweep list' shows them) across a pool",
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
                                   "run (requires --jobs 1)")
    sweep_parser.add_argument("--spans", metavar="FILE", default=None,
                              help="write a JSONL dump of all recorded "
                                   "spans (requires --jobs 1)")
    sweep_parser.add_argument("--metrics-out", metavar="FILE", default=None,
                              help="write a Prometheus-style text metrics "
                                   "dump (requires --jobs 1)")
    sweep_parser.add_argument(
        "--stream-spans", metavar="FILE", default=None,
        help="stream spans to FILE as JSONL while the run executes "
             "(bounded memory; works at any --jobs count)",
    )
    sweep_parser.add_argument(
        "--json", metavar="FILE", default=None, dest="json_out",
        help="write the machine-readable sweep result as JSON",
    )
    telemetry_parser = sub.add_parser(
        "telemetry", help="inspect exported telemetry",
    )
    telemetry_sub = telemetry_parser.add_subparsers(dest="telemetry_command", required=True)
    summary_parser = telemetry_sub.add_parser(
        "summary", help="per-span-kind latency table from a trace file",
    )
    summary_parser.add_argument(
        "tracefile", help="a --trace (Chrome JSON) or --spans (JSONL) file",
    )
    obs_parser = sub.add_parser(
        "obs", help="causal observability: critical paths, SLO burn, RED rollups",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    cp_parser = obs_sub.add_parser(
        "critical-path", help="the latency-determining span chain of one trace",
    )
    cp_parser.add_argument("tracefile", help="a --spans / --stream-spans JSONL "
                                             "(or --trace Chrome JSON) file")
    cp_parser.add_argument(
        "--trace-id", type=int, default=None,
        help="trace to analyse (default: the longest-running one)",
    )
    cp_parser.add_argument(
        "--all", action="store_true",
        help="list every trace instead of analysing one",
    )
    slo_parser = obs_sub.add_parser(
        "slo", help="replay request spans through the burn-rate monitor",
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
        width = max(len(name) for name in [*EXPERIMENTS, *sweep_names()])
        for name, (_, description) in EXPERIMENTS.items():
            out(f"{name.ljust(width)}  {description}")
        out("\nsweeps (repro sweep <name> --set key=value):")
        _list_sweeps(out, width)
        return 0

    if args.command == "telemetry":
        try:
            spans = load_spans(args.tracefile)
        except OSError as exc:
            parser.error(f"cannot read trace file: {exc}")
        out(span_summary_table(spans))
        return 0

    if args.command == "obs":
        return _run_obs(args, parser, out)

    if args.command == "certify":
        if args.budget < 1:
            parser.error("--budget must be >= 1")
        t0 = time.perf_counter()
        try:
            report = certify(budget=args.budget, seed=args.seed,
                             standbys=args.standbys, window_s=args.window,
                             events_per_schedule=args.events)
        except ValueError as exc:
            parser.error(f"certify: {exc}")
        out(report.format_report())
        out(f"[certify completed in {time.perf_counter() - t0:.2f}s]\n")
        if args.json_out:
            try:
                with open(args.json_out, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json() + "\n")
            except OSError as exc:
                parser.error(f"cannot write JSON output: {exc}")
            out(f"[json -> {args.json_out}]")
        return 0 if report.ok else 1

    if args.command == "sweep":
        if args.name == "list":
            _list_sweeps(out)
            return 0
        return _run_sweep_command(args, parser, out)

    overrides = _parse_overrides(args.set)
    if args.experiment == "all":
        if overrides:
            parser.error("--set is only valid with a single experiment")
    else:
        accepted = inspect.signature(EXPERIMENTS[args.experiment][0].run).parameters
        unknown = [key for key in overrides if key not in accepted]
        if unknown:
            parser.error(f"experiment {args.experiment!r}: unknown parameter(s) "
                         f"{', '.join(unknown)} (parameters: {', '.join(accepted)})")
    collector = _make_collector(args)
    # Fail on an unwritable export path up front, not after the run.
    for export_path in (args.trace, args.spans, args.metrics_out):
        if export_path:
            try:
                with open(export_path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                parser.error(f"cannot write telemetry output: {exc}")

    def run_selected() -> None:
        if args.experiment == "all":
            for name in EXPERIMENTS:
                _run_one(name, {}, out)
        else:
            _run_one(args.experiment, overrides, out)

    if collector is not None:
        with collector:
            run_selected()
        _export_telemetry(collector, args, out)
    else:
        run_selected()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
