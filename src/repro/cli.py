"""Command-line interface.

Exposes the main experiments without writing any Python::

    python -m repro.cli failover --prefixes 1000 --supercharged
    python -m repro.cli figure5 --repetitions 3 --flows 100
    python -m repro.cli microbench --updates 50000
    python -m repro.cli groups --peers 2 3 5 10
    python -m repro.cli ablations
    python -m repro.cli detection --prefixes 1000 [--json]
    python -m repro.cli remote-supercharge --prefixes 200 500 1000 [--json]
    python -m repro.cli metrics --preset figure4 --failures link_down bfd_loss [--openmetrics]
    python -m repro.cli report --preset remote-withdraw --out artifacts/report
    python -m repro.cli trace --preset figure4 --event fib.batch_drain [--out trace.jsonl]
    python -m repro.cli scenarios list
    python -m repro.cli scenarios run --preset fan --providers 4
    python -m repro.cli scenarios sweep --providers 2 3 --failures link_down \
        --workers 4 --output results.json

Every sub-command prints a plain-text report to stdout and exits non-zero
on obviously broken results (so the CLI doubles as a smoke test).  The
``--seed`` option is accepted both globally and per sub-command, so every
run is reproducible from the command line.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios import (
    PRIMARY_LINK_DOWN,
    CampaignRunner,
    ScenarioSpec,
    ScenarioSpecError,
    build_scenario,
    execute_scenario,
    expand_grid,
    get_preset,
    preset_names,
    random_fan_specs,
    run_failover,
    run_scenario,
)
from repro.sim.engine import Simulator
from repro.stats import render
from repro.telemetry.export import (
    build_campaign_report,
    render_openmetrics,
    render_report_html,
    report_to_json,
)
from repro.telemetry.process import peak_rss_mb


#: Default prefix-table sizes of ``remote-supercharge``'s convergence-vs-size curve.
REMOTE_PREFIX_COUNTS = (200, 500, 1000)


def _print_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_block(title: str, fields: Sequence[Tuple[str, Any]]) -> None:
    """An aligned ``label: value`` block; float values are milliseconds."""
    print(title)
    for label, value in fields:
        if isinstance(value, float):
            value = f"{value:8.1f} ms"
        print(f"  {label:<18}: {value}")


def _healthy(record: Dict[str, Any], prefix: str = "") -> int:
    """Exit code: 0 when the record (``all_``: the aggregate) converged and recovered."""
    return 0 if record[f"{prefix}converged"] and record[f"{prefix}recovered"] else 1


def _preset_spec(arguments: argparse.Namespace) -> ScenarioSpec:
    """The ``--preset`` with the sizing options applied."""
    sizing = {
        "num_prefixes": arguments.prefixes,
        "monitored_flows": arguments.flows,
        "num_providers": arguments.providers,
    }
    overrides = {key: value for key, value in sizing.items() if value is not None}
    if arguments.providers is not None:
        overrides.update(provider_names=None, provider_local_prefs=None)
    return get_preset(arguments.preset, seed=arguments.seed, **overrides)


#: Grid option (argparse dest) → the campaign grid key it sweeps.
GRID_AXES = {
    "providers": "num_providers",
    "prefixes_grid": "num_prefixes",
    "failures": "failure",
    "churn_rates": "churn_rate_ups",
    "churn_withdraws": "churn_withdraw_fraction",
    "remote_groups": "remote_groups",
}


def _grid(arguments: argparse.Namespace, axes: Sequence[str]) -> Dict[str, List[Any]]:
    """The campaign grid the given grid options span, in ``axes`` order
    (which names the scenarios); a lone ``link_down`` when none is set."""
    grid: Dict[str, List[Any]] = {}
    for axis in axes:
        values = getattr(arguments, axis)
        if values:
            if axis == "remote_groups":
                values = [value == "on" for value in values]
            grid[GRID_AXES[axis]] = values
    return grid or {"failure": ["link_down"]}


def _cmd_failover(arguments: argparse.Namespace) -> int:
    spec = get_preset(
        "figure4",
        num_prefixes=arguments.prefixes,
        supercharged=arguments.supercharged,
        monitored_flows=arguments.flows,
        seed=arguments.seed,
    )
    lab = build_scenario(Simulator(seed=spec.seed), spec)
    lab.bring_up()
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    stats = result.stats.as_milliseconds()
    mode = "supercharged" if arguments.supercharged else "standalone"
    fields = [
        ("median convergence", stats.median),
        ("p95 convergence", stats.p95),
        ("max convergence", stats.maximum),
    ]
    if result.detection_time is not None:
        fields.insert(0, ("failure detection", result.detection_time * 1e3))
    _print_block(f"{mode} router, {arguments.prefixes} prefixes, {arguments.flows} flows", fields)
    return 0 if result.max_convergence < 3600 else 1


# Each experiment command imports its module itself, as ``lint`` does:
# building the parser, or running any other command, loads none of them.
def _cmd_figure5(arguments: argparse.Namespace) -> int:
    from repro.experiments.figure5 import Figure5Experiment

    experiment = Figure5Experiment(
        prefix_counts=arguments.prefixes,
        repetitions=arguments.repetitions,
        monitored_flows=arguments.flows,
        seed=arguments.seed,
    )
    experiment.run()
    print(experiment.report())
    return 0


def _cmd_microbench(arguments: argparse.Namespace) -> int:
    from repro.experiments.controller_bench import ControllerMicrobench

    bench = ControllerMicrobench(updates_per_peer=arguments.updates, seed=arguments.seed)
    result = bench.run()
    print(bench.report(result))
    return 0 if result.updates_processed == 2 * arguments.updates else 1


def _cmd_groups(arguments: argparse.Namespace) -> int:
    from repro.experiments.backup_group_analysis import backup_group_counts

    results = backup_group_counts(tuple(arguments.peers), num_prefixes=arguments.prefixes)
    columns = (
        ("peers", "num_peers"),
        ("observed groups", "observed_groups"),
        ("n*(n-1) bound", "theoretical_bound"),
    )
    print(render(results, columns))
    return 0 if all(r.within_bound for r in results) else 1


def _cmd_ablations(arguments: argparse.Namespace) -> int:
    from repro.experiments.ablations import compare_fib_designs

    points = compare_fib_designs(arguments.prefixes, monitored_flows=arguments.flows)
    columns = (
        ("FIB organisation", "label"),
        ("max conv (ms)", lambda point: point.max_convergence * 1e3),
        ("median conv (ms)", lambda point: point.median_convergence * 1e3),
    )
    print(render(points, columns))
    return 0


def _cmd_detection(arguments: argparse.Namespace) -> int:
    from repro.experiments.detection import DetectionExperiment

    experiment = DetectionExperiment(
        num_prefixes=arguments.prefixes,
        monitored_flows=arguments.flows,
        prefix_fraction=arguments.fraction,
        seed=arguments.seed,
    )
    rows = experiment.run()
    # Local faults must ride on BFD, remote faults on BGP propagation.
    expected = {"local": "bfd", "remote": "bgp"}
    consistent = all(
        row["detection_path"] == expected[row["fault"]] and row["recovered"]
        for row in rows
    )
    if arguments.json:
        _print_json({"rows": rows, "consistent": consistent})
    else:
        print(experiment.report())
    return 0 if consistent else 1


def _cmd_remote_supercharge(arguments: argparse.Namespace) -> int:
    from repro.experiments.remote_supercharge import RemoteSuperchargeExperiment

    experiment = RemoteSuperchargeExperiment(
        prefix_counts=arguments.prefixes,
        monitored_flows=arguments.flows,
        num_providers=arguments.providers,
        seed=arguments.seed,
    )
    experiment.run()
    speedups = experiment.speedups()
    accepted = experiment.acceptance_ok()
    if arguments.json:
        _print_json(
            {
                "points": [point._asdict() for point in experiment.rows],
                "speedups": {str(k): v for k, v in speedups.items()},
                "acceptance_ok": accepted,
            }
        )
    else:
        print(experiment.report())
        if speedups:
            largest = max(speedups)
            print(
                f"\nlargest table ({largest} prefixes): grouped restoration"
                f" {speedups[largest]:.1f}x faster than per-prefix"
            )
    return 0 if accepted else 1


def _cmd_scenarios_list(arguments: argparse.Namespace) -> int:
    columns = (
        ("preset", "preset"),
        ("providers", "num_providers"),
        ("edges", "num_edge_routers"),
        ("SC", lambda row: "yes" if row["supercharged"] else "no"),
        ("redundant", lambda row: "yes" if row["redundant_controllers"] else "no"),
        ("failures", lambda row: ",".join(f.kind for f in row["failures"]) or "-"),
    )
    rows = [dict(get_preset(name)._asdict(), preset=name) for name in preset_names()]
    print(render(rows, columns))
    return 0


def _cmd_scenarios_run(arguments: argparse.Namespace) -> int:
    record = run_scenario(_preset_spec(arguments), timeout=arguments.timeout)
    detection = record["detection_ms"]
    mode = "supercharged" if record["supercharged"] else "standalone"
    _print_block(
        f"scenario {record['name']} ({mode}, {record['num_providers']} providers,"
        f" {record['num_prefixes']} prefixes, seed {record['seed']})",
        [
            ("failures", ", ".join(record["failures"]) or "none"),
            ("failure detection", detection if detection is not None else "       -"),
            ("median convergence", record["median_ms"]),
            ("max convergence", record["max_ms"]),
            ("converged/recovered", f"{record['converged']}/{record['recovered']}"),
        ],
    )
    return _healthy(record)


def _cmd_scenarios_sweep(arguments: argparse.Namespace) -> int:
    if arguments.random:
        flows = 20 if arguments.flows is None else arguments.flows
        specs = random_fan_specs(arguments.random, seed=arguments.seed, monitored_flows=flows)
        if arguments.prefixes is not None:
            specs = [s.with_overrides(num_prefixes=arguments.prefixes).validate() for s in specs]
    else:
        flows = {} if arguments.flows is None else {"monitored_flows": arguments.flows}
        base = get_preset(arguments.preset, seed=arguments.seed, **flows)
        specs = expand_grid(base, _grid(arguments, tuple(GRID_AXES)))
    result = CampaignRunner(specs, workers=arguments.workers, timeout=arguments.timeout).run()
    print(result.table())
    aggregate = result.aggregate()
    print(
        f"\n{aggregate['scenarios']} scenarios, workers={arguments.workers},"
        f" {result.wall_seconds:.1f}s wall ({result.throughput:.2f} scenarios/s),"
        f" worst max {aggregate['worst_max_ms']:.1f} ms"
    )
    if arguments.output:
        result.write(arguments.output)
        print(f"report written to {arguments.output}")
    return _healthy(aggregate, "all_")


def _cmd_metrics(arguments: argparse.Namespace) -> int:
    """Paper-style stage breakdown (detect → decide → push → install) for a
    preset campaign, computed from the sim-time telemetry subsystem."""
    if arguments.openmetrics:
        # Single-scenario OpenMetrics exposition: run the preset once and
        # render the registry in the Prometheus text format.
        spec = _preset_spec(arguments)
        if arguments.failures:
            spec = expand_grid(spec, {"failure": [arguments.failures[0]]})[0]
        record, lab = execute_scenario(spec, timeout=arguments.timeout)
        print(render_openmetrics(lab.telemetry.metrics), end="")
        return _healthy(record)
    specs = expand_grid(_preset_spec(arguments), _grid(arguments, ("failures", "prefixes_grid")))
    result = CampaignRunner(specs, workers=arguments.workers, timeout=arguments.timeout).run()
    aggregate = result.aggregate()
    # Scale summary: table sizes from the deterministic records, peak RSS from
    # the process gauge — kept out of ``aggregate()`` so written reports stay
    # byte-identical across serial/pooled/rerun.
    scale = {
        "rib_prefixes": sum(row["num_prefixes"] for row in result.scenarios),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    if arguments.json:
        _print_json(dict(aggregate, scale=scale))
    else:
        print(f"{result.stage_table()}\n\n{result.stage_summary()}\n")
        print(
            f"scale: {scale['rib_prefixes']} prefixes across {len(result.scenarios)} scenarios,"
            f" peak rss {scale['peak_rss_mb']:.1f} MiB"
        )
    return _healthy(aggregate, "all_")


def _cmd_report(arguments: argparse.Namespace) -> int:
    """Causal convergence provenance report: per-prefix restoration chains,
    stage waterfall and restoration CDF, written as JSON + HTML artifacts."""
    specs = [_preset_spec(arguments)]
    if arguments.failures:
        specs = expand_grid(specs[0], {"failure": arguments.failures})
    entries, summaries, code = [], [], 0
    for spec in specs:
        record, lab = execute_scenario(spec, timeout=arguments.timeout)
        code = code or _healthy(record)
        book = lab.detection
        outages = book.outages()
        entries.append(
            {
                "record": record,
                "outages": book.outage_summaries(),
                "chains": book.chains(),
                "restoration_cdf": book.restoration_cdf(
                    outages[0].outage_id if outages else None
                ),
                "profile": lab.profiler.to_dict(),
            }
        )
        deciles = record["restoration_cdf_ms"]
        cdf = "no restoration chains"
        if deciles:
            p0, p50, p100 = deciles[0], deciles[5], deciles[10]
            cdf = f"restoration p0/p50/p100 = {p0:.1f}/{p50:.1f}/{p100:.1f} ms"
        prefix_chains = sum(outage["prefixes_restored"] for outage in entries[-1]["outages"])
        summaries.append(
            f"  {record['name']}/{','.join(record['failures']) or 'none'}"
            f" seed={record['seed']}: {prefix_chains} prefix chain(s), {cdf}"
        )
    report = build_campaign_report(entries, title=f"Convergence provenance: {arguments.preset}")
    if arguments.json:
        print(report_to_json(report), end="")
        return code
    json_path, html_path = f"{arguments.out}.json", f"{arguments.out}.html"
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))
    with open(html_path, "w", encoding="utf-8") as handle:
        handle.write(render_report_html(report))
    print(
        f"provenance report: {report['scenario_count']} scenario(s),"
        f" {report['total_chains']} chain(s) ({report['total_prefix_chains']} per-prefix)"
    )
    print("\n".join(summaries))
    print(f"report written to {json_path} and {html_path}")
    return code


def _cmd_trace(arguments: argparse.Namespace) -> int:
    """Dump the structured sim-time trace of one scenario run."""
    spec = _preset_spec(arguments)
    sink = open(arguments.out, "w", encoding="utf-8") if arguments.out else nullcontext()
    with sink as trace_sink:
        record, lab = execute_scenario(spec, timeout=arguments.timeout, trace_sink=trace_sink)
    trace = lab.telemetry.trace
    events = trace.events(name=arguments.event or None)
    if arguments.limit is not None:
        events = events[-arguments.limit:]
    if arguments.json:
        events_json = [event.to_dict() for event in events]
        _print_json({"scenario": record["name"], "emitted": trace.emitted, "events": events_json})
    else:
        print(f"trace of {record['name']}: {trace.emitted} events emitted, showing {len(events)}")
        for event in events:
            fields = " ".join(f"{key}={value}" for key, value in sorted(event.fields.items()))
            print(f"  {event.at * 1e3:12.3f} ms  {event.name:<24} {fields}")
        if arguments.out:
            print(f"{trace.emitted} events written to {arguments.out}")
    return _healthy(record)


def _cmd_lint(arguments: argparse.Namespace) -> int:
    """Run the determinism linter (see docs/static_analysis.md).  Exit status
    gates CI: 0 only when there is no finding."""
    from repro.analysis import RULE_CLASSES, lint_paths  # only this command lints

    if arguments.list_rules:
        for rule in RULE_CLASSES:
            print(f"{rule.CODE}  {rule.SUMMARY}")
        return 0
    report = lint_paths(arguments.paths)
    if arguments.json:
        _print_json(report.to_dict())
    else:
        print(report.render_text())
    return 0 if report.clean else 1


#: One option: the flag and keyword arguments of an ``add_argument`` call.
Option = Tuple[str, Dict[str, Any]]
#: One command: ``(name, help, handler, options)``.
Command = Tuple[str, str, Callable[[argparse.Namespace], int], List[Option]]


def _opt(flag: str, type: Any = None, default: Any = None, help: Any = None, **rest: Any) -> Option:
    return flag, dict(rest, type=type, default=default, help=help)


def _flag(flag: str, help: Optional[str] = None) -> Option:
    return flag, dict(action="store_true", help=help)


def _sizing(prefixes: Any, flows: Optional[int], help: Any = None, **kwargs: Any) -> List[Option]:
    """``--prefixes`` / ``--flows``: table size and monitored-flow count."""
    return [_opt("--prefixes", int, prefixes, help, **kwargs), _opt("--flows", int, flows)]


def _preset_run(preset: str, prefixes_help: Any = None, **providers_kwargs: Any) -> List[Option]:
    """The options of a command that runs a named preset (read back by
    :func:`_preset_spec`); the sweep turns ``--providers`` into a grid."""
    return [
        _opt("--preset", default=preset, choices=preset_names()),
        *_sizing(None, None, prefixes_help),
        _opt("--providers", int, **providers_kwargs),
        _opt("--timeout", float, 600.0),
    ]


def _grid_options(failures_help: str) -> List[Option]:
    """The grid axes ``metrics`` and ``scenarios sweep`` share."""
    return [
        _opt("--prefixes-grid", int, help="grid: prefix-table sizes", nargs="*"),
        _opt("--failures", help=failures_help, nargs="*"),
        _opt("--workers", int, 1),
    ]


_JSON_NOT_REPORT = "emit machine-readable JSON instead of the report"

#: Every top-level command, in ``--help`` order (all but ``lint`` also take ``--seed``).
COMMANDS: Sequence[Command] = (
    ("failover", "run one failover experiment", _cmd_failover,
     [*_sizing(1_000, 50), _flag("--supercharged")]),
    ("figure5", "regenerate Figure 5", _cmd_figure5,
     [*_sizing(None, 100, nargs="*"), _opt("--repetitions", int, 3)]),
    ("microbench", "controller processing benchmark", _cmd_microbench,
     [_opt("--updates", int, 50_000)]),
    ("groups", "backup-group count analysis", _cmd_groups,
     [_opt("--peers", int, [2, 3, 5, 10], nargs="+"), _opt("--prefixes", int, 2_000)]),
    ("ablations", "compare FIB organisations", _cmd_ablations, _sizing(2_000, 20)),
    ("detection", "BFD-vs-BGP detection-time split for local vs remote faults", _cmd_detection,
     [*_sizing(1_000, 20),
      _opt("--fraction", float, 1.0, "share of the provider table a remote fault hits"),
      _flag("--json", _JSON_NOT_REPORT)]),
    ("remote-supercharge", "grouped vs per-prefix convergence for full-table remote withdraws",
     _cmd_remote_supercharge,
     [*_sizing(list(REMOTE_PREFIX_COUNTS), 12, "prefix-table sizes of the curve", nargs="*"),
      _opt("--providers", int, 2),
      _flag("--json", _JSON_NOT_REPORT)]),
    ("metrics",
     "per-stage convergence breakdown (detect/decide/push/install) for a preset campaign",
     _cmd_metrics,
     [*_preset_run("figure4"),
      *_grid_options("grid: failure campaigns (default: link_down)"),
      _flag("--json", "emit the aggregate report (incl. stage histograms) as JSON"),
      _flag("--openmetrics",
            "run the preset once and print its metrics registry in OpenMetrics text format")]),
    ("report",
     "causal provenance report: per-prefix restoration chains,"
     " stage waterfall and CDF as JSON + HTML",
     _cmd_report,
     [*_preset_run("remote-withdraw"),
      _opt("--failures", nargs="*",
           help="grid: failure campaigns (default: the preset's own failure schedule)"),
      _opt("--out", default="campaign_report",
           help="artifact base path; writes <out>.json and <out>.html"
                " (default: campaign_report)"),
      _flag("--json", "print the JSON report to stdout instead of writing artifacts")]),
    ("trace", "dump the structured sim-time trace of one scenario", _cmd_trace,
     [*_preset_run("figure4"),
      _opt("--event", help="only show events with this exact name"),
      _opt("--limit", int, help="show only the last N matching events"),
      _opt("--out", metavar="FILE",
           help="stream every emitted event to FILE as JSONL (not bounded by the ring capacity)"),
      _flag("--json", "emit the trace as JSON")]),
    ("lint", "determinism linter: AST sim-purity analysis (DET004, DET005)", _cmd_lint,
     [_opt("paths", default=["src/repro"], nargs="*",
           help="files/directories to lint (default: src/repro)"),
      _flag("--list-rules", "print the rule catalog and exit"),
      _flag("--json", "emit the report as JSON")]),
)

#: The ``scenarios`` sub-commands.
SCENARIO_COMMANDS: Sequence[Command] = (
    ("list", "list scenario presets", _cmd_scenarios_list, []),
    ("run", "run one scenario preset", _cmd_scenarios_run, _preset_run("figure4")),
    ("sweep", "run a parameter-grid campaign on a worker pool", _cmd_scenarios_sweep,
     [*_preset_run("figure4", "fixed prefix-table size (random mode)",
                   nargs="*", help="grid: provider counts"),
      *_grid_options("grid: failure campaigns (link_down, link_flap, "
                     "bfd_loss, session_reset, controller_crash, "
                     "remote_withdraw, remote_nexthop_shift, none)"),
      _opt("--churn-rates", float, nargs="*",
           help="grid: RIS churn replay speeds (updates/s, 0 = off)"),
      _opt("--churn-withdraws", float, nargs="*",
           help="grid: churn withdraw mix (fraction of prefixes)"),
      _opt("--remote-groups", nargs="*", choices=["on", "off"],
           help="grid: shared-fate remote-group planning (on/off)"),
      _opt("--random", int, 0, "run N randomized ISP-like scenarios instead of a grid"),
      _opt("--output", help="write the JSON report here")]),
)


#: SUPPRESS keeps the top-level --seed value when the sub-command omits it,
#: while still accepting `repro <command> --seed N` (every command but ``lint``).
_SEED = _opt("--seed", int, argparse.SUPPRESS, "simulation seed")


def _register(commands: Any, registry: Sequence[Command]) -> None:
    for name, help_text, handler, options in registry:
        command = commands.add_parser(name, help=help_text)
        for flag, kwargs in [*options, *([] if handler is _cmd_lint else [_SEED])]:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Supercharged-router reproduction experiments"
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    commands = parser.add_subparsers(dest="command", required=True)
    _register(commands, COMMANDS)
    scenarios = commands.add_parser("scenarios", help="declarative scenario engine")
    _register(scenarios.add_subparsers(dest="scenario_command", required=True), SCENARIO_COMMANDS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = build_parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ScenarioSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
