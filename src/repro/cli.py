"""Command-line interface.

Exposes the main experiments without writing any Python::

    python -m repro.cli failover --prefixes 1000 --supercharged
    python -m repro.cli figure5 --repetitions 3 --flows 100
    python -m repro.cli microbench --updates 50000
    python -m repro.cli groups --peers 2 3 5 10
    python -m repro.cli ablations
    python -m repro.cli detection --prefixes 1000 [--json]
    python -m repro.cli remote-supercharge --prefixes 200 500 1000 [--json]
    python -m repro.cli metrics --preset figure4 --failures link_down bfd_loss
    python -m repro.cli metrics --preset figure4 --openmetrics
    python -m repro.cli report --preset remote-withdraw --out artifacts/report
    python -m repro.cli trace --preset figure4 --event fib.batch_drain
    python -m repro.cli trace --preset figure4 --out trace.jsonl
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
import dataclasses
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis import (
    ALL_RULES,
    Baseline,
    LintConfig,
    RULES_BY_CODE,
    lint_paths,
)
from repro.experiments.ablations import compare_fib_designs
from repro.experiments.backup_group_analysis import backup_group_counts
from repro.experiments.controller_bench import ControllerMicrobench
from repro.experiments.detection import DetectionExperiment
from repro.experiments.figure5 import Figure5Experiment, active_prefix_counts
from repro.experiments.remote_supercharge import (
    DEFAULT_PREFIX_COUNTS as REMOTE_PREFIX_COUNTS,
    RemoteSuperchargeExperiment,
)
from repro.experiments.stats import BoxStats, format_table
from repro.scenarios import (
    CampaignRunner,
    ScenarioSpecError,
    build_scenario,
    execute_scenario,
    expand_grid,
    get_preset,
    preset_names,
    random_fan_specs,
    run_scenario,
)
from repro.sim.engine import Simulator
from repro.telemetry.export import (
    build_campaign_report,
    render_openmetrics,
    render_report_html,
    report_to_json,
)
from repro.telemetry.process import peak_rss_mb


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
    result = lab.run_single_failover()
    stats = BoxStats.from_samples(result.samples)
    mode = "supercharged" if arguments.supercharged else "standalone"
    print(f"{mode} router, {arguments.prefixes} prefixes, {arguments.flows} flows")
    if result.detection_time is not None:
        print(f"  failure detection : {result.detection_time * 1e3:8.1f} ms")
    print(f"  median convergence: {stats.median * 1e3:8.1f} ms")
    print(f"  p95 convergence   : {stats.p95 * 1e3:8.1f} ms")
    print(f"  max convergence   : {stats.maximum * 1e3:8.1f} ms")
    return 0 if stats.maximum < 3600 else 1


def _cmd_figure5(arguments: argparse.Namespace) -> int:
    counts = arguments.prefixes or list(active_prefix_counts())
    experiment = Figure5Experiment(
        prefix_counts=counts,
        repetitions=arguments.repetitions,
        monitored_flows=arguments.flows,
        seed=arguments.seed,
    )
    experiment.run()
    print(experiment.report())
    return 0


def _cmd_microbench(arguments: argparse.Namespace) -> int:
    bench = ControllerMicrobench(updates_per_peer=arguments.updates, seed=arguments.seed)
    result = bench.run()
    print(bench.report(result))
    return 0 if result.updates_processed == 2 * arguments.updates else 1


def _cmd_groups(arguments: argparse.Namespace) -> int:
    results = backup_group_counts(
        peer_counts=tuple(arguments.peers), num_prefixes=arguments.prefixes
    )
    rows = [
        [str(r.num_peers), str(r.observed_groups), str(r.theoretical_bound)]
        for r in results
    ]
    print(format_table(["peers", "observed groups", "n*(n-1) bound"], rows))
    return 0 if all(r.within_bound for r in results) else 1


def _cmd_ablations(arguments: argparse.Namespace) -> int:
    points = compare_fib_designs(
        num_prefixes=arguments.prefixes, monitored_flows=arguments.flows
    )
    rows = [
        [point.label, f"{point.max_convergence * 1e3:.1f}", f"{point.median_convergence * 1e3:.1f}"]
        for point in points
    ]
    print(format_table(["FIB organisation", "max conv (ms)", "median conv (ms)"], rows))
    return 0


def _cmd_detection(arguments: argparse.Namespace) -> int:
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
        row.detection_path == expected[row.fault] and row.recovered for row in rows
    )
    if arguments.json:
        print(
            json.dumps(
                {
                    "rows": [dataclasses.asdict(row) for row in rows],
                    "consistent": consistent,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(experiment.report())
    return 0 if consistent else 1


def _cmd_remote_supercharge(arguments: argparse.Namespace) -> int:
    experiment = RemoteSuperchargeExperiment(
        prefix_counts=arguments.prefixes,
        monitored_flows=arguments.flows,
        num_providers=arguments.providers,
        seed=arguments.seed,
    )
    experiment.run()
    speedups = experiment.speedups()
    if arguments.json:
        print(
            json.dumps(
                {
                    "points": [point.to_dict() for point in experiment.rows],
                    "speedups": {str(k): v for k, v in speedups.items()},
                    "acceptance_ok": experiment.acceptance_ok(),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if experiment.acceptance_ok() else 1
    print(experiment.report())
    if speedups:
        largest = max(speedups)
        print(
            f"\nlargest table ({largest} prefixes): grouped restoration"
            f" {speedups[largest]:.1f}x faster than per-prefix"
        )
    return 0 if experiment.acceptance_ok() else 1


def _cmd_scenarios_list(arguments: argparse.Namespace) -> int:
    rows = []
    for name in preset_names():
        spec = get_preset(name)
        failures = ",".join(f.kind for f in spec.failures) or "-"
        rows.append(
            [
                name,
                str(spec.num_providers),
                str(spec.num_edge_routers),
                "yes" if spec.supercharged else "no",
                "yes" if spec.redundant_controllers else "no",
                failures,
            ]
        )
    print(format_table(
        ["preset", "providers", "edges", "SC", "redundant", "failures"], rows
    ))
    return 0


def _scenario_overrides(arguments: argparse.Namespace) -> dict:
    overrides = {"seed": arguments.seed}
    if arguments.prefixes is not None:
        overrides["num_prefixes"] = arguments.prefixes
    if arguments.flows is not None:
        overrides["monitored_flows"] = arguments.flows
    if getattr(arguments, "providers", None) is not None:
        overrides["num_providers"] = arguments.providers
        overrides["provider_names"] = None
        overrides["provider_local_prefs"] = None
    return overrides


def _cmd_scenarios_run(arguments: argparse.Namespace) -> int:
    spec = get_preset(arguments.preset, **_scenario_overrides(arguments))
    record = run_scenario(spec, timeout=arguments.timeout)
    detection = (
        f"{record['detection_ms']:8.1f} ms"
        if record["detection_ms"] is not None
        else "       -"
    )
    mode = "supercharged" if record["supercharged"] else "standalone"
    print(
        f"scenario {record['name']} ({mode}, {record['num_providers']} providers,"
        f" {record['num_prefixes']} prefixes, seed {record['seed']})"
    )
    print(f"  failures          : {', '.join(record['failures']) or 'none'}")
    print(f"  failure detection : {detection}")
    print(f"  median convergence: {record['median_ms']:8.1f} ms")
    print(f"  max convergence   : {record['max_ms']:8.1f} ms")
    print(f"  converged/recovered: {record['converged']}/{record['recovered']}")
    return 0 if record["converged"] and record["recovered"] else 1


def _cmd_scenarios_sweep(arguments: argparse.Namespace) -> int:
    if arguments.random:
        specs = random_fan_specs(
            arguments.random,
            seed=arguments.seed,
            monitored_flows=arguments.flows if arguments.flows is not None else 20,
        )
        if arguments.prefixes is not None:
            specs = [
                s.with_overrides(num_prefixes=arguments.prefixes).validate()
                for s in specs
            ]
    else:
        base = get_preset(
            arguments.preset,
            seed=arguments.seed,
            **(
                {"monitored_flows": arguments.flows}
                if arguments.flows is not None
                else {}
            ),
        )
        grid = {}
        if arguments.providers:
            grid["num_providers"] = arguments.providers
        if arguments.prefixes_grid:
            grid["num_prefixes"] = arguments.prefixes_grid
        if arguments.failures:
            grid["failure"] = arguments.failures
        if arguments.churn_rates:
            grid["churn_rate_ups"] = arguments.churn_rates
        if arguments.churn_withdraws:
            grid["churn_withdraw_fraction"] = arguments.churn_withdraws
        if arguments.remote_groups:
            grid["remote_groups"] = [value == "on" for value in arguments.remote_groups]
        if not grid:
            grid["failure"] = ["link_down"]
        specs = expand_grid(base, grid)
    runner = CampaignRunner(specs, workers=arguments.workers, timeout=arguments.timeout)
    result = runner.run()
    print(result.table())
    aggregate = result.aggregate()
    print(
        f"\n{aggregate['scenarios']} scenarios, workers={arguments.workers},"
        f" {result.wall_seconds:.1f}s wall"
        f" ({result.throughput:.2f} scenarios/s),"
        f" worst max {aggregate['worst_max_ms']:.1f} ms"
    )
    if arguments.output:
        result.write(arguments.output)
        print(f"report written to {arguments.output}")
    return 0 if aggregate["all_converged"] and aggregate["all_recovered"] else 1


def _cmd_metrics(arguments: argparse.Namespace) -> int:
    """Paper-style stage breakdown (detect → decide → push → install) for a
    preset campaign, computed from the sim-time telemetry subsystem."""
    base = get_preset(arguments.preset, **_scenario_overrides(arguments))
    if arguments.openmetrics:
        # Single-scenario OpenMetrics exposition: run the preset once and
        # render the registry in the Prometheus text format.
        spec = base
        if arguments.failures:
            spec = expand_grid(base, {"failure": [arguments.failures[0]]})[0]
        if not spec.telemetry:
            spec = spec.with_overrides(telemetry=True).validate()
        record, lab = execute_scenario(spec, timeout=arguments.timeout)
        assert lab.telemetry is not None
        print(render_openmetrics(lab.telemetry.metrics), end="")
        return 0 if record["converged"] and record["recovered"] else 1
    grid = {}
    if arguments.failures:
        grid["failure"] = arguments.failures
    if arguments.prefixes_grid:
        grid["num_prefixes"] = arguments.prefixes_grid
    if not grid:
        grid["failure"] = ["link_down"]
    specs = expand_grid(base, grid)
    runner = CampaignRunner(specs, workers=arguments.workers, timeout=arguments.timeout)
    result = runner.run()
    aggregate = result.aggregate()
    # Scale summary alongside stage timings: table sizes from the
    # deterministic records, peak RSS from the process gauge.  Kept out
    # of ``aggregate()`` so written reports stay byte-identical across
    # serial/pooled/rerun.
    scale = {
        "rib_prefixes": sum(row["num_prefixes"] for row in result.scenarios),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    if arguments.json:
        print(json.dumps(dict(aggregate, scale=scale), indent=2, sort_keys=True))
    else:
        print(result.stage_table())
        print()
        print(result.stage_summary())
        print()
        print(
            f"scale: {scale['rib_prefixes']} prefixes across"
            f" {len(result.scenarios)} scenarios,"
            f" peak rss {scale['peak_rss_mb']:.1f} MiB"
        )
    return 0 if aggregate["all_converged"] and aggregate["all_recovered"] else 1


def _cmd_report(arguments: argparse.Namespace) -> int:
    """Causal convergence provenance report: per-prefix restoration chains,
    stage waterfall and restoration CDF, written as JSON + HTML artifacts."""
    base = get_preset(arguments.preset, **_scenario_overrides(arguments))
    if arguments.failures:
        specs = expand_grid(base, {"failure": arguments.failures})
    else:
        specs = [base]
    entries = []
    healthy = True
    for spec in specs:
        if not spec.telemetry:
            spec = spec.with_overrides(telemetry=True).validate()
        record, lab = execute_scenario(spec, timeout=arguments.timeout)
        healthy = healthy and record["converged"] and record["recovered"]
        telemetry = lab.telemetry
        assert telemetry is not None
        outages = telemetry.causal.outages()
        first = outages[0].outage_id if outages else None
        entries.append(
            {
                "record": record,
                "outages": telemetry.ledger.outage_summaries(),
                "chains": telemetry.ledger.chains(),
                "restoration_cdf": telemetry.ledger.restoration_cdf(first),
                "profile": (
                    lab.profiler.to_dict() if lab.profiler is not None else None
                ),
            }
        )
    report = build_campaign_report(
        entries, title=f"Convergence provenance: {arguments.preset}"
    )
    if arguments.json:
        print(report_to_json(report), end="")
        return 0 if healthy else 1
    json_path = f"{arguments.out}.json"
    html_path = f"{arguments.out}.html"
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(report_to_json(report))
    with open(html_path, "w", encoding="utf-8") as handle:
        handle.write(render_report_html(report))
    print(
        f"provenance report: {report['scenario_count']} scenario(s),"
        f" {report['total_chains']} chain(s)"
        f" ({report['total_prefix_chains']} per-prefix)"
    )
    for entry in entries:
        record = entry["record"]
        deciles = record.get("restoration_cdf_ms") or []
        if deciles:
            cdf = (
                f"restoration p0/p50/p100 = {deciles[0]:.1f}"
                f"/{deciles[5]:.1f}/{deciles[10]:.1f} ms"
            )
        else:
            cdf = "no restoration chains"
        prefix_chains = sum(
            outage["prefixes_restored"] for outage in entry["outages"]
        )
        print(
            f"  {record['name']}/{','.join(record['failures']) or 'none'}"
            f" seed={record['seed']}: {prefix_chains} prefix chain(s), {cdf}"
        )
    print(f"report written to {json_path} and {html_path}")
    return 0 if healthy else 1


def _cmd_trace(arguments: argparse.Namespace) -> int:
    """Dump the structured sim-time trace of one scenario run."""
    spec = get_preset(arguments.preset, **_scenario_overrides(arguments))
    if not spec.telemetry:
        spec = spec.with_overrides(telemetry=True).validate()
    if arguments.out:
        with open(arguments.out, "w", encoding="utf-8") as sink:
            record, lab = execute_scenario(
                spec, timeout=arguments.timeout, trace_sink=sink
            )
    else:
        record, lab = execute_scenario(spec, timeout=arguments.timeout)
    events = lab.telemetry.trace.events(name=arguments.event or None)
    if arguments.limit is not None:
        events = events[-arguments.limit:]
    if arguments.json:
        print(
            json.dumps(
                {
                    "scenario": record["name"],
                    "emitted": lab.telemetry.trace.emitted,
                    "events": [event.to_dict() for event in events],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"trace of {record['name']}: {lab.telemetry.trace.emitted} events"
            f" emitted, showing {len(events)}"
        )
        for event in events:
            fields = " ".join(
                f"{key}={value}" for key, value in sorted(event.fields.items())
            )
            print(f"  {event.at * 1e3:12.3f} ms  {event.name:<24} {fields}")
        if arguments.out:
            print(
                f"{lab.telemetry.trace.emitted} events written to {arguments.out}"
            )
    return 0 if record["converged"] and record["recovered"] else 1


def _cmd_lint(arguments: argparse.Namespace) -> int:
    """Run the determinism linter (see docs/static_analysis.md).

    Exit status gates CI: 0 only when every finding is baselined (or
    none exist); ``--write-baseline`` regenerates the grandfather list
    instead of gating.
    """
    if arguments.list_rules:
        for code in ALL_RULES:
            print(f"{code}  {RULES_BY_CODE[code].SUMMARY}")
        return 0
    config = LintConfig.default()
    if arguments.rules:
        config = config.select(arguments.rules)
    baseline = None
    if not arguments.no_baseline:
        baseline = Baseline.load(arguments.baseline)
    report = lint_paths(arguments.paths, config=config, baseline=baseline)
    if arguments.write_baseline:
        Baseline.from_findings(report.all_findings).save(arguments.baseline)
        print(
            f"baseline written to {arguments.baseline}:"
            f" {len(report.all_findings)} finding(s) grandfathered"
        )
        return 0
    if arguments.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps the top-level --seed value when the sub-command omits
    # it, while still accepting `repro <command> --seed N`.
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="simulation seed"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Supercharged-router reproduction experiments"
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    commands = parser.add_subparsers(dest="command", required=True)

    failover = commands.add_parser("failover", help="run one failover experiment")
    failover.add_argument("--prefixes", type=int, default=1_000)
    failover.add_argument("--flows", type=int, default=50)
    failover.add_argument("--supercharged", action="store_true")
    _add_seed_option(failover)
    failover.set_defaults(handler=_cmd_failover)

    figure5 = commands.add_parser("figure5", help="regenerate Figure 5")
    figure5.add_argument("--prefixes", type=int, nargs="*", default=None)
    figure5.add_argument("--repetitions", type=int, default=3)
    figure5.add_argument("--flows", type=int, default=100)
    _add_seed_option(figure5)
    figure5.set_defaults(handler=_cmd_figure5)

    microbench = commands.add_parser("microbench", help="controller processing benchmark")
    microbench.add_argument("--updates", type=int, default=50_000)
    _add_seed_option(microbench)
    microbench.set_defaults(handler=_cmd_microbench)

    groups = commands.add_parser("groups", help="backup-group count analysis")
    groups.add_argument("--peers", type=int, nargs="+", default=[2, 3, 5, 10])
    groups.add_argument("--prefixes", type=int, default=2_000)
    _add_seed_option(groups)
    groups.set_defaults(handler=_cmd_groups)

    ablations = commands.add_parser("ablations", help="compare FIB organisations")
    ablations.add_argument("--prefixes", type=int, default=2_000)
    ablations.add_argument("--flows", type=int, default=20)
    _add_seed_option(ablations)
    ablations.set_defaults(handler=_cmd_ablations)

    detection = commands.add_parser(
        "detection",
        help="BFD-vs-BGP detection-time split for local vs remote faults",
    )
    detection.add_argument("--prefixes", type=int, default=1_000)
    detection.add_argument("--flows", type=int, default=20)
    detection.add_argument("--fraction", type=float, default=1.0,
                           help="share of the provider table a remote fault hits")
    detection.add_argument("--json", action="store_true",
                           help="emit machine-readable JSON instead of the report")
    _add_seed_option(detection)
    detection.set_defaults(handler=_cmd_detection)

    remote = commands.add_parser(
        "remote-supercharge",
        help="grouped vs per-prefix convergence for full-table remote withdraws",
    )
    remote.add_argument("--prefixes", type=int, nargs="*",
                        default=list(REMOTE_PREFIX_COUNTS),
                        help="prefix-table sizes of the curve")
    remote.add_argument("--flows", type=int, default=12)
    remote.add_argument("--providers", type=int, default=2)
    remote.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of the report")
    _add_seed_option(remote)
    remote.set_defaults(handler=_cmd_remote_supercharge)

    metrics = commands.add_parser(
        "metrics",
        help="per-stage convergence breakdown (detect/decide/push/install)"
             " for a preset campaign",
    )
    metrics.add_argument("--preset", default="figure4", choices=preset_names())
    metrics.add_argument("--prefixes", type=int, default=None)
    metrics.add_argument("--flows", type=int, default=None)
    metrics.add_argument("--providers", type=int, default=None)
    metrics.add_argument("--prefixes-grid", type=int, nargs="*", default=None,
                         help="grid: prefix-table sizes")
    metrics.add_argument("--failures", nargs="*", default=None,
                         help="grid: failure campaigns (default: link_down)")
    metrics.add_argument("--workers", type=int, default=1)
    metrics.add_argument("--timeout", type=float, default=600.0)
    metrics.add_argument("--json", action="store_true",
                         help="emit the aggregate report (incl. stage"
                              " histograms) as JSON")
    metrics.add_argument("--openmetrics", action="store_true",
                         help="run the preset once and print its metrics"
                              " registry in OpenMetrics text format")
    _add_seed_option(metrics)
    metrics.set_defaults(handler=_cmd_metrics)

    report = commands.add_parser(
        "report",
        help="causal provenance report: per-prefix restoration chains,"
             " stage waterfall and CDF as JSON + HTML",
    )
    report.add_argument("--preset", default="remote-withdraw",
                        choices=preset_names())
    report.add_argument("--prefixes", type=int, default=None)
    report.add_argument("--flows", type=int, default=None)
    report.add_argument("--providers", type=int, default=None)
    report.add_argument("--failures", nargs="*", default=None,
                        help="grid: failure campaigns (default: the preset's"
                             " own failure schedule)")
    report.add_argument("--out", default="campaign_report",
                        help="artifact base path; writes <out>.json and"
                             " <out>.html (default: campaign_report)")
    report.add_argument("--timeout", type=float, default=600.0)
    report.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout instead of"
                             " writing artifacts")
    _add_seed_option(report)
    report.set_defaults(handler=_cmd_report)

    trace = commands.add_parser(
        "trace", help="dump the structured sim-time trace of one scenario"
    )
    trace.add_argument("--preset", default="figure4", choices=preset_names())
    trace.add_argument("--prefixes", type=int, default=None)
    trace.add_argument("--flows", type=int, default=None)
    trace.add_argument("--providers", type=int, default=None)
    trace.add_argument("--event", default=None,
                       help="only show events with this exact name")
    trace.add_argument("--limit", type=int, default=None,
                       help="show only the last N matching events")
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="stream every emitted event to FILE as JSONL"
                            " (not bounded by the ring capacity)")
    trace.add_argument("--timeout", type=float, default=600.0)
    trace.add_argument("--json", action="store_true",
                       help="emit the trace as JSON")
    _add_seed_option(trace)
    trace.set_defaults(handler=_cmd_trace)

    lint = commands.add_parser(
        "lint",
        help="determinism linter: AST sim-purity analysis (DET001-DET006)",
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files/directories to lint (default: src/repro)")
    lint.add_argument("--rules", nargs="*", default=None, metavar="DET00N",
                      help="run only these rules")
    lint.add_argument("--baseline", default="detlint_baseline.json",
                      help="grandfathered-findings file (default:"
                           " detlint_baseline.json)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring the baseline")
    lint.add_argument("--write-baseline", action="store_true",
                      help="record the current findings as the new baseline")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--json", action="store_true",
                      help="emit the report as JSON")
    lint.set_defaults(handler=_cmd_lint)

    scenarios = commands.add_parser("scenarios", help="declarative scenario engine")
    scenario_commands = scenarios.add_subparsers(dest="scenario_command", required=True)

    listing = scenario_commands.add_parser("list", help="list scenario presets")
    _add_seed_option(listing)
    listing.set_defaults(handler=_cmd_scenarios_list)

    run = scenario_commands.add_parser("run", help="run one scenario preset")
    run.add_argument("--preset", default="figure4", choices=preset_names())
    run.add_argument("--prefixes", type=int, default=None)
    run.add_argument("--flows", type=int, default=None)
    run.add_argument("--providers", type=int, default=None)
    run.add_argument("--timeout", type=float, default=600.0)
    _add_seed_option(run)
    run.set_defaults(handler=_cmd_scenarios_run)

    sweep = scenario_commands.add_parser(
        "sweep", help="run a parameter-grid campaign on a worker pool"
    )
    sweep.add_argument("--preset", default="figure4", choices=preset_names())
    sweep.add_argument("--providers", type=int, nargs="*", default=None,
                       help="grid: provider counts")
    sweep.add_argument("--prefixes-grid", type=int, nargs="*", default=None,
                       help="grid: prefix-table sizes")
    sweep.add_argument("--failures", nargs="*", default=None,
                       help="grid: failure campaigns (link_down, link_flap, "
                            "bfd_loss, session_reset, controller_crash, "
                            "remote_withdraw, remote_nexthop_shift, none)")
    sweep.add_argument("--churn-rates", type=float, nargs="*", default=None,
                       help="grid: RIS churn replay speeds (updates/s, 0 = off)")
    sweep.add_argument("--churn-withdraws", type=float, nargs="*", default=None,
                       help="grid: churn withdraw mix (fraction of prefixes)")
    sweep.add_argument("--remote-groups", nargs="*", choices=["on", "off"],
                       default=None,
                       help="grid: shared-fate remote-group planning (on/off)")
    sweep.add_argument("--random", type=int, default=0,
                       help="run N randomized ISP-like scenarios instead of a grid")
    sweep.add_argument("--prefixes", type=int, default=None,
                       help="fixed prefix-table size (random mode)")
    sweep.add_argument("--flows", type=int, default=None)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--timeout", type=float, default=600.0)
    sweep.add_argument("--output", default=None, help="write the JSON report here")
    _add_seed_option(sweep)
    sweep.set_defaults(handler=_cmd_scenarios_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ScenarioSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
