"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_failover_command_prints_convergence(capsys):
    code = main(["failover", "--prefixes", "40", "--flows", "5", "--supercharged"])
    output = capsys.readouterr().out
    assert code == 0
    assert "supercharged router" in output
    assert "max convergence" in output


def test_failover_standalone_mode(capsys):
    code = main(["failover", "--prefixes", "40", "--flows", "5"])
    output = capsys.readouterr().out
    assert code == 0
    assert "standalone router" in output


def test_figure5_command_small_sweep(capsys):
    code = main([
        "figure5", "--prefixes", "50", "--repetitions", "1", "--flows", "4",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "supercharged" in output and "standalone" in output
    assert "paper max" in output


def test_microbench_command(capsys):
    code = main(["microbench", "--updates", "300"])
    output = capsys.readouterr().out
    assert code == 0
    assert "p99 processing time" in output


def test_groups_command(capsys):
    code = main(["groups", "--peers", "2", "3", "--prefixes", "200"])
    output = capsys.readouterr().out
    assert code == 0
    assert "n*(n-1) bound" in output


def test_ablations_command(capsys):
    code = main(["ablations", "--prefixes", "80", "--flows", "4"])
    output = capsys.readouterr().out
    assert code == 0
    assert "supercharged" in output
    assert "flat-fib" in output


def test_seed_is_a_global_option():
    parser = build_parser()
    arguments = parser.parse_args(["--seed", "7", "failover"])
    assert arguments.seed == 7


def test_seed_accepted_after_subcommand():
    parser = build_parser()
    arguments = parser.parse_args(["failover", "--seed", "9"])
    assert arguments.seed == 9


def test_subcommand_without_seed_keeps_global_default():
    parser = build_parser()
    arguments = parser.parse_args(["failover"])
    assert arguments.seed == 1


def test_scenarios_list_command(capsys):
    code = main(["scenarios", "list"])
    output = capsys.readouterr().out
    assert code == 0
    assert "figure4" in output
    assert "fan" in output


def test_scenarios_run_command(capsys):
    code = main([
        "scenarios", "run", "--preset", "figure4", "--prefixes", "30",
        "--flows", "3", "--seed", "2",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "seed 2" in output
    assert "max convergence" in output


def test_scenarios_sweep_command_writes_report(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "scenarios", "sweep", "--failures", "link_down", "none",
        "--prefixes-grid", "25", "--flows", "3", "--output", str(out),
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "scenarios/s" in output
    assert out.exists()


def test_scenarios_sweep_random_mode(capsys):
    code = main([
        "scenarios", "sweep", "--random", "2", "--prefixes", "25",
        "--flows", "3", "--seed", "5",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "random-fan-000" in output


def test_detection_command_reports_the_split(capsys):
    code = main(["detection", "--prefixes", "40", "--flows", "4"])
    output = capsys.readouterr().out
    assert code == 0
    assert "detected via" in output
    assert "remote" in output and "local" in output


def test_scenarios_list_includes_remote_presets(capsys):
    code = main(["scenarios", "list"])
    output = capsys.readouterr().out
    assert code == 0
    assert "remote-withdraw" in output
    assert "ris-churn" in output


def test_scenarios_run_remote_withdraw_preset(capsys):
    code = main([
        "scenarios", "run", "--preset", "remote-withdraw",
        "--prefixes", "30", "--flows", "4",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "remote_withdraw" in output


def test_scenarios_sweep_churn_axes(capsys):
    code = main([
        "scenarios", "sweep", "--preset", "figure4",
        "--prefixes-grid", "25", "--failures", "remote_withdraw",
        "--churn-rates", "0", "300", "--flows", "3",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "remote_withdraw" in output


def test_remote_supercharge_command(capsys):
    code = main(["remote-supercharge", "--prefixes", "30", "60", "--flows", "4"])
    output = capsys.readouterr().out
    assert code == 0
    assert "grouped" in output and "per-prefix" in output
    assert "x faster than per-prefix" in output


def test_scenarios_sweep_remote_groups_axis(capsys):
    code = main([
        "scenarios", "sweep", "--preset", "figure4",
        "--prefixes-grid", "25", "--failures", "remote_withdraw",
        "--remote-groups", "off", "on", "--flows", "3",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "remote_groups=True" in output


def test_scenarios_run_remote_supercharge_preset(capsys):
    code = main([
        "scenarios", "run", "--preset", "remote-supercharge",
        "--prefixes", "30", "--flows", "4",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "remote_withdraw" in output


def test_detection_command_json_mode(capsys):
    code = main(["detection", "--prefixes", "40", "--flows", "4", "--json"])
    output = capsys.readouterr().out
    assert code == 0
    import json

    payload = json.loads(output)
    assert payload["consistent"] is True
    assert {row["fault"] for row in payload["rows"]} == {"local", "remote"}
    assert all("detection_ms" in row for row in payload["rows"])


def test_remote_supercharge_command_json_mode(capsys):
    code = main([
        "remote-supercharge", "--prefixes", "30", "60", "--flows", "4", "--json",
    ])
    output = capsys.readouterr().out
    assert code == 0
    import json

    payload = json.loads(output)
    assert payload["acceptance_ok"] is True
    assert {point["grouped"] for point in payload["points"]} == {True, False}
    assert set(payload["speedups"]) == {"30", "60"}


def test_metrics_command_prints_stage_breakdown(capsys):
    code = main([
        "metrics", "--prefixes", "30", "--flows", "3",
        "--failures", "link_down", "bfd_loss",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "detect (ms)" in output and "install (ms)" in output
    assert "fm batches" in output
    assert "mean" in output  # the per-stage summary block


def test_metrics_command_json_mode(capsys):
    code = main(["metrics", "--prefixes", "30", "--flows", "3", "--json"])
    output = capsys.readouterr().out
    assert code == 0
    import json

    payload = json.loads(output)
    assert payload["all_converged"] is True
    assert set(payload["stage_histograms"]) == {
        "detect", "decide", "push", "install",
    }


def test_metrics_openmetrics_shows_the_update_train_ratio(capsys):
    code = main(["metrics", "--prefixes", "30", "--flows", "3", "--openmetrics"])
    output = capsys.readouterr().out
    assert code == 0
    lines = dict(
        line.rsplit(" ", 1) for line in output.splitlines() if not line.startswith("#")
    )
    trains = int(lines["repro_bgp_trains_sent_total"])
    assert trains >= 1
    assert int(lines["repro_bgp_updates_per_train_count"]) == trains
    # Updates per train: the table load rides in a handful of trains.
    assert float(lines["repro_bgp_updates_per_train_sum"]) / trains > 10


def test_trace_command_dumps_events(capsys):
    code = main(["trace", "--prefixes", "30", "--flows", "3"])
    output = capsys.readouterr().out
    assert code == 0
    assert "events" in output
    assert "bfd.down" in output
    assert "fib.batch_drain" in output


def test_trace_command_json_filtered(capsys):
    code = main([
        "trace", "--prefixes", "30", "--flows", "3",
        "--event", "ctrl.failover", "--json",
    ])
    output = capsys.readouterr().out
    assert code == 0
    import json

    payload = json.loads(output)
    assert payload["emitted"] > 0
    assert len(payload["events"]) == 1
    assert payload["events"][0]["name"] == "ctrl.failover"
