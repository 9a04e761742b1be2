"""Tests for the determinism linter (src/repro/analysis/).

Each DET rule gets at least one fixture snippet it must flag and one it
must leave alone; suppressions and the baseline get round-trip coverage;
and a self-lint test certifies the repository against its own contract.
"""

import json
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    Baseline,
    Finding,
    LintConfig,
    RULES_BY_CODE,
    lint_paths,
    lint_source,
)
from repro.analysis.core import scan_suppressions
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(snippet, path="src/repro/pkg/mod.py", config=None):
    """Lint a dedented snippet as if it lived at ``path``."""
    return lint_source(textwrap.dedent(snippet), path=path, config=config)


def codes(findings):
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# DET001 — bare randomness
# ----------------------------------------------------------------------
def test_det001_fires_on_stdlib_random_import():
    findings = lint("import random\n")
    assert "DET001" in codes(findings)


def test_det001_fires_on_uuid_and_secrets():
    findings = lint("import uuid\nimport secrets\n")
    assert codes(findings).count("DET001") == 2


def test_det001_fires_on_os_urandom_call():
    findings = lint("import os\ntoken = os.urandom(8)\n")
    assert "DET001" in codes(findings)


def test_det001_allows_sim_random_module():
    findings = lint("import random\n", path="src/repro/sim/random.py")
    assert "DET001" not in codes(findings)


def test_det001_not_fooled_by_local_name_random():
    findings = lint("random = 3\nvalue = random + 1\n")
    assert "DET001" not in codes(findings)


# ----------------------------------------------------------------------
# DET002 — wall clocks in sim code
# ----------------------------------------------------------------------
def test_det002_fires_on_perf_counter():
    findings = lint("import time\nstarted = time.perf_counter()\n")
    assert "DET002" in codes(findings)


def test_det002_fires_through_import_alias():
    findings = lint("import time as t\nnow = t.time()\n")
    assert "DET002" in codes(findings)


def test_det002_fires_on_datetime_now():
    findings = lint(
        """
        from datetime import datetime as dt
        stamp = dt.now()
        """
    )
    assert "DET002" in codes(findings)


def test_det002_allows_benchmarks_tree():
    findings = lint(
        "import time\nstarted = time.perf_counter()\n",
        path="benchmarks/test_bench_lint.py",
    )
    assert "DET002" not in codes(findings)


def test_det002_allows_telemetry_process_module():
    findings = lint(
        "import time\nstarted = time.monotonic()\n",
        path="src/repro/telemetry/process.py",
    )
    assert "DET002" not in codes(findings)


def test_det002_ignores_sim_time_attribute():
    findings = lint("def f(sim):\n    return sim.now\n")
    assert "DET002" not in codes(findings)


# ----------------------------------------------------------------------
# DET003 — unsorted set iteration
# ----------------------------------------------------------------------
def test_det003_fires_on_for_over_set_literal():
    findings = lint(
        """
        peers = {1, 2, 3}
        for peer in peers:
            print(peer)
        """
    )
    assert "DET003" in codes(findings)


def test_det003_fires_on_list_of_set_call():
    findings = lint(
        """
        def f(items):
            seen = set(items)
            return list(seen)
        """
    )
    assert "DET003" in codes(findings)


def test_det003_fires_on_self_attribute_set():
    findings = lint(
        """
        class Store:
            def __init__(self):
                self._keys = set()

            def dump(self):
                return [k for k in self._keys]
        """
    )
    assert "DET003" in codes(findings)


def test_det003_allows_sorted_iteration():
    findings = lint(
        """
        peers = {1, 2, 3}
        for peer in sorted(peers):
            print(peer)
        """
    )
    assert "DET003" not in codes(findings)


def test_det003_allows_order_free_reductions():
    findings = lint(
        """
        peers = {1, 2, 3}
        total = sum(peers)
        top = max(peers)
        count = len(peers)
        hit = any(p > 2 for p in peers)
        """
    )
    assert "DET003" not in codes(findings)


def test_det003_allows_set_comprehension_result():
    # The *result* of a set comprehension is itself unordered — building
    # one from a set introduces no new ordering hazard.
    findings = lint(
        """
        peers = {1, 2, 3}
        doubled = {p * 2 for p in peers}
        """
    )
    assert "DET003" not in codes(findings)


def test_det003_does_not_flag_lists():
    findings = lint(
        """
        peers = [3, 1, 2]
        for peer in peers:
            print(peer)
        """
    )
    assert "DET003" not in codes(findings)


def test_det003_scopes_do_not_leak_between_functions():
    # `items` is a set in f() but a parameter of unknown type in g().
    findings = lint(
        """
        def f():
            items = {1, 2}
            return sorted(items)

        def g(items):
            for item in items:
                print(item)
        """
    )
    assert "DET003" not in codes(findings)


# ----------------------------------------------------------------------
# DET004 — id()-keyed mappings
# ----------------------------------------------------------------------
def test_det004_fires_on_id_subscript():
    findings = lint(
        """
        registry = {}
        def register(port, node):
            registry[id(port)] = node
        """
    )
    assert "DET004" in codes(findings)


def test_det004_fires_on_dict_get_with_id():
    findings = lint(
        """
        def lookup(registry, port):
            return registry.get(id(port))
        """
    )
    assert "DET004" in codes(findings)


def test_det004_fires_on_dict_comprehension_key():
    findings = lint(
        """
        def index(ports):
            return {id(p): p for p in ports}
        """
    )
    assert "DET004" in codes(findings)


def test_det004_allows_plain_keys():
    findings = lint(
        """
        def register(registry, port, node):
            registry[port.name] = node
            return registry.get(port.name)
        """
    )
    assert "DET004" not in codes(findings)


# ----------------------------------------------------------------------
# DET005 — environment reads in sim code
# ----------------------------------------------------------------------
def test_det005_fires_on_os_environ_get():
    findings = lint("import os\nflag = os.environ.get('X')\n")
    assert "DET005" in codes(findings)


def test_det005_fires_on_os_getenv():
    findings = lint("import os\nflag = os.getenv('X')\n")
    assert "DET005" in codes(findings)


def test_det005_fires_on_environ_subscript():
    findings = lint("import os\nflag = os.environ['X']\n")
    assert "DET005" in codes(findings)


def test_det005_allows_runconfig_module():
    findings = lint(
        "import os\nflag = os.environ.get('X')\n",
        path="src/repro/runconfig.py",
    )
    assert "DET005" not in codes(findings)


# ----------------------------------------------------------------------
# DET006 — telemetry passivity
# ----------------------------------------------------------------------
def test_det006_fires_on_schedule_call_in_telemetry():
    findings = lint(
        """
        def attach(sim):
            sim.schedule(1.0, lambda: None)
        """,
        path="src/repro/telemetry/rogue.py",
    )
    assert "DET006" in codes(findings)


def test_det006_fires_on_rng_fork_in_telemetry():
    findings = lint(
        """
        def sample(rng):
            return rng.fork("telemetry")
        """,
        path="src/repro/telemetry/rogue.py",
    )
    assert "DET006" in codes(findings)


def test_det006_fires_on_sim_state_mutation_in_telemetry():
    findings = lint(
        """
        def tamper(sim):
            sim.now = 0.0
        """,
        path="src/repro/telemetry/rogue.py",
    )
    assert "DET006" in codes(findings)


def test_det006_only_scoped_to_telemetry():
    findings = lint(
        """
        def attach(sim):
            sim.schedule(1.0, lambda: None)
        """,
        path="src/repro/scenarios/lab.py",
    )
    assert "DET006" not in codes(findings)


def test_det006_allows_passive_reads():
    findings = lint(
        """
        def observe(sim, bus):
            bus.emit("tick", at=sim.now)
        """,
        path="src/repro/telemetry/probe.py",
    )
    assert "DET006" not in codes(findings)


# ----------------------------------------------------------------------
# DET000 — unparseable files
# ----------------------------------------------------------------------
def test_syntax_error_yields_det000():
    findings = lint_source("def broken(:\n", path="src/repro/x.py")
    assert codes(findings) == ["DET000"]
    assert "does not parse" in findings[0].message


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_same_line_suppression_silences_finding():
    flagged = lint("import time\nstarted = time.perf_counter()\n")
    assert "DET002" in codes(flagged)
    silenced = lint(
        "import time\n"
        "started = time.perf_counter()  # detlint: disable=DET002 -- bench\n"
    )
    assert "DET002" not in codes(silenced)


def test_suppression_is_rule_specific():
    findings = lint(
        "import time\n"
        "started = time.perf_counter()  # detlint: disable=DET004\n"
    )
    assert "DET002" in codes(findings)


def test_file_level_suppression_within_window():
    findings = lint(
        """
        # detlint: disable-file=DET002 -- wall-clock harness
        import time

        def f():
            return time.perf_counter()
        """
    )
    assert "DET002" not in codes(findings)


def test_file_level_suppression_ignored_outside_window():
    padding = "\n" * 15
    source = (
        padding
        + "# detlint: disable-file=DET002\n"
        + "import time\nstarted = time.perf_counter()\n"
    )
    findings = lint_source(source, path="src/repro/pkg/mod.py")
    assert "DET002" in codes(findings)


def test_suppression_comment_parses_multiple_rules():
    suppressions = scan_suppressions(
        "x = 1  # detlint: disable=DET002, DET004\n"
    )
    assert suppressions.by_line[1] == frozenset({"DET002", "DET004"})


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def make_finding(line_text, line=3, rule="DET002", path="src/repro/a.py"):
    return Finding(
        rule=rule,
        path=path,
        line=line,
        column=0,
        message="m",
        line_text=line_text,
    )


def test_baseline_round_trip(tmp_path):
    finding = make_finding("started = time.perf_counter()")
    baseline = Baseline.from_findings([finding, finding])
    path = tmp_path / "baseline.json"
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.counts == baseline.counts
    assert sum(loaded.counts.values()) == 2


def test_baseline_survives_line_number_drift(tmp_path):
    baseline = Baseline.from_findings([make_finding("x = time.time()", line=3)])
    drifted = make_finding("x = time.time()", line=42)
    new, matched = baseline.partition([drifted])
    assert new == [] and matched == [drifted]


def test_baseline_count_limits_absorption():
    baseline = Baseline.from_findings([make_finding("x = time.time()")])
    duplicate = make_finding("x = time.time()")
    new, matched = baseline.partition([duplicate, duplicate])
    assert len(matched) == 1 and len(new) == 1


def test_baseline_missing_file_is_empty(tmp_path):
    baseline = Baseline.load(tmp_path / "absent.json")
    assert baseline.counts == {}


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError):
        Baseline.load(path)


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def test_config_select_narrows_rules():
    config = LintConfig.default().select(["DET002"])
    findings = lint("import random\nimport time\nt = time.time()\n", config=config)
    assert "DET002" in codes(findings)
    assert "DET001" not in codes(findings)


def test_config_select_rejects_unknown_rule():
    with pytest.raises(ValueError, match="DET999"):
        LintConfig.default().select(["DET999"])


def test_all_rules_have_registered_classes():
    assert set(ALL_RULES) == set(RULES_BY_CODE)
    for code in ALL_RULES:
        assert RULES_BY_CODE[code].SUMMARY


# ----------------------------------------------------------------------
# Runner over real files
# ----------------------------------------------------------------------
def test_lint_paths_walks_directories_deterministically(tmp_path):
    (tmp_path / "b.py").write_text("import random\n")
    (tmp_path / "a.py").write_text("import uuid\n")
    report = lint_paths([tmp_path])
    assert report.files_checked == 2
    assert [Path(f.path).name for f in report.new] == ["a.py", "b.py"]


def test_lint_paths_applies_baseline(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("import random\n")
    first = lint_paths([target])
    assert len(first.new) == 1
    baseline = Baseline.from_findings(first.new)
    second = lint_paths([target], baseline=baseline)
    assert second.clean and len(second.baselined) == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("value = 1\n")
    code = main(["lint", str(target), "--no-baseline"])
    assert code == 0
    assert "1 files checked: 0 finding(s)" in capsys.readouterr().out


def test_cli_lint_dirty_file_exits_nonzero(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("import random\n")
    code = main(["lint", str(target), "--no-baseline"])
    assert code == 1
    assert "DET001" in capsys.readouterr().out


def test_cli_lint_json_output(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("import random\n")
    code = main(["lint", str(target), "--no-baseline", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["new"][0]["rule"] == "DET001"


def test_cli_lint_write_baseline_then_clean(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("import random\n")
    baseline_path = tmp_path / "baseline.json"
    assert main(["lint", str(target), "--baseline", str(baseline_path),
                 "--write-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", str(target), "--baseline", str(baseline_path)]) == 0
    assert "(1 baselined)" in capsys.readouterr().out


def test_cli_lint_rules_filter(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text("import random\nimport time\nt = time.time()\n")
    code = main(["lint", str(target), "--no-baseline", "--rules", "DET002"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET002" in out and "DET001" not in out


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule in out


# ----------------------------------------------------------------------
# Self-certification
# ----------------------------------------------------------------------
def test_repository_passes_its_own_linter(monkeypatch):
    """src/repro/ must have zero non-baselined findings — the same gate
    CI applies via `cli lint`."""
    # Baseline fingerprints are repo-root-relative; run from the root so
    # finding paths match them, exactly as CI invokes `cli lint`.
    monkeypatch.chdir(REPO_ROOT)
    baseline = Baseline.load("detlint_baseline.json")
    report = lint_paths(["src/repro"], baseline=baseline)
    assert report.files_checked > 50
    assert report.clean, "\n" + report.render_text()


def test_det004_suppression_inventory_matches_the_docs():
    """The files ``docs/static_analysis.md`` names in its DET004 section
    are exactly the files under ``src/`` that carry an inline DET004
    suppression (in a real comment; the linter's own docstring examples
    do not count)."""
    package = REPO_ROOT / "src" / "repro"
    suppressing = set()
    for path in sorted(package.rglob("*.py")):
        with tokenize.open(path) as handle:
            comments = [
                token.string
                for token in tokenize.generate_tokens(handle.readline)
                if token.type == tokenize.COMMENT
            ]
        by_line = scan_suppressions("\n".join(comments)).by_line
        if any("DET004" in rules for rules in by_line.values()):
            suppressing.add(path.relative_to(package).as_posix())
    docs = (REPO_ROOT / "docs" / "static_analysis.md").read_text(encoding="utf-8")
    section = docs.split("### DET004", 1)[1].split("\n### ", 1)[0]
    assert set(re.findall(r"`([\w/]+\.py)`", section)) == suppressing
