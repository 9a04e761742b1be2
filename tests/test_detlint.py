"""Tests for the determinism linter (src/repro/analysis/).

Each DET rule gets fixture snippets it must flag and one it must leave
alone, plus the seeded violation of ``docs/static_analysis.md`` that no
run catches; suppressions get round-trip coverage; and a self-lint test
certifies the repository against its own contract.
"""

import json
import re
import textwrap
from pathlib import Path

from repro.analysis import DEFAULT_RULE_SETTINGS, RULES_BY_CODE, lint_paths, lint_source
from repro.analysis.core import scan_suppressions
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(snippet, path="src/repro/pkg/mod.py"):
    """Lint a dedented snippet as if it lived at ``path``."""
    return lint_source(textwrap.dedent(snippet), path=path)


def codes(findings):
    return [finding.rule for finding in findings]


def seeded(relative_path, *edits):
    """Findings of the repository file at ``relative_path`` with the
    ``(old, new)`` edits of a seeded violation applied."""
    source = (REPO_ROOT / relative_path).read_text(encoding="utf-8")
    for old, new in edits:
        assert source.count(old) == 1, f"the seeded site moved: {old!r}"
        source = source.replace(old, new)
    return lint_source(source, path=relative_path)


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


def test_det004_fires_on_the_seeded_adjacency_cache():
    """The study's DET004 mutation: the router's adjacency cache keyed by
    ``id(next_hop)`` leaves every preset's export unchanged, so only the
    rule sees it, at each of its three sites."""
    findings = seeded(
        "src/repro/router/router.py",
        ("adjacencies.get(best.attributes.next_hop)",
         "adjacencies.get(id(best.attributes.next_hop))"),
        ("self._adjacency_cache.get(next_hop)", "self._adjacency_cache.get(id(next_hop))"),
        ("self._adjacency_cache[next_hop] = adjacency",
         "self._adjacency_cache[id(next_hop)] = adjacency"),
    )
    assert codes(findings) == ["DET004"] * 3


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


def test_det005_fires_on_the_seeded_bfd_multiplier():
    """The study's DET005 mutation: the edge routers' BFD multiplier read
    from the environment.  No run sets the variable, so every export is
    unchanged; only the rule sees it."""
    findings = seeded(
        "src/repro/scenarios/testbed.py",
        ("from __future__ import annotations\n",
         "from __future__ import annotations\n\nimport os\n"),
        ("bfd_interval=edge_bfd,\n                    bfd_multiplier=spec.bfd_multiplier,",
         "bfd_interval=edge_bfd,\n                    bfd_multiplier=int("
         "os.environ.get('REPRO_BFD_MULTIPLIER', spec.bfd_multiplier)),"),
    )
    assert codes(findings) == ["DET005"]


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
ENV_READ = "import os\nflag = os.environ.get('X')"


def test_same_line_suppression_silences_finding():
    assert "DET005" in codes(lint(ENV_READ + "\n"))
    silenced = lint(ENV_READ + "  # detlint: disable=DET005 -- host knob\n")
    assert "DET005" not in codes(silenced)


def test_suppression_is_rule_specific():
    findings = lint(ENV_READ + "  # detlint: disable=DET004\n")
    assert "DET005" in codes(findings)


def test_suppression_comment_parses_multiple_rules():
    suppressions = scan_suppressions(
        "x = 1  # detlint: disable=DET004, DET005\n"
    )
    assert suppressions.by_line[1] == frozenset({"DET004", "DET005"})


def test_a_string_that_reads_like_a_directive_silences_nothing():
    """Directives live in comments: a docstring line or a string literal
    that reads like one is not a directive, on its own line or any other."""
    findings = lint(
        '''
        """Module docstring.
        # detlint: disable-file=DET005
        """
        import os
        flag = os.environ.get("X")
        other = os.getenv("# detlint: disable=DET005")
        '''
    )
    assert [(f.rule, f.line) for f in findings] == [("DET005", 6), ("DET005", 7)]


def test_disable_file_is_not_a_directive():
    findings = lint("# detlint: disable-file=DET005\n" + ENV_READ + "\n")
    assert codes(findings) == ["DET005"]


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------
def test_all_rules_have_registered_classes():
    assert set(DEFAULT_RULE_SETTINGS) == set(RULES_BY_CODE)
    for rule in RULES_BY_CODE.values():
        assert rule.SUMMARY


# ----------------------------------------------------------------------
# Runner over real files
# ----------------------------------------------------------------------
def test_lint_paths_walks_directories_deterministically(tmp_path):
    (tmp_path / "b.py").write_text("import os\nflag = os.getenv('X')\n")
    (tmp_path / "a.py").write_text("def f(d, x):\n    return d[id(x)]\n")
    report = lint_paths([tmp_path])
    assert report.files_checked == 2
    assert [Path(f.path).name for f in report.findings] == ["a.py", "b.py"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_lint_clean_file_exits_zero(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("value = 1\n")
    code = main(["lint", str(target)])
    assert code == 0
    assert "1 files checked: 0 finding(s)" in capsys.readouterr().out


def test_cli_lint_dirty_file_exits_nonzero(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(ENV_READ + "\n")
    code = main(["lint", str(target)])
    assert code == 1
    assert "DET005" in capsys.readouterr().out


def test_cli_lint_json_output(tmp_path, capsys):
    target = tmp_path / "dirty.py"
    target.write_text(ENV_READ + "\n")
    code = main(["lint", str(target), "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["findings"][0]["rule"] == "DET005"


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES_BY_CODE:
        assert rule in out


# ----------------------------------------------------------------------
# Self-certification
# ----------------------------------------------------------------------
def test_repository_passes_its_own_linter(monkeypatch):
    """src/repro/ must have zero findings — the same gate CI applies via
    `cli lint`."""
    monkeypatch.chdir(REPO_ROOT)
    report = lint_paths(["src/repro"])
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
        by_line = scan_suppressions(path.read_text(encoding="utf-8")).by_line
        if any("DET004" in rules for rules in by_line.values()):
            suppressing.add(path.relative_to(package).as_posix())
    docs = (REPO_ROOT / "docs" / "static_analysis.md").read_text(encoding="utf-8")
    section = docs.split("### DET004", 1)[1].split("\n### ", 1)[0]
    assert set(re.findall(r"`([\w/]+\.py)`", section)) == suppressing
