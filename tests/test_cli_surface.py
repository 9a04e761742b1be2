"""Pin of the CLI's command surface and of the reports it prints.

``tests/data/cli_surface.json`` was captured by :func:`capture` at the
last commit where every subcommand declared its own arguments and built
its own table (0cafe36), before ``cli.py`` became a registry and the
reports became column lists.  It only goes through ``build_parser()`` and
``main()``, which exist on both sides, so the fixture is regenerated with::

    PYTHONPATH=src python tests/test_cli_surface.py tests/data/cli_surface.json
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from repro import cli

FIXTURE = Path(__file__).parent / "data" / "cli_surface.json"

#: Subcommand stdout the one-lab parity oracle does not cover, at tiny
#: sizes.  ``head`` keeps only the deterministic part of a report whose
#: tail carries host measurements (wall seconds, peak RSS).
COMMANDS = {
    "detection --json": (["detection", "--prefixes", "60", "--flows", "4", "--json"], None),
    "detection": (["detection", "--prefixes", "60", "--flows", "4"], None),
    "remote-supercharge --json": (
        ["remote-supercharge", "--prefixes", "60", "120", "--flows", "4", "--json"],
        None,
    ),
    "remote-supercharge": (
        ["remote-supercharge", "--prefixes", "60", "120", "--flows", "4"],
        None,
    ),
    "figure5": (["figure5", "--prefixes", "50", "--repetitions", "2", "--flows", "4"], None),
    "ablations": (["ablations", "--prefixes", "80", "--flows", "4"], None),
    "groups": (["groups", "--peers", "2", "3", "--prefixes", "200"], None),
    "scenarios list": (["scenarios", "list"], None),
    "scenarios run": (
        ["scenarios", "run", "--preset", "fan", "--providers", "3",
         "--prefixes", "40", "--flows", "4"],
        None,
    ),
    "scenarios sweep": (
        ["scenarios", "sweep", "--failures", "link_down", "none",
         "--prefixes-grid", "40", "--flows", "4"],
        "\n\n",
    ),
    "metrics": (
        ["metrics", "--failures", "link_down", "bfd_loss",
         "--prefixes", "40", "--flows", "4"],
        "\nscale:",
    ),
    # Its ``profile`` section counts every executed event by name.
    "report --json": (
        ["report", "--json", "--preset", "ris-churn", "--prefixes", "60", "--flows", "4"],
        None,
    ),
}


def _describe(parser):
    """Every option of ``parser`` and, recursively, of its subcommands."""
    options = []
    commands = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {choice.dest: choice.help for choice in action._choices_actions}
            for name, child in action.choices.items():
                commands[name] = {"help": helps.get(name), **_describe(child)}
            continue
        if isinstance(action, argparse._HelpAction):
            continue
        options.append(
            {
                "flags": list(action.option_strings),
                "dest": action.dest,
                "default": (
                    "SUPPRESS" if action.default is argparse.SUPPRESS else action.default
                ),
                "choices": list(action.choices) if action.choices is not None else None,
                "nargs": action.nargs,
                "type": action.type.__name__ if action.type is not None else None,
                "action": type(action).__name__,
                "metavar": action.metavar,
                "help": action.help,
            }
        )
    options.sort(key=lambda option: (option["flags"], option["dest"]))
    return {"options": options, "commands": commands}


def _stdout(argv, head):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    text = stdout.getvalue()
    if head is not None:
        text = text.split(head)[0]
    return {"exit": code, "stdout": text}


def capture():
    return {
        "surface": _describe(cli.build_parser()),
        "stdout": {name: _stdout(argv, head) for name, (argv, head) in COMMANDS.items()},
    }


def test_command_surface_is_the_per_subcommand_parent():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["surface"]
    actual = json.loads(json.dumps(_describe(cli.build_parser())))
    assert sorted(actual["commands"]) == sorted(expected["commands"])
    for name, command in expected["commands"].items():
        assert actual["commands"][name] == command, name
    assert actual["options"] == expected["options"]


def test_reports_print_the_bytes_the_hand_built_tables_printed():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["stdout"]
    assert sorted(expected) == sorted(COMMANDS)
    for name, (argv, head) in COMMANDS.items():
        assert _stdout(argv, head) == expected[name], name


if __name__ == "__main__":
    Path(sys.argv[1]).write_text(
        json.dumps(capture(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
