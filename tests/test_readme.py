"""The README's run-config example and CLI synopsis match the code."""

import argparse
import json
import re
from pathlib import Path

from multivital.cli import build_parser
from multivital.runconfig import parse_run_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(lang: str, after: str = "") -> str:
    """The first fenced lang block of the README after the line `after`."""
    start = README.index(after) if after else 0
    match = re.compile(rf"^```{lang}\n(.*?)^```", re.M | re.S).search(README, start)
    assert match, f"no {lang} block after {after!r}"
    return match[1]


def test_run_config_example_parses():
    # Drop // comments outside strings; keep the strings as they are.
    text = re.sub(r'("(?:\\.|[^"\\])*")|//[^\n]*', lambda m: m[1] or "", _block("jsonc"))
    parse_run_config(json.loads(text))


def test_cli_synopsis_lists_every_option_and_only_those():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in commands.items()
    }
    # Each `multivital <cmd>` line with its backslash continuations.
    text = re.sub(r"\\\n", " ", _block("sh", after="## CLI"))
    documented = {}
    for line in text.splitlines():
        m = re.match(r"multivital (\w+)(.*)", line)
        if m:
            documented.setdefault(m[1], set()).update(re.findall(r"--[a-z][a-z-]*", m[2]))
    assert documented == options
