"""The README's documented library surface and CLI commands work against the package as it is."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from mcidx.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library surface\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block opens the Library surface section"
    exec(compile(block.group(1), f"{README}:Library surface", "exec"), {})


def test_cli_block_commands_parse():
    # A README command that names a removed flag or subcommand fails here.
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.match(r"\s*```\n(.*?)```", section, re.DOTALL)
    assert block, "no code block opens the CLI section"
    commands = [shlex.split(line, comments=True)
                for line in block.group(1).replace("\\\n", " ").splitlines() if line.strip()]
    assert len(commands) >= 10 and all(argv[0] == "mcidx" for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
