"""The README's documented library surface and CLI commands work against the package as it is."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import mcidx
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


def _has(owner, name: str) -> bool:
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else set()
    return hasattr(owner, name) or name in fields


def test_dotted_names_resolve():
    # A `module.name`, `Class.name` or longer chain (`module.Class.name`) the
    # README names under an mcidx module or exported class must exist; a
    # dataclass field counts. A function or class must be defined in the
    # module named, not only imported into it.
    modules = {info.name for info in pkgutil.iter_modules(mcidx.__path__)}
    resolved, missing = 0, []
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text(encoding="utf-8")):
        head, name, *rest = dotted.split(".")
        if head in modules:
            owner = importlib.import_module(f"mcidx.{head}")
            value = getattr(owner, name, None)
            imported = (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ != owner.__name__
            found = hasattr(owner, name) and not imported
        elif isinstance(getattr(mcidx, head, None), type):
            value = getattr(mcidx, head)
            found = _has(value, name)
            value = getattr(value, name, None)
        else:
            continue
        for attr in rest:
            found = found and _has(value, attr)
            value = getattr(value, attr, None)
        if found:
            resolved += 1
        else:
            missing.append(dotted)
    assert missing == []
    assert resolved >= 10
