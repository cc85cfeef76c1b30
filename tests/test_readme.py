"""The README's documented library surface runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_surface_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library surface\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL)
    assert block, "no python block opens the Library surface section"
    exec(compile(block.group(1), f"{README}:Library surface", "exec"), {})
