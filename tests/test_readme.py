"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under 'Quick start (Python)'"
    exec(compile(block.group(1), f"{README}:quick-start", "exec"), {})
    assert "feasible" in capsys.readouterr().out
