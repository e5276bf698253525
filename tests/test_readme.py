"""The README's front-door example and its `plan` commands run as written,
so a change to the library's API or the CLI's output that breaks them fails
the suite instead of leaving the README stale."""

import json
import re
import shlex
from pathlib import Path

from infomargin.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_python_block(heading: str) -> str:
    """The first ```python block after the line `heading` in the README."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    code = compile(_first_python_block("## Library quickstart"), str(README), "exec")
    exec(code, {"__name__": "readme_quickstart"})
    assert capsys.readouterr().out


def test_readme_plan_commands_give_the_quoted_figures(capsys):
    # Each `infomargin plan` line of the README runs as written, and the
    # figures the README quotes for it are the ones the command prints.
    text = README.read_text(encoding="utf-8")
    commands = re.findall(r"^infomargin (plan .*)$", text, re.MULTILINE)
    assert len(commands) == 3
    docs = []
    for command in commands:
        assert main(shlex.split(command)) == 0
        docs.append(json.loads(capsys.readouterr().out))
    grid, exact, fixed = docs
    quoted = text.split("For the plan above,", 1)[1].split("\n\n", 1)[0]
    assert f"`d* = {grid['d_star']}` with a {grid['savings_percent']:.1f} % saving" in quoted
    assert f"({grid['mb_original']:.2f} MB → {grid['mb_new']:.2f} MB" in quoted
    assert f"`d* = {exact['d_star']}`" in quoted
    assert (grid["d_star"], exact["d_star"], fixed["d_star"]) == (11517, 11161, 4000)
