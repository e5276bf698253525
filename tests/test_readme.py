"""The README's front-door example and its `plan` commands run as written,
and its claims ledger names tests that exist, so a change to the library's
API, the CLI's output or the test suite that breaks them fails the suite
instead of leaving the README stale."""

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


def _ledger_rows() -> list[list[str]]:
    """The cells of each body row of the README's claims table."""
    section = README.read_text(encoding="utf-8").split("\n## What this repo reproduces\n", 1)[1]
    lines = [line for line in section.split("\n## ", 1)[0].splitlines()
             if line.startswith("|")]
    header, rule, *body = (
        [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]] for line in lines)
    assert header == ["Claim", "Test", "Status", "Figure"]
    assert set("".join(rule)) <= set("- ")
    return body


def test_claims_ledger_names_existing_tests_and_gives_every_status():
    rows = _ledger_rows()
    assert len(rows) >= 10
    named = 0
    for claim, test, status, _ in rows:
        assert claim and status and status != "none", (claim, status)
        if test == "none":
            assert status.startswith("not yet"), (claim, status)
            continue
        path, name = re.fullmatch(r"`(tests/\w+\.py)::(\w+)`", test).groups()
        source = (README.parent / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", source, re.MULTILINE), test
        named += 1
    assert named >= 8
