"""The README's front-door example runs as written, so a change to the
library's API that breaks it fails the suite instead of leaving it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_python_block(heading: str) -> str:
    """The first ```python block after the line `heading` in the README."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    code = compile(_first_python_block("## Library quickstart"), str(README), "exec")
    exec(code, {"__name__": "readme_quickstart"})
    assert capsys.readouterr().out
