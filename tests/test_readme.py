"""The README's code blocks run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The text of the README section headed ``## title``."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


def test_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    assert "field_from(7, stabilizer(T))" in code
    exec(compile(code, f"{README}:Library", "exec"), {})
