"""The README's code blocks run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_runs():
    namespace = {}
    exec(compile(_python_block("Library quickstart"), "README.md", "exec"), namespace)
    assert f"{namespace['th']:.6f}" == "0.014833"
    assert namespace["report"].route_dev <= 1e-9
    assert namespace["report"].duality_residual <= 1e-8
