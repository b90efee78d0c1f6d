"""The README's "Library use" example runs and prints the values its
comments state, so a signature change cannot leave it stale."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_its_documented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    *_, visibility, chsh = out.getvalue().splitlines()
    assert f"{float(visibility):.9f}" == "0.938000000"
    assert chsh.startswith("2.8284271")
