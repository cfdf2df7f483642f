"""README's library example runs as written."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_example_runs():
    library = README.read_text().split("## Library", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(example, str(README), "exec"), {})
