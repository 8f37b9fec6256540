"""The README's "Library use" example runs as written, so it cannot go
stale against the package's API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, f"{README.name} (Library use)", "exec"), namespace)
    assert namespace["X"].shape == (40, 48)
    assert namespace["yhat"].shape == (40,)
