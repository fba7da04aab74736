"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_readme_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    example = re.search(r"## Library example\s+```python\n(.*?)```", readme,
                        re.DOTALL)
    assert example, "README has no python block under 'Library example'"
    monkeypatch.chdir(ROOT)  # the example opens cases/ by a relative path
    exec(compile(example.group(1), "README.md", "exec"), {})
    clean, attacked = (float(line) for line in capsys.readouterr().out.split())
    # the bundled case's chi-square statistic, unchanged by the stealth attack
    assert clean == pytest.approx(15 / 7, abs=1e-10)
    assert attacked == pytest.approx(clean, abs=1e-10)
