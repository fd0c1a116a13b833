"""The README's library example runs as written."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
