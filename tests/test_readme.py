import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    """README's library example imports from the modules that hold each name."""
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip().endswith(" 72")
