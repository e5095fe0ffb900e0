import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

from amipoly.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# every backticked `amipoly.<module>[.<name>...]`, a call's arguments left off
CITED = sorted(set(re.findall(r"`(amipoly(?:\.\w+)+)", README.read_text())))


def test_library_example_runs(capsys):
    """README's library example imports from the modules that hold each name."""
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip().endswith(" 72")


@pytest.mark.parametrize("name", CITED)
def test_cited_name_resolves(name):
    """A name README cites is still defined where README says it is."""
    package, module, *attrs = name.split(".")
    reduce(getattr, attrs, importlib.import_module(f"{package}.{module}"))


@pytest.mark.parametrize("sides", [["3", "25", "26"], ["9", "12", "15"]], ids="x".join)
def test_placements_are_what_tri_embed_prints(capsys, sides):
    assert main(["tri", "embed", *sides]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("vertices: ")]
    assert f"`{line.removeprefix('vertices: ')}`" in README.read_text()
