import importlib
import re
from functools import reduce
from pathlib import Path

import pytest

from amipoly.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# every backticked `amipoly.<module>[.<name>...]`, a call's arguments left off
CITED = sorted(set(re.findall(r"`(amipoly(?:\.\w+)+)", README.read_text())))
CITED_GOLDENS = sorted(set(re.findall(r"`(tests/golden/[^`]*)`", README.read_text())))
VERIFY_ALL_TABLE = "tests/golden/verify_all_--format_table.out"


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


@pytest.mark.parametrize("path", CITED_GOLDENS)
def test_cited_golden_exists(path):
    assert (ROOT / path).exists()


def test_listed_pairs_are_rows_of_the_verify_all_table():
    """Each amicable pair README lists, as `first <-> second`, is a row of the
    verify all table it cites, whose first two fields are the two shape ids."""
    assert VERIFY_ALL_TABLE in CITED_GOLDENS
    rows = [line.split()[:2] for line in (ROOT / VERIFY_ALL_TABLE).read_text().splitlines()]
    pairs = re.findall(r"`(\w+) <-> (\w+)`", README.read_text())
    assert len(pairs) == 6
    assert [pair for pair in pairs if list(pair) not in rows] == []
