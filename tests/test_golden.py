"""The pinned stdout of the subcommands, byte for byte.

Each command's stdout is committed as tests/golden/<argv joined with _>.out,
so a reader can see every pinned answer without running the code.  A
speed-up must leave every byte a command prints unchanged; any change to the
output of these commands fails here with a diff.
"""

from pathlib import Path

import pytest

from amipoly.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Each pinned command and its exit code: 2 for a negative mathematical result.
GOLDEN = {
    "equable rect": 0,
    "equable rect --format csv": 0,
    "equable rect --format json": 0,
    "rect enumerate": 0,
    "rect enumerate --format csv": 0,
    "rect enumerate --format json": 0,
    "rect oracle --max-side 600": 0,
    "rect oracle --max-side 600 --format json": 0,
    "rect solve -a 1 -x 4": 2,
    "rect solve -a 1 -x 4 --format csv": 2,
    "rect solve -a 1 -x 4 --format json": 2,
    "rect solve -a 1 -x 7": 0,
    "rect solve -a 1 -x 7 --format csv": 0,
    "rect solve -a 1 -x 7 --format json": 0,
    "tri embed 14365 15470 16575": 0,
    "tri embed 14365 15470 16575 --format json": 0,
    "tri embed 16095 21460 26825 --format json": 0,
    "tri embed 2 3 4": 2,
    "tri embed 2 3 4 --format json": 2,
    "tri embed 3 25 26": 0,
    "tri embed 3 25 26 --format csv": 0,
    "tri embed 3 25 26 --format json": 0,
    "tri embed 833490 833490 1000188 --format csv": 0,
    "tri equable --max-perimeter 200": 0,
    "tri equable --max-perimeter 200 --format csv": 0,
    "tri equable --max-perimeter 200 --format json": 0,
    "tri search --max-perimeter 300": 0,
    "tri search --max-perimeter 300 --format csv": 0,
    "tri search --max-perimeter 300 --format json": 0,
    "verify all --format csv": 0,
    "verify all --format json": 0,
    "verify all --format table": 0,
}


def golden_path(command: str) -> Path:
    """The file that holds command's stdout; no command holds a "_"."""
    return GOLDEN_DIR / (command.replace(" ", "_") + ".out")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == GOLDEN[command]
    assert out == golden_path(command).read_bytes().decode()


def test_one_file_per_command():
    """A missing or stray golden file fails here, and no two commands share a file."""
    assert not any("_" in command for command in GOLDEN)
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == sorted(golden_path(c).name for c in GOLDEN)
