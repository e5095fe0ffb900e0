"""Pinned sha256 digests of the stdout of the listing subcommands.

A speed-up must leave every byte a command prints unchanged; any change to
the output of these commands fails here.
"""

import hashlib

import pytest

from amipoly.cli import main

GOLDEN = {
    "rect enumerate": "b7c16236388c08ec2b17ad27981c92540194132723545b23ef7b2472e65920c2",
    "rect enumerate --format json": "db35bf4b3a2718a147fc00d2edc874c188b43c278bca8341c19f5707d88ad769",
    "rect oracle --max-side 600 --format json": "a27b9799b0a7c9d8978df8fe3ef41a5b5fbb851367ff4ffd44b78b7ac1c2bcab",
    "rect oracle --max-side 600": "081b47f9c886b285b307609b1a674e006799c460f286d3c27faf902ec9b9186d",
    "tri search --max-perimeter 300 --format json": "801033a422ecab0d670f3849f40715c8f18493f658d29c1309ebe2bf0dc5b021",
    "tri search --max-perimeter 300 --format csv": "393e065050df161fb023e18c66914bf229112595df6e63325c7732873baa808f",
    "tri equable --max-perimeter 200 --format json": "1d56678a3a1f9e45078c2c29ed221401fb9003eceb4e8b99f5e2f84f7ffe845d",
    "equable rect --format json": "22d6e3d7e28126f6bc9bf15c9c78af282565b78003e84a0e4c6670981d805884",
    "verify all --format json": "5990103c351970b266ffd81c303e11e53346e35932628cfd0f97bd1667cb13d6",
    "verify all --format csv": "63598956a9ce2c7f90bd3e31be986adf3608d990bddc8747ad287353f53a5efe",
    "verify all --format table": "7172ffd023d771b20578fd50327c5509dde9a01bb4ea013b4e59841f9d421494",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
