"""Pinned sha256 digests of the stdout of the subcommands.

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
    "rect enumerate --format csv": "47b1de6de9ea0b2253a374d7cfee45763049521a84070106a21b24ef98625a05",
    "rect solve -a 1 -x 7": "23057cbaa3722b6043908f8b7e1c02f8bd3166cde43a57270838ce179d74879c",
    "rect solve -a 1 -x 7 --format json": "ad595f99491c8f74d0a129478c6ddf181c457348aad0a77eb3a806474159968b",
    "rect solve -a 1 -x 7 --format csv": "dbd4d222774ca006c603bdc8b14b228cc1ab48ffce09aebfb42a382ec5f67874",
    "tri embed 3 25 26": "f1c08871fac3433825bf30713f0815523f755977077e132423d5a88e60959d66",
    "tri embed 3 25 26 --format json": "7434040f0008927c99449d89b5bb85f3ff1b50ed7db0cf0658efe0507418c99a",
    "tri embed 3 25 26 --format csv": "f55a1e3995a295779fb5b8561825bea10d9a1d83e845fa7861c1b27635f680c4",
    "tri search --max-perimeter 300": "8cafafad3a95d3d8612856a15023e697970d67100340879107aa26f9b289573c",
    "tri equable --max-perimeter 200": "7c336eff7ccf7627c323258600e68dcec25e98ce695f7e16e2f1ae34e6929e00",
    "tri equable --max-perimeter 200 --format csv": "f7651999be6360c0cbc8157c85352a9b8824eeabfdcb3554f26401817f88f9d3",
    "equable rect": "2c4e6f2be8c4024d89eb2879a2fe6225ef97af41e781c8ecd314972e08f7f56a",
    "equable rect --format csv": "82b0ce9b6295190296cb04ca8fb4a44e61aa95198d065adc82e6b7e31d0e612d",
    "tri embed 16095 21460 26825 --format json": "5a8621fe5a696e58c21b654b4273836dab7190e480eeff915d584e773cad81fa",
    "tri embed 14365 15470 16575 --format json": "9b64797fdd2dcd73be29b16ce4af0e4c889f62d73d986d8c3df50745d1a3113f",
    "tri embed 14365 15470 16575": "f09080b175a3e14e7810b7c4f65bd7df005e14e85bffeaaaaec8130df9b38854",
    "tri embed 833490 833490 1000188 --format csv": "2485caa33d8d7c34b7f8b32b27f0a92169e2ce621a3a4c8c2a90ef1b98c705c1",
}

# Negative mathematical results: exit code 2 with a pinned stdout.
GOLDEN_NO_RESULT = {
    "rect solve -a 1 -x 4": "b19912b05e5201ef7af2a3b749b3ef24122fbb04d92f5ca82ca38675a63a20aa",
    "rect solve -a 1 -x 4 --format json": "b783e5199d5c72b4d0f3773f20f9e68d580d97dffb21670e1c02e972d1368c87",
    "rect solve -a 1 -x 4 --format csv": "59370b7aedc8c9a2b8ff12adbfbfa49fd0381557f69134dc795240f30d5517cf",
    "tri embed 2 3 4": "9495d5a046689d14b0b9079bdda6595b255d3817e75b08f5a097064efe398c2d",
    "tri embed 2 3 4 --format json": "a885c13b941b4d2f23f6c697922d93c919dd5455716a5753c2c1aa650b21862c",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_NO_RESULT))
def test_no_result_stdout_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_NO_RESULT[command]
