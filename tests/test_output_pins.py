"""Byte-identity pins: the sha256 of stdout for small wall-crossing commands.

The first four digests were recorded before the Weyl core started carrying
inverses and stepping by simple reflections, the two `gallery` digests
before through-wall galleries shared one chamber graph per command.  Any
change to chamber, gallery or mutation output, including its order or
formatting, fails here.
"""

import hashlib

import pytest

from cdvwall.cli import main

D4_34 = ["--family", "D", "--rank", "4", "--affine", "--contracted", "3,4"]

PINS = [
    (["chambers", *D4_34, "--maxlen", "3"],
     "20d0a040ee0bc284805558d4178dad04ae93ffb118577a6036f68f63f5d74ba5"),
    (["chambers", *D4_34, "--maxlen", "3", "--format", "dot"],
     "612abf1bf09145e9fc0e5c76c78d1fb9286ea05ffc98dc6abf5640770c577f15"),
    (["gallery", *D4_34],
     "af76857c9d5238be53d02172503c3c161b411b1bc3e04bd22a1d8b6e20b242da"),
    (["mutate", "--family", "E", "--rank", "6", "--affine", "--contracted", "1,3,5"],
     "d91d0a62d95b97701dc8bc924331d9cd7bb7bf9798af34bf1854642d5ebfead8"),
    (["gallery", "--family", "A", "--rank", "3", "--affine", "--contracted", "2"],
     "b5eabe8e1efe186f660bb22e1fdea6fe086a3d32ec9d2c97c990ac5b6f49f6b4"),
    (["gallery", "--family", "D", "--rank", "5", "--affine", "--contracted", "1,4"],
     "5909c9f3ff5950dc1e4212125ddcc84557058d2446c553ccbbfe66fc61272145"),
]


@pytest.mark.parametrize("args,digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_stdout_digest_is_pinned(args, digest, capsys):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
