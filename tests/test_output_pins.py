"""Byte-identity pins: the sha256 of stdout for 25 small commands.

The first two `chambers` digests and the `mutate` digest were recorded
before the Weyl core started carrying inverses and stepping by simple
reflections.  The three `gallery` digests (D4~ {3,4}, A3~ {2}, D5~ {1,4}) were re-recorded when
through-wall galleries became straight walks instead of a shortest search
over the region between the two walls: a walked row is minimal between its
ends but may be longer than the shortest row, and rows of equal length may
pass through other chambers, so all three outputs changed.  Their skipped
rows are unchanged.  The D5~ {1,4} digest was re-recorded once more when a
walk meeting several walls at one point stopped restarting from another
start point and crossed them in turn, first facet in order first: the 11
rows whose first walk met such a point changed, each still minimal between
its ends, and the D4~ {3,4} and A3~ {2} outputs did not change.  The `gv-map` and `orbits` digests pin the two
consumers of the induced root maps on a finite type.  The `gv-map` at
D4 {1}, node 2, was re-recorded when a mutation became a symmetry only
where relabelling iota(i) as i carries the mutated subset's restricted
roots onto the source's: iota(2) = 1 there, the mutated subset {2}
contracts the centre, and each row at node 2 is now skipped with that
reason.  The three SVG
digests pin the slice writer's box-edge points and their decimal rounding;
E8~ {1,2,3,4,5,6} has normals up to (2,3), including (2,2) walls with odd
offsets.  The next three digests pin the verdict tables: a finite
`vanishing-table` plain and weighted-homogeneous, and a rigidified
`orbits` with every node non-flop, whose twist, duality and
mutation edges all appear in its certificates.  The five after them
pin restricted-root and root listings (whose sign fields are read off the
coefficients' sign, not carried as a set), the oracle self-test (which
walks points through the chamber graph) and the dihedral check (whose
coefficient bound and level window are constants); they were recorded
before those were simplified, so the simplification cannot move a byte.
The next three pin a finite `chambers` (every chamber of D4, as JSON and
as DOT) and the E7~ {2,5} `gallery`; they were recorded before the chamber
search kept one edge per wall and the two commands wrote as they went.
The two after them pin `orbits` on contracted types, where the finite restricted
roots are not the roots: D5 {4,5} rigidified (52 motivic mutation steps)
and E6 {2} numeric (948 numeric mutation steps).  They were recorded
before the mutation domain was read off beta instead of the dimension
vector, and iota fixes every non-flop node of both.  The last pins the
`gv-map` at D4 {2,3}, node 1, a step that is a symmetry although
iota(1) = 3: its 12 rows, 2 of them "same space", were recorded before
the same-space image came from the one relabelled map that the mutation
generators use.
Any change to chamber,
gallery, mutation, transport, orbit, verdict or slice output, including
its order or formatting, fails here.
"""

import hashlib

import pytest

from cdvwall.cli import main

D4_34 = ["--family", "D", "--rank", "4", "--affine", "--contracted", "3,4"]
D4_13 = ["--family", "D", "--rank", "4", "--affine", "--contracted", "1,3"]

PINS = [
    (["chambers", *D4_34, "--maxlen", "3"],
     "20d0a040ee0bc284805558d4178dad04ae93ffb118577a6036f68f63f5d74ba5"),
    (["chambers", *D4_34, "--maxlen", "3", "--format", "dot"],
     "612abf1bf09145e9fc0e5c76c78d1fb9286ea05ffc98dc6abf5640770c577f15"),
    (["gallery", *D4_34],
     "fa0d6ab44c9c950a634890238138a6874ec128494480f4af4855e1fc3160a01e"),
    (["mutate", "--family", "E", "--rank", "6", "--affine", "--contracted", "1,3,5"],
     "d91d0a62d95b97701dc8bc924331d9cd7bb7bf9798af34bf1854642d5ebfead8"),
    (["gallery", "--family", "A", "--rank", "3", "--affine", "--contracted", "2"],
     "9a001070ff814e4bda462b2ae99db284232690b705aa6e2620ee6e23d8c10621"),
    (["gallery", "--family", "D", "--rank", "5", "--affine", "--contracted", "1,4"],
     "2cf5cf75edcac27c6dcb24b4145bdd8d294bf39430911e0b02abcf1a447c25fc"),
    (["gv-map", "--family", "D", "--rank", "4", "--contracted", "1", "--non-flop", "2"],
     "6a7f94714cf02305e3828a6e907e6ad4c346214465add3dc6c84e1af185a6d85"),
    (["orbits", "--family", "D", "--rank", "4", "--non-flop", "1,2,3,4",
      "--window", "chi=2,beta=1"],
     "413a040829e77a400c02b039334c661ea5c7126e1ae99381351ae9a6a2957eee"),
    (["export", "--family", "A", "--rank", "2", "--affine", "--format", "svg", "--kmax", "3"],
     "267601c72bac661cce1844f86b4980318e4d923c9f0f15f871fe8b1fb2d8c070"),
    (["export", *D4_13, "--format", "svg", "--kmax", "3"],
     "fdd401cc286f37813832880ec6e37279d77857b721016fa7b765453987e45492"),
    (["export", "--family", "E", "--rank", "8", "--affine", "--contracted", "1,2,3,4,5,6",
      "--format", "svg", "--kmax", "3"],
     "30424e9b6175caa5535665fd30608ed610ed6a725cac2dc1f86301024fdf9b4e"),
    (["vanishing-table", "--family", "E", "--rank", "6", "--window", "chi=1,beta=1"],
     "8704d49c1b105f8dae792dde08b6fa5c66dfadb637e4577e00a2292cefabf996"),
    (["vanishing-table", "--family", "D", "--rank", "4", "--window", "chi=2,beta=1",
      "--weighted-homogeneous"],
     "35b22dd9a5ed0d50817ed93cb976cb8608e06907728923fb7e94570970597bbc"),
    (["orbits", "--family", "D", "--rank", "4", "--rigidified", "--non-flop", "1,2,3,4",
      "--window", "chi=2,beta=1"],
     "ccd7baf1b218e1cd36b5c3155413153f366b593fb319d00b66d40a1a9ad575fc"),
    (["restricted-roots", "--family", "D", "--rank", "5", "--contracted", "1,4,5"],
     "2885c016c7dbe36ca15d9b6042ac1db7650ec95c749dac118af63e61174406a5"),
    (["restricted-roots", "--family", "E", "--rank", "7", "--affine", "--kmax", "3",
      "--contracted", "0,2,5"],
     "e19e15ae054e5124f3ea93c094af46dadbdedb97851e438b50872cbef9f2fa42"),
    (["roots", "--family", "E", "--rank", "8", "--affine", "--kmax", "1"],
     "17434cd0b37a05ad52b4cf3bbe50e53d593ee0fc2e21c9b8fd613b4a549e2105"),
    (["selftest"],
     "74dfe325fc784e90df52d1bdd8d2ca05e48352c79500903ec2249c60a31ba5f0"),
    (["dihedral-check", "--n", "3"],
     "c245d8938efc94f8c79f95cb20620e23045de76ab332fc88a6f7bacc97d37f78"),
    (["chambers", "--family", "D", "--rank", "4", "--maxlen", "100"],
     "8c979017e62b3765777382288c54344bf26c43c96e5edfd2d37bccba7ead03cf"),
    (["chambers", "--family", "D", "--rank", "4", "--maxlen", "100", "--format", "dot"],
     "1d0a0e971fde1a7e1ebd6b168c98f0b3b421e89cf4960903b94f9d3e87cc8a6b"),
    (["gallery", "--family", "E", "--rank", "7", "--affine", "--contracted", "2,5"],
     "b9db3d9074a63e902bcf40646b4a3cb6e77b0cca38ee3646b8aa77d4a4c0b0ab"),
    (["orbits", "--family", "D", "--rank", "5", "--contracted", "4,5", "--rigidified",
      "--non-flop", "1,2,3", "--window", "chi=2,beta=1"],
     "d401fb4121a4692f216ede5afb685985c40537150f5b518f70a052d38fbf1c82"),
    (["orbits", "--family", "E", "--rank", "6", "--contracted", "2", "--non-flop", "4,5,6",
      "--window", "chi=2,beta=1"],
     "0a6afd9ba10696dc059287ccb471e0870b71844af8481bc1a64fd7ed1a4554b6"),
    (["gv-map", "--family", "D", "--rank", "4", "--contracted", "2,3", "--non-flop", "1"],
     "650b4bd35681ee8f089b88a718e6ac9915a61b8a3f36163e1e22646f475344f0"),
]


@pytest.mark.parametrize("args,digest", PINS, ids=[" ".join(a) for a, _ in PINS])
def test_stdout_digest_is_pinned(args, digest, capsys):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
