"""Golden output: the output of every command must not change.

Each pinned invocation's output, with every `elapsed_ms` value replaced
by 0, is pinned by its SHA-256.  A change that alters any report (a
status, a detail string, a certificate summary, the key order or the
layout) fails here.  After an intended change of output, print the new
digests with

    PYTHONPATH=src python tests/test_golden.py

and replace the pinned values.
"""

import contextlib
import hashlib
import io
import re

import pytest

from glattice.cli import main

SUITE_QUICK_SHA256 = "b17e9940bda0a75c821add4d9e4af107c35fbf736f50893b7ea7240825210071"

_ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')

_SD3 = ["--group", "SD:3,2,2", "--lattice", "flows:cayley"]

# (argv without --output, {output: digest}); both outputs of each command.
COMMANDS = [
    (["group", "info", "--group", "SD:3,2,2"], {
        "text": "7ca3a900fceb3983eb88d3bb609944928494cbda36ca3e54f82fccf70fb7c1b8",
        "json": "e00e2dc6caba24debc9b0188959397fce687119f38ed0ade22a0bb28255da8c5",
    }),
    (["flows", "--graph", "cayley(SD:3,2,2;s,t)"], {
        "text": "d0d7e121e1aaddc7c6a77a972f8f8ca836def8046e352906d25f8b3f97a69448",
        "json": "1efe3b342a9b4e81649bdfd1e6a2810bcce5560d0f485fb7a0d90a1a41848641",
    }),
    (["tate", *_SD3, "--subgroup", "sylow2", "--degree", "1"], {
        "text": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "json": "aeca047ed84ab8c7081a9d2ab4cc7643e1b6cdc5ee01b09be274f91baba9425c",
    }),
    (["resolve", "--group", "C:2", "--lattice", "sign", "--kind", "coflasque"], {
        "text": "b4167038e635789b177c32cb6f94250e3fffbabdd6f7a50dd3db57708dbdb126",
        "json": "de741e99fb0c5f98ea0996bab8c809beff40b50742c7dfb4b5d679f1d4c4a38f",
    }),
    (["resolve", *_SD3, "--kind", "flasque"], {
        "text": "bb5ebe6a1ea4f7a57d3194a79f43c8de9f480a840098efac8b8a5261c282aef6",
        "json": "8a60c944be04b8195b3106f2416350cca576acdcb5b3b1b2e2f33f66b0165505",
    }),
    (["certify", "--group", "C:6", "--lattice", "flows:cayley", "--kind", "invertible"], {
        "text": "20823e30aa930be19b7a3b33bcd8ce41d94de6debe74389d727b9026d5b7f76c",
        "json": "88aafe3ee68132e1917e5e4d8b99979ec1646a3334ef03e1bf943cbc12a9af5d",
    }),
    (["certify", "--group", "D:4", "--lattice", "flows:cayley", "--kind", "invertible"], {
        "text": "fb1001ed3dbf6e7c11e23595c69ec27961fc53b65367288a02f5c4b737675c98",
        "json": "2d939c4a3b3838e6844d617287fd0da639089ffc9acfd7bda0b3966fde6073c8",
    }),
    (["resolve", "--group", "D:4", "--lattice", "flows:cayley", "--kind", "flasque"], {
        "text": "dd7a6d71d006fbbe94bee716d9daeea4251afab14869dada586c23e87434b9d9",
        "json": "79a32ebb519cfa9888db70902028e41363f56fb3867546320a2f25e4252d71e2",
    }),
    (["resolve", "--group", "C:6", "--lattice", "regular", "--kind", "flasque"], {
        "text": "370913e9dc3323deb2425de6a8776fd70738fb659081dd81491e29e4e7974827",
        "json": "b9bd9c69f0b02c04902cb63f2be1b317467cdc2b0633f6aeff7742e7547ec122",
    }),
    # two Sylow primes: Bezout coefficients that are not all 0 and 1
    (["certify", "--group", "C:12", "--lattice", "regular", "--kind", "invertible"], {
        "text": "cb59aa8371b3ccff5d6db2797a0c0293727a516323e9c7f6e2a01d9810cba8a7",
        "json": "ee202b5b65c5c9104c78b072a419c80700986aa15a80c547e7d79fb24f3bb31d",
    }),
    (["certify", "--group", "S:4", "--lattice", "regular", "--kind", "invertible"], {
        "text": "a850540451d9756449efd422f5cb0608beb2e7dbac4ec2f8dc93b366011d03ae",
        "json": "458a801d2f924ea61a2d148dfe9861f94449dfbdb7e09a8ea7bcf621d116880c",
    }),
    (["flows", "--graph", "cosets(S:4;(12))"], {
        "text": "58e3500b9fbc352e92a091e7b5550fbc1f1a3a43b3ef1f50d910a1bf14c71d12",
        "json": "fb436bfafea53c5899b12ea7fa46d134ec845ff009e805e5a30a9cb8ed224a94",
    }),
    (["flows", "--graph", "complete(cosets(D:4;t);loops=0)"], {
        "text": "bdc9964d5fe5658c0379f152dc1b4f327df1d32d446f35669623b1661baed014",
        "json": "bdc5f7da63231176e09221aed2c692391fa551eb4fd8ab107dbe98bfc3fe1183",
    }),
    (["certify", "--group", "D:2", "--lattice", "flows:cayley", "--kind", "permutation"], {
        "text": "dd91d33bbf4e25db6e0248cc1c6fdc1c252bcc2678c42249a4991446a8e76234",
        "json": "cfbed92aa6d72252f9c55377aac436fe591d5a044fc805089e88736204a9390a",
    }),
    (["certify", "--group", "C:3", "--lattice", "flows:complete(regular(C:3);loops=0)",
      "--kind", "permutation"], {
        "text": "ed8722eb1ecc0ef1e96fb4eaf695175e1d2abc44df81f98da1391cdca05c6bf7",
        "json": "f6ca19ffb3a86537ba43489067053ddf06d40a851cbd34bb3e734b10db30855a",
    }),
    (["certify", "--group", "C:2", "--lattice", "sign", "--kind", "permutation"], {
        "text": "de6040d121a4ecc0b4a9c9bee7d3231f8020eda8eff4002cc9ae13c28abed445",
        "json": "79b29464b8ba6c78cccbd71eb87db33c636d96dba932e4b86b916469c449cf69",
    }),
    (["certify", *_SD3, "--kind", "permutation"], {
        "text": "a531eaad339d579785301defe6b1d46ef25f3a768cab658d152d78a34eece6f4",
        "json": "adeb9e880f28a35eecc20d8fe743f7d4ddf5aff8f7fecce04420c575e5274f99",
    }),
    (["certify", "--group", "D:4", "--lattice", "flows:cayley", "--kind", "permutation",
      "--bound", "1"], {
        "text": "772c8f78f252b23aa4c314b67dc66695cb08f3d68fa1c74fa8208fefe268684e",
        "json": "77370f0d33d066c253062b4dbc8e8d5bb22c9a7c88195d1ba2ad586740bb6e60",
    }),
    (["suite", "full"], {
        "text": "b70a44daa60b70a45f451d763023aba13cfff474fdb3e83390968714006fc614",
        "json": "8f36cf92e4bf23d66618066bb501d13210f9c02c49db2b1f60e3d78c4e2a4587",
    }),
]

# One invocation of each check id, with exactly the flags it reads; one
# digest of the concatenated text reports.
CHECK_ARGVS = [
    ["check", "rank-formula"],
    ["check", "cyclic-flows", "--n", "3", "--gens", "s"],
    ["check", "flow-coflasque", "--group", "C:4", "--gens", "s"],
    ["check", "kernel-generators", "--n", "3", "--m", "2", "--r", "2"],
    ["check", "faithful-transfer", "--n", "3", "--m", "2", "--r", "2"],
    ["check", "bar-cocycle", "--group", "C:2"],
    ["check", "center-walks", "--group", "C:2"],
    ["check", "sn-restrictions", "--n", "3"],
    ["check", "schanuel", "--group", "C:2", "--lattice", "trivial"],
]
CHECK_TEXT_SHA256 = "2fd1e3f1d6848373ef790502713bd51dae24c83e9151f8ff138677cde748abcb"


# `tate` over a grid of lattices, subgroups and degrees, one digest of the
# concatenated outputs per format.
TATE_GRID = [
    ["tate", "--group", group, "--lattice", lattice, "--subgroup", subgroup,
     "--degree", degree]
    for group, subgroups in (
        ("SD:3,2,2", ("trivial", "whole", "sylow2", "sylow3")),
        ("D:4", ("trivial", "whole", "sylow2")),
        ("C:6", ("trivial", "whole", "sylow2", "sylow3")),
    )
    for lattice in ("trivial", "regular", "flows:cayley")
    for subgroup in subgroups
    for degree in ("-1", "0", "1")
]
TATE_GRID_SHA256 = {
    "text": "75722017ea3d307afac49b930346b9ecaaf3abc43d2fe0fa9e91d16dc6217a15",
    "json": "6f71e93dc911bcb555833abebed54446ade3f49a43a805f8b27aba2eca876eb3",
}


def _output(argv) -> str:
    buf = io.StringIO()
    code = main(argv, out=buf)  # not an assert: this also runs under python -O
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return _ELAPSED.sub('"elapsed_ms": 0', buf.getvalue())


def output_digest(argv) -> str:
    return hashlib.sha256(_output(argv).encode()).hexdigest()


def tate_grid_digest(output: str) -> str:
    text = "".join(_output(argv + ["--output", output]) for argv in TATE_GRID)
    return hashlib.sha256(text.encode()).hexdigest()


def check_text_digest() -> str:
    text = "".join(_output(argv + ["--output", "text"]) for argv in CHECK_ARGVS)
    return hashlib.sha256(text.encode()).hexdigest()


def suite_quick_digest() -> str:
    return output_digest(["suite", "quick", "--output", "json"])


def test_suite_quick_output_unchanged():
    assert suite_quick_digest() == SUITE_QUICK_SHA256


@pytest.mark.parametrize(
    "argv, digest",
    [
        (argv + ["--output", output], digest)
        for argv, digests in COMMANDS
        for output, digest in digests.items()
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_command_output_unchanged(argv, digest):
    assert output_digest(argv) == digest


# A malformed spec: (argv, exit code, digest of stderr), stdout empty.
USAGE_ERRORS = [
    (["flows", "--graph", "cosets(S:4"], 2,
     "03601d0b7942b6b9fdd0cdf1e74ca7e40de507b57b86a1940d2fedad9bae8c8c"),
]


@pytest.mark.parametrize("argv, code, digest", USAGE_ERRORS, ids=lambda v: str(v))
def test_usage_error_unchanged(argv, code, digest):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv, out=out) == code
    assert out.getvalue() == ""
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == digest


def test_check_text_reports_unchanged():
    assert check_text_digest() == CHECK_TEXT_SHA256


@pytest.mark.parametrize("output", sorted(TATE_GRID_SHA256))
def test_tate_grid_output_unchanged(output):
    assert tate_grid_digest(output) == TATE_GRID_SHA256[output]


if __name__ == "__main__":
    print("suite quick json", suite_quick_digest())
    for argv, digests in COMMANDS:
        for output in digests:
            print(" ".join(argv), output, output_digest(argv + ["--output", output]))
    for output in TATE_GRID_SHA256:
        print("tate grid", output, tate_grid_digest(output))
    print("check text", check_text_digest())
