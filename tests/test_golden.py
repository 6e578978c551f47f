"""Golden artifact digests: the CLI's stdout for a fixed matrix of flags is
pinned by SHA-256, so a refactor that changes any byte of any JSON report or
CSV transcript fails here.

The matrix is protocol x attack x check x format, each at 400 pairs, seed
11 and C = 0.5.  A deliberate change to the artifacts (a new stream version,
a new report field) must regenerate these values in the same change and say
why.

Equal digests in the table show two inert flag combinations: ``--check``
has no effect with ``--protocol modified`` (every four-state control round
is an error check, so its CSV digests match and its JSON reports differ
only in ``config_echo.check``), and ``qmm-swap`` differs from ``qmm`` only
in base-protocol CHSH rounds (every other CSV digest of the two matches).

Each case's test id ends in ``separate``: the matrix once had a ``--duplex``
axis, and its ``separate`` cases are the ones these digests continue, so a
case keeps the name it had then.  The flag is gone; every round carries both
parties' bits.
"""

import hashlib
import itertools

import pytest

from duplexqkd.cli import run_cli

GOLDEN = {
    "base none chsh json": "fd961abd8c54dd8768a481ee2177defb71888ac4ca1a1e18c1befd895bce1413",
    "base none chsh csv": "3761ce4cd1dce868336cb75e40a38a7fb5789efc43adbf821e479ae07f3b0bcd",
    "base none qber json": "715c17f56b5ca4fa73a3f042fcf110e59ada32ff7c46512a20adef5cba085121",
    "base none qber csv": "b88f104696c34d40c0c6503f0504139f9699ff4c699e6fc65623cd93854585e1",
    "base ir chsh json": "7a4eb790e282dd1d06ad8066c59e825af8ff900844340bfb25c851ad91f311ad",
    "base ir chsh csv": "8d53f7f0459e1e33c841b93637dc0285959f47ff09efa33d8dad2d43cd54aed4",
    "base ir qber json": "a7d3eb84143150a8559b57bbb621c8aa424bb0c4436b0d21c10c2a75d30b0717",
    "base ir qber csv": "85ae9216ee73615e0ecc70e527cda63c898f05c54c3796dc3cfad4b63f6e4fde",
    "base qmm chsh json": "e84d06b045a0e689328e608748d9563d83f424fcc946180ad9cbe0c2ac61a8d5",
    "base qmm chsh csv": "cae9bcfca23092d985ea5dfef8ef33a00422d03c4ed4cec08cb763e55214edb9",
    "base qmm qber json": "85bed4cbc265893e30fb126de980b8a9d1ae23ffb233a5bea000833d415a0312",
    "base qmm qber csv": "64a3d10874989a099b0760675ce51fa56c0f060fe5d5efc1170f783135f84153",
    "base qmm-swap chsh json": "94783445fe842289347def496941bb4a76b0908b9184e394bba6a2936a1d6ca2",
    "base qmm-swap chsh csv": "fa0575735e1bd38bd055361888d5eac3857d4b1cf8dccb4f3911c9262313c81b",
    "base qmm-swap qber json": "f22aaba83389e5fc2c1319c974b0849a9be829275e918d177dd6deb1460fbe08",
    "base qmm-swap qber csv": "64a3d10874989a099b0760675ce51fa56c0f060fe5d5efc1170f783135f84153",
    "modified none chsh json": "26ed60d0f68500d3e9c9b5392b12401d99373a5e2815391a2b48d06c44de660e",
    "modified none chsh csv": "fb17e0da20746bc2aa9ae571580dbae9fd01a6b7802d25f0d413514e1e9cce34",
    "modified none qber json": "f0863c597519635350ae22c63c61542023f4180cc26dd698a9b747f12d9481e3",
    "modified none qber csv": "fb17e0da20746bc2aa9ae571580dbae9fd01a6b7802d25f0d413514e1e9cce34",
    "modified ir chsh json": "07aa9a402ade20173ade3a927ce2ede77f3e2e0ed1189234e01b842cc048edc7",
    "modified ir chsh csv": "3464f8b7abba0b27aac4c038adf36317200a1c965ede571543d2d8bd57a1f32f",
    "modified ir qber json": "19b520bb47b379391d2703420cc0d880d70132bb54bc5841907306fc4390c499",
    "modified ir qber csv": "3464f8b7abba0b27aac4c038adf36317200a1c965ede571543d2d8bd57a1f32f",
    "modified qmm chsh json": "d15897bce9b61b208cbea7205f59cab9672b8ea05e2a95ad8972e55a8c97dc4a",
    "modified qmm chsh csv": "4c4cfc9a564c1df9ef06e6a6be1fefffa461390653b49b50d751a70bdaa4006c",
    "modified qmm qber json": "bb7cabdcc5007524960e378c3a015774e21182d5da95494930e5a72bedd2712b",
    "modified qmm qber csv": "4c4cfc9a564c1df9ef06e6a6be1fefffa461390653b49b50d751a70bdaa4006c",
    "modified qmm-swap chsh json": "56f3ff0fc71a32409a961b07c41ba8f5736a536b0ae5093be54cf8aa6b3d5d2d",
    "modified qmm-swap chsh csv": "4c4cfc9a564c1df9ef06e6a6be1fefffa461390653b49b50d751a70bdaa4006c",
    "modified qmm-swap qber json": "abfa97de39f7b050f69b4f5bee0ec629f8952964a3e456e9e2f1b8403c5e7528",
    "modified qmm-swap qber csv": "4c4cfc9a564c1df9ef06e6a6be1fefffa461390653b49b50d751a70bdaa4006c",
}


def _matrix():
    for protocol, attack, check, out_format in itertools.product(
        ("base", "modified"), ("none", "ir", "qmm", "qmm-swap"), ("chsh", "qber"), ("json", "csv")
    ):
        yield f"{protocol} {attack} {check} {out_format}"


def test_golden_table_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(_matrix())


@pytest.mark.parametrize("case", list(_matrix()), ids=lambda case: f"{case} separate")
def test_cli_artifact_digest(case, capsys):
    protocol, attack, check, out_format = case.split()
    argv = [
        "--protocol", protocol, "--attack", attack, "--check", check, "--format", out_format,
        "--pairs", "400", "--seed", "11", "--control-prob", "0.5",
    ]
    assert run_cli(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]
