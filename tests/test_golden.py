"""Golden artifact digests: the CLI's stdout for a fixed matrix of flags is
pinned by SHA-256, so a refactor that changes any byte of any JSON report or
CSV transcript fails here.

The matrix is protocol x attack x check x format, each at 400 pairs, seed
11 and C = 0.5.  A deliberate change to the artifacts (a new stream version,
a new report field) must regenerate these values in the same change and say
why.  These digests are of stream version 2 (``config_echo.stream_version``):
keyed SplitMix64 draws, sampled through each session's round trie.

``--check chsh`` with ``--protocol modified`` is rejected (exit 2, naming
``--check``): every four-state control round is an error check, so those
eight cases hold None and assert the rejection.  Equal digests in the table
show the one inert combination left: ``qmm-swap`` differs from ``qmm`` only
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
    "base none chsh json": "363a1b5bd668dbb72787db06d3f4ae8691681a3b8bbc14e267b7b3e06f200f63",
    "base none chsh csv": "1a3a7aa480c7d52479ea993b15f46d1a78884ce788eb8aec467a6bd82709d83f",
    "base none qber json": "86b740428f6ab4b1c7cb74c191fd29110227d3c38424be989398a8aa1e4757c4",
    "base none qber csv": "bfb9a07e477de5120b96568e9e5b253f4830ef2d0cb27f45eb97ff885a6181d8",
    "base ir chsh json": "3497332cf595ff0822b097755c2b54fb1b5a18c2d288cf902a740bc48121240f",
    "base ir chsh csv": "5f02f2d859f9fefdf9c60d8911d0f9b4fa5b1ac97bfd448b4096542d38f3d2ea",
    "base ir qber json": "5c1c6b0d0ca68d1bf0f4cb1f26817a6494d18d6fa17bd447b0a20520893fa933",
    "base ir qber csv": "8feb1b1224309d2938c40090b03ecf7a006de40614e6a0b4887fae45b97af7f0",
    "base qmm chsh json": "8d34d22a0ef77cda062c42e6fc446ea47317dc84bc3be21816befa29fd239016",
    "base qmm chsh csv": "c4f7dc77469cf268ce13dab44ac0f7c7951ea85ba6008f21cf16a1c2f5f5b613",
    "base qmm qber json": "7b34f8cf727f567ad592b769fe2b7209dd2a597573f8d9062cae85122599795c",
    "base qmm qber csv": "a0932d42b82a4f497c3c5a383d49aa527d6af300b6515ae81a145ce33ce2ca79",
    "base qmm-swap chsh json": "ed76ff7f1cdbd4a1d8d0f6e9ca94d3ef59fffe5bee8fba483e4b912a8bc64d7c",
    "base qmm-swap chsh csv": "d3165e7589f6733705694bb1d2458aaee67451e47337ec754d005860e9ffee58",
    "base qmm-swap qber json": "7bb461fd31a26b0660f1acb36c5962bee46a00101098f2a0d8f4ac97789636a1",
    "base qmm-swap qber csv": "a0932d42b82a4f497c3c5a383d49aa527d6af300b6515ae81a145ce33ce2ca79",
    "modified none chsh json": None,
    "modified none chsh csv": None,
    "modified none qber json": "9f11d3c648cd4b86ed259eb1dd1348f1a34e0b7cc407b2ff3dcb65d47535ae53",
    "modified none qber csv": "90f82512ad9119e13feb5c4228c0f9cbd3d3e55f648367bce34137f128165f10",
    "modified ir chsh json": None,
    "modified ir chsh csv": None,
    "modified ir qber json": "af6c2a682471fb2e810d601ddf6e5d356adb0c7e97ad8a8a5677e72ef0e63c50",
    "modified ir qber csv": "e93c0a1b7651934a5a6a092b9d838c22c9818d56c9ff79440391ea923a28f9a3",
    "modified qmm chsh json": None,
    "modified qmm chsh csv": None,
    "modified qmm qber json": "ac2f29f558f8e309545da6210e3cebc781ad3d7db9d04dc68360a1d41c5fe7aa",
    "modified qmm qber csv": "88bad1249aa40c97bcce50144a4fadc9132278d37b5741c3cc1aeb8643af034a",
    "modified qmm-swap chsh json": None,
    "modified qmm-swap chsh csv": None,
    "modified qmm-swap qber json": "9cad0f38ec91211737b0043f01080b3acc1e8ae863b8d078ece6443e4a9e0e25",
    "modified qmm-swap qber csv": "88bad1249aa40c97bcce50144a4fadc9132278d37b5741c3cc1aeb8643af034a",
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
    if GOLDEN[case] is None:
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--check" in captured.err
        return
    assert run_cli(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]
