"""Golden artifact digests: the CLI's stdout for a fixed matrix of flags is
pinned by SHA-256, so a refactor that changes any byte of any JSON report or
CSV transcript fails here.

The matrix is protocol x attack x check x format, each at 400 pairs, seed
11 and C = 0.5.  A deliberate change to the artifacts (a new stream version,
a new report field) must regenerate these values in the same change and say
why.  These digests are of stream version 2 (``config_echo.stream_version``):
keyed SplitMix64 draws, sampled through each session's round trie.

The CSV digests are of the 23-column transcript, in which a four-state
error check fills the base protocol's ``control-qber`` row (``alice_basis``,
``correlated``, ``qber_pass``) instead of the former ``control_basis`` and
``control_pass`` columns, so every CSV digest changed with that schema while
every JSON digest stayed.

The two ``modified ir qber`` digests changed once more when four-state
intercept-resend began decoding Alice's Pauli announcement against its
guess of Bob's state: its rounds now carry a guess of her symbol
(``eve_guessed_alice_bit``, ``eve_guess_accuracy.alice_bit``).

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
    "base none chsh csv": "96a3cb546de6f047a44f004d4e7a72492763c282697692cde8e38d567a302bde",
    "base none qber json": "86b740428f6ab4b1c7cb74c191fd29110227d3c38424be989398a8aa1e4757c4",
    "base none qber csv": "0e9f06b7148cb3a5fbcf73937ee3832609480915c8cbc2569904d5e89f85afc0",
    "base ir chsh json": "3497332cf595ff0822b097755c2b54fb1b5a18c2d288cf902a740bc48121240f",
    "base ir chsh csv": "8cbc01be7979e7db5a113c7d6b9a99bcecf1f688960a10254d28c628a959ccb8",
    "base ir qber json": "5c1c6b0d0ca68d1bf0f4cb1f26817a6494d18d6fa17bd447b0a20520893fa933",
    "base ir qber csv": "63075aafd0540ef59aad84a43d52f3c3ffe646e31a8ec4320ba970d29c346fbd",
    "base qmm chsh json": "8d34d22a0ef77cda062c42e6fc446ea47317dc84bc3be21816befa29fd239016",
    "base qmm chsh csv": "0eb2730832baacb7ac56b8de8287ba85517132d35bda472a9c7937166cc91453",
    "base qmm qber json": "7b34f8cf727f567ad592b769fe2b7209dd2a597573f8d9062cae85122599795c",
    "base qmm qber csv": "74f165bc0b30474cd39b1861716c5d75e9869d6965f394c2fb5003fd1414c317",
    "base qmm-swap chsh json": "ed76ff7f1cdbd4a1d8d0f6e9ca94d3ef59fffe5bee8fba483e4b912a8bc64d7c",
    "base qmm-swap chsh csv": "ed6f49610e12e39df11ecb479976bc12414dd1b76029884212f7fb27036f169b",
    "base qmm-swap qber json": "7bb461fd31a26b0660f1acb36c5962bee46a00101098f2a0d8f4ac97789636a1",
    "base qmm-swap qber csv": "74f165bc0b30474cd39b1861716c5d75e9869d6965f394c2fb5003fd1414c317",
    "modified none chsh json": None,
    "modified none chsh csv": None,
    "modified none qber json": "9f11d3c648cd4b86ed259eb1dd1348f1a34e0b7cc407b2ff3dcb65d47535ae53",
    "modified none qber csv": "be44c9b8765901483aec3170e873bdcfb2a542102ac98129d21e989f6c1352f7",
    "modified ir chsh json": None,
    "modified ir chsh csv": None,
    "modified ir qber json": "c6eff4d50788dbe4faf2888f14d02f6eaa8dae4de8664d3e9257a8f1ceeb1bd1",
    "modified ir qber csv": "900c7a632fe9d4a5706f9055e7d58164cac953f05c99265dead07e2535df4aa8",
    "modified qmm chsh json": None,
    "modified qmm chsh csv": None,
    "modified qmm qber json": "ac2f29f558f8e309545da6210e3cebc781ad3d7db9d04dc68360a1d41c5fe7aa",
    "modified qmm qber csv": "d686bc3fd9bf0359cee75bbe2637fb9b9a3fb5d49ba0ccf50558b601e7016936",
    "modified qmm-swap chsh json": None,
    "modified qmm-swap chsh csv": None,
    "modified qmm-swap qber json": "9cad0f38ec91211737b0043f01080b3acc1e8ae863b8d078ece6443e4a9e0e25",
    "modified qmm-swap qber csv": "d686bc3fd9bf0359cee75bbe2637fb9b9a3fb5d49ba0ccf50558b601e7016936",
}

#: The same flags at one pair, for three cases.  A session builds its whole
#: trie however few pairs it has, so all but one leaf are reached by no
#: pair; those leaves must leave no trace in the artifact (no empty CHSH
#: bin, no row).
GOLDEN_ONE_PAIR = {
    "base none chsh json": "e28e084b76f23722050b802644383945a59f86f90bfb59236b0fb082a6f87c8b",
    "base qmm-swap chsh csv": "fb753e147bd47a2b601fa735df2a9369f6d23d0f37afc294df218aa5f37b6f59",
    "modified ir qber json": "8d65fa7ad0dc4d12a804f5a6f6395fdc518b8150a9578b8e5240e03f51454670",
}


def _matrix():
    for protocol, attack, check, out_format in itertools.product(
        ("base", "modified"), ("none", "ir", "qmm", "qmm-swap"), ("chsh", "qber"), ("json", "csv")
    ):
        yield f"{protocol} {attack} {check} {out_format}"


def test_golden_table_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(_matrix())


def _argv(case: str, pairs: int) -> list[str]:
    protocol, attack, check, out_format = case.split()
    return [
        "--protocol", protocol, "--attack", attack, "--check", check, "--format", out_format,
        "--pairs", str(pairs), "--seed", "11", "--control-prob", "0.5",
    ]


@pytest.mark.parametrize("case", list(_matrix()), ids=lambda case: f"{case} separate")
def test_cli_artifact_digest(case, capsys):
    argv = _argv(case, 400)
    if GOLDEN[case] is None:
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--check" in captured.err
        return
    assert run_cli(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]


@pytest.mark.parametrize("case", list(GOLDEN_ONE_PAIR))
def test_one_pair_artifact_digest(case, capsys):
    assert run_cli(_argv(case, 1)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_ONE_PAIR[case]
