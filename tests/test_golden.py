"""Golden artifact digests: the CLI's stdout for a fixed matrix of flags is
pinned by SHA-256, so a refactor that changes any byte of any JSON report or
CSV transcript fails here.

The matrix is protocol x attack x check x format, plus ``--duplex full`` for
the base protocol, each at 400 pairs, seed 11 and C = 0.5.  A deliberate
change to the artifacts (a new stream version, a new report field) must
regenerate these values in the same change and say why.
"""

import hashlib
import itertools

import pytest

from duplexqkd.cli import run_cli

GOLDEN = {
    "base none chsh json separate": "747f84865e5e02d482327ed9ced003e116350a900832b2d7344ca74c952c63ec",
    "base none chsh json full": "78902dc8feac1ca1c4f5a280a3375341423de4aef39a38a08eac69b2cfb20f70",
    "base none chsh csv separate": "4a00094d841913cd55b509ba49e90a7f8440ac79e47ba11d601925cb578758fe",
    "base none chsh csv full": "39daa3f994fab682ba3c9146128d92714ed89a67f6404eaa50be3379a8bc6f76",
    "base none qber json separate": "d3fa8ea339c6f006229afe96f08e2f058df7cfc47f3a6935c308ba322c868f91",
    "base none qber json full": "8ed6868a668730ca653bde1b8849b75f32df50f6997230808621862bec27bd5a",
    "base none qber csv separate": "7faaba0db909e0f190b94c62c969ae4dc54447a82df1841eec80c611f2f8d3f2",
    "base none qber csv full": "31e4d9975c461e8cbad7636b6c2368b0bbcc7fa54fc7b8eeb3e819ea7ff9f0b1",
    "base ir chsh json separate": "982125e40b5df42382d6c39ccade30bce01695408558ed7ecef190f995c174a0",
    "base ir chsh json full": "c232e4b5e775823cec6cefc46c6af27aefffc1e1de25a5c0f138e3329594678c",
    "base ir chsh csv separate": "aea713a460a4a8eb1623c31c4cad487637d16390a3dd6a009348d78d85bf222b",
    "base ir chsh csv full": "645bccfd9cc3d6a7f4e35caf3817700e9955fe129516078c429a2135a9a37e26",
    "base ir qber json separate": "0a662c7a785305f5441e5e3702c3fc5e88c42f61b16fc2c4a1a5223f911ffdf5",
    "base ir qber json full": "bb3df8792efbf5dad77c6c7b1f31bc91293b789301f765b10a9a2f55709fad5a",
    "base ir qber csv separate": "b627a23783440099eeb89dde514e850578e263211a1c4a7e59a7281a2d0c1abc",
    "base ir qber csv full": "a836587c76520631fcaa591bb3ccf06bab1483f7a506fc41c2ad4875149fb1a2",
    "base qmm chsh json separate": "c7145571d9190403dad20a1ffab59dd6d2bf7a3a1fdada50d6f3c069bd222e59",
    "base qmm chsh json full": "90b0fb6a25bf8860883938ad45a89b2fe87de76a913676f05e0de1f63c310be1",
    "base qmm chsh csv separate": "b19764e3451e86cdcdfbd80a487d48dba060af41bb4b9d555549065e6ac80f83",
    "base qmm chsh csv full": "f404f9eb2b2897ee4147cd78f4d6084bbe5549628e79875cad3084fb414c35e1",
    "base qmm qber json separate": "9171723a6f7b07fff7b9b6dc6a0e58ac3da4b61232c05d65f7c2f2028df2b7a7",
    "base qmm qber json full": "2e9c82f760f7042b5abefc1c0154c84da7a2ba551e37309956be85e72bb75274",
    "base qmm qber csv separate": "da8eb60be87f3fd1cdeecc90359dffe201bf5f082250213f897294605fa125d7",
    "base qmm qber csv full": "57c0861487440e18311d7a3d53ca7f8b97dc1244dcbd688500f69772d78ea434",
    "base qmm-swap chsh json separate": "ce445bce7b98f55b3428248af921996568154b50615f5b5eb81279538996a94e",
    "base qmm-swap chsh json full": "a1b768cfb634741ba4602571743060f7d0a776ef928a4cd516e71cced67b33e5",
    "base qmm-swap chsh csv separate": "b3b4aaedf1d5b700478918ec1934c5793ab8ae803a621d527fb2dbbdc271f519",
    "base qmm-swap chsh csv full": "f232af972e7796b6527bfe36a7c7d6762c1e2beaf6d80a73a791bab1ca38faef",
    "base qmm-swap qber json separate": "a17a0ed87cc5c59485c686a43c1e09373efbd24e9594eb0ccb577194356b367f",
    "base qmm-swap qber json full": "fcc2fa03a66157af2c28cad7d4a18d6a3fca21247605e5689f953e178cbfcf08",
    "base qmm-swap qber csv separate": "da8eb60be87f3fd1cdeecc90359dffe201bf5f082250213f897294605fa125d7",
    "base qmm-swap qber csv full": "57c0861487440e18311d7a3d53ca7f8b97dc1244dcbd688500f69772d78ea434",
    "modified none chsh json separate": "3a30b223f8f5adc121cc501fc240a8237785833f1d0c322a5b7e0e824f7dbdce",
    "modified none chsh csv separate": "4f3e6b14022be1c9f83b411dea0c1d4aa5549292dda32eb0833f14a22c2fc264",
    "modified none qber json separate": "05d73e5d514598c32a49fe5633bd35913247764de2e47bdd8667d2f5df6eb81a",
    "modified none qber csv separate": "4f3e6b14022be1c9f83b411dea0c1d4aa5549292dda32eb0833f14a22c2fc264",
    "modified ir chsh json separate": "9e7e09b07ea834558b74309d4012f5eb91fdc25735b2a286959a5e005c65dcbb",
    "modified ir chsh csv separate": "a2af250d600f91d4cf362a6d60080ad90acb9af490c24a571c8e2cd58eeb65e9",
    "modified ir qber json separate": "a7cf4dece2f0a8ed5da20000b89cf22b6a04d2dd21fab25fbe72a2028bebdfec",
    "modified ir qber csv separate": "a2af250d600f91d4cf362a6d60080ad90acb9af490c24a571c8e2cd58eeb65e9",
    "modified qmm chsh json separate": "1db8d4c424f48a400dfc8ae69153c8364649bf7fbf19f0b013715d0adb916ae6",
    "modified qmm chsh csv separate": "79c625810c43125fa9298647c338fed36811dca59097f94d4e5e401bef93a8b6",
    "modified qmm qber json separate": "1c45678d21056189fb69868489cc82dd2ebfb5a2c2f281b92a54f27d146627d8",
    "modified qmm qber csv separate": "79c625810c43125fa9298647c338fed36811dca59097f94d4e5e401bef93a8b6",
    "modified qmm-swap chsh json separate": "b730389b0cdf70d47ed02fe2c45f7bcb59f04b67c03ceca14a6b41985fe0ca87",
    "modified qmm-swap chsh csv separate": "79c625810c43125fa9298647c338fed36811dca59097f94d4e5e401bef93a8b6",
    "modified qmm-swap qber json separate": "24f690af592477670a1eeed2e9702ee9d906b43633fea97ddaa2529c42adcbfd",
    "modified qmm-swap qber csv separate": "79c625810c43125fa9298647c338fed36811dca59097f94d4e5e401bef93a8b6",
}


def _matrix():
    for protocol, attack, check, out_format in itertools.product(
        ("base", "modified"), ("none", "ir", "qmm", "qmm-swap"), ("chsh", "qber"), ("json", "csv")
    ):
        yield f"{protocol} {attack} {check} {out_format} separate"
        if protocol == "base":
            yield f"{protocol} {attack} {check} {out_format} full"


def test_golden_table_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(_matrix())


@pytest.mark.parametrize("case", list(_matrix()))
def test_cli_artifact_digest(case, capsys):
    protocol, attack, check, out_format, duplex = case.split()
    argv = [
        "--protocol", protocol, "--attack", attack, "--check", check, "--format", out_format,
        "--duplex", duplex, "--pairs", "400", "--seed", "11", "--control-prob", "0.5",
    ]
    assert run_cli(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[case]
