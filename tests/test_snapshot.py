"""Byte-level snapshots of outputs that refactors must leave unchanged.

The digests pin the exact JSON of every `cqsym verify` suite on a small
grid, the canonical representatives of every colored poset class up to
five elements in one or two colors and four in three, and the stdout and
exit code of every call in the CLI smoke matrix, so a change to term
order, representative choice, report layout or an error message shows
up here even when every identity still holds.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from cqsym import cli
from cqsym import poset as ps
from test_cli import SMOKE


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


VERIFY_SHA256 = {
    ("hopf-axioms", 1): "efab5c2478d6d75ab7873a6c01673088c556b6c922376f19144a88c85115ad3a",
    ("hopf-axioms", 2): "a674058ead53e119d51198077942b3b71bb415518e71cfe07f79671ac4e4d01b",
    ("gamma-morphism", 1): "2532e7f97b6547cba002fecf6933cc76af40473e26d505620d98120cf51d0655",
    ("gamma-morphism", 2): "46064afcc6cc421a488ab89b61159eb0e4873a8154ca85e92715f1d694838cda",
    ("lambda-morphism", 1): "8fb95ec253b9d989dadb286d6e7beeeb1960b137c2fc9dd40a120c85e881dde9",
    ("lambda-morphism", 2): "e16e122d86b038b23a905a647307e9233509d45745f11d9066130f8f09857288",
    ("theta-morphism", 1): "f1d406f0c2f6e659981c37e4c32919d2c5144bd89142fb238fb2648a1220ab49",
    ("theta-morphism", 2): "753363e28972f2d712f5c4c0dfc2f5124416d2c6148bcbfc79d4b2fb1ac35f49",
    ("antipode-consistency", 1): "042eeebd919eee61ea2a938a588f5b1625097d51986728379ccf468dfd3cfa37",
    ("antipode-consistency", 2): "52c1c90e0a3563f6051714e218776143c156a86c3d61be095f608dc87f90efa1",
    ("oracle-equivalence", 1): "1f925d47852b94c61f37e59fc32cde85b79461059c00522a3f2b21d078674146",
    ("oracle-equivalence", 2): "05f80667ce20b6f4a91cf9ffc71ff965b7b70edd8ea646bd8892b48a3e77db20",
    ("character-group", 1): "b9f0584e15553f3fc79142b0928e73483f8cbd74f1eeb76fac88dfca82aac86f",
    ("character-group", 2): "53b5c919e444da25a5d3dbfecf943a8f6dc755ff52d00afbd194cf7c38281044",
    ("nu-counting", 1): "029d3ad2a49836441ef2926bdea6e6c4b6f576add51204eef4757865e70377c9",
    ("nu-counting", 2): "3bf5260d92fa9fe49aa485348c60c8ea1fa2cb32539833f11e52b5f178d7235c",
    ("dimension-counts", 1): "18c575a3a7d84fe43542e11a03b0a153e319cb01fbd4f79535d22bfdcc693803",
    ("dimension-counts", 2): "7ea711f2b35154aac1f5745a2433cd89e5edace8978fb5b3119a097817655f49",
}

CANONICAL_SHA256 = {
    (1, 0): "0889960822dfddd064bc87b7a5be2ce5bd987e08d267f891323d795532b89e7e",
    (1, 1): "ccff5d7ad037845cf392219218a0ad27a6efab5731f02b553d81b48339b2bd20",
    (1, 2): "2b9c655f0f9afd1d330ef91a29c2d4281081a8bf259380905a6cb944bde2eea4",
    (1, 3): "4a6c09ef7709c5558cb2b74ad51bd9bb99cb401d16733089691a949f2d37458c",
    (1, 4): "943b8aed7595ad203880e91c813d1709410b218cf13baf964073a0f2d9e2b7d9",
    (2, 0): "e6972afac90ba795f05d1487dd0e30ecda168896772d53182eaec701d477cff9",
    (2, 1): "efbcf8ffab99f481f0bf2d2efcb2284962af868961449edcb0c00e55dcd81fa3",
    (2, 2): "aa1181785515bc15c318565a3380ae478a10c6660a386b2ca5a94554f00f22db",
    (2, 3): "65df3b7674b8e32bf5e24171f38672b023b719e8c9482873f75f719cb04e4b3d",
    (2, 4): "ae3e879cae5579505030d3d904cf942cf9544ed4dee7bb38aa9c223c065008ea",
    (1, 5): "2333166d94bd5bd106660e69f3bbf9aef93097b8595b1c86f6ab14b657e3d314",
    (2, 5): "f938837cf079d80a96f373d83a3569bbfa9c84c34fbe7e71165b084cb3c98f90",
    (3, 4): "c8a21cfdbff8f1d1cfa8762bd5f5bd2c7fb682d0f313d809c61cda5467f431c3",
}

# the valid then the malformed call of each SMOKE pair, in sorted order
SMOKE_SHA256 = "22b8042fbb6a2855f6332915c8e687680de045c3deee023509b736ab2c3000f3"


def test_verify_reports_unchanged():
    got = {}
    for suite, m in VERIFY_SHA256:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["verify", "--suite", suite, "--m", str(m),
                             "--max-n", "3", "--max-N", "2"])
        assert code == 0, (suite, m)
        got[suite, m] = _sha(buf.getvalue())
    assert got == VERIFY_SHA256


def test_canonical_representatives_unchanged():
    got = {(m, n): _sha(json.dumps([cli.poset_json(P)
                                    for P in ps.canonical_posets(m, n)]))
           for m, n in CANONICAL_SHA256}
    assert got == CANONICAL_SHA256


def test_cli_smoke_answers_unchanged():
    digest = hashlib.sha256()
    for verb, op in sorted(SMOKE, key=str):
        head = [verb] + ([op] if op else [])
        for tail in SMOKE[verb, op]:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(head + tail)
            digest.update(("%d\n" % code + buf.getvalue()).encode())
    assert digest.hexdigest() == SMOKE_SHA256
