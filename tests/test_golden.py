"""Byte-identity of the documented CLI artifacts across versions.

Each case runs one documented command in process and pins the sha256 of
its stdout.  A refactor that claims identical output must leave every
digest unchanged; a deliberate change of an output format updates the
digest here together with the README.
"""

import contextlib
import hashlib
import io
import json

import pytest

from greenfan import cli, diagram_from_json, validate_fixed_data

from support import require_positive_wall

PATTERNS = {
    "A2": {"B": [[0, 1], [-1, 0]], "delta": [1, 1]},
    "B2": {"B": [[0, 1], [-2, 0]], "delta": [1, 2]},
    "G2": {"B": [[0, 1], [-3, 0]], "delta": [1, 3]},
    "A3": {"B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "delta": [1, 1, 1]},
    "Kronecker": {"B": [[0, 2], [-2, 0]], "delta": [1, 1]},
    "A4": {
        "B": [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]],
        "delta": [1, 1, 1, 1],
    },
    "B3": {"B": [[0, 1, 0], [-1, 0, 1], [0, -2, 0]], "delta": [1, 1, 2]},
    "D4": {
        "B": [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]],
        "delta": [1, 1, 1, 1],
    },
    "K33": {"B": [[0, 3], [-3, 0]], "delta": [1, 1]},
    # B2 and G2 in the other index order: every crossing sign and the sweep order change
    "B2-swapped": {"B": [[0, -2], [1, 0]], "delta": [2, 1]},
    "G2-swapped": {"B": [[0, -3], [1, 0]], "delta": [3, 1]},
}


def _green(normals):
    return [{"normal": n, "sign": 1} for n in normals]


# obstruct inputs: a repeated normal among mixed degrees, and a rescaled
# lattice whose non-primitive normal has a fractional exponent
PATTERNS["G2-crossings"] = dict(
    PATTERNS["G2"], crossings=_green([[1, 0], [1, 1], [0, 1], [1, 2], [1, 0], [0, 1], [2, 3]])
)
PATTERNS["B3-crossings"] = dict(
    PATTERNS["B3"],
    crossings=_green([[1, 0, 1], [0, 1, 1], [1, 1, 2], [1, 0, 1], [0, 2, 0], [1, 1, 1]]),
)

GOLDEN = {
    ("explore", "A3", ()):
        "b3009cde21976bfaa51d29fd8dfbc8a6dd07e65805b619a483cc11aaa6a33d18",
    ("explore", "A3", ("--format", "dot")):
        "44ee6c7adb2b11c320f6a93c5f50e9ccc2973e2d51c9ae9cf1751efc0b84d9ea",
    ("explore", "D4", ()):
        "b1af3f367926e5393b226f519436e6d5ace36fa3a7a008d4482c69d4ba3f35b9",
    ("explore", "B3", ()):
        "5a6c95426078578e007ed7cd174ecaaac3693d7afd1fc9c0cdf15b2880f80d23",
    ("consistency", "A3", ("--level", "4")):
        "8ebc1258ee6b978ed1531584f04ef94c10dc58b6e55a88b973b8490a6182106e",
    ("consistency", "A4", ("--level", "4")):
        "304e15d90d560b2f413d8c7bc20243b844c8062e807e4445cf914200eb17bfd5",
    ("consistency", "D4", ("--level", "4")):
        "c2d49eac5771682f5e119a4a24c380074fff3d17feb9dc4779479bdf037d823d",
    # non-simply-laced: crossing exponents other than 1
    ("consistency", "B3", ("--level", "6")):
        "a19a2ea5b30c1f452d506f90f119b7816a40474ce554db338cc9710c5548b609",
    ("consistency", "G2", ("--level", "6")):
        "b0bd35eb574ae6a5916056c41a16adabdb2aa40d1d9a87f6161ebc15cf950120",
    ("scatter2", "A2", ("--level", "6")):
        "9bd8acda7bb2b8d2d552faaeec5ecd45d32fe544faa7e579e15b055c239a1444",
    ("scatter2", "A2", ("--level", "6", "--format", "svg")):
        "cdf4cefbcdbb7387636fbcfbc085a5ca9ad75e7dd24c32cbe7854a7f3f029357",
    ("scatter2", "B2", ("--level", "6")):
        "0344f3d7ee8e75fe450a1878325045622b40671b930e60f742e5f03154692d3a",
    ("scatter2", "B2", ("--level", "6", "--format", "svg")):
        "414b8c9ac4de85e1933afb7f62f2800cdc25b282b677955eb29bcf5b2faf33c5",
    ("scatter2", "G2", ("--level", "6")):
        "8fb6c122b21c5c9eaaa298a4995c025e6a0afe179e50ed61901e20bc8eff8529",
    ("scatter2", "G2", ("--level", "6", "--format", "svg")):
        "f221176426ea040609acdc6c44f5e5cc94dd8dfab8f3e4d2ca50225cfc488fbb",
    ("scatter2", "Kronecker", ("--level", "6")):
        "d09c17d45d41ec54c39b310b4d824c3d4d6760f16700537cfec7ace058fdd30e",
    ("scatter2", "Kronecker", ("--level", "6", "--format", "svg")):
        "f5cd963e496615f4562e9216037205050ce530aa98b17b06cf4ab88be8da5fd7",
    ("emit-fan", "G2", ()):
        "89089397432ddfa678f287abb306b22f6f7343923beed54728cc2b08f4d9b915",
    # the same fan through explore's svg artifact
    ("explore", "G2", ("--format", "svg")):
        "89089397432ddfa678f287abb306b22f6f7343923beed54728cc2b08f4d9b915",
    ("obstruct", "G2-crossings", ()):
        "ab82e0b0e67f5f8448f32a6b4bbd3c2d9ec92537c026806e57194becb7bcbdf6",
    ("obstruct", "B3-crossings", ()):
        "4a9d5679145706b4c53474421dbd8f50eec05960c8c59f532ed3615fd97fcb2c",
    # level 10: many defect terms share each outgoing ray
    ("scatter2", "Kronecker", ("--level", "10")):
        "4443bc54f95e797e85c0981ad2b023394ddcd45529966ba9f7bd42add3692366",
    ("scatter2", "G2", ("--level", "10")):
        "8f39910fd04983fe5f6a6d55914ce5160f848bddd094571af91f31511e846a86",
    ("scatter2", "K33", ("--level", "10")):
        "bcb9469140a742ed3fd415fc8d98d3842f8228e7bdcf948602397c0ddb87c8f6",
    ("scatter2", "K33", ("--level", "10", "--format", "svg")):
        "127d6d1d1480ab58bfd681da40a8a66446b7d48f8651e6073d7af07de8b58c93",
    ("scatter2", "B2-swapped", ("--level", "10")):
        "c5bb40ae1e3244086b30424560bbae65efcfb27bfc2d6ad96227d8099c8ebf8c",
    ("scatter2", "G2-swapped", ("--level", "10")):
        "4fb049106a337f724778626fc00289609fae39146bcb6d5e4eaa55a7c22bebbb",
}


# ``certify`` of the document that ``explore`` writes for D4
EXPORTED_D4_CERTIFICATE = "305403fde51e5efe4bbd7ed4c5bbdc4398a592f02d1880208affc5cc6401d6ce"


def _stdout(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _stdout_digest(argv):
    return hashlib.sha256(_stdout(argv).encode("utf-8")).hexdigest()


def _case_argv(case, tmp_path):
    command, pattern, extra = case
    path = tmp_path / ("%s.json" % pattern)
    path.write_text(json.dumps(PATTERNS[pattern]))
    return [command, str(path)] + list(extra)


def _case_id(case):
    return "-".join((case[0], case[1]) + case[2])


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=_case_id)
def test_artifact_digest(case, tmp_path):
    assert _stdout_digest(_case_argv(case, tmp_path)) == GOLDEN[case]


@pytest.mark.parametrize(
    "case", sorted(c for c in GOLDEN if c[0] == "scatter2" and "svg" not in c[2]), ids=_case_id
)
def test_scatter2_documents_hold_positive_walls(case, tmp_path):
    """Each wall function a golden diagram document writes, read back, factors
    into (1 + t^k)^(e_k) with e_k / delta_exponent a nonnegative integer
    (positivity, GHKK Thm 1.13)."""
    pattern = PATTERNS[case[1]]
    fd = validate_fixed_data(pattern["B"], pattern["delta"])
    diagram = diagram_from_json(json.loads(_stdout(_case_argv(case, tmp_path))), fd)
    assert diagram.walls
    for wall in diagram.walls:
        require_positive_wall(fd, wall)


# one case per JSON document kind
DOCUMENT_KINDS = {
    "graph": ("explore", "D4", ()),
    "certificate": ("certify", "D4", ()),
    "report": ("consistency", "B3", ("--level", "6")),
    "obstruction": ("obstruct", "G2-crossings", ()),
    "diagram": ("scatter2", "G2-swapped", ("--level", "10")),
}


@pytest.mark.parametrize("kind", sorted(DOCUMENT_KINDS))
def test_json_artifact_is_json_dumps_indent_2(kind, tmp_path, monkeypatch):
    """stdout is ``json.dumps(doc, indent=2)`` and a newline of the very
    document the command built."""
    docs, write = [], cli._json_batches
    monkeypatch.setattr(cli, "_json_batches", lambda doc: docs.append(doc) or write(doc))
    out = _stdout(_case_argv(DOCUMENT_KINDS[kind], tmp_path))
    assert len(docs) == 1
    assert out == json.dumps(docs[0], indent=2) + "\n"


def test_certificate_of_exported_graph_digest(tmp_path):
    pattern, graph = tmp_path / "D4.json", tmp_path / "D4-graph.json"
    pattern.write_text(json.dumps(PATTERNS["D4"]))
    _stdout_digest(["explore", str(pattern), "--out", str(graph)])
    assert _stdout_digest(["certify", str(graph)]) == EXPORTED_D4_CERTIFICATE
