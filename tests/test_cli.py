"""Command line interface: envelopes, exit codes, determinism, schema."""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import jsonschema
import pytest

from ulrich_forge import FieldSpec, __version__, parse_poly
from ulrich_forge.cli import main

from oracles import is_ulrich_presentation

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text()
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_quad_rank(capsys):
    code, payload = _run(capsys, ["quad", "rank", "x*y - z^2", "--field", "q"])
    assert code == 0
    assert payload["ok"] is True
    assert payload["version"] == __version__
    assert payload["command"] == "quad rank"
    assert payload["result"]["rank"] == 3
    assert payload["config"]["nvars"] == 3


def test_quad_diag(capsys):
    code, payload = _run(capsys, ["quad", "diag", "x*y", "--field", "q"])
    assert code == 0
    assert payload["result"]["diagonal"] == ["1", "-1"]


def test_quad_sop_reports_working_field(capsys):
    # every root exists in fp:13 (-1 = 5^2), so the work stays there
    code, payload = _run(capsys, ["quad", "sop", "x^2 + y^2 + z^2", "--field", "fp:13"])
    assert code == 0
    result = payload["result"]
    assert result["working_field"] == "fp:13"
    assert result["pairs"] == [["x + 5*y", "x + 8*y"], ["z", "z"]]
    assert result["square_term_flag"] is True

    # -2 is not a square mod 13, so the root is taken in fp2:13
    code, payload = _run(capsys, ["quad", "sop", "x^2 + 2*y^2", "--field", "fp:13"])
    assert code == 0
    result = payload["result"]
    assert result["working_field"] == "fp2:13"
    assert result["pairs"] == [["x + (5w)*y", "x + (8w)*y"]]


def test_quad_pencil_det(capsys):
    code, payload = _run(
        capsys,
        ["quad", "pencil-det", "t^2", "x^2 + y^2 + z^2", "--field", "q", "--nvars", "4"],
    )
    assert code == 0
    assert payload["result"]["determinant"] == "-x^3"
    assert payload["result"]["degree"] == 3


def test_quad_pencil_det_of_a_zero_determinant_has_no_degree(capsys):
    # the coefficient list of the zero polynomial is ["0"], yet it has no degree
    code, payload = _run(capsys, ["quad", "pencil-det", "--nvars", "3", "x^2", "y^2"])
    assert code == 0
    assert payload["result"] == {"coefficients": ["0"], "degree": None, "determinant": "0"}


def test_mf_build_then_verify_round_trip(capsys, tmp_path):
    code, payload = _run(capsys, ["mf", "build", "x*y + z*t", "--field", "fp:13"])
    assert code == 0
    built = payload["result"]
    assert built["size"] == 4 and built["ulrich_rank"] == 2

    lines = [built["quadric"]] + [e for row in built["entries"] for e in row]
    matrix_file = tmp_path / "mf.txt"
    matrix_file.write_text("# quadric, then row-major entries\n" + "\n".join(lines) + "\n")
    code, payload = _run(
        capsys,
        ["mf", "verify", "--field", "fp2:13", "--file", str(matrix_file)],
    )
    assert code == 0
    assert payload["result"]["verified"] is True


def test_mf_text_matrices_get_one_full_check(capsys, monkeypatch):
    # a built matrix read back as text proves nothing by itself: mf verify
    # and mf det-cert each run the relation check once, on the text matrix,
    # and a flipped sign fails both
    import ulrich_forge.clifford as clifford

    calls = []
    kernel = clifford._squares_to_quadric

    def counted(mf):
        calls.append(mf)
        return kernel(mf)

    monkeypatch.setattr(clifford, "_squares_to_quadric", counted)
    code, payload = _run(capsys, ["mf", "build", "x*y + z*t + x^2", "--field", "fp:13"])
    assert code == 0
    built = payload["result"]
    texts = [built["quadric"], *(e for row in built["entries"] for e in row)]
    k = next(k for k, t in enumerate(texts) if k and t != "0")
    minus = str(-parse_poly(texts[k], FieldSpec.prime(13), nvars=4))
    flipped = texts[:k] + [minus] + texts[k + 1 :]
    for command, key in ((["mf", "verify"], "verified"), (["mf", "det-cert"], "proof")):
        for matrix, holds in ((texts, True), (flipped, False)):
            calls.clear()
            code, payload = _run(capsys, [*command, "--field", "fp:13", "--", *matrix])
            assert (code == 0, payload["result"][key]) == (holds, holds)
            (mf,) = calls
            assert (mf.field, mf.nvars, mf.size) == (FieldSpec.prime(13), 4, built["size"])
            assert str(mf.quadric) == built["quadric"]


def test_mf_build_entries_pass_back_positionally(capsys):
    code, payload = _run(capsys, ["mf", "build", "x*y + z*t", "--field", "q"])
    built = payload["result"]
    texts = [built["quadric"]] + [e for row in built["entries"] for e in row]
    assert "-x" in texts
    code, payload = _run(capsys, ["mf", "verify", *texts, "--field", "q"])
    assert code == 0
    assert payload["result"] == {"size": 4, "verified": True}


@pytest.mark.parametrize(
    "command, texts",
    [(["quad", "rank"], ["-x^2"]), (["mf", "verify"], ["-x*y", "0", "x", "-y", "0"])],
    ids=["quad rank", "mf verify"],
)
def test_texts_starting_with_a_minus_are_polynomials(capsys, command, texts):
    dashed = _call(capsys, [*command, "--field", "q", "--", *texts])
    assert dashed[0] == 0 and dashed[2] == ""
    assert _call(capsys, [*command, *texts, "--field", "q"]) == dashed
    assert _call(capsys, [*command, "--field=q", *texts]) == dashed
    code, out, _ = _call(capsys, [*command, "-h"])
    assert code == 0 and out.startswith("usage:")


def test_option_values_and_attached_short_options_stay_options(capsys):
    code, payload = _run(capsys, ["smooth", "check", "--seed", "-3", "-x^2 - y^2 - z^2"])
    assert code == 0 and payload["config"]["seed"] == -3
    code, payload = _run(capsys, ["hilbert", "value", "-x^2", "-e2"])
    assert code == 0 and payload["result"]["degree"] == 2


def test_mf_verify_rejects_tampering(capsys):
    args = ["mf", "verify", "x*y", "0", "x", "x", "0", "--field", "q"]
    code, payload = _run(capsys, args)
    assert code == 1
    assert payload["ok"] is False
    assert payload["result"]["verified"] is False


def test_mf_verify_accepts_good_matrix(capsys):
    args = ["mf", "verify", "x*y", "0", "x", "y", "0", "--field", "q"]
    code, payload = _run(capsys, args)
    assert code == 0
    assert payload["result"]["verified"] is True


def test_mf_det_cert(capsys):
    args = [
        "mf", "det-cert", "x*y", "0", "x", "y", "0",
        "--field", "fp:101", "--max-trials", "12", "--seed", "5",
    ]
    code, payload = _run(capsys, args)
    assert code == 0
    result = payload["result"]
    assert result["certified"] is True
    assert result["sign"] == -1
    assert result["tested"] == 1
    assert result["proof"] is True
    assert payload["config"]["max_trials"] == 12


def test_mf_det_cert_proves_higher_degrees_and_samples_the_rest(capsys):
    # [[0, x^2], [y^2, 0]] squares to x^2*y^2 * Id: no Clifford matrix for
    # mf verify, but a proof for det-cert; diag(x, y) has det = x*y without
    # squaring to x*y * Id, so it is only sampled
    head = ["mf", "det-cert", "--field", "fp:101", "--max-trials", "12", "--seed", "5"]
    code, payload = _run(capsys, ["mf", "verify", "x^2*y^2", "0", "x^2", "y^2", "0"])
    assert (code, payload["result"]["verified"]) == (1, False)
    code, payload = _run(capsys, [*head, "x^2*y^2", "0", "x^2", "y^2", "0"])
    assert code == 0
    keys = ("certified", "sign", "tested", "proof")
    assert tuple(payload["result"][k] for k in keys) == (True, -1, 1, True)
    code, payload = _run(capsys, [*head, "x*y", "x", "0", "0", "y"])
    assert code == 0
    assert tuple(payload["result"][k] for k in keys) == (True, 1, 12, False)


def test_mf_det_cert_sign_flip_is_exit_one(capsys):
    # det = x^2 + x*y - y^2 is +-Q at every point of F_3^2 with Q != 0,
    # but not with one sign
    args = ["mf", "det-cert", "x^2+y^2", "x+y", "y", "y", "x", "--field", "fp:3"]
    code, payload = _run(capsys, args)
    assert code == 1
    assert payload["ok"] is False
    assert payload["result"]["certified"] is False
    assert payload["result"]["sign"] is None
    assert payload["result"]["reason"] == "sign flipped between sample points"


def test_mf_det_cert_without_a_nonzero_sample_is_exit_one(capsys):
    # the 2x2 matrix x*Id with q = 0; a 1x1 matrix is refused for its odd size
    args = ["mf", "det-cert", "0", "x", "0", "0", "x", "--field", "fp:101", "--max-trials", "3"]
    code, payload = _run(capsys, args)
    assert code == 1
    result = payload["result"]
    assert result["certified"] is False
    assert result["reason"] == "no sample point had q nonzero"
    assert (result["tested"], result["skipped"]) == (0, 60)


def test_mf_det_cert_of_an_odd_size_is_exit_one(capsys):
    # det [x] = x is +-1 = q^0 at every nonzero point of F_3, but an odd
    # size has no det A = sign * q^(size/2) to certify
    args = ["mf", "det-cert", "x^2", "x", "--field", "fp:3", "--max-trials", "3"]
    code, payload = _run(capsys, args)
    assert code == 1
    assert payload["ok"] is False
    result = payload["result"]
    assert result["certified"] is False
    assert result["sign"] is None
    assert (result["tested"], result["skipped"]) == (0, 0)
    assert result["reason"] == "odd size 1: det A = sign*q^(size/2) needs an even size"


def test_mf_entry_count_must_be_square(capsys):
    code, payload = _run(capsys, ["mf", "verify", "x*y", "0", "x", "y", "--field", "q"])
    assert code == 2
    assert "perfect square" in payload["error"]


def test_ulrich_pipeline_quartic(capsys):
    code, payload = _run(
        capsys, ["ulrich", "pipeline", "x^4 + y^4 + z^4", "--field", "fp:13"]
    )
    assert code == 0
    result = payload["result"]
    assert result["lift"]["N"] == 5
    assert result["factorization"]["verified"] is True
    assert result["factorization"]["case"] == "b"
    assert result["rank_report"]["achieved"] == result["factorization"]["ulrich_rank"]
    assert result["rank_report"]["lower_check"]["status"] == "certified"
    assert result["decomposition"]["summands"] == [
        ["x^2 + 5*y^2", "x^2 + 8*y^2"],
        ["z^2", "z^2"],
    ]


# sha256 of the ``ulrich pipeline`` and ``ulrich bounds`` stdout of seeded
# plane quartics and sextics; the comment names the field the
# decomposition lives in (fp:P when every root exists in fp:P)
GOLDEN_PLANE_FORMS = [
    # fp2:101
    (
        "fp:101",
        "100*x^4 + 66*x^3*y + 84*x^2*y*z + 23*x^2*z^2 + 34*x*y^2*z + 53*y^4 + 10*y^3*z + 49*y^2*z^2 + 39*y*z^3 + 23*z^4",
        "5c9be9525764ddb4ff2afbafe727e59972972ebdc7026dbc8f6f9b09912160bf",
        "5b1893ffa2ddbc44f32f404d5df21afaed2daa140c501da2479b513865390d08",
    ),
    # fp:101
    (
        "fp:101",
        "22*x^4 + 18*x^2*y^2 + 20*x^2*y*z + 3*x^2*z^2 + 14*x*y^3 + 85*x*y*z^2 + 90*x*z^3 + 82*y^4 + 98*y^3*z + 47*y*z^3 + 8*z^4",
        "d12899dd3b246832c4c266b824cea44afc60da5c1b0b35db991b2f79128aa8c8",
        "8c3e3a8da7cc8423622fa7059c2b5fab41c65cce59557332d037589c02f3c292",
    ),
    # fp2:101
    (
        "fp:101",
        "54*x^5*y + 98*x*y^3*z^2 + 16*x*y^2*z^3 + 6*x*y*z^4 + 54*y*z^5",
        "a51ffb2a9de43e754a42f2b44fbd6b238f3838ce66076230492bfe4a2b5ad1bf",
        "750e66e6de0ac921047659bc0a526d036fc2b1698c1a3c8fc8b4b26b087e8a5f",
    ),
    # fp:101
    (
        "fp:101",
        "100*x^6 + 99*x^5*z + 78*x^4*y^2 + 4*x^3*y^3 + 51*x^3*y^2*z + 17*x^2*y^3*z + 88*x*y^4*z + 80*x*z^5 + 38*y^2*z^4",
        "ab7e231950bec70c1388b08b05234dd1f1823affd51aa45d0f15a954f5e61410",
        "cfe18a2e2378596a81f008448fd903748f8f8ed06cc49f2575d2374f994b7244",
    ),
    # fp2:13
    (
        "fp:13",
        "7*x^3*y + 5*x^3*z + 8*x^2*y^2 + 12*x^2*y*z + 8*x^2*z^2 + 8*x*y^3 + x*y^2*z + 4*x*z^3 + y^3*z + 9*y^2*z^2 + z^4",
        "f862dfc703329f7a34a45351c3dd83446f0ee2ab45ff5d5fd9503195077dff26",
        "52c2eb5c1ee921a6550a303d89ffc5436e956ac23b929af495b535aeed78d271",
    ),
    # fp:13
    (
        "fp:13",
        "4*x^4 + x^2*z^2 + 3*x*y^3 + 10*y^4 + y^2*z^2 + 5*z^4",
        "832cdbe493b26d6efa7914d526825011953118da564f622c181de944f3021bea",
        "10193eac942ea8b9e5efb84a3a7cd1d623bccc6cdad64585e573dba21a5f504b",
    ),
    # fp2:13
    (
        "fp:13",
        "10*x^5*y + 5*x^3*y^2*z + 5*x^2*y^2*z^2 + 7*x*y^4*z",
        "eb3d9f5847cae7508f5fd30f44d074e0c97ec1deb1ec6cbfc4835055e39c6bf9",
        "07a1e8838d8c10bc8023d5aae3483418f411ac0bb247b03e3656ac073463b627",
    ),
    # fp:13
    (
        "fp:13",
        "9*x^5*z + 6*x^3*y^3 + 11*x^3*z^3 + 5*x^2*y^4 + 3*x^2*y^3*z + 5*x^2*z^4 + x*y^3*z^2 + 7*y*z^5",
        "bbf4f1e50ee78847c25c47ebf7f4872fcab388df7f23f448a076cd700af62309",
        "5c742d2e3bb0caa669357ac9ce933998aa79c37a882299d82b80b710e5387390",
    ),
    # fp2:7
    (
        "fp:7",
        "x^3*y + 3*y^3*z + 6*z^4",
        "cc24fd6446150dd9730183475d19b83b821c04542da01d81e5bed58797ebfae4",
        "aff1cf49312de17ca249f74ff98fb1d9f79df120915b308f6f03e78f6cb7c4fa",
    ),
    # fp:7
    (
        "fp:7",
        "4*x^3*z + 2*x*y^2*z + 2*x*y*z^2 + 2*x*z^3 + 2*y^2*z^2",
        "56fd821d9f263741d5dc57f3b676348040bbb493f188726b1f7236796eaabaef",
        "bf18376459bbe03725e47545ba32f6471773f0c2a5a1fb4c31c8c0e3edb963d7",
    ),
    # fp2:7
    (
        "fp:7",
        "x^4*z^2 + 4*x^3*y^3 + 4*x^2*y^2*z^2 + 6*x*y^5 + 4*x*z^5",
        "2cee38b20e33ffdce79425d2a9d3b6c39f104035a82a9e09b64e028f6cd46cb4",
        "00fd492ef2287851e700aa31d957f64b4ee47be957e700b349977fe12e803942",
    ),
    # fp:7
    (
        "fp:7",
        "4*x^3*z^3 + 2*x^2*y^4 + 6*x^2*y^2*z^2 + 3*x^2*y*z^3 + 5*x*y^5 + 2*x*y^2*z^3 + y^5*z",
        "c9ea49fb8199230a3677722943c55a07d59c26231ef74fbcd4d9e967fec98e21",
        "51f54f5f85277e6f6f8672e7de9fe030fd5e5273baf857876ed8cb9c9d233acd",
    ),
]


@pytest.mark.parametrize("field, form", [golden[:2] for golden in GOLDEN_PLANE_FORMS])
def test_plane_pipeline_factorization_passes_the_hilbert_oracle(capsys, field, form):
    # the printed entries, read back over the decomposition field, present
    # an Ulrich sheaf on T^2 = F
    code, payload = _run(capsys, ["ulrich", "pipeline", "--field", field, form])
    assert code == 0
    result = payload["result"]
    where = FieldSpec.parse(result["decomposition"]["field"])
    F = parse_poly(form, where)
    entries = [[parse_poly(e, where, nvars=3) for e in row] for row in result["factorization"]["entries"]]
    assert len(entries) == result["factorization"]["size"]
    assert is_ulrich_presentation(entries, F, result["lift"]["d"])


@pytest.mark.parametrize("field, form, pipeline_sha, bounds_sha", GOLDEN_PLANE_FORMS)
def test_plane_pipeline_stdout_is_frozen(capsys, field, form, pipeline_sha, bounds_sha):
    for verb, expected in (("pipeline", pipeline_sha), ("bounds", bounds_sha)):
        code = main(["ulrich", verb, "--field", field, form])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_ulrich_pipeline_rejects_odd_degree(capsys):
    code, payload = _run(capsys, ["ulrich", "pipeline", "x^3 + y^3 + z^3", "--field", "fp:13"])
    assert code == 2
    assert "even" in payload["error"]


def test_ulrich_pipeline_and_bounds_refuse_a_deg_flag(capsys):
    # the degree is read from the form, so --deg, matching it or not, is refused
    for verb in ("pipeline", "bounds"):
        for deg in ("2", "4"):
            _refused(capsys, ["ulrich", verb, "x^4 + y^4 + z^4", "--field", "fp:13", "--deg", deg], "--deg")


def test_ulrich_pipeline_extension_needed_is_exit_one(capsys):
    code, payload = _run(capsys, ["ulrich", "pipeline", "x^4 + y^4", "--nvars", "3", "--field", "q"])
    assert code == 1
    assert payload["ok"] is False
    assert "extension needed" in payload["error"]


def test_ulrich_bounds(capsys):
    code, payload = _run(capsys, ["ulrich", "bounds", "x^4 + y^4 + z^4", "--field", "fp:13"])
    assert code == 0
    report = payload["result"]["rank_report"]
    assert report["upper_bound"] == 4
    assert report["achieved"] == 1


def test_pipeline_decides_smoothness_in_the_input_field(capsys, monkeypatch):
    # the branch form is ranked in its own field, fp:101, though its
    # decomposition lives in fp2:101; only genuine fp2 matrices reach fp2
    from ulrich_forge import linalg
    from ulrich_forge.graded import graded_dimension

    calls, original = [], linalg._prime_rank

    def spying(rows, field, width):
        genuine = any(v[1] for row in rows for v in row.values()) if field.kind == "fp2" else None
        calls.append((str(field), width, genuine))
        return original(rows, field, width)

    monkeypatch.setattr(linalg, "_prime_rank", spying)
    field, form = GOLDEN_PLANE_FORMS[0][:2]
    code, payload = _run(capsys, ["ulrich", "pipeline", "--field", field, form])
    assert code == 0
    assert payload["result"]["decomposition"]["field"] == "fp2:101"
    assert payload["result"]["rank_report"]["lower_check"]["status"] == "certified"
    # the smoothness square of a plane quartic: degree 3 * (4 - 2) + 1 = 7
    assert ("fp:101", graded_dimension(3, 7), None) in calls
    fp2_calls = [genuine for where, _, genuine in calls if where == "fp2:101"]
    assert fp2_calls and all(fp2_calls)


@pytest.mark.parametrize("verb", ["pipeline", "bounds"])
def test_singular_witness_is_a_point_of_the_input_field(capsys, verb):
    # the decomposition needs fp2:13, but the singular point is found in fp:13
    form = "7*x^2 + 2*x*y + 3*x*z + 9*y^2 + 10*y*z + 6*z^2"
    code, payload = _run(capsys, ["ulrich", verb, "--field", "fp:13", form])
    assert code == 0
    result = payload["result"]
    assert result["decomposition"]["field"] == "fp2:13"
    check = result["rank_report"]["lower_check"]
    assert check["status"] == "not applicable: F singular"
    assert check["witness"] == ["2", "1", "3"]
    fp13 = FieldSpec.prime(13)
    F = parse_poly(form, fp13)
    point = [fp13.parse_scalar(c) for c in check["witness"]]
    assert all(F.partial_derivative(i).evaluate(point) == fp13.zero for i in range(3))


def test_ulrich_pipeline_lone_square(capsys):
    code, payload = _run(capsys, ["ulrich", "pipeline", "x^2", "--nvars", "3", "--field", "q"])
    assert code == 0
    result = payload["result"]
    factorization = result["factorization"]
    assert (factorization["size"], factorization["ulrich_rank"], factorization["case"]) == (2, 1, "b")
    assert factorization["entries"] == [["0", "x"], ["x", "0"]]
    assert result["rank_report"]["achieved"] == 1


def test_ulrich_normalize(capsys):
    argv = [
        "ulrich", "normalize",
        "x^3*z + x^2*y^2 + x^2*z^2 + x*y^2*z + x*z^3 + y^4 + y^2*z^2",
        "x^2", "z^2", "y^2 + x*z", "x^2 + y^2 + z^2",
        "--field", "q",
    ]
    code, payload = _run(capsys, argv)
    assert code == 0
    result = payload["result"]
    assert result["failed_certificate"] is None
    assert result["alpha"] == "-1"
    assert result["beta"] == "0"
    assert result["transversality"]["points"] == 4


def test_ulrich_normalize_failure_is_exit_one(capsys):
    argv = [
        "ulrich", "normalize",
        "x^3*z + x^2*y^2 + x^2*z^2 + x*y^2*z + x*z^3 + y^4 + y^2*z^2",
        "x^2", "z^2", "y^2 + x*z", "x^2 + y^2 + z^2",
        "--field", "q", "--max-trials", "1",
    ]
    code, payload = _run(capsys, argv)
    assert code == 1
    assert payload["result"]["failed_certificate"] == "first factor smoothness"


def test_hilbert_value(capsys):
    code, payload = _run(
        capsys, ["hilbert", "value", "x^2", "y^2", "z^2", "-e", "3", "--field", "fp:101"]
    )
    assert code == 0
    assert payload["result"] == {"degree": 3, "value": 1}


def test_smooth_check_verdicts(capsys):
    code, payload = _run(capsys, ["smooth", "check", "x^4 + y^4 + z^4", "--field", "q"])
    assert code == 0
    assert payload["result"]["verdict"] == "smooth"

    code, payload = _run(
        capsys, ["smooth", "check", "x^2*y - z^3 + x*z^2", "--field", "fp:101"]
    )
    assert code == 1
    assert payload["result"]["verdict"] == "singular"
    assert payload["result"]["witness"] == ["0", "1", "0"]


def test_smooth_check_reads_an_fp2_coefficient_as_a_scalar(capsys):
    # the w inside (1+w) is the generator of fp2, not a fifth variable
    code, payload = _run(capsys, ["smooth", "check", "(1+w)*x^4 + y^4 + z^4", "--field", "fp2:13"])
    assert code == 0
    assert payload["config"]["nvars"] == 3
    assert payload["result"]["verdict"] == "smooth"


def test_cover_rh(capsys):
    code, payload = _run(capsys, ["cover", "rh", "--h", "2", "--d", "5"])
    assert code == 0
    assert payload["result"]["g"] == 8
    assert payload["result"]["branch_degree"] == 10
    assert payload["result"]["identity"] == "2*8-2 = 2*(2*2-2)+2*5"


def test_cover_split_check(capsys):
    argv = ["cover", "split-check", "z", "x*y + z^2", "x", "y", "0", "--field", "q"]
    code, payload = _run(capsys, argv)
    assert code == 0
    assert payload["result"]["witness"] == "z"

    argv = ["cover", "split-check", "z", "x*y + x^2", "x", "y", "0", "--field", "q"]
    code, payload = _run(capsys, argv)
    assert code == 1
    assert payload["result"]["witness"] is None


def test_cover_transversal(capsys):
    argv = ["cover", "transversal", "x^2 - y*z", "y^2 - x*z", "--field", "fp:101"]
    code, payload = _run(capsys, argv)
    assert code == 0
    assert payload["result"]["points"] == 4


def test_cover_keem(capsys):
    code, payload = _run(capsys, ["cover", "keem-counterexample", "--field", "qi"])
    assert code == 0
    # no option reaches the certificate, so config echoes the defaults
    assert (payload["config"]["seed"], payload["config"]["max_trials"]) == (0, None)
    result = payload["result"]
    assert result["pencil_determinant"] == "1/16"
    assert [link["name"] for link in result["chain"]][-1] == "no-splitting"
    assert result["profile"]["g"] == 8

    code, payload = _run(capsys, ["cover", "keem-counterexample", "--field", "q"])
    assert code == 2
    assert "square root of -1" in payload["error"]


# sha256 of the ``cover keem-counterexample`` stdout per field; every link
# of the chain is exact, so these stay fixed however they are computed
@pytest.mark.parametrize(
    "field, expected",
    [
        ("qi", "e0ca47d28e38a721d073ebc1c6e535051b17042b5ca0d515bd970aeaef43cfa0"),
        ("fp:13", "9d1ef26a127e1076480bb561a2d93acc76c6a17432cab27dbfdc245a6e2c47fb"),
        ("fp2:7", "c9ad8bb9b8518ad6026effeffab94b96b4b87a4f041d30569505aa962276482c"),
    ],
)
def test_cover_keem_stdout_is_frozen_per_field(capsys, field, expected):
    assert main(["cover", "keem-counterexample", "--field", field]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == expected


# sha256 of the stdout of ``cover keem-counterexample --field F --seed s
# --max-trials t`` from when the rank bound was a sample of t witnesses
# (each sample's largest rank was 3).  The proof changed the stdout in
# three places only: the echo of seed and trials, and the statement of
# the "split-rank-bound" link; with those put back, every other byte,
# its value "3" included, is the one frozen then.
@pytest.mark.parametrize(
    "field, seed, trials, expected",
    [
        ("qi", 0, 1, "25ed9988de9e6385c2223c867f4b395f587ad676d306d4def2203d1ff0c8929a"),
        ("qi", 3, 20, "a38bd194d962d87f50e7c02cdb15fb9569e9862ed638fb93401e42ebdd00dcb8"),
        ("qi", 11, 100, "15171047ef18bb85b68c6f2294bb31ed49f8edb4fb7fcf59f1adf8878698a1e0"),
        ("fp:13", 0, 1, "393d04380744ede592657e10cd419c3b0fa6dd4027f9f80e34dee98fca0ff0ff"),
        ("fp:13", 3, 20, "72d43aced66e76c823823c3e8aaab76773f59a12c32259fc142f545505c824d6"),
        ("fp:13", 11, 100, "c8449025e0c0afbf7117f3420692042d34199c9d24452a6cb036fe8e1bc22b03"),
        ("fp2:7", 0, 1, "ebdebb26de829b0d6c1405e50dcdd82b6ae657740f877748cc5e620de096f5e9"),
        ("fp2:7", 3, 20, "d522324c7d6b0c1aacefdcc611c672c38fc24dec44005fc48cf7a5f39779f7b8"),
        ("fp2:7", 11, 100, "3f8d7c77d405342daf7ea961cbc79dd95a1a511b009d0fc5c970b2e091d1365e"),
    ],
)
def test_cover_keem_stdout_is_frozen(capsys, field, seed, trials, expected):
    assert main(["cover", "keem-counterexample", "--field", field]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
    assert (payload["config"]["seed"], payload["config"]["max_trials"]) == (0, None)
    payload["config"].update(seed=seed, max_trials=trials)
    link = next(link for link in payload["result"]["chain"] if link["name"] == "split-rank-bound")
    assert link["value"] == "3"
    assert link["statement"].endswith("so rank(l*m + a^2) <= 3 for every l, m, a")
    link["statement"] = f"rank(l*m + a^2) <= 3 for {trials} random witnesses"
    sampled = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(sampled.encode()).hexdigest() == expected


def test_bad_field_is_usage_error(capsys):
    code, payload = _run(capsys, ["quad", "rank", "x^2", "--field", "fp:2"])
    assert code == 2
    assert payload["ok"] is False


def test_large_prime_field_answers_quickly(capsys):
    start = time.perf_counter()
    code, payload = _run(capsys, ["quad", "rank", "x^2", "--field", "fp:100000000000000000039"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["ok"] is True
    assert payload["result"]["rank"] == 1


def test_prime_beyond_the_certified_range_is_usage_error(capsys):
    argv = ["quad", "rank", "x^2", "--field", "fp:3317044064679887385962123"]
    code, payload = _run(capsys, argv)
    assert code == 2
    assert payload["ok"] is False
    assert "certified only below" in payload["error"]


def test_parse_error_is_usage_error(capsys):
    code, payload = _run(capsys, ["quad", "rank", "x^2 +", "--field", "q"])
    assert code == 2
    assert payload["error"] == "unexpected end of polynomial"


# (argv, exit code, config.nvars, config.max_trials, error), recorded from
# the parser that tokenized each text twice, once for its arity and once
# for its terms; only the end-of-text message changed since, from
# "unexpected '' in polynomial".  A tokenization error in any text comes
# before a grammar error in an earlier one and leaves config.nvars null.
ENVELOPE_CORPUS = [
    (["quad", "rank", "2^2*x^2"], 2, 1, None, "unexpected '^' in polynomial"),
    (["quad", "rank", "x^2--y^2"], 2, 2, None, "unexpected '-' in polynomial"),
    (["quad", "rank", "(x)*x"], 2, 1, None, "cannot parse scalar 'x' over q"),
    (["quad", "rank", "()*x^2"], 2, 1, None, "empty scalar literal"),
    (["quad", "rank", "(2)(3)*x^2"], 2, 1, None, "unexpected '(' in polynomial"),
    (["quad", "rank", "x^2 + 1e5*y^2"], 2, 2, None, "unexpected 'e5' in polynomial"),
    (["quad", "rank", "x²"], 2, 1, None, "unknown variable 'x²' for arity 1"),
    (["quad", "rank", "x^2 + y^2 # c"], 2, None, None, "cannot tokenize polynomial near '# c'"),
    (["quad", "rank", "y^2", "--nvars", "1"], 2, 1, None, "unknown variable 'y' for arity 1"),
    (["quad", "rank", "1/0*x^2"], 2, 1, None, "zero denominator in '1/0'"),
    (["quad", "rank", "7/14*y^2", "--field", "fp:7"],
     2, 2, None, "denominator of '7/14' is not invertible over fp:7"),
    (["quad", "rank", "x^2 + (i)*y^2", "--field", "q"],
     2, 2, None, "cannot parse scalar 'i' over q"),
    (["quad", "pencil-det", "x^2 + q*y", "z^2 + !"],
     2, None, None, "cannot tokenize polynomial near '!'"),
    (["quad", "pencil-det", "x^2 +", "z^2 $ y"],
     2, None, None, "cannot tokenize polynomial near '$ y'"),
    (["quad", "rank", "x^2 +", "--field", "q"], 2, 1, None, "unexpected end of polynomial"),
    (["quad", "rank", ""], 2, 1, None, "unexpected end of polynomial"),
    (["quad", "rank", "x^2 + y^"], 2, 2, None, "exponent must be a nonnegative integer"),
    (["quad", "rank", "x^2 + y^1/2"], 2, 2, None, "exponent must be a nonnegative integer"),
    (["quad", "rank", "x^2 + (1+2i*y^2", "--field", "qi"],
     2, 1, None, "unbalanced parenthesis in polynomial"),
    (["quad", "rank", "x^2 + i^2*y^2", "--field", "qi"],
     2, 2, None, "unexpected '^' in polynomial"),
    (["quad", "rank", "x^2 + q*z"], 2, 3, None, "unknown variable 'q' for arity 3"),
    (["quad", "pencil-det", "x^2 + q", "z^2"], 2, 3, None, "unknown variable 'q' for arity 3"),
    (["quad", "pencil-det", "y^2", "x6^2"], 0, 7, None, None),
    (["quad", "pencil-det", "x0*x6", "y^2 + )"], 2, 7, None, "unexpected ')' in polynomial"),
    (["quad", "rank", "x^2 + x3*y", "--nvars", "2"], 2, 2, None, "variable x3 exceeds arity 2"),
    (["quad", "rank", "x*y*z", "--nvars", "2"], 2, 2, None, "unknown variable 'z' for arity 2"),
    (["quad", "rank", "x^2 ) y"], 2, 2, None, "unexpected ')' in polynomial"),
    (["quad", "rank", "x^2 + + y^2"], 2, 2, None, "unexpected '+' in polynomial"),
    (["quad", "rank", "x y"], 2, 2, None, "unexpected 'y' in polynomial"),
    (["quad", "rank", "x^2 + 2 3*y^2"], 2, 2, None, "unexpected '3' in polynomial"),
    (["quad", "rank", "x^2 + (1+w)*y^2", "--field", "fp2:13"], 0, 2, None, None),
    (["quad", "rank", "x^2 + (1+w*y^2", "--field", "fp2:13"],
     2, 1, None, "unbalanced parenthesis in polynomial"),
    (["mf", "verify", "x*y", "x", "y +", "y", "x"], 2, 2, None, "unexpected end of polynomial"),
    (["mf", "verify", "x*y", "x", "y", "y", "x @"],
     2, None, None, "cannot tokenize polynomial near '@'"),
    (["mf", "det-cert", "x*y", "x", "y*q", "y", "x"],
     2, 2, 50, "unknown variable 'q' for arity 2"),
    (["ulrich", "normalize", "x^4", "x^2 +", "y^2", "z^2", "x*y"],
     2, 3, 20, "unexpected end of polynomial"),
    (["ulrich", "normalize", "x^4", "x^2", "y^2 &", "z^2", "x*y"],
     2, None, 20, "cannot tokenize polynomial near '&'"),
    (["cover", "transversal", "x^2 - y*z", "y^2 -"], 2, 3, 8, "unexpected end of polynomial"),
    (["cover", "transversal", "x^2 - y*z", "y^2 - ;"],
     2, None, 8, "cannot tokenize polynomial near ';'"),
    (["ulrich", "pipeline", "x^4 + y^4 +", "--field", "fp:13"],
     2, 2, None, "unexpected end of polynomial"),
    (["hilbert", "value", "x^2", "y^", "-e", "2"],
     2, 2, None, "exponent must be a nonnegative integer"),
    (["smooth", "check", "x^3 + y^3 + z^3 + 1/0*x*y*z"], 2, 3, None, "zero denominator in '1/0'"),
    (["cover", "split-check", "x", "x^2", "x", "x", "x +"],
     2, 3, None, "unexpected end of polynomial"),
    (["ulrich", "normalize", "x^4", "x^2", "y^2 &", "z^2", "x*y", "--nvars", "3"],
     2, 3, 20, "cannot tokenize polynomial near '&'"),
    (["cover", "transversal", "x^2 - y*z", "y^2 -", "--nvars", "4"],
     2, 4, 8, "unexpected end of polynomial"),
    (["mf", "verify", "x*y", "x", "y +", "y", "x", "--nvars", "2"],
     2, 2, None, "unexpected end of polynomial"),
    (["quad", "pencil-det", "x^2 + ", "y^2 + 1/0*z^2"], 2, 3, None, "unexpected end of polynomial"),
    (["quad", "pencil-det", "x^2 + 1/0*y^2", "y^2 +"], 2, 2, None, "zero denominator in '1/0'"),
    (["quad", "rank", "-x^2 - - y^2"], 2, 2, None, "unexpected '-' in polynomial"),
    (["quad", "rank", "x^2 + y^2 *"], 2, 2, None, "unexpected end of polynomial"),
    (["quad", "rank", "x^2 + ((1))*y^2"], 2, 2, None, "cannot parse scalar '(1' over q"),
    (["mf", "verify", "x*y", "x", "y", "y", "x", "z"],
     2, 3, None, "entry count 5 is not a perfect square"),
]


@pytest.mark.parametrize("argv, code, nvars, max_trials, error", ENVELOPE_CORPUS)
def test_text_error_envelopes_are_frozen(capsys, argv, code, nvars, max_trials, error):
    got, payload = _run(capsys, argv)
    assert (got, payload["config"]["nvars"], payload["config"]["max_trials"]) == (
        code,
        nvars,
        max_trials,
    )
    assert payload.get("error") == error


def _read_back(texts, where, nvars):
    return [parse_poly(t, where, nvars=nvars) for t in texts]


@pytest.mark.parametrize(
    "field, form, nvars",
    [
        ("q", "x*y + z*t + x^2 - 3/2*x*y", None),
        ("q", "x*y", "3"),
        ("qi", "x^2 + y^2 + (2i)*z*t", None),
        # the working field moves to fp2:13
        ("fp:13", "x^2 + 2*x*y - y^2 + x*t - z^2", None),
        ("fp2:13", "(1+w)*x^2 + y^2 + z*t", None),
    ],
)
def test_quadric_texts_read_back_into_the_library_polynomials(capsys, field, form, nvars):
    from ulrich_forge import build_clifford_factorization, gram_from_poly, sum_of_products

    where = FieldSpec.parse(field)
    extra = ["--nvars", nvars] if nvars else []
    q = parse_poly(form, where, nvars=nvars and int(nvars))
    sop = sum_of_products(gram_from_poly(q))
    mf = build_clifford_factorization(sop)
    for verb in ("sop", "build"):
        command = ["quad", "sop"] if verb == "sop" else ["mf", "build"]
        code, payload = _run(capsys, [*command, form, "--field", field, *extra])
        assert code == 0
        result, arity = payload["result"], payload["config"]["nvars"]
        working = FieldSpec.parse(result["working_field"])
        assert (working, arity) == (sop.quadric.field, q.nvars)
        assert _read_back([result["quadric"]], working, arity) == [sop.quadric]
        pairs = [_read_back(pair, working, arity) for pair in result["pairs"]]
        assert pairs == [list(pair) for pair in sop.pairs]
        if verb == "build":
            entries = [_read_back(row, working, arity) for row in result["entries"]]
            assert entries == [list(row) for row in mf.entries]


@pytest.mark.parametrize("field, form", [golden[:2] for golden in GOLDEN_PLANE_FORMS[:4]])
def test_pipeline_texts_read_back_into_the_library_polynomials(capsys, field, form):
    from ulrich_forge import decompose_form, lift_form, ulrich_presentation

    F = parse_poly(form, FieldSpec.parse(field))
    decomp = decompose_form(lift_form(F))
    mf, _ = ulrich_presentation(F, decomp)
    code, payload = _run(capsys, ["ulrich", "pipeline", "--field", field, form])
    assert code == 0
    result, arity = payload["result"], payload["config"]["nvars"]
    where = FieldSpec.parse(result["decomposition"]["field"])
    assert (where, arity) == (decomp.F.field, F.nvars)
    summands = [_read_back(pair, where, arity) for pair in result["decomposition"]["summands"]]
    assert summands == [list(pair) for pair in decomp.summands]
    entries = [_read_back(row, where, arity) for row in result["factorization"]["entries"]]
    assert entries == [list(row) for row in mf.entries]


def test_normalize_texts_read_back_into_the_library_polynomials(capsys):
    from ulrich_forge import FormDecomposition, normalize_plane_decomposition

    texts = [
        "x^3*z + x^2*y^2 + x^2*z^2 + x*y^2*z + x*z^3 + y^4 + y^2*z^2",
        "x^2", "z^2", "y^2 + x*z", "x^2 + y^2 + z^2",
    ]
    for field in ("q", "fp:101"):
        where = FieldSpec.parse(field)
        F, f1, g1, f2, g2 = _read_back(texts, where, 3)
        out = normalize_plane_decomposition(F, FormDecomposition(F, ((f1, g1), (f2, g2))))
        code, payload = _run(capsys, ["ulrich", "normalize", *texts, "--field", field])
        assert code == 0
        arity = payload["config"]["nvars"]
        summands = [_read_back(pair, where, arity) for pair in payload["result"]["summands"]]
        assert summands == [list(pair) for pair in out.summands]


def test_missing_file_is_usage_error(capsys):
    code, payload = _run(capsys, ["quad", "rank", "--file", "/nonexistent/path.txt"])
    assert code == 2


@pytest.mark.parametrize(
    "argv", [["cover", "rh", "--h", "1", "--d", "3"], ["cover", "keem-counterexample"]]
)
@pytest.mark.parametrize("flag", ["--file", "--bogus"])
def test_file_is_refused_where_no_text_is_read(capsys, argv, flag):
    # these subcommands read no polynomial, so --file is as unknown to them as --bogus
    code, out, err = _call(capsys, argv + [flag, "/nonexistent.txt"])
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} /nonexistent.txt" in err


@pytest.mark.parametrize(
    "argv, usage, unknown",
    [
        (["quad", "sop", "x*y", "--seed", "7"], "quad sop", "--seed 7"),
        (["cover", "rh", "--h", "1", "--d", "3", "--bogus"], "cover rh", "--bogus"),
        # an unknown option before the group is still the subcommand's error
        (["--bogus", "smooth", "check", "x^3 + y^3 + z^3"], "smooth check", "--bogus"),
    ],
)
def test_unknown_option_shows_the_usage_of_its_subcommand(capsys, argv, usage, unknown):
    code, out, err = _call(capsys, argv)
    assert (code, out) == (2, "")
    # the subcommand's usage names the options it takes, the root's only the groups
    assert err.startswith(f"usage: ulrich-forge {usage} [-h] [--field FIELD]")
    assert err.endswith(f"ulrich-forge {usage}: error: unrecognized arguments: {unknown}\n")


def test_output_is_byte_identical_across_runs(capsys):
    argv = ["ulrich", "pipeline", "x^4 + y^4 + z^4", "--field", "fp:13"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    argv2 = ["cover", "keem-counterexample", "--field", "fp:13"]
    main(argv2)
    third = capsys.readouterr().out
    main(argv2)
    fourth = capsys.readouterr().out
    assert third == fourth


def test_the_environment_sets_no_seed(capsys, monkeypatch):
    # the seed comes from the argv alone, so an environment variable changes no byte
    argv = ["smooth", "check", "x^2 + y^2 + z^2", "--field", "q", "--seed", "3"]
    monkeypatch.delenv("ULRICH_FORGE_SEED", raising=False)
    bare = _call(capsys, argv)
    monkeypatch.setenv("ULRICH_FORGE_SEED", "77")
    code, out, err = _call(capsys, argv)
    assert (code, out, err) == bare
    assert code == 0 and json.loads(out)["config"]["seed"] == 3


def test_file_input_with_comments(capsys, tmp_path):
    poly_file = tmp_path / "gens.txt"
    poly_file.write_text("# generators\nx^2\ny^2  # inline comment\n\nz^2\n")
    code, payload = _run(
        capsys,
        ["hilbert", "value", "--file", str(poly_file), "-e", "3", "--field", "fp:101"],
    )
    assert code == 0
    assert payload["result"]["value"] == 1


def test_text_output_mode(capsys):
    code = main(["cover", "rh", "--h", "1", "--d", "3", "--output", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "g: 4" in out
    assert "ok: true" in out


def test_json_output_is_sorted_and_indented(capsys):
    main(["quad", "rank", "x*y", "--field", "q"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "text, field",
    [("1/13*x^2 + y^2", "fp:13"), ("1/0*x^2", "q")],
)
def test_non_invertible_denominator_is_usage_error(capsys, text, field):
    code, payload = _run(capsys, ["quad", "rank", text, "--field", field])
    assert code == 2
    assert payload["ok"] is False
    assert "denominator" in payload["error"]


_EVERY_SUBCOMMAND = [
    ["quad", "rank", "x*y"],
    ["quad", "diag", "x*y"],
    ["quad", "sop", "x*y"],
    ["quad", "pencil-det", "x*y", "x^2"],
    ["mf", "build", "x*y"],
    ["mf", "verify", "x*y", "0", "x", "y", "0"],
    ["mf", "det-cert", "x*y", "0", "x", "y", "0"],
    ["ulrich", "pipeline", "x^4 + y^4 + z^4"],
    ["ulrich", "bounds", "x^4 + y^4 + z^4"],
    ["ulrich", "normalize", "x^4", "x", "x", "y", "y"],
    ["hilbert", "value", "x^2", "-e", "2"],
    ["smooth", "check", "x^2 + y^2 + z^2"],
    ["cover", "rh", "--h", "1", "--d", "3"],
    ["cover", "split-check", "x", "y", "x", "y", "z"],
    ["cover", "transversal", "x^2 - y*z", "y^2 - x*z"],
    ["cover", "keem-counterexample", "--field", "qi"],
]


# the subcommands with a default --max-trials, and that default
_BUDGETED = {"mf det-cert": 50, "ulrich normalize": 20, "cover transversal": 8}
# the options each subcommand's handler reads, of those not every subcommand has
_READS = {
    "--seed": {
        "mf det-cert",
        "ulrich normalize",
        "smooth check",
        "cover transversal",
    },
    # every degree bound is derived from the form
    "--e-max": set(),
    "--max-trials": set(_BUDGETED),
    # every subcommand that reads polynomial texts
    "--nvars": {" ".join(argv[:2]) for argv in _EVERY_SUBCOMMAND} - {"cover rh", "cover keem-counterexample"},
    # the degree of a form is read from the form
    "--deg": set(),
}
_READS["--file"] = _READS["--nvars"]


def _refused(capsys, argv, option):
    """An option the subcommand lacks is argparse's usage error: exit 2, usage on stderr, no stdout."""
    code, out, err = _call(capsys, argv)
    assert (code, out) == (2, ""), argv
    assert "unrecognized arguments: " + option in err


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda a: " ".join(a[:2]))
def test_max_trials_below_one_is_usage_error(capsys, argv):
    # a subcommand without a budget has no --max-trials at all
    budgeted = " ".join(argv[:2]) in _BUDGETED
    for trials in ("0", "-3"):
        if not budgeted:
            _refused(capsys, argv + ["--max-trials", trials], "--max-trials")
            continue
        code, payload = _run(capsys, argv + ["--max-trials", trials])
        assert code == 2
        assert payload["ok"] is False
        assert "--max-trials" in payload["error"]
        assert payload["config"]["max_trials"] == int(trials)


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda a: " ".join(a[:2]))
def test_nvars_below_one_is_usage_error(capsys, argv):
    # a subcommand that reads no text has no --nvars at all
    reads_texts = " ".join(argv[:2]) in _READS["--nvars"]
    for nvars in ("0", "-1"):
        if not reads_texts:
            _refused(capsys, argv + ["--nvars", nvars], "--nvars")
            continue
        code, payload = _run(capsys, argv + ["--nvars", nvars])
        assert code == 2
        assert payload["ok"] is False
        assert "--nvars must be at least 1" in payload["error"]


@pytest.mark.parametrize("option", sorted(_READS))
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda a: " ".join(a[:2]))
def test_each_subcommand_offers_exactly_the_options_it_reads(capsys, tmp_path, argv, option):
    # an empty --file adds no text, so an accepted option leaves the call as it was
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    value = str(empty) if option == "--file" else "3"
    name = " ".join(argv[:2])
    if name not in _READS[option]:
        _refused(capsys, argv + [option, value], option)
        return
    code, payload = _run(capsys, argv + [option, value])
    assert payload["command"] == name and payload["ok"] == (code == 0)
    key = option[2:].replace("-", "_")
    if key in payload["config"]:
        assert payload["config"][key] == 3


@pytest.mark.parametrize(
    "argv, option",
    [
        (["hilbert", "value", "x^2", "y^2", "-e", "2", "--deg", "3"], "--deg"),
        (["ulrich", "bounds", "x^4 + y^4 + z^4", "--field", "fp:13", "--e", "3"], "--e"),
        (["cover", "transversal", "x^2 - y*z", "y^2 - x*z", "--max", "2"], "--max"),
    ],
)
def test_an_option_is_never_taken_by_a_prefix(capsys, argv, option):
    # a prefix of an option's name (--degree, --max-trials) names no option
    _refused(capsys, argv, option)


def test_a_prefix_of_a_required_option_does_not_supply_it(capsys):
    code, out, err = _call(capsys, ["hilbert", "value", "x^2", "y^2", "--deg", "3"])
    assert (code, out) == (2, "")
    assert "the following arguments are required: -e/--degree" in err
    # a short option with its value attached and a long one with "=" still parse
    for spelling in (["-e2"], ["--degree=2"]):
        code, payload = _run(capsys, ["hilbert", "value", "x^2", "y^2", *spelling])
        assert code == 0 and payload["result"] == {"degree": 2, "value": 1}


def _budget_errors():
    """(argv, error) per budgeted subcommand: errors before any text is read, and two in a text."""
    for argv in _EVERY_SUBCOMMAND:
        name = " ".join(argv[:2])
        if name not in _BUDGETED:
            continue
        yield pytest.param(argv + ["--field", "fp:4"], "is not prime", id=f"{name} field")
        yield pytest.param(argv + ["--nvars", "0"], "--nvars must be at least 1", id=f"{name} nvars")
        *head, last = argv
        yield pytest.param(head + [last + " ;"], "cannot tokenize", id=f"{name} token")
        yield pytest.param(head + [last + " +"], "unexpected end", id=f"{name} grammar")


@pytest.mark.parametrize("argv, error", _budget_errors())
def test_every_error_envelope_carries_the_default_budget(capsys, argv, error):
    code, payload = _run(capsys, argv)
    assert (code, payload["ok"]) == (2, False)
    assert error in payload["error"]
    assert payload["config"]["max_trials"] == _BUDGETED[payload["command"]]


@pytest.mark.parametrize("verb", ["pipeline", "bounds"])
def test_inconclusive_lower_check_is_exit_one(capsys, monkeypatch, verb):
    import ulrich_forge.cli as cli
    from ulrich_forge.veronese import LowerBoundCheck

    decided = cli.rank_bounds

    # a factor ideal left undecided leaves the lower bound unproven
    def undecided(F, decomp):
        bounds = decided(F, decomp)
        bounds.lower_check = LowerBoundCheck("inconclusive: factor ideal", zero_dimensional="inconclusive")
        return bounds

    argv = ["ulrich", verb, "x^4 + y^4 + z^4", "--field", "fp:101"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "rank_bounds", undecided)
        code, payload = _run(capsys, argv)
    assert payload["result"]["rank_report"]["lower_check"]["status"] == "inconclusive: factor ideal"
    assert (code, payload["ok"]) == (1, False)
    code, payload = _run(capsys, argv)
    assert payload["result"]["rank_report"]["lower_check"]["status"] == "certified"
    assert (code, payload["ok"]) == (0, True)


def test_pipeline_lifts_once_and_reads_the_matrix_once(capsys, monkeypatch):
    import ulrich_forge.cli
    import ulrich_forge.veronese
    from ulrich_forge.clifford import MatrixFactorization

    calls = {"lift": 0, "entries": 0}
    lift_form, entries = ulrich_forge.veronese.lift_form, MatrixFactorization.entries

    def counting_lift(*args):
        calls["lift"] += 1
        return lift_form(*args)

    def counting_entries(mf):
        calls["entries"] += 1
        return entries.fget(mf)

    for module in (ulrich_forge.cli, ulrich_forge.veronese):
        monkeypatch.setattr(module, "lift_form", counting_lift)
    monkeypatch.setattr(MatrixFactorization, "entries", property(counting_entries))
    code, _ = _run(capsys, ["ulrich", "pipeline", "x^4 + y^4 + z^4", "--field", "fp:13"])
    # the entries' text is placed from the pencil's signed positions, so
    # the matrix is never expanded into polynomials
    assert code == 0 and calls == {"lift": 1, "entries": 0}


@pytest.mark.parametrize(
    "form, field",
    [
        ("x*y + z*t + x^2", "fp:13"),
        ("x^2 + 2*y^2 - 3*z^2", "fp:13"),
        ("x*y + 4*z^2 - t^2", "q"),
        ("x^2 + y^2 + z^2", "qi"),
    ],
)
def test_mf_build_renders_the_entries_without_expanding_the_matrix(capsys, monkeypatch, form, field):
    from ulrich_forge import build_clifford_factorization, gram_from_poly, sum_of_products
    from ulrich_forge.clifford import MatrixFactorization

    reads, entries = [], MatrixFactorization.entries
    counted = property(lambda mf: reads.append(mf) or entries.fget(mf))
    monkeypatch.setattr(MatrixFactorization, "entries", counted)
    code, payload = _run(capsys, ["mf", "build", form, "--field", field])
    assert (code, reads) == (0, [])
    # the texts are those of the built matrix's own entries
    mf = build_clifford_factorization(sum_of_products(gram_from_poly(parse_poly(form, FieldSpec.parse(field)))))
    assert payload["result"]["entries"] == [[str(e) for e in row] for row in entries.fget(mf)]


def test_each_text_is_tokenized_and_parsed_once(capsys, monkeypatch):
    import ulrich_forge.cli as cli

    calls = {"parse": [], "infer": []}
    parse_poly, infer_nvars = cli.parse_poly, cli.infer_nvars

    def counting_parse(text, field, nvars=None):
        calls["parse"].append((text, nvars))
        return parse_poly(text, field, nvars)

    def counting_infer(text):
        calls["infer"].append(text)
        return infer_nvars(text)

    monkeypatch.setattr(cli, "parse_poly", counting_parse)
    monkeypatch.setattr(cli, "infer_nvars", counting_infer)
    texts = ["x^2 - y*z", "y^2 - x*z"]
    code, payload = _run(capsys, ["cover", "transversal", *texts])
    # each text at its own arity, padded to the floor of three variables
    assert (code, payload["config"]["nvars"]) == (0, 3)
    assert calls == {"parse": [(t, None) for t in texts], "infer": []}


def test_internal_assertion_is_exit_one_envelope(capsys, monkeypatch):
    import ulrich_forge.cli

    def failing_build(sop):
        raise AssertionError("clifford construction failed its symbolic check")

    monkeypatch.setattr(ulrich_forge.cli, "build_clifford_factorization", failing_build)
    code, payload = _run(capsys, ["mf", "build", "x*y", "--field", "q"])
    assert code == 1
    assert payload["ok"] is False
    assert "symbolic check" in payload["error"]


@pytest.mark.parametrize("output", ["json", "text"])
def test_stray_zero_division_is_usage_error(capsys, monkeypatch, output):
    import ulrich_forge.cli

    def dividing(system, e):
        return 1 // 0

    monkeypatch.setattr(ulrich_forge.cli, "hilbert_value", dividing)
    argv = ["hilbert", "value", "x^2", "-e", "2", "--field", "q", "--output", output]
    if output == "json":
        code, payload = _run(capsys, argv)
        assert payload["ok"] is False
        assert "division by zero" in payload["error"]
    else:
        code = main(argv)
        captured = capsys.readouterr()
        assert "ok: false" in captured.out and "Traceback" not in captured.err
    assert code == 2


def _call(capsys, argv):
    """Exit code, stdout and stderr of one in-process call, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_gives_the_same_envelopes(capsys):
    import ulrich_forge.cli as cli

    calls = [
        ["quad", "rank", "x*y - z^2", "--field", "fp:101"],
        ["cover", "transversal", "x^2 - y*z", "y^2 - x*z", "--seed", "9"],
        ["quad", "rank", "x^2", "--field", "fp:2"],
        ["quad"],
        ["quad", "pencil-det", "t^2", "x^2 + y^2 + z^2", "--nvars", "4"],
        ["quad", "rank", "x*y", "--bogus"],
        ["hilbert", "value", "x^2", "-e", "2", "--output", "text"],
        ["cover", "rh", "--h", "1", "--d", "3"],
        ["mf", "build", "x*y + z*t", "--field", "fp:13"],
    ]

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(_call(capsys, argv))
    cli._parser.cache_clear()
    # alternate subcommands, usage errors and seeds, forwards then backwards
    shared = [_call(capsys, argv) for argv in calls + calls[::-1]]
    assert shared == fresh + fresh[::-1]
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 2, 0, 0, 0]
    assert json.loads(fresh[1][1])["config"]["seed"] == 9


def test_pencil_det_of_twenty_variable_quadrics_within_budget(capsys):
    from ulrich_forge import FieldSpec, gram_from_poly, parse_poly, random_homogeneous
    from ulrich_forge.linalg import det

    field = FieldSpec.prime(101)
    rng = random.Random(2020)
    r, q = (str(random_homogeneous(field, 20, 2, rng)) for _ in range(2))
    argv = ["quad", "pencil-det", r, q, "--field", "fp:101", "--nvars", "20"]
    start = time.perf_counter()
    code, payload = _run(capsys, argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 0.5, f"20-variable pencil determinant took {elapsed:.2f}s"
    coeffs = [field.parse_scalar(c) for c in payload["result"]["coefficients"]]
    assert payload["result"]["degree"] == 20
    # the polynomial agrees with scalar determinants of the pencil members
    grams = [gram_from_poly(parse_poly(text, field, nvars=20)).gram for text in (r, q)]
    for a in (0, 1, 7, 100):
        alpha = field.from_int(a)
        member = [[x - alpha * y for x, y in zip(*rows)] for rows in zip(*grams)]
        value = sum((c * alpha**k for k, c in enumerate(coeffs)), field.zero)
        assert value == det(member, field)


def test_poly_commands_always_end_in_an_envelope(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from ulrich_forge import FieldSpec, Poly, parse_poly
    from ulrich_forge.poly import monomials_of_degree

    def monomial(exps):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyzt", exps) if e]
        return "*".join(factors) or "1"

    def joined(terms):
        return " + ".join(c + monomial(e) for c, e in terms).replace("+ -", "- ")

    def sums(coefficients, exponents):
        return st.lists(st.tuples(coefficients, exponents), min_size=1, max_size=3).map(joined)

    def form(d):
        return sums(
            st.sampled_from(["", "2*", "-3*", "1/2*"]), st.sampled_from(monomials_of_degree(3, d))
        )

    def expand(products):
        # a sum of products of forms, written out over q; its coefficients
        # have denominators 2^k, so the text reads in every odd characteristic
        q = FieldSpec.rationals()
        total = Poly.zero(q, 3)
        for factors in products:
            term = Poly.constant(q, 3, 1)
            for text in factors:
                term = term * parse_poly(text, q, nvars=3)
            total = total + term
        return str(total)

    loose = sums(
        st.sampled_from(["", "-3*", "(1+2i)*", "i*", "1/0*", "1/3*"]),
        st.tuples(*[st.integers(0, 2)] * 4),
    )
    junk = st.text(alphabet="xyzt+-*^()/i. 0", max_size=6)

    @st.composite
    def argvs(draw):
        # the forms a subcommand reads, in x, y, z over a valid field, with
        # at most one flaw, so that both the certificates and every usage
        # check are reached
        command = draw(
            st.sampled_from(
                [
                    "quad rank",
                    "quad diag",
                    "quad sop",
                    "quad pencil-det",
                    "hilbert value",
                    "smooth check",
                    "ulrich pipeline",
                    "ulrich bounds",
                    "ulrich normalize",
                    "cover rh",
                    "cover split-check",
                    "cover transversal",
                    "cover keem-counterexample",
                ]
            )
        )
        field = draw(st.sampled_from(["q", "qi", "fp:3", "fp:5", "fp:101", "fp2:3", "fp2:13"]))
        extra, polys = [], []
        if command.startswith("quad"):
            polys = [draw(form(2)) for _ in range(2 if command == "quad pencil-det" else 1)]
        elif command == "hilbert value":
            polys = draw(st.lists(form(1) | form(2), min_size=1, max_size=3))
            extra = ["-e", str(draw(st.integers(0, 4)))]
        elif command == "smooth check":
            polys = [draw(form(draw(st.integers(1, 3))))]
        elif command in ("ulrich pipeline", "ulrich bounds"):
            polys = [draw(form(draw(st.sampled_from([2, 4]))))]
        elif command == "ulrich normalize":
            factors = [draw(form(2)) for _ in range(4)]
            whole = expand([factors[:2], factors[2:]]) if draw(st.booleans()) else draw(form(4))
            polys = [whole, *factors]
        elif command == "cover split-check":
            d = draw(st.integers(1, 2))
            f1, h, l, m, a = (draw(form(d)) for _ in range(5))
            r = expand([[l, m], [a, a], [h, f1]]) if draw(st.booleans()) else draw(form(2 * d))
            polys = [f1, r, l, m, a]
        elif command == "cover rh":
            extra = ["--h", str(draw(st.integers(-1, 4))), "--d", str(draw(st.integers(-1, 6)))]
        elif command == "cover transversal":
            d = draw(st.integers(1, 3))
            polys = [draw(form(d)), draw(form(d))]
        flaws = [None, None, None, "field", "trials", "nvars", "text", "count"]
        flaw = draw(st.sampled_from(flaws))
        if flaw == "field":
            field = draw(st.sampled_from(["fp:2", "fp:9", "fp2:1", "r", ""]))
        # each option only where the subcommand offers it
        elif flaw == "trials" and command in _BUDGETED:
            extra += ["--max-trials", draw(st.sampled_from(["0", "-1", "1", "2"]))]
        elif flaw == "nvars" and command in _READS["--nvars"]:
            extra += ["--nvars", draw(st.sampled_from(["-1", "0", "1", "2", "4"]))]
        elif flaw == "text" and polys:
            polys[draw(st.integers(0, len(polys) - 1))] = draw(loose | junk)
        elif flaw == "count" and polys:
            polys = (polys + [draw(form(2))])[: draw(st.sampled_from([0, 1, 3]))]
        # "--" keeps texts that start with "-" positional
        return [*command.split(), "--field", field, *extra, *(["--", *polys] if polys else [])]

    @hypothesis.given(argvs())
    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    def check(argv):
        code, out, err = _call(capsys, argv)
        assert code in (0, 1, 2), (argv, code, err)
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == " ".join(argv[:2])
        assert payload["ok"] == (code == 0)

    check()


def test_mf_commands_always_end_in_an_envelope(capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def joined(terms):
        return " + ".join(c + m for c, m in terms).replace("+ -", "- ")

    def sums(monomials, min_size=1):
        coefficient = st.sampled_from(["", "-", "2*", "-3*", "1/2*", "(1+2i)*"])
        pieces = st.lists(st.tuples(coefficient, monomials), min_size=min_size, max_size=3)
        return pieces.map(lambda terms: joined(terms) or "0")

    linear = sums(st.sampled_from(["x", "y", "z"]), min_size=0)
    quadratic = sums(st.sampled_from(["x^2", "x*y", "y^2", "x*z", "z^2"]))
    nonlinear = sums(st.sampled_from(["x^2", "x*y*z", "1", "y^3"]))
    junk = st.text(alphabet="xyzt+-*^()/i. 0", min_size=1, max_size=6)

    @st.composite
    def argvs(draw):
        # a quadric and, for verify and det-cert, a square of entries, with
        # at most one flaw; texts that start with "-" are passed with and
        # without a "--" before them
        verb = draw(st.sampled_from(["build", "verify", "det-cert"]))
        field = draw(st.sampled_from(["q", "qi", "fp:3", "fp:13", "fp:101", "fp2:3", "fp2:13"]))
        side = draw(st.integers(1, 3)) if verb != "build" else 0
        texts = [draw(quadratic)] + [draw(linear) for _ in range(side * side)]
        # only det-cert has --max-trials
        extra = ["--max-trials", "4"] if verb == "det-cert" else []
        flaw = draw(st.sampled_from([None, None, None, "field", "trials", "count", "entry", "text"]))
        if flaw == "field":
            field = draw(st.sampled_from(["fp:2", "fp:9", "fp2:1", "r", ""]))
        elif flaw == "trials" and verb == "det-cert":
            extra += ["--max-trials", draw(st.sampled_from(["0", "-1", "1", "3"]))]
        elif flaw == "count":
            texts = texts[: draw(st.sampled_from([0, 1, 3, len(texts) - 1]))]
        elif flaw == "entry":
            texts[draw(st.integers(0, len(texts) - 1))] = draw(nonlinear)
        elif flaw == "text":
            texts[draw(st.integers(0, len(texts) - 1))] = draw(junk)
        if draw(st.booleans()) or any(t.startswith("--") for t in texts):
            texts = ["--", *texts]
        return ["mf", verb, "--field", field, *extra, *texts]

    @hypothesis.given(argvs())
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    def check(argv):
        code, out, err = _call(capsys, argv)
        assert code in (0, 1, 2), (argv, code, err)
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] == " ".join(argv[:2])
        assert payload["ok"] == (code == 0)

    check()
