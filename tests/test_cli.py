"""CLI surface: exit codes, report formats, file round trips, determinism."""

import json
import subprocess
import sys

import pytest

from bmwcert import (
    FieldMatrix,
    JobConfig,
    SYMBOLIC,
    build_multiparametric,
    build_standard,
    export_family,
    import_rmatrix,
    main,
    parse,
    run_job,
)
from bmwcert.errors import DimensionMismatch, ParseError
from bmwcert.report import export_rmatrix

from conftest import (
    SO4_TWIST_TEXT,
    SP2_TWIST_TEXT,
    change_of_basis,
    so3_file_without_nu,
    twist_from_text,
)

F = SYMBOLIC


def write_twist(path, rows):
    path.write_text(json.dumps({"d": rows}))
    return str(path)


def test_verify_family_so4_json(capsys):
    code = main(["verify", "--family", "so", "--dim", "4", "--report", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["derived"]["nu"] == "q^-3"
    assert all(chk["pass"] for chk in doc["checks"])
    assert len(doc["checks"]) >= 25


def test_verify_wrong_sign_nu_exits_1(capsys):
    code = main(["verify", "--family", "sp", "--dim", "2", "--nu", "q^-3", "--report", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "fail"
    by_id = {chk["id"]: chk for chk in doc["checks"]}
    assert not by_id["bmw-rk"]["pass"]
    assert "witness" in by_id["bmw-rk"]


def test_verify_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["verify", "--input", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


DEEP = "(" * 5000 + "q" + ")" * 5000
ENTRY = {"out": [1, 1], "in": [1, 1], "coeff": "q"}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 2, "entries": [1]}, "entry 0: must be an object with out, in and coeff"),
        ({"dim": True, "entries": [ENTRY]}, "bad dim True"),
        ({"dim": 1, "entries": [dict(ENTRY, out=[True, 1])]}, "entry 0: indices must be pairs of integers"),
        ({"dim": 1, "entries": [dict(ENTRY, coeff=DEEP)]}, "entry 0: nesting deeper than"),
        ({"dim": 1, "nu": DEEP, "entries": [ENTRY]}, "nesting deeper than"),
        ([1], "top level must be an object"),
        ({"dim": 2}, "missing entries list"),
        ({"dim": 1, "entries": [dict(ENTRY, coeff=1)]}, "entry 0: coeff must be grammar text"),
    ],
    ids=["non-object-entry", "bool-dim", "bool-index", "deep-coeff", "deep-nu",
         "top-level-list", "no-entries", "numeric-coeff"],
)
def test_malformed_file_exits_2_with_one_line(tmp_path, capsys, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bmwcert: error: {message}") and err.count("\n") == 1


def test_deep_nu_option_exits_2_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "bmwcert", "verify", "--family", "so", "--dim", "3", "--nu", DEEP],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("bmwcert: error: ") and "Traceback" not in proc.stderr


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "--input", str("/no/such/file.json")]) == 2
    capsys.readouterr()


def test_verify_conflicting_source_exits_2(capsys):
    code = main(["verify", "--family", "so", "--dim", "3", "--input", "x.json"])
    assert code == 2
    capsys.readouterr()


def test_export_roundtrip_so3(tmp_path):
    out = tmp_path / "so3.json"
    export_family("so", 3, None, str(out))
    doc = json.loads(out.read_text())
    assert doc["dim"] == 3
    assert doc["nu"] == "q^-2"
    assert len(doc["entries"]) == 14
    op, nu = import_rmatrix(str(out))
    assert op == build_standard("so", 3).R
    assert nu == build_standard("so", 3).nu


def test_export_sp2_nu_text(tmp_path):
    out = tmp_path / "sp2.json"
    export_family("sp", 2, None, str(out))
    doc = json.loads(out.read_text())
    assert doc["dim"] == 2
    assert doc["nu"] == "-q^-3"


def test_export_identity_twist_equals_plain(tmp_path):
    plain = tmp_path / "plain.json"
    twisted = tmp_path / "twisted.json"
    ident = write_twist(tmp_path / "ident.json", [["1", "1"], ["1", "1"]])
    export_family("sp", 2, None, str(plain))
    export_family("sp", 2, ident, str(twisted))
    assert plain.read_text() == twisted.read_text()


def test_export_rejects_wrong_size_identity_twist(tmp_path, capsys):
    # An all-ones twist is size-checked like any other, as verify does.
    ident = write_twist(tmp_path / "ident.json", [["1"] * 3] * 3)
    out = tmp_path / "so4.json"
    code = main(["export", "--family", "so", "--dim", "4", "--twist", ident, "--out", str(out)])
    assert code == 2
    assert "twist is 3 x 3, family needs 4" in capsys.readouterr().err
    assert not out.exists()


def test_import_rejects_zero_index(tmp_path):
    bad = tmp_path / "zero.json"
    bad.write_text(
        json.dumps(
            {"dim": 2, "entries": [{"out": [0, 1], "in": [1, 1], "coeff": "q"}]}
        )
    )
    with pytest.raises(DimensionMismatch):
        import_rmatrix(str(bad))


def test_import_rejects_bad_grammar(tmp_path):
    bad = tmp_path / "gram.json"
    bad.write_text(
        json.dumps(
            {"dim": 2, "entries": [{"out": [1, 1], "in": [1, 1], "coeff": "q^(1/3)"}]}
        )
    )
    with pytest.raises(ParseError):
        import_rmatrix(str(bad))


def test_import_rejects_duplicates(tmp_path):
    bad = tmp_path / "dup.json"
    entry = {"out": [1, 1], "in": [1, 1], "coeff": "q"}
    bad.write_text(json.dumps({"dim": 2, "entries": [entry, entry]}))
    with pytest.raises(ParseError):
        import_rmatrix(str(bad))


def test_verify_exported_file_roundtrip(tmp_path, capsys):
    out = tmp_path / "so3.json"
    export_family("so", 3, None, str(out))
    code = main(["verify", "--input", str(out), "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass"


def test_verify_identity_operator_aborts(tmp_path, capsys):
    path = tmp_path / "ident.json"
    entries = [
        {"out": [i, j], "in": [i, j], "coeff": "1"} for i in (1, 2) for j in (1, 2)
    ]
    path.write_text(json.dumps({"dim": 2, "entries": entries}))
    code = main(["verify", "--input", str(path), "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["status"] == "aborted"
    assert "NotSkewInvertible" in doc["reason"]


def test_report_determinism():
    config = JobConfig(source=("family", "so", 3), report_format="json")
    from bmwcert.report import render_json

    first, code1 = run_job(config)
    second, code2 = run_job(config)
    assert code1 == code2 == 0
    assert render_json(first) == render_json(second)


def test_numeric_mode_agrees_with_symbolic(capsys):
    from fractions import Fraction

    sym, _ = run_job(JobConfig(source=("family", "so", 3)))
    num, _ = run_job(JobConfig(source=("family", "so", 3), at_s=Fraction(3, 2)))
    sym_vec = [(chk["id"], chk["pass"]) for chk in sym["checks"]]
    num_vec = [(chk["id"], chk["pass"]) for chk in num["checks"]]
    assert sym_vec == num_vec


def test_twist_dimension_mismatch_exits_2(tmp_path, capsys):
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    code = main(["verify", "--family", "so", "--dim", "3", "--twist", twist])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_numeric_mode_excluded_point_exits_2(capsys):
    code = main(["verify", "--family", "so", "--dim", "3", "--at-s", "1"])
    assert code == 2
    capsys.readouterr()


def test_excluded_nu_exits_2(capsys):
    code = main(["verify", "--family", "so", "--dim", "3", "--nu", "q"])
    assert code == 2
    assert "excluded" in capsys.readouterr().err


def test_odd_sp_dimension_exits_2(capsys):
    code = main(["verify", "--family", "sp", "--dim", "3"])
    assert code == 2
    capsys.readouterr()


def test_verify_twist_via_cli(tmp_path, capsys):
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    code = main(
        ["verify", "--family", "sp", "--dim", "2", "--twist", twist, "--report", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    by_id = {chk["id"]: chk for chk in doc["checks"]}
    for check_id in ("twist-valid", "twist-compat", "twist-closed-form", "twisted-x-match"):
        assert by_id[check_id]["pass"], check_id
    assert doc["derived"]["X_diag"] == ["q^-1", "q"]


def test_verify_so4_twist_via_cli(tmp_path, capsys):
    twist = write_twist(tmp_path / "d4.json", SO4_TWIST_TEXT)
    code = main(
        ["verify", "--family", "so", "--dim", "4", "--twist", twist, "--report", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass"
    assert doc["derived"]["X_diag"] == ["1", "q^-2", "q^2", "1"]


def test_sp_report_carries_nu_note(capsys):
    code = main(["verify", "--family", "sp", "--dim", "2", "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert any("-q^(-1-2N)" in note for note in doc["notes"])


def test_detect_nu_flag(capsys):
    code = main(["verify", "--family", "sp", "--dim", "2", "--detect-nu", "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["derived"]["nu"] == "-q^-3"


@pytest.mark.parametrize(
    "cells, nu",
    [
        # R = diag(0, 1, 1, 1): v_1 (x) v_1 spans the image of W and R maps
        # it to zero, an eigenvector with eigenvalue 0.
        ([((1, 2), (1, 2), "1"), ((2, 1), (2, 1), "1"), ((2, 2), (2, 2), "1")], "0"),
        # R = q I + e_(1,1),(1,2), a Jordan block at q: W is a multiple of
        # its nilpotent part, whose image is spanned by a q-eigenvector.
        ([((1, 1), (1, 1), "q"), ((1, 1), (1, 2), "1"), ((1, 2), (1, 2), "q"),
          ((2, 1), (2, 1), "q"), ((2, 2), (2, 2), "q")], "q"),
    ],
    ids=["singular", "jordan-block-at-q"],
)
def test_detected_eigenvalue_in_the_excluded_set_exits_2(tmp_path, capsys, cells, nu):
    path = tmp_path / "r.json"
    entries = [{"out": list(o), "in": list(i), "coeff": c} for o, i, c in cells]
    path.write_text(json.dumps({"dim": 2, "entries": entries}))
    assert main(["verify", "--input", str(path), "--detect-nu"]) == 2
    assert capsys.readouterr().err == f"bmwcert: error: eigenvalue {nu} lies in the excluded set\n"


def test_report_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--family", "so", "--dim", "3", "--report", "json", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text())["status"] == "pass"


def test_export_twisted_roundtrip(tmp_path, capsys):
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    out = tmp_path / "sp2_twisted.json"
    export_family("sp", 2, twist, str(out))
    doc = json.loads(out.read_text())
    assert doc["provenance"]["source"] == "multiparametric-family"
    code = main(["verify", "--input", str(out), "--report", "json"])
    result = json.loads(capsys.readouterr().out)
    assert code == 0 and result["status"] == "pass"
    assert result["derived"]["X_diag"] == ["q^-1", "q"]


def test_numeric_twist_vector_agrees(tmp_path):
    from fractions import Fraction

    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    sym, _ = run_job(JobConfig(source=("family", "sp", 2), twist=twist))
    num, _ = run_job(
        JobConfig(source=("family", "sp", 2), twist=twist, at_s=Fraction(3, 2))
    )
    assert [(c["id"], c["pass"]) for c in sym["checks"]] == [
        (c["id"], c["pass"]) for c in num["checks"]
    ]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bmwcert", "verify", "--family", "so", "--dim", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "status: pass" in proc.stdout


# Witnesses of the failing checks of `verify --family so --dim 4 --nu q^-2`,
# frozen from the output of the embed-and-compose implementation.
SO4_WRONG_NU_WITNESSES = {
    "nu-detect": ([], [], "q^-3"),
    "kappa-idempotent": ([1, 4], [1, 4], "-q^-3 + q^-4 + q^-6"),
    "kappa-inverse-form": ([1, 4], [1, 4], "-q^-2 + q^-3"),
    "bmw-rk": ([1, 4], [1, 4], "-q^-5 + q^-6"),
    "bmw-k2rk2": ([1, 1, 4], [1, 1, 4], "-q^-5 + q^-7"),
    "bmw-kk-rinv": ([1, 1, 4], [1, 4, 1], "-q^-3 + q^-4"),
    "bmw-kk-rr": ([1, 4, 1], [1, 1, 4], "-q^-3 + q^-4"),
    "bmw-kkk": ([1, 4, 1], [1, 4, 1], "-q^-3 + q^-5"),
    "bmw-k1rk1": ([1, 4, 1], [1, 4, 1], "-q^-5 + q^-7"),
    "minimal-cubic": ([1, 4], [1, 4], "q^-6 - q^-7 - q^-8 + q^-9"),
    "d-rinv-trace": ([1], [1], "-q^-4 + q^-6"),
    "cd-scalar": ([1], [1], "-q^-4 + q^-6"),
    "d-kappa-trace1": ([1], [1], "-q^-2 + q^-4"),
    "d-kappa-trace": ([1], [1], "-q^-2 + q^-4"),
    "trace-c-d": ([], [], "-q^-2 + q^-3 + q^-5"),
    "pairing-factorization": ([], [], "-1 + q^-1 + q^-3"),
    "xy-inverse": ([1], [1], "-1 + q^-2"),
}


def test_wrong_nu_witnesses_are_pinned(capsys):
    code = main(["verify", "--family", "so", "--dim", "4", "--nu", "q^-2", "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["reason"] == "ReciprocityViolation: XY differs from the identity"
    failing = {
        chk["id"]: (chk["witness"]["out"], chk["witness"]["in"], chk["witness"]["value"])
        for chk in doc["checks"]
        if not chk["pass"]
    }
    assert failing == SO4_WRONG_NU_WITNESSES


@pytest.mark.parametrize("nu", [5, None], ids=["number", "null"])
def test_non_text_nu_in_file_exits_2(tmp_path, capsys, nu):
    path = tmp_path / "so3.json"
    export_family("so", 3, None, str(path))
    doc = json.loads(path.read_text())
    del doc["nu"]
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0  # an absent nu is detected
    capsys.readouterr()
    doc["nu"] = nu
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "bmwcert: error: nu must be grammar text\n"


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, "q"], ["1", "1"]], "twist d[1][1]: must be grammar text, got 1"),
        ([["1", None], ["1", "1"]], "twist d[1][2]: must be grammar text, got null"),
        ([["1", "q"], ["1", "q +"]], "twist d[2][2]: expected a number, q, s or '(' (at position 3)"),
        ([], "twist file needs a nonempty 'd' array"),
        ([["1", "q"], ["1"]], "twist row 1 is not a list of 2 entries"),
    ],
    ids=["number-cell", "null-cell", "grammar-error", "empty-d", "ragged-row"],
)
def test_malformed_twist_cell_exits_2_naming_the_cell(tmp_path, capsys, rows, message):
    twist = write_twist(tmp_path / "d.json", rows)
    assert main(["verify", "--family", "sp", "--dim", "2", "--twist", twist]) == 2
    assert capsys.readouterr().err == f"bmwcert: error: {message}\n"


def test_twist_cell_vanishing_at_s0_is_an_unlucky_point(tmp_path, capsys):
    # q - 4 is a nonzero twist parameter that vanishes at s = 2, where q = 4.
    twist = write_twist(tmp_path / "d.json", [["1", "q-4"], ["1", "1"]])
    argv = ["verify", "--family", "sp", "--dim", "2", "--twist", twist]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--at-s", "2"]) == 2
    assert capsys.readouterr().err == (
        "bmwcert: error: d[1][2] = q - 4 vanishes at s = 2, an unlucky point; "
        "choose another --at-s\n"
    )


def test_twist_cell_pole_at_s0_is_an_unlucky_point(tmp_path, capsys):
    # 1/(q - 4) is a twist parameter with a pole at s = 2, where q = 4.
    twist = write_twist(tmp_path / "d.json", [["1", "1/(q-4)"], ["1", "1"]])
    argv = ["verify", "--family", "sp", "--dim", "2", "--twist", twist]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--at-s", "2"]) == 2
    assert capsys.readouterr().err == (
        "bmwcert: error: d[1][2] = 1/(q - 4) has a pole at s = 2, an unlucky point; "
        "choose another --at-s\n"
    )


# Witnesses of the failing checks of the twisted sp_2 at s = 3/2 with
# `--nu q^-2`, frozen from the output of the CLI-side numeric evaluation
# (the symbolic family, twist and closed forms evaluated entry by entry).
SP2_TWISTED_NUMERIC_WITNESSES = {
    "nu-detect": ([], [], "-64/729"),
    "kappa-idempotent": ([1, 2], [1, 2], "-63296/531441"),
    "kappa-inverse-form": ([1, 2], [1, 2], "208/729"),
    "bmw-rk": ([1, 2], [1, 2], "-13312/531441"),
    "bmw-k2rk2": ([1, 1, 2], [1, 1, 2], "-66560/4782969"),
    "bmw-kk-rinv": ([1, 1, 2], [1, 2, 1], "-208/729"),
    "bmw-kk-rr": ([1, 2, 1], [1, 1, 2], "-3328/59049"),
    "bmw-kkk": ([1, 2, 1], [1, 2, 1], "-4160/59049"),
    "bmw-k1rk1": ([1, 2, 1], [1, 2, 1], "-66560/4782969"),
    "minimal-cubic": ([1, 2], [1, 2], "3461120/387420489"),
    "d-rinv-trace": ([1], [1], "-16640/531441"),
    "cd-scalar": ([1], [1], "-16640/531441"),
    "d-kappa-trace1": ([1], [1], "-1040/6561"),
    "d-kappa-trace": ([1], [1], "-1040/6561"),
    "trace-c-d": ([], [], "-15824/59049"),
    "pairing-factorization": ([], [], "-989/729"),
    "xy-inverse": ([1], [1], "-65/81"),
}


def test_numeric_twisted_witnesses_are_pinned(tmp_path, capsys):
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    code = main([
        "verify", "--family", "sp", "--dim", "2", "--twist", twist,
        "--nu", "q^-2", "--at-s", "3/2", "--report", "json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["reason"] == "ReciprocityViolation: XY differs from the identity"
    failing = {
        chk["id"]: (chk["witness"]["out"], chk["witness"]["in"], chk["witness"]["value"])
        for chk in doc["checks"]
        if not chk["pass"]
    }
    assert failing == SP2_TWISTED_NUMERIC_WITNESSES
    assert [chk["id"] for chk in doc["checks"][:3]] == ["twist-valid", "twist-compat", "twist-closed-form"]
    assert all(chk["pass"] for chk in doc["checks"][:3])


def test_file_source_twist_valid_only_at_s0_exits_2(tmp_path, capsys):
    # d[2][2] = 4q/9 is 1 at s = 3/2 only, so the twist holds there and
    # nowhere else; a file source must be refused as a family source is.
    path = tmp_path / "so3.json"
    export_family("so", 3, None, str(path))
    twist = write_twist(tmp_path / "d.json", [["1", "1", "1"], ["1", "4*q/9", "1"], ["1", "1", "1"]])
    for source in (["--input", str(path)], ["--family", "so", "--dim", "3"]):
        for mode in ([], ["--at-s", "3/2"]):
            assert main(["verify", *source, "--twist", twist, *mode]) == 2
            assert capsys.readouterr().err == "bmwcert: error: d[2][2] d[2][2] != u[2]\n"


def _so3_file(tmp_path, entry=None, nu=None):
    """The exported so_3 file, with R[(1,1),(1,1)] and nu replaced if given."""
    path = tmp_path / "so3.json"
    export_family("so", 3, None, str(path))
    doc = json.loads(path.read_text())
    if entry is not None:
        cell = next(e for e in doc["entries"] if e["out"] == [1, 1] and e["in"] == [1, 1])
        cell["coeff"] = entry
    if nu is not None:
        doc["nu"] = nu
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "entry, nu, option, message",
    [
        ("q - 4", None, [], "entry out=[1, 1] in=[1, 1] = q - 4 vanishes"),
        ("q/(q-4)", None, [], "entry out=[1, 1] in=[1, 1] = q/(q - 4) has a pole"),
        (None, "q-4", [], "nu = q - 4 vanishes"),
        (None, "1/(q-4)", [], "nu = 1/(q - 4) has a pole"),
        (None, None, ["--nu", "q-4"], "nu = q - 4 vanishes"),
        (None, None, ["--nu", "1/(q-4)"], "nu = 1/(q - 4) has a pole"),
    ],
    ids=["entry-vanishes", "entry-pole", "file-nu-vanishes", "file-nu-pole",
         "option-nu-vanishes", "option-nu-pole"],
)
def test_unlucky_point_in_file_entry_or_nu_exits_2(tmp_path, capsys, entry, nu, option, message):
    # Each value is nonzero in Q(s) but vanishes or has a pole at s = 2,
    # where q = 4.
    path = _so3_file(tmp_path, entry, nu)
    assert main(["verify", "--input", path, *option, "--at-s", "2"]) == 2
    assert capsys.readouterr().err == (
        f"bmwcert: error: {message} at s = 2, an unlucky point; choose another --at-s\n"
    )


@pytest.mark.parametrize(
    "source, nu, name",
    [
        ("option", "q^2 - 12", "q"),
        ("file", "q^2 - 12", "q"),
        ("option", "q - 4 - q^-1", "-q^-1"),
    ],
    ids=["option-equals-q", "file-equals-q", "option-equals-minus-q-inverse"],
)
def test_nu_landing_in_the_excluded_set_at_s0_is_an_unlucky_point(
    tmp_path, capsys, source, nu, name
):
    # Outside {0, q, -q^-1} in Q(s), but at s = 2, where q = 4, nu equals
    # q or -q^-1; the symbolic run gets past RMatrixSystem and exits 1.
    if source == "file":
        args = ["--input", _so3_file(tmp_path, nu=nu)]
    else:
        args = ["--family", "so", "--dim", "3", "--nu", nu]
    assert main(["verify", *args]) == 1
    capsys.readouterr()
    assert main(["verify", *args, "--at-s", "2"]) == 2
    shown = str(parse(nu))
    assert capsys.readouterr().err == (
        f"bmwcert: error: nu = {shown} equals {name} at s = 2, an unlucky point; "
        "choose another --at-s\n"
    )


def test_r_singular_only_at_s0_is_an_unlucky_point(tmp_path, capsys):
    # The block [[1, q], [1, 4]] on rows and columns (1,1), (1,2) has
    # determinant 4 - q: invertible in Q(s), singular at s = 2.
    def entry(out, inp, coeff):
        return {"out": out, "in": inp, "coeff": coeff}

    path = tmp_path / "singular_at_2.json"
    path.write_text(json.dumps({
        "dim": 2,
        "nu": "q^-2",
        "entries": [
            entry([1, 1], [1, 1], "1"), entry([1, 1], [1, 2], "q"),
            entry([1, 2], [1, 1], "1"), entry([1, 2], [1, 2], "4"),
            entry([2, 1], [2, 1], "1"), entry([2, 2], [2, 2], "1"),
        ],
    }))
    assert main(["verify", "--input", str(path)]) == 1
    capsys.readouterr()
    assert main(["verify", "--input", str(path), "--at-s", "2"]) == 2
    assert capsys.readouterr().err == (
        "bmwcert: error: R is singular at s = 2 but invertible in Q(s), an unlucky "
        "point; choose another --at-s\n"
    )
    # Singular in Q(s) as well: no unlucky point, the singularity stands.
    doc = json.loads(path.read_text())
    doc["entries"][3]["coeff"] = "q"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path), "--at-s", "2"]) == 2
    assert capsys.readouterr().err == "bmwcert: error: R is singular in Q(s): rank 3 < dim 4\n"
    # R = 0, symbolic: the message names R and keeps the rank.
    path.write_text(json.dumps({"dim": 2, "nu": "q^-3", "entries": []}))
    assert main(["verify", "--input", str(path)]) == 2
    assert capsys.readouterr().err == "bmwcert: error: R is singular in Q(s): rank 0 < dim 4\n"


def test_internal_error_exits_3(monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("boom")

    monkeypatch.setattr("bmwcert.cli.run_job", boom)
    assert main(["verify", "--family", "so", "--dim", "3"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "bmwcert: internal error: RuntimeError: boom"
    assert "Traceback" in err


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify", "--family", "so", "--dim", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("bmwcert: error: ")


def test_sp_verdict_detects_nu_once(monkeypatch, capsys):
    import bmwcert.cli
    import bmwcert.core

    calls = []
    detect_nu = bmwcert.core.detect_nu

    def counting(r, *rest):
        calls.append(r)
        return detect_nu(r, *rest)

    monkeypatch.setattr(bmwcert.core, "detect_nu", counting)
    assert main(["verify", "--family", "sp", "--dim", "4"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "source",
    [
        lambda tmp: ["--family", "sp", "--dim", "4"],
        lambda tmp: ["--family", "so", "--dim", "4", "--detect-nu"],
        lambda tmp: ["--input", so3_file_without_nu(tmp)],
    ],
    ids=["sp4", "so4-detect-nu", "so3-file-without-nu"],
)
def test_verdict_derives_each_quantity_once(monkeypatch, tmp_path, capsys, source):
    # nu is detected once, W = (q - R)(q^-1 + R) is formed once for both nu
    # and K, and minimal-cubic and the trace Tr_2(D_2 R^-1) reuse what the
    # pipeline already formed.  R K and K R are formed once each, one product
    # decides both skew sides, and with K = gbar g^T rtt-conjugation composes
    # no operator.  rank(K) = 1 is decided as K == gbar g^T, so a passing
    # verdict eliminates nothing.  Each function is counted wherever the
    # pipeline or the CLI binds it.
    import bmwcert.cli
    import bmwcert.core

    calls = {"detect_nu": 0, "rank": 0, "compose": 0, "_pivot_pairing": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        for mod in (bmwcert.core, bmwcert.cli):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    assert main(["verify", *source(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == {"detect_nu": 1, "rank": 0, "compose": 40, "_pivot_pairing": 1}


@pytest.mark.parametrize("mode", [[], ["--at-s", "3/2"]], ids=["symbolic", "at-s"])
@pytest.mark.parametrize(
    "family, text", [("so 4", SO4_TWIST_TEXT), ("sp 2", SP2_TWIST_TEXT)], ids=["so4", "sp2"]
)
def test_twisted_verdict_derives_each_quantity_once(monkeypatch, tmp_path, capsys, family, text, mode):
    # twisted-x-match reads X and the pairings off the verdict's record, so
    # K, the rank-one comparison K == gbar g^T and X are formed once, and the
    # twist D R D^-1 composes nothing: the 40 composes of a plain verdict
    # plus the 6 of twist-compat.
    import bmwcert.cli
    import bmwcert.core
    import bmwcert.families

    calls = {"_kappa_raw": 0, "_rank_one_pairing": 0, "_build_xy": 0, "compose": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        for mod in (bmwcert.core, bmwcert.cli, bmwcert.families):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    series, dim = family.split()
    twist = write_twist(tmp_path / "d.json", text)
    assert main(["verify", "--family", series, "--dim", dim, "--twist", twist, *mode]) == 0
    assert "[pass] twisted-x-match" in capsys.readouterr().out
    assert calls == {"_kappa_raw": 1, "_rank_one_pairing": 1, "_build_xy": 1, "compose": 46}


def test_twisted_verify_validates_twist_once(monkeypatch, tmp_path, capsys):
    import bmwcert.cli
    import bmwcert.families

    calls = []
    validate_twist = bmwcert.families.validate_twist

    def counting(spec):
        calls.append(spec)
        return validate_twist(spec)

    monkeypatch.setattr(bmwcert.families, "validate_twist", counting)
    monkeypatch.setattr(bmwcert.cli, "validate_twist", counting)
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    for mode in ([], ["--at-s", "3/2"]):
        calls.clear()
        assert main(["verify", "--family", "sp", "--dim", "2", "--twist", twist, *mode]) == 0
        capsys.readouterr()
        assert len(calls) == 1, mode


def test_twisted_detect_nu_inverts_r_once(monkeypatch, tmp_path, capsys):
    # twisted-x-match reads K off the system the pipeline verified, so the
    # detected nu does not build a second RMatrixSystem, and R^-1 is the
    # closed form of kappa-inverse-form: R is not inverted at all.
    import bmwcert.core

    calls = []
    inverse = bmwcert.core.inverse

    def counting(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(bmwcert.core, "inverse", counting)
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    assert main(["verify", "--family", "sp", "--dim", "2", "--twist", twist, "--detect-nu"]) == 0
    assert "twisted-x-match" in capsys.readouterr().out
    assert len(calls) == 0


ELIMINATION = ("rank", "inverse", "solve_multi_rhs")


def _count_eliminations(monkeypatch):
    """Calls of the elimination kernels wherever the package binds them."""
    import bmwcert.cli
    import bmwcert.core
    import bmwcert.families

    calls = dict.fromkeys(ELIMINATION, 0)

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ELIMINATION:
        for mod in (bmwcert.core, bmwcert.families, bmwcert.cli):
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


@pytest.mark.parametrize("mode", [[], ["--at-s", "3/2"]], ids=["symbolic", "numeric"])
def test_passing_family_verdicts_eliminate_nothing(monkeypatch, tmp_path, capsys, mode):
    # R^-1, Psi and rank(K) = 1 are closed forms checked by products.
    calls = _count_eliminations(monkeypatch)
    twist = write_twist(tmp_path / "d.json", SO4_TWIST_TEXT)
    for source in (["--family", "so", "--dim", "5"], ["--family", "sp", "--dim", "4"],
                   ["--family", "so", "--dim", "4", "--twist", twist]):
        assert main(["verify", *source, *mode]) == 0
    capsys.readouterr()
    assert calls == dict.fromkeys(ELIMINATION, 0)


@pytest.mark.parametrize(
    "control, expected",
    [
        # bmw-rk fails and rank(K) = 2: every candidate is turned down.
        ("bump", {"rank": 1, "inverse": 1, "solve_multi_rhs": 1}),
        # R K != nu K and K is not gbar g^T; the skew system is singular, so
        # the pipeline aborts before rank(K) is asked for.
        ("ident", {"rank": 0, "inverse": 1, "solve_multi_rhs": 1}),
    ],
)
def test_negative_controls_reach_the_elimination_fallbacks(
    monkeypatch, tmp_path, capsys, control, expected
):
    calls = _count_eliminations(monkeypatch)
    assert main(["verify", "--input", *_control_file(tmp_path, control)]) == 1
    capsys.readouterr()
    assert calls == expected


def test_solved_psi_failing_its_check_is_an_internal_error(monkeypatch, tmp_path, capsys):
    # The bump's K has rank 2, so Psi is solved for; a solution that fails
    # M_R S_Psi = P is a bug, never an aborted verdict.
    import bmwcert.core

    solve = bmwcert.core.solve_multi_rhs

    def wrong(a, b):
        x = solve(a, b)
        return x + FieldMatrix.identity(x.dim, x.field)

    monkeypatch.setattr(bmwcert.core, "solve_multi_rhs", wrong)
    assert main(["verify", "--input", _so3_file(tmp_path, entry="q^2")]) == 3
    assert "internal error" in capsys.readouterr().err


def test_negative_at_s_needs_no_equals_sign(capsys):
    reports = []
    for at_s in (["--at-s", "-5/3"], ["--at-s=-5/3"]):
        code = main(["verify", "--family", "so", "--dim", "3", *at_s, "--report", "json"])
        reports.append((code, *capsys.readouterr()))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and '"mode": "numeric(s=-5/3)"' in reports[0][1]


def test_negative_nu_needs_no_equals_sign(capsys):
    # Every sp family's nu is negative.
    reports = []
    for nu in (["--nu", "-q^-3"], ["--nu=-q^-3"]):
        code = main(["verify", "--family", "sp", "--dim", "2", *nu])
        reports.append((code, *capsys.readouterr()))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0


def test_numeric_pass_says_it_is_not_a_certificate(capsys):
    # The wrong nu equals the family's nu q^-2 at q = 4 (s = 2) only: the
    # numeric run passes there, the symbolic run fails.
    argv = ["verify", "--family", "so", "--dim", "3", "--nu", "q^-2 + q - 4"]
    note = (
        "numeric mode: checks ran at s = 2 only; a failure there is a failure in "
        "Q(s), a pass is not a certificate; run without --at-s to certify"
    )
    assert main([*argv, "--at-s", "2", "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["notes"] == [note]
    assert main([*argv, "--at-s", "2"]) == 0
    assert f"note: {note}\n" in capsys.readouterr().out
    assert main([*argv, "--report", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["notes"] == []
    assert main(argv) == 1
    assert "note:" not in capsys.readouterr().out


# Witnesses of the failing checks of the two negative controls of the
# benchmark's sym-families workload, frozen from the output of the per-kind
# outcome helpers: so_3 with R[(1,1),(1,1)] = q^2 run with --detect-nu, and
# the identity on V (x) V at dim 2 with nu = q^5.
BUMP_SO3_WITNESSES = {
    "yang-baxter": ([1, 1, 2], [1, 1, 2], "q^5 - q^4 - q^3 + 2*q^2 - q - 1 + q^-1"),
    "kappa-idempotent": ([1, 3], [1, 3], "q^-4 - q^-5 + q^-6 + q^-8 + q^-9 + q^-10"),
    "kappa-inverse-form": ([1, 3], [1, 3], "-q^-1 + q^-5"),
    "bmw-braid": ([1, 1, 2], [1, 1, 2], "q^5 - q^4 - q^3 + 2*q^2 - q - 1 + q^-1"),
    "bmw-rk": ([1, 3], [1, 3], "-q^-3 + q^-7"),
    "bmw-k2rk2": ([1, 1, 1], [1, 1, 1], "q^4 - 2*q^3 + 3*q^2 - 2*q + 1 + q^-1 - q^-2 + q^-3"),
    "bmw-kk-rinv": ([1, 1, 1], [1, 1, 1], "q^2 - 2*q + 3 - 2*q^-1 + q^-2 + q^-3 - q^-4 + q^-5"),
    "bmw-kk-rr": ([1, 1, 1], [1, 1, 1], "q^5 - q^4 + q^3 + q^2 - 2*q + 3 - 2*q^-1 + q^-2"),
    "bmw-kkk": ([1, 1, 1], [1, 1, 1], "-q^3 + 3*q^2 - 5*q + 6 - 5*q^-1 + 3*q^-2 - q^-3"),
    "bmw-k1rk1": ([1, 1, 1], [1, 1, 1], "q^4 - 2*q^3 + 3*q^2 - 2*q + 1 + q^-1 - q^-2 + q^-3"),
    "minimal-cubic": ([1, 3], [1, 3], "1 - q^-2 - q^-4 + q^-6"),
    "psi-c-left": ([1, 2], [1, 2], "q - 1 - q^-1 + 2*q^-2 - q^-3 - q^-4 + q^-5"),
    "psi-c-right": ([1, 2], [1, 2], "q - 1 - q^-1 + 2*q^-2 - q^-3 - q^-4 + q^-5"),
    "psi-d-left": ([2, 2], [1, 3], "q^(-3/2) - q^(-5/2) - q^(-7/2) + q^(-9/2)"),
    "psi-d-right": ([1, 3], [2, 2], "q^(-3/2) - q^(-5/2) - q^(-7/2) + q^(-9/2)"),
    "cd-commute": ([1], [1], "-q^2 + 2*q - 3*q^-1 + 2*q^-2 + q^-5 - q^-6"),
    "kappa-rank-one": ([], [], "2"),
    "kappa-trace2": ([1], [1], "-q + 1 - q^-1 + q^-5 - 2*q^-6"),
    "kappa-trace1": ([1], [1], "-q + 1 - q^-1 + q^-3 - 2*q^-4"),
    "d-rinv-trace": ([1], [1], "-q^4 + q^-6"),
    "cd-scalar": ([1], [1], "-q^4 + q^-6"),
    "d-kappa-trace1": ([1], [1], "-2*q^2 - q^-3 + q^-4 - q^-5 + q^-7"),
    "d-kappa-trace": ([1], [1], "-q^2 - q^-3 + q^-4 - q^-5 + q^-6"),
    "trace-c-d": ([], [], "q^3 - q^2 + q + q^-1 + q^-2 + q^-4"),
}
BUMP_SO3_NUMERIC_WITNESSES = {
    "yang-baxter": ([1, 1, 2], [1, 1, 2], "257725/9216"),
    "kappa-idempotent": ([1, 3], [1, 3], "111172864/3486784401"),
    "kappa-inverse-form": ([1, 3], [1, 3], "-25220/59049"),
    "bmw-braid": ([1, 1, 2], [1, 1, 2], "257725/9216"),
    "bmw-rk": ([1, 3], [1, 3], "-403520/4782969"),
    "bmw-k2rk2": ([1, 1, 1], [1, 1, 1], "2775073/186624"),
    "bmw-kk-rinv": ([1, 1, 1], [1, 1, 1], "2775073/944784"),
    "bmw-kk-rr": ([1, 1, 1], [1, 1, 1], "3840133/82944"),
    "bmw-kkk": ([1, 1, 1], [1, 1, 1], "-147925/46656"),
    "bmw-k1rk1": ([1, 1, 1], [1, 1, 1], "2775073/186624"),
    "minimal-cubic": ([1, 3], [1, 3], "409825/531441"),
    "psi-c-left": ([1, 2], [1, 2], "257725/236196"),
    "psi-c-right": ([1, 2], [1, 2], "257725/236196"),
    "psi-d-left": ([2, 2], [1, 3], "2600/19683"),
    "psi-d-right": ([1, 3], [2, 2], "2600/19683"),
    "cd-commute": ([1], [1], "-12679225/8503056"),
    "kappa-rank-one": ([], [], "2"),
    "kappa-trace2": ([1], [1], "-3597893/2125764"),
    "kappa-trace1": ([1], [1], "-44213/26244"),
    "d-rinv-trace": ([1], [1], "-3485735825/136048896"),
    "cd-scalar": ([1], [1], "-3485735825/136048896"),
    "d-kappa-trace1": ([1], [1], "-389819209/38263752"),
    "d-kappa-trace": ([1], [1], "-43543361/8503056"),
    "trace-c-d": ([], [], "3887941/419904"),
}
IDENT2_WITNESSES = {
    "nu-detect": ([], [], "1"),
    "kappa-idempotent": ([1, 1], [1, 1], "q^-1 + q^-3 + q^-7 + q^-9 + q^-10"),
    "kappa-inverse-form": ([1, 1], [1, 1], "-1 + q^-5"),
    "bmw-rk": ([1, 1], [1, 1], "-1 + q^-5"),
    "bmw-k2rk2": ([1, 1, 1], [1, 1, 1], "-1 + q^-10"),
    "bmw-kk-rinv": ([1, 1, 1], [1, 1, 1], "-q^-5 + q^-10"),
    "bmw-kk-rr": ([1, 1, 1], [1, 1, 1], "-q^-5 + q^-10"),
    "bmw-kkk": ([1, 1, 1], [1, 1, 1], "-q^-5 + q^-15"),
    "bmw-k1rk1": ([1, 1, 1], [1, 1, 1], "-1 + q^-10"),
    "minimal-cubic": ([1, 1], [1, 1], "q^6 - q^4 - q + q^-1"),
}
IDENT2_NUMERIC_WITNESSES = {
    "nu-detect": ([], [], "1"),
    "kappa-idempotent": ([1, 1], [1, 1], "1871143780/3486784401"),
    "kappa-inverse-form": ([1, 1], [1, 1], "-58025/59049"),
    "bmw-rk": ([1, 1], [1, 1], "-58025/59049"),
    "bmw-k2rk2": ([1, 1, 1], [1, 1, 1], "-3485735825/3486784401"),
    "bmw-kk-rinv": ([1, 1, 1], [1, 1, 1], "-59417600/3486784401"),
    "bmw-kk-rr": ([1, 1, 1], [1, 1, 1], "-59417600/3486784401"),
    "bmw-kkk": ([1, 1, 1], [1, 1, 1], "-3569393484800/205891132094649"),
    "bmw-k1rk1": ([1, 1, 1], [1, 1, 1], "-3485735825/3486784401"),
    "minimal-cubic": ([1, 1], [1, 1], "3771625/36864"),
}



def _control_file(tmp_path, control):
    if control == "bump":
        path = _so3_file(tmp_path, entry="q^2")
        return [path, "--detect-nu"]
    path = tmp_path / "ident2.json"
    entries = [{"out": [i, j], "in": [i, j], "coeff": "1"} for i in (1, 2) for j in (1, 2)]
    path.write_text(json.dumps({"dim": 2, "nu": "q^5", "entries": entries}))
    return [str(path)]


@pytest.mark.parametrize(
    "control, mode, reason, witnesses",
    [
        ("bump", [], "RankNotOne: rank(K) = 2, expected 1", BUMP_SO3_WITNESSES),
        ("bump", ["--at-s", "3/2"], "RankNotOne: rank(K) = 2, expected 1",
         BUMP_SO3_NUMERIC_WITNESSES),
        ("ident", [], "NotSkewInvertible: the reshuffled 4 x 4 system is singular",
         IDENT2_WITNESSES),
        ("ident", ["--at-s", "3/2"], "NotSkewInvertible: the reshuffled 4 x 4 system is singular",
         IDENT2_NUMERIC_WITNESSES),
    ],
    ids=["bump-symbolic", "bump-numeric", "ident-symbolic", "ident-numeric"],
)
def test_negative_control_witnesses_are_pinned(tmp_path, capsys, control, mode, reason, witnesses):
    code = main(["verify", "--input", *_control_file(tmp_path, control), *mode, "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["status"] == "aborted" and doc["reason"] == reason
    failing = {
        chk["id"]: (chk["witness"]["out"], chk["witness"]["in"], chk["witness"]["value"])
        for chk in doc["checks"]
        if not chk["pass"]
    }
    assert failing == witnesses


def _pipeline_ids(capsys):
    """The 35 check ids of the plain pipeline, in report order."""
    assert main(["verify", "--family", "sp", "--dim", "2", "--report", "json"]) == 0
    ids = [chk["id"] for chk in json.loads(capsys.readouterr().out)["checks"]]
    assert len(ids) == 35
    return ids


@pytest.mark.parametrize(
    "mode, x_diag",
    [([], ["q^-1", "q"]), (["--at-s", "3/2"], ["4/9", "9/4"])],
    ids=["symbolic", "at-s"],
)
def test_verify_file_with_twist(tmp_path, capsys, mode, x_diag):
    # A file source with a twist verifies the generic twist: there is no
    # closed form to compare against, and no expected X.
    path = tmp_path / "sp2.json"
    export_family("sp", 2, None, str(path))
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    ids = _pipeline_ids(capsys)
    code = main(["verify", "--input", str(path), "--twist", twist, *mode, "--report", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass"
    assert [chk["id"] for chk in doc["checks"]] == ["twist-valid", "twist-compat", *ids]
    assert doc["derived"]["X_diag"] == x_diag


def test_export_command_writes_what_export_family_writes(tmp_path):
    twist = write_twist(tmp_path / "d.json", SP2_TWIST_TEXT)
    for extra in ([], ["--twist", twist]):
        out = tmp_path / "cli.json"
        ref = tmp_path / "ref.json"
        assert main(["export", "--family", "sp", "--dim", "2", *extra, "--out", str(out)]) == 0
        export_family("sp", 2, twist if extra else None, str(ref))
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--family", "so"], "need --family and --dim, or --input FILE"),
        (["verify", "--family", "so", "--dim", "3", "--nu", "q", "--detect-nu"],
         "--nu and --detect-nu are mutually exclusive"),
        (["verify", "--family", "so", "--dim", "3", "--at-s", "1/0"],
         "bad --at-s value '1/0': zero denominator\n"),
    ],
    ids=["no-source", "nu-and-detect", "bad-at-s"],
)
def test_bad_options_exit_2_with_message(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bmwcert: error: {message}")
    assert "Traceback" not in err


# The twisted sp_2 of SP2_TWIST_TEXT after the change of basis A = I + e_12,
# as `export` writes it.  Its X is not diagonal, so it tells X from its
# transpose.
COB_SP2 = {
    "dim": 2,
    "nu": "-q^-3",
    "entries": [
        {"out": [1, 1], "in": [1, 1], "coeff": "q"},
        {"out": [1, 1], "in": [1, 2], "coeff": "q^-2 - q^-3"},
        {"out": [1, 1], "in": [2, 1], "coeff": "-q + 1"},
        {"out": [1, 1], "in": [2, 2], "coeff": "q - 1 - q^-2 + q^-3"},
        {"out": [1, 2], "in": [1, 2], "coeff": "q - q^-3"},
        {"out": [1, 2], "in": [2, 1], "coeff": "1"},
        {"out": [1, 2], "in": [2, 2], "coeff": "-1 + q^-3"},
        {"out": [2, 1], "in": [1, 2], "coeff": "q^-2"},
        {"out": [2, 1], "in": [2, 2], "coeff": "q - q^-2"},
        {"out": [2, 2], "in": [2, 2], "coeff": "q"},
    ],
}


def _cob_files(tmp_path):
    """COB_SP2, and the twisted so_4 of SO4_TWIST_TEXT after the change of
    basis A = I + e_12 + 2 e_23 + q e_34."""
    sp2 = tmp_path / "cob_sp2.json"
    sp2.write_text(json.dumps(COB_SP2))
    so4 = build_multiparametric("so", 4, twist_from_text(SO4_TWIST_TEXT))
    off_diagonal = [(0, 1, F.one), (1, 2, F.from_int(2)), (2, 3, F.q)]
    a = FieldMatrix.from_entries(4, F, [(i, i, F.one) for i in range(4)] + off_diagonal)
    so4_path = tmp_path / "cob_so4.json"
    export_rmatrix(change_of_basis(so4.R, a), so4.nu, str(so4_path))
    return [sp2, so4_path]


def test_cob_sp2_is_the_changed_basis_of_the_twisted_sp2(tmp_path):
    sp2 = build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT))
    a = FieldMatrix.from_entries(2, F, [(0, 0, F.one), (1, 1, F.one), (0, 1, F.one)])
    op, nu = import_rmatrix(str(_cob_files(tmp_path)[0]))
    assert op == change_of_basis(sp2.R, a) and nu == sp2.nu


@pytest.mark.parametrize(
    "mode", [[], ["--at-s", "3/2"], ["--detect-nu"]], ids=["symbolic", "at-s", "detect-nu"]
)
def test_change_of_basis_passes_every_check(tmp_path, capsys, mode):
    for path in _cob_files(tmp_path):
        code = main(["verify", "--input", str(path), *mode, "--report", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["status"] == "pass", path.name
        assert len(doc["checks"]) == 35 and all(chk["pass"] for chk in doc["checks"])
        assert doc["derived"]["X_diag"] is None


def test_values_past_the_int_digit_limit_print_but_input_keeps_it(capsys):
    # At s = 2^4000, nu = s^-4 has 4,817 digits, past the interpreter's
    # default limit (4,300) on int-to-text conversion.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["verify", "--family", "so", "--dim", "3", "--report", "json"]
    assert main([*argv, "--at-s", str(2**4000)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    assert len(doc["derived"]["nu"]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert main([*argv, "--at-s", "1" + "0" * 4999]) == 2
    assert capsys.readouterr().err.startswith("bmwcert: error: bad --at-s value '1000")
