"""Rational-entry inputs decided on a Laurent diagonal gauge.

`verify` decides an R whose entries are not all Laurent first on
R0 = (D (x) D)^-1 R (D (x) D), D diagonal (core.diagonal_gauge), and keeps
that verdict only when it passes.  The path as given, forced here by making
diagonal_gauge return None, must print the same report and exit with the
same code on every input: passing gauges, failing gauges and inputs that
have no diagonal gauge.
"""

import pytest

import bmwcert.cli
from bmwcert import SYMBOLIC, FieldMatrix, RationalField, TensorOperator, main, parse
from bmwcert.cli import JobConfig, run_job
from bmwcert.core import RMatrixSystem, diagonal_gauge, full_verification
from bmwcert.errors import ShapeMismatch
from bmwcert.families import family_nu, standard_matrix
from bmwcert.report import export_rmatrix, render_json, render_text

from conftest import change_of_basis

F = SYMBOLIC
NON_MONIC = ("2*q - 1", "q^3 + q + 1", "(q + 1)*(q + 2)")


def _permuted(n):
    """q + c_i for a fixed permutation c of 1..n."""
    return [f"q + {c}" for c in (list(range(2, n + 1, 2)) + list(range(1, n + 1, 2)))]


def _non_monic(n):
    return [NON_MONIC[i % 3] if i < 3 else f"q + {i}" for i in range(n)]


def _gauged(series, n, diag):
    a = FieldMatrix.from_entries(n, F, [(i, i, parse(t)) for i, t in enumerate(diag)])
    return change_of_basis(standard_matrix(series, n), a)


def _edited(r, cell, value):
    entries = dict(r.items())
    entries[cell] = value(entries[cell])
    return TensorOperator.from_entries(r.N, 2, F, [(o, i, v) for (o, i), v in entries.items()])


def _first_rational_cell(r):
    return next(cell for cell, v in r.items() if F.to_flat(v) is None)


PASSING = {
    f"{series}{n}-{kind}": (series, n, diag(n))
    for series, n in (("so", 3), ("so", 4), ("so", 5), ("so", 6), ("sp", 4), ("sp", 6))
    for kind, diag in (("permuted", _permuted), ("non-monic", _non_monic))
}
# Each nu mode as the JobConfig.nu it sets.
NU_MODES = {
    "file-nu": lambda series, n: None,
    "nu-option": lambda series, n: str(family_nu(series, n)),
    "detect-nu": lambda series, n: "detect",
}


def _nu_argv(nu):
    """The verify options that set JobConfig.nu to nu."""
    if nu is None:
        return []
    return ["--detect-nu"] if nu == "detect" else ["--nu", nu]


def _outputs(monkeypatch, capsys, argv, gauge):
    """(exit code, stdout, stderr) of main, with the gauge on or off."""
    with monkeypatch.context() as m:
        if not gauge:
            m.setattr(bmwcert.cli, "diagonal_gauge", lambda r: None)
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _same_both_ways(monkeypatch, capsys, argv):
    gauged = _outputs(monkeypatch, capsys, argv, gauge=True)
    assert gauged == _outputs(monkeypatch, capsys, argv, gauge=False)
    return gauged


@pytest.fixture(scope="module")
def decided(tmp_path_factory):
    """decide(case, nu_mode) -> ({report: text}, exit code) with the gauge on,
    then the same with it off.  Each side is one run_job per (case, nu mode),
    rendered in both formats, so the json and text cases share it."""
    seen = {}

    def side(config, gauge):
        with pytest.MonkeyPatch.context() as m:
            if not gauge:
                m.setattr(bmwcert.cli, "diagonal_gauge", lambda r: None)
            report, code = run_job(config)
        return {"json": render_json(report), "text": render_text(report)}, code

    def decide(case, nu_mode):
        if (case, nu_mode) not in seen:
            series, n, diag = PASSING[case]
            path = tmp_path_factory.mktemp("r") / "r.json"
            export_rmatrix(_gauged(series, n, diag), family_nu(series, n), str(path))
            config = JobConfig(source=("file", str(path)), nu=NU_MODES[nu_mode](series, n))
            seen[case, nu_mode] = side(config, True), side(config, False)
        return seen[case, nu_mode]

    return decide


@pytest.mark.parametrize("report", ["json", "text"])
@pytest.mark.parametrize("nu_mode", NU_MODES)
@pytest.mark.parametrize("case", PASSING)
def test_passing_gauge_prints_the_report_as_given(decided, case, nu_mode, report):
    (gauged, code), (as_given, code_as_given) = decided(case, nu_mode)
    assert (gauged[report], code) == (as_given[report], code_as_given)
    assert code == 0


FAILING = {
    # A rational entry doubled: R0 keeps a flat form and fails.
    "so3-doubled": ("so", 3, lambda r: _edited(r, _first_rational_cell(r), lambda v: v + v)),
    "so4-doubled": ("so", 4, lambda r: _edited(r, _first_rational_cell(r), lambda v: v + v)),
    # R[(1,1),(1,1)] raised to q^2, an entry no gauge moves: rank(K) = 2.
    "so3-bumped": ("so", 3, lambda r: _edited(r, ((1, 1), (1, 1)), lambda v: F.q**2)),
    "sp4-bumped": ("sp", 4, lambda r: _edited(r, ((1, 1), (1, 1)), lambda v: F.q**2)),
}


@pytest.mark.parametrize("nu_mode", NU_MODES)
@pytest.mark.parametrize("case", FAILING)
def test_failing_gauge_prints_the_report_as_given(monkeypatch, capsys, tmp_path, case, nu_mode):
    series, n, edit = FAILING[case]
    r = edit(_gauged(series, n, _permuted(n)))
    assert diagonal_gauge(r) is not None
    path = tmp_path / "r.json"
    export_rmatrix(r, family_nu(series, n), str(path))
    nu_argv = _nu_argv(NU_MODES[nu_mode](series, n))
    argv = ["verify", "--input", str(path), "--report", "json", *nu_argv]
    code, out, err = _same_both_ways(monkeypatch, capsys, argv)
    # --detect-nu on a doubled entry finds no eigenvector: exit 2 both ways.
    assert (code, err) == (1, "") and '"pass": false' in out or (
        code == 2 and err == "bmwcert: error: candidate column is not an eigenvector\n"
    )


def test_input_without_a_diagonal_gauge_is_decided_as_given(monkeypatch, capsys, tmp_path):
    # A = I + (e_12 + e_21) / (q + 1): the cycle 1 -> 2 -> 1 of A carries
    # 1 / (q + 1)^2, so entries that no diagonal gauge moves stay rational.
    # (A triangular A = I + e_12 / (q + 1) is itself a diagonal gauge of
    # I + e_12, and so has one.)
    t = F.one / (F.q + F.one)
    a = FieldMatrix.from_entries(2, F, [(0, 0, F.one), (1, 1, F.one), (0, 1, t), (1, 0, t)])
    r = change_of_basis(standard_matrix("sp", 2), a)
    assert r._flat is None and diagonal_gauge(r) is None
    path = tmp_path / "r.json"
    export_rmatrix(r, family_nu("sp", 2), str(path))
    for report in ("json", "text"):
        argv = ["verify", "--input", str(path), "--report", report]
        assert _same_both_ways(monkeypatch, capsys, argv)[0] == 0


def test_flat_operators_have_no_gauge():
    assert diagonal_gauge(standard_matrix("so", 4)) is None
    f = RationalField(3)
    assert diagonal_gauge(standard_matrix("so", 4, f)) is None
    r = _gauged("so", 4, _permuted(4))
    lifted = TensorOperator.from_entries(4, 2, f, [(o, i, f.lift(v)) for (o, i), v in r.items()])
    assert diagonal_gauge(lifted) is None


@pytest.mark.parametrize(
    "edit, calls",
    [(None, [True]), (FAILING["so3-doubled"][2], [True, False])],
    ids=["passing", "failing"],
)
def test_gauged_verdict_count(monkeypatch, capsys, tmp_path, edit, calls):
    # A passing gauge is one verdict, on the flat R0; a failing one is
    # decided again on R as given, whose entries are rational.
    r = _gauged("so", 3, _permuted(3))
    path = tmp_path / "r.json"
    export_rmatrix(r if edit is None else edit(r), family_nu("so", 3), str(path))
    seen = []
    full_verification = bmwcert.cli.full_verification

    def recording(sys_or_r):
        seen.append(getattr(sys_or_r, "R", sys_or_r)._flat is not None)
        return full_verification(sys_or_r)

    monkeypatch.setattr(bmwcert.cli, "full_verification", recording)
    assert main(["verify", "--input", str(path)]) == (0 if edit is None else 1)
    capsys.readouterr()
    assert seen == calls


def test_error_raised_on_the_gauge_reaches_main(monkeypatch, capsys, tmp_path):
    # An error R0's verdict raises is not retried on R as given: R's verdict
    # would raise it with the same text, so only a bug could be hidden.
    path = tmp_path / "r.json"
    export_rmatrix(_gauged("so", 3, _permuted(3)), family_nu("so", 3), str(path))
    seen = []
    full_verification = bmwcert.cli.full_verification

    def failing_on_r0(sys_or_r):
        seen.append(sys_or_r)
        if getattr(sys_or_r, "R", sys_or_r)._flat is not None:
            raise ShapeMismatch("injected")
        return full_verification(sys_or_r)

    monkeypatch.setattr(bmwcert.cli, "full_verification", failing_on_r0)
    assert main(["verify", "--input", str(path)]) != 0
    assert "injected" in capsys.readouterr().err
    assert len(seen) == 1


def test_singular_gauged_input_exits_2_both_ways(monkeypatch, capsys, tmp_path):
    # Without its row out = (1, 1), R has rank 8; the gauge keeps the rank.
    r = _gauged("so", 3, ["q + 2", "q + 3", "q + 1"])
    cells = [(o, i, v) for (o, i), v in r.items() if o != (1, 1)]
    r = TensorOperator.from_entries(3, 2, F, cells)
    assert diagonal_gauge(r) is not None
    path = tmp_path / "r.json"
    export_rmatrix(r, family_nu("so", 3), str(path))
    code, out, err = _same_both_ways(monkeypatch, capsys, ["verify", "--input", str(path)])
    assert (code, out) == (2, "")
    assert err == "bmwcert: error: R is singular in Q(s): rank 8 < dim 9\n"


def test_second_gauge_pass_keeps_k_laurent():
    # Under A = diag(q + 1, q + 2, q + 3) the first pass makes R0 Laurent,
    # but K = W / (lam nu) keeps a denominator that lam cancels in R0; only
    # the second pass, on W / lam, puts K on the integer kernel.
    r0 = diagonal_gauge(_gauged("so", 3, ["q + 1", "q + 2", "q + 3"]))
    result = full_verification(RMatrixSystem(r0, family_nu("so", 3)))
    assert result.status == "pass"
    assert result.kappa.K._flat is not None
