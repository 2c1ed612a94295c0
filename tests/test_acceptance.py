"""Acceptance criteria, one test per criterion.

Every check is exact (zero residual in Q(s) or in Q at s = 3/2); the only
timing numbers are the stated runtime ceilings and the soft numeric-mode
speedup target, which is printed but not asserted.
"""

import time
from fractions import Fraction

import pytest

from bmwcert import (
    FieldMatrix,
    JobConfig,
    RMatrixSystem,
    SYMBOLIC,
    TensorOperator,
    TwistSpec,
    build_F,
    build_multiparametric,
    build_standard,
    check_bmw_relations,
    check_twist_compat,
    check_yang_baxter,
    detect_nu,
    full_verification,
    pairings_match_up_to_gauge,
    permutation_op,
    run_job,
    skew_inverse,
    twisted_expected,
    twisted_matrix,
    validate_twist,
)
from bmwcert.core import _kappa_raw
from bmwcert.errors import (
    InvalidTwistParameters,
    NotSkewInvertible,
)

from conftest import twist_from_text, SO4_TWIST_TEXT, SP2_TWIST_TEXT
from test_properties import (
    run_cd_commute_non_bmw,
    run_evaluate_homomorphism,
    run_field_axioms,
    run_gauge_invariance,
    run_psi_uniqueness,
)

F = SYMBOLIC
q = F.q
one = F.one

FAMILIES = (("so", 3), ("so", 4), ("so", 5), ("sp", 2), ("sp", 4))

EXPECTED_CHECK_IDS = {
    "yang-baxter",
    "nu-detect",
    "kappa-idempotent",
    "kappa-inverse-form",
    "bmw-braid",
    "bmw-cubic",
    "bmw-rk",
    "bmw-k2rk2",
    "bmw-kk-rinv",
    "bmw-kk-rr",
    "bmw-kkk",
    "bmw-k1rk1",
    "minimal-cubic",
    "skew-left",
    "skew-right",
    "c-contraction",
    "d-contraction",
    "psi-c-left",
    "psi-c-right",
    "psi-d-left",
    "psi-d-right",
    "cd-commute",
    "kappa-rank-one",
    "kappa-trace2",
    "kappa-trace1",
    "d-rinv-trace",
    "cd-scalar",
    "d-kappa-trace1",
    "d-kappa-trace",
    "trace-c-d",
    "pairing-factorization",
    "xy-inverse",
    "charpoly-reciprocity",
    "charpoly-palindrome",
    "rtt-conjugation",
}

_report_cache = {}


def family_report(series, dim, at_s=None):
    key = (series, dim, at_s)
    if key not in _report_cache:
        config = JobConfig(source=("family", series, dim), at_s=at_s, report_format="json")
        start = time.perf_counter()
        report, code = run_job(config)
        elapsed = time.perf_counter() - start
        _report_cache[key] = (report, code, elapsed)
    return _report_cache[key]


def test_criterion_1_family_certification():
    for series, dim in FAMILIES:
        report, code, elapsed = family_report(series, dim)
        assert code == 0, (series, dim)
        assert report.status == "pass"
        ids = {chk["id"] for chk in report.checks}
        assert ids == EXPECTED_CHECK_IDS, ids ^ EXPECTED_CHECK_IDS
        assert all(chk["pass"] for chk in report.checks)
        limit = 600.0 if dim >= 5 else 60.0
        assert elapsed < limit, f"{series}_{dim} took {elapsed:.1f}s"
    print("criterion-1 PASS: so_3/4/5 and sp_2/4 certify with zero residuals")


def test_criterion_2_nu_values():
    for dim in (3, 4, 5):
        assert detect_nu(build_standard("so", dim).R) == q ** (1 - dim)
    for dim in (2, 4):
        assert detect_nu(build_standard("sp", dim).R) == F.zero - q ** (-dim - 1)
    for dim in (2, 4):
        report, _, _ = family_report("sp", dim)
        assert any("-q^(-1-2N)" in note for note in report.notes)
    print("criterion-2 PASS: nu = q^(1-N) (so), -q^(-N-1) (sp); notation flagged")


def test_criterion_3_closed_form_spot_values():
    so3 = build_standard("so", 3)
    kappa3, outcome = _kappa_raw(so3)
    assert outcome.passed
    skew3 = skew_inverse(so3)
    assert kappa3.mu == q + one + q**-1
    assert skew3.C.mat.trace() == q**-1 + q**-2 + q**-3
    assert skew3.D.mat.trace() == q**-1 + q**-2 + q**-3

    sp2 = build_standard("sp", 2)
    kappa2, outcome = _kappa_raw(sp2)
    assert outcome.passed
    skew2 = skew_inverse(sp2)
    assert kappa2.mu == F.zero - (q**2 + q**-2)
    assert skew2.D.mat.trace() == q**-1 + q**-5
    assert skew2.C.mat * skew2.D.mat == FieldMatrix.identity(2, F).scaled_by(q**-6)
    assert skew2.D.mat * skew2.C.mat == FieldMatrix.identity(2, F).scaled_by(q**-6)
    print("criterion-3 PASS: mu, Tr C, Tr D, CD spot values match the closed forms")


def test_criterion_4_standard_pairings():
    for series, dim in FAMILIES:
        res = full_verification(build_standard(series, dim))
        assert res.status == "pass", (series, dim)
        closed, x_closed = twisted_expected(series, dim, TwistSpec(((one,) * dim,) * dim))
        assert pairings_match_up_to_gauge(res.pairing, closed), (series, dim)
        assert x_closed == FieldMatrix.identity(dim, F)
        assert res.xy.X == FieldMatrix.identity(dim, F), (series, dim)
    print("criterion-4 PASS: pipeline pairings match the closed forms; X = I")


def test_criterion_5_twist_suite():
    cases = (("sp", 2, twist_from_text(SP2_TWIST_TEXT)), ("so", 4, twist_from_text(SO4_TWIST_TEXT)))
    for series, dim, spec in cases:
        validate_twist(spec)
        sys = build_standard(series, dim)
        f_op = build_F(spec)
        # (a) compatibility
        assert check_twist_compat(sys.R, f_op).passed, (series, dim)
        # (b) closed form equals the generic twist exactly
        closed = build_multiparametric(series, dim, spec)
        assert closed.R == twisted_matrix(sys.R, f_op)
        # (c) full certification of the twisted system
        res = full_verification(closed)
        assert res.status == "pass", (series, dim, res.aborted)
        # (d) X = diag(d_i'i / d_ii'), non-scalar, eps = +1, det X = 1
        pair_exp, x_exp = twisted_expected(series, dim, spec)
        xy = res.xy
        assert xy.X == x_exp
        diag = [xy.X.get(i, i) for i in range(dim)]
        assert len({str(v) for v in diag}) > 1, "X must be non-scalar"
        assert xy.epsilon == 1
        det = one
        for v in diag:
            det = det * v
        assert det == one
        assert pairings_match_up_to_gauge(res.pairing, pair_exp)
    print("criterion-5 PASS: twist compatibility, closed form, certification, non-scalar X")


def test_criterion_6_property_suites():
    totals = {
        "gauge-invariance": run_gauge_invariance(),
        "field-axioms": run_field_axioms(),
        "evaluate-homomorphism": run_evaluate_homomorphism(),
        "cd-commute-non-bmw": run_cd_commute_non_bmw(),
        "psi-uniqueness": run_psi_uniqueness(),
    }
    assert all(count >= 100 for count in totals.values()), totals
    print(f"criterion-6 PASS: randomized property suites {totals}")


def test_criterion_7_negative_controls():
    ident = TensorOperator.identity(2, 2, F)
    with pytest.raises(NotSkewInvertible):
        skew_inverse(RMatrixSystem(ident, q**5))

    p = permutation_op(2, 2, 1, 2, F)
    _, outcome = _kappa_raw(RMatrixSystem(p, detect_nu(p)))
    assert outcome.id == "kappa-idempotent" and not outcome.passed

    wrong = RMatrixSystem(build_standard("sp", 2).R, q**-3)
    kappa, _ = _kappa_raw(wrong)
    outs = {o.id: o for o in check_bmw_relations(wrong, kappa, check_yang_baxter(wrong))}
    assert not outs["bmw-rk"].passed and outs["bmw-rk"].witness is not None

    rows = [[one] * 3 for _ in range(3)]
    rows[0][0] = q
    with pytest.raises(InvalidTwistParameters):
        validate_twist(TwistSpec(tuple(tuple(r) for r in rows)))
    print("criterion-7 PASS: identity, permutation, wrong-sign nu, invalid twist")


def test_criterion_8_numeric_shadowing():
    at = Fraction(3, 2)
    speedups = []
    for series, dim in FAMILIES:
        sym_report, _, sym_time = family_report(series, dim)
        num_report, num_code, num_time = family_report(series, dim, at_s=at)
        assert num_code == 0
        sym_vec = [(chk["id"], chk["pass"]) for chk in sym_report.checks]
        num_vec = [(chk["id"], chk["pass"]) for chk in num_report.checks]
        assert sym_vec == num_vec, (series, dim)
        if num_time > 0:
            speedups.append(sym_time / num_time)
    ratio = min(speedups)
    print(
        "criterion-8 PASS: numeric mode at s = 3/2 reproduces every pass/fail vector"
        f" (speedup x{ratio:.1f}..x{max(speedups):.1f}, soft target x10)"
    )
