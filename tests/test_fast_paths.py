"""The closed-form candidates and the rank-one borders against the reference
path.

full_verification proposes R^-1, Psi and the factorization K = gbar g^T in
closed form and accepts each only after an exact check by products; when
K = gbar g^T it decides the K-bordered relations on N rows.  The reference
path, forced here by making the private helpers that propose the candidates
return None, eliminates and forms every three-site product.  On every input
both paths must give the same outcomes (id, passed, witness), the same
derived values and the same abort reason.
"""

import json
from fractions import Fraction

import pytest

import bmwcert.core as core
from bmwcert import (
    FieldMatrix,
    RMatrixSystem,
    RationalField,
    SYMBOLIC,
    TensorOperator,
    build_F,
    build_multiparametric,
    check_twist_compat,
    full_verification,
    rtt_lemma,
)
from bmwcert.cli import JobConfig, run_job
from bmwcert.core import XYPair
from bmwcert.errors import BmwError, RankNotOne
from bmwcert.families import family_nu, standard_matrix
from bmwcert.report import build_report, render_json

from conftest import SO4_TWIST_TEXT, SP2_TWIST_TEXT, change_of_basis, twist_from_text

F = SYMBOLIC
q = F.q
one = SYMBOLIC.one
FIELDS = {
    "symbolic": SYMBOLIC,
    "3/2": RationalField(Fraction(3, 2)),
    "-5/3": RationalField(Fraction(-5, 3)),
}


def _lifted(op, field):
    if field is SYMBOLIC:
        return op
    lifted = [(o, i, field.lift(v)) for (o, i), v in op.items()]
    return TensorOperator.from_entries(op.N, 2, field, lifted)


def _family(series, n):
    return lambda f: (standard_matrix(series, n, f), family_nu(series, n, f))


def _twisted(series, n, text):
    def build(f):
        d = tuple(tuple(f.lift(v) for v in row) for row in twist_from_text(text))
        return standard_matrix(series, n, f, d), family_nu(series, n, f)

    return build


def _gauged(series, n, a_entries):
    def build(f):
        a = FieldMatrix.from_entries(n, SYMBOLIC, a_entries)
        r = change_of_basis(standard_matrix(series, n), a)
        return _lifted(r, f), family_nu(series, n, f)

    return build


def _edited(series, n, cell, value, nu=None):
    """The family with one entry replaced; nu the family's unless given."""

    def build(f):
        entries = dict(standard_matrix(series, n).items())
        entries[cell] = value
        cells = [(o, i, v) for (o, i), v in entries.items()]
        r = TensorOperator.from_entries(n, 2, SYMBOLIC, cells)
        return _lifted(r, f), f.lift(family_nu(series, n) if nu is None else nu)

    return build


def _wrong_nu(series, n, nu):
    return lambda f: (standard_matrix(series, n, f), f.lift(nu))


def _identity(f):
    return TensorOperator.identity(2, 2, f), f.lift(q**5)


def _singular(f):
    # Rows (1,1) and (1,2) are equal.
    cells = [((1, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (1, 1)), ((1, 2), (1, 2))]
    entries = [(o, i, one) for o, i in cells] + [((2, 1), (2, 1), q), ((2, 2), (2, 2), q)]
    return _lifted(TensorOperator.from_entries(2, 2, SYMBOLIC, entries), f), f.lift(q**-2)


CASES = {
    **{f"so{n}": _family("so", n) for n in (3, 4, 5, 6)},
    **{f"sp{n}": _family("sp", n) for n in (2, 4, 6)},
    "twisted-so4": _twisted("so", 4, SO4_TWIST_TEXT),
    "twisted-sp2": _twisted("sp", 2, SP2_TWIST_TEXT),
    "diagonal-gauge-so3": _gauged("so", 3, [(i, i, q + F.from_int(i + 1)) for i in range(3)]),
    "unipotent-gauge-sp2": _gauged("sp", 2, [(0, 0, one), (0, 1, one), (1, 1, one)]),
    "unipotent-gauge-so4": _gauged("so", 4, [(i, i, one) for i in range(4)] + [(0, 2, one)]),
    "bump-so3": _edited("so", 3, ((1, 1), (1, 1)), q**2),
    "identity": _identity,
    # v_i (x) v_i turned from a q- into a -q^-1-eigenvector: W and so K stay
    # the same rank-one operator and R K = nu K still holds, but four
    # K-bordered relations fail and the closed-form Psi does not solve.
    "flip-so3": _edited("so", 3, ((1, 1), (1, 1)), SYMBOLIC.zero - q**-1),
    "flip-sp2": _edited("sp", 2, ((2, 2), (2, 2)), SYMBOLIC.zero - q**-1),
    "flip-so4": _edited("so", 4, ((2, 2), (2, 2)), SYMBOLIC.zero - q**-1),
    # K has rank 2 on a support of nnz(gbar) nnz(g) entries, so only the
    # comparison K == gbar g^T turns the pivot factorization down.
    "rank-two-rectangle-so3": _edited("so", 3, ((1, 1), (1, 3)), one),
    "wrong-nu-so3": _wrong_nu("so", 3, q**-3),
    "wrong-sign-nu-sp2": _wrong_nu("sp", 2, q**-3),
    # Singular in Q(s): both paths raise the same error.
    "singular": _singular,
}


def _verdict(build, field):
    r, nu = build(field)
    try:
        res = full_verification(RMatrixSystem(r, nu))
    except BmwError as exc:
        return type(exc).__name__, str(exc)
    outcomes = [(o.id, o.passed, o.witness) for o in res.outcomes]
    return outcomes, res.derived, res.aborted


def _force_reference_path(monkeypatch):
    # With the comparison K == gbar g^T turned off, rank(K) is eliminated,
    # and a K of rank one is factored at its pivot.
    factor_pairings = core.factor_pairings
    monkeypatch.setattr(core, "_rank_one_pairing", lambda k_op: None)
    monkeypatch.setattr(
        core,
        "factor_pairings",
        lambda kappa: core._pivot_pairing(kappa.K) if kappa.rank == 1 else factor_pairings(kappa),
    )
    monkeypatch.setattr(core, "_closed_form_r_inv", lambda sys, kappa: None)
    monkeypatch.setattr(core, "_psi_candidate", lambda sys, kappa: None)


@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_fast_path_matches_reference_path(monkeypatch, case, field):
    fast = _verdict(CASES[case], FIELDS[field])
    _force_reference_path(monkeypatch)
    assert _verdict(CASES[case], FIELDS[field]) == fast


def test_flip_keeps_k_rank_one_and_fails_bordered_relations():
    # The flips reach what the passing inputs never do: a rank-one K whose
    # bordered relations fail on the N border rows and are decided again in
    # full, and a closed-form Psi that is turned down.
    outcomes, _, aborted = _verdict(CASES["flip-so3"], SYMBOLIC)
    failed = {i for i, passed, _ in outcomes if not passed}
    assert aborted is None
    assert {"bmw-k2rk2", "bmw-kk-rinv", "bmw-kk-rr", "bmw-k1rk1"} <= failed
    assert not failed & {"kappa-rank-one", "bmw-rk", "bmw-kkk", "skew-left", "skew-right"}


SKEW_CHECKS = ("skew-left", "skew-right", "c-contraction", "d-contraction")


@pytest.mark.parametrize("path", ["fast", "reference"])
@pytest.mark.parametrize("field", FIELDS, ids=list(FIELDS))
def test_skew_checks_pass_wherever_reached(monkeypatch, field, path):
    # skew_inverse returns only a Psi with M_R S_Psi = P, which gives both
    # defining equalities, and the two contractions follow from them; so
    # every input that gets past the skew system passes all four checks.
    if path == "reference":
        _force_reference_path(monkeypatch)
    reached = set()
    for case, build in CASES.items():
        verdict = _verdict(build, FIELDS[field])
        passed = {i: ok for i, ok, _ in verdict[0]} if len(verdict) == 3 else {}
        if "skew-left" in passed:
            reached.add(case)
            assert [passed[i] for i in SKEW_CHECKS] == [True] * 4, case
    assert set(CASES) - reached == {"identity", "singular"}


def test_rtt_lemma_needs_a_rank_one_k():
    r, nu = CASES["bump-so3"](SYMBOLIC)
    kappa, _ = core._kappa_raw(RMatrixSystem(r, nu))
    assert kappa.rank == 2
    ident = FieldMatrix.identity(3, SYMBOLIC)
    with pytest.raises(RankNotOne, match=r"rank\(K\) = 2"):
        rtt_lemma(kappa, XYPair(ident, ident, 1))


@pytest.mark.parametrize("path", ["fast", "reference"])
def test_a_verdict_leaves_its_system_as_built(monkeypatch, path):
    # What a verdict derives lives in its own records: nothing is assigned
    # to the system after it is built, a second verdict on it prints the
    # same report, and _kappa_raw forms every field of KappaData at once.
    # The pairing is None exactly when rank(K) != 1, or on the reference
    # path, which turns the comparison K == gbar g^T off.
    if path == "reference":
        _force_reference_path(monkeypatch)
    cases = ("so3", "twisted-sp2", "unipotent-gauge-sp2", "bump-so3", "identity", "flip-so3",
             "rank-two-rectangle-so3", "wrong-nu-so3")
    systems = {case: RMatrixSystem(*CASES[case](SYMBOLIC)) for case in cases}
    assigned = []

    def spy(obj, name, value):
        assigned.append(name)
        object.__setattr__(obj, name, value)

    monkeypatch.setattr(RMatrixSystem, "__setattr__", spy)
    for case, system in systems.items():
        first, second = (render_json(build_report(full_verification(system), {})) for _ in range(2))
        assert first == second, case
        kappa, _ = core._kappa_raw(system)
        if path == "fast":
            assert (kappa.pairing is None) == (kappa.rank != 1), case
        formed = (kappa.K, kappa.mu, kappa.rank, kappa.rk, kappa.kr, kappa.r_inv)
        assert all(v is not None for v in formed), case
    assert assigned == []


# Every check id of a twisted-family report maps to a pinned input that fails
# it, or, for the nine that cannot fail once reached, to the reason why; so a
# check that stops failing on its input is noticed.
FAILS_ON = {
    **dict.fromkeys(
        [
            "yang-baxter", "nu-detect", "kappa-idempotent", "kappa-inverse-form",
            "bmw-braid", "bmw-rk", "bmw-k2rk2", "bmw-kk-rinv", "bmw-kk-rr", "bmw-kkk",
            "bmw-k1rk1", "minimal-cubic", "psi-c-left", "psi-c-right", "psi-d-left",
            "psi-d-right", "cd-commute", "kappa-rank-one", "kappa-trace2", "kappa-trace1",
            "d-rinv-trace", "cd-scalar", "d-kappa-trace1", "d-kappa-trace", "trace-c-d",
        ],
        "bump-so3",
    ),
    "pairing-factorization": "wrong-nu-so3",
    "xy-inverse": "wrong-nu-so3",
    "rtt-conjugation": "swapped-xy-sp2",
    "twist-compat": "invalid-twist-so3",
    "twisted-x-match": "twisted-sp2-wrong-nu",
}
CANNOT_FAIL = {
    "bmw-cubic": "lam nu K = I + lam R - R^2 is the definition of K",
    "skew-left": "skew_inverse returns only a Psi with M_R S_Psi = P",
    "skew-right": "M_R S_Psi = P gives S_Psi P S_R = P, the right-hand equality",
    "c-contraction": "it is skew-right summed over a = e",
    "d-contraction": "it is skew-left summed over c = g",
    "charpoly-reciprocity": "XY = I makes Y = X^-1 = Gbar G similar to G Gbar = X^T",
    "charpoly-palindrome": "it is charpoly-reciprocity times C_N = eps, with eps^2 = 1",
    "twist-valid": "an invalid twist exits 2 before any check runs",
    "twist-closed-form": "the closed form differs from the generic twist only by a builder bug",
}


def _failed_ids(twist_path):
    """The ids each input of FAILS_ON fails."""
    failed = {}
    for case in ("bump-so3", "wrong-nu-so3"):
        r, nu = CASES[case](SYMBOLIC)
        failed[case] = full_verification(RMatrixSystem(r, nu)).outcomes
    # Y and X swapped on the twisted sp_2, as in test_core's negative controls.
    res = full_verification(build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT)))
    failed["swapped-xy-sp2"] = [rtt_lemma(res.kappa, XYPair(res.xy.Y, res.xy.X, 1))]
    # d_11 = q breaks the twist conditions for N = 3.
    d = ((q, one, one), (one, one, one), (one, one, one))
    failed["invalid-twist-so3"] = [check_twist_compat(standard_matrix("so", 3), build_F(d))]
    failed = {case: {o.id for o in outcomes if not o.passed} for case, outcomes in failed.items()}
    # sp_2's nu is -q^-3; with q^-3, XY = I still holds, so the run reaches
    # twisted-x-match.
    report, _ = run_job(JobConfig(source=("family", "sp", 2), twist=twist_path, nu="q^-3"))
    failed["twisted-sp2-wrong-nu"] = {c["id"] for c in report["checks"] if not c["pass"]}
    return failed


def test_every_check_id_fails_on_a_pinned_input_or_says_why_it_cannot(tmp_path):
    twist_path = tmp_path / "d.json"
    twist_path.write_text(json.dumps({"d": SP2_TWIST_TEXT}))
    report, code = run_job(JobConfig(source=("family", "sp", 2), twist=str(twist_path)))
    assert code == 0
    ids = [c["id"] for c in report["checks"]]
    assert len(set(ids)) == len(ids) == len(FAILS_ON) + len(CANNOT_FAIL) == 39
    assert set(ids) == FAILS_ON.keys() | CANNOT_FAIL.keys()
    failed = _failed_ids(str(twist_path))
    assert {i for i, case in FAILS_ON.items() if i not in failed[case]} == set()
    assert CANNOT_FAIL.keys() & set().union(*failed.values()) == set()
