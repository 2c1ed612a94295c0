"""The verification suite itself: spectral data, relations, skew inverse,
rank-one structure, pairings, X/Y and the conjugation lemma."""

from fractions import Fraction

import pytest

from bmwcert import (
    FieldMatrix,
    KappaData,
    RMatrixSystem,
    RationalField,
    SYMBOLIC,
    TensorOperator,
    build_standard,
    build_multiparametric,
    check_bmw_relations,
    check_prop1,
    check_yang_baxter,
    detect_nu,
    factor_pairings,
    full_verification,
    inverse,
    permutation_op,
    rtt_lemma,
    skew_inverse,
    standard_matrix,
    theorem_suite,
)
from bmwcert.core import Outcome, XYPair, check_pairing_factorization, _kappa_raw, _xy_outcomes
from bmwcert.families import family_nu
from bmwcert.tensors import compose, embed, is_zero, sub
from bmwcert.errors import (
    NotBMWSpectralType,
    NotSkewInvertible,
    RankNotOne,
    ShapeMismatch,
)

from conftest import (
    SO3_TABLE,
    SP2_TABLE,
    SP2_TWIST_TEXT,
    change_of_basis,
    operator_from_table,
    twist_from_text,
)

F = SYMBOLIC
q = F.q
one = F.one


def so3_system():
    return RMatrixSystem(operator_from_table(SO3_TABLE, 3), q**-2)


def sp2_system():
    return RMatrixSystem(operator_from_table(SP2_TABLE, 2), F.zero - q**-3)


def test_detect_nu_so3():
    assert detect_nu(operator_from_table(SO3_TABLE, 3)) == q**-2


def test_detect_nu_sp2():
    # the 2x2 block on span{v1 (x) v2, v2 (x) v1} has characteristic
    # polynomial x^2 - lam (1 + q^-2) x - q^-2 with roots q and -q^-3
    R = operator_from_table(SP2_TABLE, 2)
    nu = detect_nu(R)
    assert nu == F.zero - q**-3
    assert q * nu == F.zero - q**-2
    assert q + nu == F.lam * (one + q**-2)


def test_detect_nu_permutation_then_kappa_rejects():
    P = permutation_op(2, 2, 1, 2, F)
    nu = detect_nu(P)
    assert nu == one
    _, outcome = _kappa_raw(RMatrixSystem(P, nu))
    assert outcome.id == "kappa-idempotent" and not outcome.passed


def test_detect_nu_quadratic_spectrum():
    # eigenvalues only q and -q^-1 make (q - R)(q^-1 + R) vanish
    m = FieldMatrix.from_entries(
        4, F, [(0, 0, q), (1, 1, q), (2, 2, q), (3, 3, F.zero - q**-1)]
    )
    with pytest.raises(NotBMWSpectralType):
        detect_nu(TensorOperator(2, 2, m))


def test_detect_nu_not_an_eigenvector():
    m = FieldMatrix.from_entries(
        4, F, [(0, 0, one), (1, 0, one), (1, 1, F.from_int(2)), (2, 2, q), (3, 3, q)]
    )
    with pytest.raises(NotBMWSpectralType):
        detect_nu(TensorOperator(2, 2, m))


def test_r_matrix_system_needs_arity_2():
    with pytest.raises(ShapeMismatch, match=r"^an R-matrix has arity 2, got 3$"):
        RMatrixSystem(TensorOperator.identity(2, 3, F), q**5)


def test_kappa_so3_mu():
    kappa, outcome = _kappa_raw(so3_system())
    assert outcome.passed
    assert kappa.mu == q + one + q**-1


def test_kappa_sp2_mu():
    kappa, outcome = _kappa_raw(sp2_system())
    assert outcome.passed
    assert kappa.mu == F.zero - (q**2 + q**-2)


def test_yang_baxter_so3_and_permutation():
    assert check_yang_baxter(so3_system()).passed
    P = permutation_op(2, 2, 1, 2, F)
    assert check_yang_baxter(RMatrixSystem(P, q**5)).passed


def test_yang_baxter_failure_with_witness():
    m = FieldMatrix.from_entries(
        4,
        F,
        [(0, 0, one), (1, 1, F.from_int(2)), (2, 2, F.from_int(3)), (3, 3, F.from_int(4))],
    )
    # diag(1, 2, 3, 4) braids iff the middle entries agree; it must fail
    out = check_yang_baxter(RMatrixSystem(TensorOperator(2, 2, m), q**5))
    assert not out.passed
    assert out.witness is not None


def test_bmw_relations_families():
    for series, dim in (("so", 3), ("so", 4), ("so", 5)):
        sys = build_standard(series, dim)
        kappa, outcome = _kappa_raw(sys)
        assert outcome.passed
        for out in check_bmw_relations(sys, kappa, check_yang_baxter(sys)):
            assert out.passed, (series, dim, out.id)


def test_bmw_relations_wrong_sign_nu():
    sys = RMatrixSystem(operator_from_table(SP2_TABLE, 2), q**-3)
    kappa, _ = _kappa_raw(sys)
    outs = {o.id: o for o in check_bmw_relations(sys, kappa, check_yang_baxter(sys))}
    assert not outs["bmw-rk"].passed
    assert outs["bmw-rk"].witness is not None


def test_bmw_braid_reuses_yang_baxter_outcome():
    # diag(1, 2, 3, 4) fails the braid relation with a witness
    m = FieldMatrix.from_entries(
        4,
        F,
        [(0, 0, one), (1, 1, F.from_int(2)), (2, 2, F.from_int(3)), (3, 3, F.from_int(4))],
    )
    braids = []
    for sys in (RMatrixSystem(TensorOperator(2, 2, m), q**5), so3_system()):
        kappa, _ = _kappa_raw(sys)
        alone = check_bmw_relations(sys, kappa, check_yang_baxter(sys))
        braid = next(o for o in full_verification(sys).outcomes if o.id == "bmw-braid")
        assert braid == alone[0]
        braids.append(braid)
    assert not braids[0].passed and braids[0].witness is not None
    assert braids[1].passed


def test_skew_inverse_of_permutation():
    P = permutation_op(2, 2, 1, 2, F)
    skew = skew_inverse(RMatrixSystem(P, q**5))
    assert skew.Psi == P
    assert skew.C.mat == FieldMatrix.identity(2, F)
    assert skew.D.mat == FieldMatrix.identity(2, F)


def test_skew_inverse_identity_fails():
    ident = TensorOperator.identity(2, 2, F)
    with pytest.raises(NotSkewInvertible):
        skew_inverse(RMatrixSystem(ident, q**5))


def test_skew_inverse_so3_traces():
    skew = skew_inverse(so3_system())
    expected = q**-1 + q**-2 + q**-3  # nu mu at nu = q^-2
    assert skew.C.mat.trace() == expected
    assert skew.D.mat.trace() == expected


def test_prop1_families_and_permutation():
    for sys in (so3_system(), build_standard("sp", 4)):
        skew = skew_inverse(sys)
        for out in check_prop1(sys, skew):
            assert out.passed, out.id
    # Prop 1 needs only skew invertibility: the permutation qualifies
    P = permutation_op(2, 2, 1, 2, F)
    psys = RMatrixSystem(P, q**5)
    for out in check_prop1(psys, skew_inverse(psys)):
        assert out.passed, out.id


def test_theorem_suite_families():
    for series, dim in (("so", 3), ("so", 4), ("so", 5)):
        sys = build_standard(series, dim)
        kappa, outcome = _kappa_raw(sys)
        assert outcome.passed
        outs = theorem_suite(sys, skew_inverse(sys), kappa)
        assert kappa.rank == 1
        for out in outs:
            assert out.passed, (series, dim, out.id)


def test_theorem_suite_sp2_values():
    sys = sp2_system()
    skew = skew_inverse(sys)
    nu = sys.nu
    ident = FieldMatrix.identity(2, F)
    assert skew.C.mat * skew.D.mat == ident.scaled_by(q**-6)
    assert skew.D.mat * skew.C.mat == ident.scaled_by(nu * nu)
    assert skew.D.mat.trace() == q**-1 + q**-5


def test_factor_pairings_so3_gauge():
    kappa, outcome = _kappa_raw(so3_system())
    assert outcome.passed
    pair = factor_pairings(kappa)
    # gbar proportional to the antidiagonal (q^-1/2, 1, q^1/2)
    expected = {(1, 3): F.s**-1, (2, 2): one, (3, 1): F.s}
    assert set(pair.gbar) == set(expected)
    c = pair.gbar[(1, 3)] / expected[(1, 3)]
    assert c
    for key, v in expected.items():
        assert pair.gbar[key] == c * v
    assert check_pairing_factorization(kappa, pair).passed


def test_factor_pairings_sp2_signs():
    kappa, outcome = _kappa_raw(sp2_system())
    assert outcome.passed
    pair = factor_pairings(kappa)
    # gbar proportional to antidiag(q^-1, -q): opposite signs across the pair
    assert set(pair.gbar) == {(1, 2), (2, 1)}
    ratio = pair.gbar[(2, 1)] / pair.gbar[(1, 2)]
    assert ratio == F.zero - q**2


def test_factor_pairings_rank_two_rejected():
    m = FieldMatrix.from_entries(4, F, [(0, 0, one), (1, 1, one)])
    kappa = KappaData(TensorOperator(2, 2, m), one)
    with pytest.raises(RankNotOne):
        factor_pairings(kappa)


def test_xy_so3_identity():
    res = full_verification(so3_system())
    assert res.status == "pass"
    xy = res.xy
    assert xy.X == FieldMatrix.identity(3, F)
    assert xy.epsilon == 1
    assert xy.char_coeffs == [one, F.from_int(3), F.from_int(3), one]


def test_xy_twisted_sp2_diagonal():
    res = full_verification(build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT)))
    assert res.status == "pass"
    xy = res.xy
    assert xy.X == FieldMatrix.from_entries(2, F, [(0, 0, q**-1), (1, 1, q)])
    assert xy.epsilon == 1


def test_xy_gauge_invariance_spot():
    res = full_verification(so3_system())
    assert res.status == "pass"
    pair, xy = res.pairing, res.xy
    c = F.s**3
    from bmwcert import PairingPair

    rescaled = PairingPair(
        N=pair.N,
        g={k: c * v for k, v in pair.g.items()},
        gbar={k: v / c for k, v in pair.gbar.items()},
        pivot=pair.pivot,
    )
    xy2, outcomes = _xy_outcomes(rescaled, F)
    assert all(o.passed for o in outcomes)
    assert xy2.X == xy.X and xy2.Y == xy.Y and xy2.epsilon == xy.epsilon


def test_rtt_lemma_so3_and_twisted():
    res = full_verification(so3_system())
    assert res.status == "pass"
    assert rtt_lemma(res.kappa, res.xy).passed
    res_t = full_verification(build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT)))
    assert res_t.status == "pass"
    assert res_t.xy.X != FieldMatrix.identity(2, F)  # genuinely non-scalar case
    assert rtt_lemma(res_t.kappa, res_t.xy).passed


def rtt_oracle(kappa, xy):
    """The conjugation lemma as embedded operator products, matrix unit by
    matrix unit: the first nonzero residual entry, or None."""
    f = kappa.K.field
    n = kappa.K.N
    kk = compose(embed(kappa.K, (2, 3), 3), embed(kappa.K, (1, 2), 3))
    for a in range(n):
        for b in range(n):
            t = FieldMatrix.from_entries(n, f, [(a, b, f.one)])
            t1 = embed(TensorOperator(n, 1, t), (1,), 3)
            m3 = embed(TensorOperator(n, 1, xy.X * t * xy.Y), (3,), 3)
            zero, wit = is_zero(sub(compose(t1, kk), compose(kk, m3)))
            if not zero:
                return wit
    return None


def unipotent(n, c, f=F):
    """I + c e_12."""
    return FieldMatrix.from_entries(n, f, [(i, i, f.one) for i in range(n)] + [(0, 1, c)])


def diagonal(entries, f):
    return FieldMatrix.from_entries(len(entries), f, [(i, i, v) for i, v in enumerate(entries)])


def test_rtt_lemma_negative_controls_match_the_oracle():
    res = full_verification(build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT)))
    assert res.status == "pass"
    twisted, xy = res.kappa, res.xy
    swapped = XYPair(xy.Y, xy.X, xy.epsilon)
    sp4, outcome = _kappa_raw(build_standard("sp", 4))
    assert outcome.passed
    gauged = XYPair(unipotent(4, q), unipotent(4, F.zero - q), 1)
    cases = [
        (twisted, swapped, ((1, 1, 2), (1, 2, 2), q - q**-3)),
        (sp4, gauged, ((1, 1, 4), (1, 4, 2), F.zero - q**-3)),
    ]
    for kappa, pair, witness in cases:
        outcome = rtt_lemma(kappa, pair)
        assert not outcome.passed
        assert outcome.witness == rtt_oracle(kappa, pair) == witness


def test_rtt_lemma_without_a_witness_is_an_internal_error(monkeypatch):
    # M X is not scalar for X = diag(1, q, 1), so the rule fails; with every
    # matrix-unit residual forced to pass, no witness shows it.  That breaks
    # an invariant of the code, not of the input, so main exits 3, not 2.
    import bmwcert.core

    res = full_verification(so3_system())
    assert res.status == "pass"
    xy = XYPair(diagonal([one, q, one], F), res.xy.Y, res.xy.epsilon)
    monkeypatch.setattr(bmwcert.core, "_outcome", lambda check_id, eq, pairs: Outcome(check_id, eq, True))
    with pytest.raises(RuntimeError, match="no matrix unit shows it"):
        rtt_lemma(res.kappa, xy)


def test_x_moves_with_a_change_of_basis():
    # (A (x) A) R (A (x) A)^-1 keeps the conjugation rule when X moves as
    # A X A^-1.  G Gbar moves as A^-T (G Gbar) A^T, so X is its transpose;
    # on the twisted sp_2 after A = I + e_12, X is not diagonal, and the
    # rule holds with X and fails with X^T.
    twisted = build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT))
    a, a_inv = unipotent(2, one), unipotent(2, F.zero - one)
    res = full_verification(RMatrixSystem(change_of_basis(twisted.R, a), twisted.nu))
    res0 = full_verification(twisted)
    assert res.status == res0.status == "pass"
    kappa, xy, x0 = res.kappa, res.xy, res0.xy.X
    assert xy.X == a * x0 * a_inv
    assert xy.X.get(0, 1) != F.zero
    x_t = FieldMatrix.from_entries(2, F, [(c, r, v) for (r, c), v in xy.X.items()])
    for pair, passed in ((xy, True), (XYPair(x_t, inverse(x_t), 1), False)):
        outcome = rtt_lemma(kappa, pair)
        assert outcome.passed is passed
        assert outcome.witness == rtt_oracle(kappa, pair)


@pytest.mark.parametrize("field", [F, RationalField(Fraction(3, 2))], ids=["Q(s)", "s=3/2"])
def test_rtt_lemma_matches_the_oracle_on_gauged_inverse_pairs(field):
    # (X G, G^-1 Y) and (G X, Y G^-1) are inverse pairs, so the N x N test
    # that M X is scalar must give the oracle's verdict, and its witness
    # when it fails.
    # A scalar G keeps the pass verdict among the cases.
    twist = twist_from_text(SP2_TWIST_TEXT)
    systems = [("so", 3, None), ("so", 4, None), ("sp", 2, None), ("sp", 4, None), ("sp", 2, twist)]
    q_f = field.q
    verdicts = []
    for series, n, d in systems:
        d_f = d and [[field.lift(v) for v in row] for row in d]
        r = standard_matrix(series, n, field, d_f)
        res = full_verification(RMatrixSystem(r, family_nu(series, n, field)))
        assert res.status == "pass"
        kappa, xy = res.kappa, res.xy
        powers = [q_f**i for i in range(n)]
        gauges = [
            (unipotent(n, q_f, field), unipotent(n, field.zero - q_f, field)),
            (diagonal(powers, field), diagonal([field.one / p for p in powers], field)),
            (diagonal([q_f] * n, field), diagonal([field.one / q_f] * n, field)),
        ]
        for g, g_inv in gauges:
            for pair in (XYPair(xy.X * g, g_inv * xy.Y, 1), XYPair(g * xy.X, xy.Y * g_inv, 1)):
                outcome = rtt_lemma(kappa, pair)
                assert outcome.witness == rtt_oracle(kappa, pair)
                assert outcome.passed == (outcome.witness is None)
                verdicts.append(outcome.passed)
    assert verdicts.count(True) == 10 and verdicts.count(False) == 20


def test_full_verification_so4():
    res = full_verification(build_standard("so", 4))
    assert res.status == "pass"
    assert len(res.outcomes) >= 25
    assert res.derived["rank_K"] == 1


def test_full_verification_identity_aborts():
    res = full_verification(TensorOperator.identity(2, 2, F))
    assert res.status == "aborted"
    assert "NotSkewInvertible" in res.aborted
    assert any(o.id == "yang-baxter" and o.passed for o in res.outcomes)


def test_full_verification_permutation_reports_kappa_failure():
    res = full_verification(permutation_op(2, 2, 1, 2, F))
    outs = {o.id: o for o in res.outcomes}
    assert not outs["kappa-idempotent"].passed
    assert res.status == "aborted"
    assert "RankNotOne" in res.aborted


def test_full_verification_twisted_so4(so4_twist):
    res = full_verification(build_multiparametric("so", 4, so4_twist))
    assert res.status == "pass"
    diag = res.derived["X_diag"]
    assert diag is not None
    assert diag != [one] * 4  # non-scalar X is reported


def test_trace_symmetry_of_xy_powers():
    # X and Y obey the same characteristic polynomial: Tr X^k = Tr Y^k
    for sys in (
        so3_system(),
        build_standard("sp", 4),
        build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT)),
    ):
        res = full_verification(sys)
        assert res.status == "pass"
        xy = res.xy
        xk, yk = xy.X, xy.Y
        for _ in range(sys.N):
            assert xk.trace() == yk.trace()
            xk = xk * xy.X
            yk = yk * xy.Y


def test_kappa_inverse_form():
    from bmwcert.core import check_kappa_inverse_form

    for sys in (so3_system(), sp2_system()):
        kappa, outcome = _kappa_raw(sys)
        assert outcome.passed
        assert check_kappa_inverse_form(sys, kappa).passed


def test_theorem_d_kappa_trace1_value():
    # Tr_1(D_2 K_12) = nu rank(K) I with rank 1 for so_3
    sys = so3_system()
    kappa, outcome = _kappa_raw(sys)
    assert outcome.passed
    outs = theorem_suite(sys, skew_inverse(sys), kappa)
    assert kappa.rank == 1
    by_id = {o.id: o for o in outs}
    assert by_id["d-kappa-trace1"].passed


def test_nu_uniqueness_second_solution_matches():
    # the skew inverse is the unique solution of its linear system: solving
    # twice (cache-free paths) must agree entry for entry
    sys = so3_system()
    a = skew_inverse(sys)
    b = skew_inverse(RMatrixSystem(operator_from_table(SO3_TABLE, 3), q**-2))
    assert a.Psi == b.Psi


def test_skew_c_and_d_are_embedded_once_per_verdict(monkeypatch):
    # check_skew, check_prop1 and theorem_suite embed C_1, C_2, D_1 and D_2;
    # the embeddings live on SkewData.C and .D, so each is built once.
    import bmwcert.core as core

    real_embed = core.embed
    real_skew_inverse = core.skew_inverse
    built = []
    skews = []

    def counting_embed(op, positions, n):
        if op.arity == 1 and (tuple(positions), n) not in op._embedded:
            built.append((op, tuple(positions)))
        return real_embed(op, positions, n)

    def capturing_skew_inverse(*args):
        skews.append(real_skew_inverse(*args))
        return skews[-1]

    monkeypatch.setattr(core, "embed", counting_embed)
    monkeypatch.setattr(core, "skew_inverse", capturing_skew_inverse)
    assert full_verification(build_standard("sp", 4)).status == "pass"
    (skew,) = skews
    assert sorted(p for op, p in built if op is skew.C or op is skew.D) == [(1,), (1,), (2,), (2,)]


def test_pairing_factorization_entrywise_witness():
    # An extra g key outside gbar leaves sum g gbar = mu, so the check
    # reaches the entrywise comparison, which the pipeline never does
    # (rank != 1 aborts first).  Witness frozen from the sorted-union loop.
    from dataclasses import replace

    kappa, outcome = _kappa_raw(so3_system())
    assert outcome.passed
    pair = factor_pairings(kappa)
    outcome = check_pairing_factorization(kappa, replace(pair, g={**pair.g, (1, 1): one}))
    assert not outcome.passed
    assert outcome.witness == ((1, 3), (1, 1), F.zero - one)


def test_nu_detect_fails_without_witness_for_scalar_r():
    # (q - R)(q^-1 + R) vanishes for R = q I, so no nu can be detected.
    r = TensorOperator(3, 2, FieldMatrix.identity(9, F).scaled_by(q))
    res = full_verification(RMatrixSystem(r, q**-2))
    nu_detect = next(o for o in res.outcomes if o.id == "nu-detect")
    assert not nu_detect.passed and nu_detect.witness is None


@pytest.mark.parametrize("series, ns", [("so", (3, 4, 5, 6)), ("sp", (2, 4, 6))])
def test_numeric_derived_values_are_the_symbolic_ones_at_s0(series, ns):
    # nu, mu, tr C, tr D and the diagonal of X are formed from flat operators
    # whose denominators are not kept in lowest terms; at s0 they must be the
    # Q(s) values evaluated there, and the per-check vector the Q(s) one.
    for n in ns:
        sym = full_verification(RMatrixSystem(standard_matrix(series, n), family_nu(series, n)))
        want = sym.derived
        assert want["X_diag"] is not None
        for s0 in (Fraction(3, 2), Fraction(-5, 3), Fraction(101, 97)):
            field = RationalField(s0)
            num = full_verification(
                RMatrixSystem(standard_matrix(series, n, field), family_nu(series, n, field))
            )
            assert [(o.id, o.passed) for o in num.outcomes] == [
                (o.id, o.passed) for o in sym.outcomes
            ]
            got = num.derived
            for key in ("nu", "mu", "trace_C", "trace_D"):
                assert got[key] == want[key].evaluate(s0), (series, n, s0, key)
            assert got["X_diag"] == [x.evaluate(s0) for x in want["X_diag"]]
