"""Standard family constructors and the twist machinery."""

from fractions import Fraction

import pytest

from bmwcert import (
    FieldMatrix,
    PairingPair,
    RMatrixSystem,
    RationalField,
    SYMBOLIC,
    TensorOperator,
    build_F,
    build_multiparametric,
    build_standard,
    check_twist_compat,
    compose,
    detect_nu,
    factor_pairings,
    family_spec,
    full_verification,
    pairings_match_up_to_gauge,
    permutation_op,
    standard_matrix,
    twisted_expected,
    twisted_matrix,
    validate_twist,
)
from bmwcert.core import _kappa_raw
from bmwcert.errors import BadDimension, InvalidTwistParameters, Singular

from conftest import SO4_TWIST_TEXT, SP2_TWIST_TEXT, twist_from_text

F = SYMBOLIC
q = F.q
one = F.one


def unit_twist(n):
    """The twist with every d_ij = 1, which leaves a family as it is."""
    return ((one,) * n,) * n


def test_family_spec_rho_vectors():
    # rho stored as monomials q^rho_i, i.e. integer powers of s
    assert list(family_spec("so", 3)[0]) == [F.s, one, F.s**-1]
    assert list(family_spec("so", 4)[0]) == [q, one, one, q**-1]
    rho, signs = family_spec("sp", 4)
    assert list(rho) == [q**2, q, q**-1, q**-2]
    assert signs == (1, 1, -1, -1)
    assert family_spec("so", 5)[1] == (1,) * 5


def test_family_spec_rho_antisymmetry():
    for series, dim in (("so", 3), ("so", 4), ("so", 5), ("so", 6), ("sp", 2), ("sp", 4), ("sp", 6)):
        rho, _ = family_spec(series, dim)
        for i in range(dim):
            assert rho[i] * rho[dim - 1 - i] == one


def test_family_spec_bad_dimensions():
    with pytest.raises(BadDimension):
        family_spec("sp", 3)
    with pytest.raises(BadDimension):
        family_spec("so", 1)
    with pytest.raises(BadDimension):
        family_spec("su", 3)


def test_standard_matrix_matches_frozen_so3(so3_frozen):
    assert standard_matrix("so", 3) == so3_frozen
    assert standard_matrix("so", 3).mat.nnz() == 14


def test_standard_matrix_matches_frozen_sp2(sp2_frozen):
    assert standard_matrix("sp", 2) == sp2_frozen
    assert standard_matrix("sp", 2).mat.nnz() == 5


def test_build_standard_nu_values():
    assert build_standard("so", 3).nu == q**-2
    assert build_standard("sp", 2).nu == F.zero - q**-3


def test_build_standard_so5_certifies():
    assert full_verification(build_standard("so", 5)).status == "pass"


def test_build_standard_keeps_nothing_a_verdict_leaves():
    assert full_verification(build_standard("so", 4)).status == "pass"
    sys = build_standard("so", 4)
    assert sys._r_inv is None
    assert sys.R._embedded == {}


def test_detect_nu_on_so_families():
    for dim in (3, 4, 5, 6):
        assert detect_nu(build_standard("so", dim).R) == q ** (1 - dim)


def test_every_family_passes_everything():
    for series, dim in (("so", 3), ("so", 4), ("so", 5), ("so", 6), ("sp", 2), ("sp", 4), ("sp", 6)):
        res = full_verification(build_standard(series, dim))
        assert res.status == "pass", (series, dim, res.aborted)


def test_expected_pairings_contract_to_mu():
    for series, dim, mu in (
        ("so", 3, q + one + q**-1),
        ("sp", 2, F.zero - (q**2 + q**-2)),
    ):
        pair, x = twisted_expected(series, dim, unit_twist(dim))
        total = F.zero
        for key, gv in pair.g.items():
            total = total + gv * pair.gbar[key]
        assert total == mu
        assert x == FieldMatrix.identity(dim, F)


def test_expected_pairings_x_identity_all_families():
    for series, dim in (("so", 3), ("so", 4), ("so", 5), ("sp", 2), ("sp", 4)):
        _, x = twisted_expected(series, dim, unit_twist(dim))
        assert x == FieldMatrix.identity(dim, F)


def test_pipeline_pairings_match_closed_forms():
    for series, dim in (("so", 3), ("so", 4), ("so", 5), ("sp", 2), ("sp", 4)):
        sys = build_standard(series, dim)
        kappa, outcome = _kappa_raw(sys)
        assert outcome.passed
        found = factor_pairings(kappa)
        closed, _ = twisted_expected(series, dim, unit_twist(dim))
        assert pairings_match_up_to_gauge(found, closed), (series, dim)


def test_validate_twist_any_n2():
    import random

    rng = random.Random(9)
    for _ in range(25):
        d = tuple(
            tuple(q ** rng.randint(-2, 2) * F.from_int(rng.randint(1, 3)) for _ in range(2))
            for _ in range(2)
        )
        assert validate_twist(d) is None


def test_validate_twist_identity():
    assert validate_twist(((one, one), (one, one))) is None


def test_validate_twist_violation_n3():
    # for N = 3 the middle index forces d_1j d_3j = d_2j^2; break it at j = 1
    rows = [[one] * 3 for _ in range(3)]
    rows[0][0] = q
    with pytest.raises(InvalidTwistParameters):
        validate_twist(tuple(tuple(r) for r in rows))


def test_validate_twist_rejects_zero():
    with pytest.raises(InvalidTwistParameters):
        validate_twist(((one, F.zero), (one, one)))


def test_validate_twist_rejects_ragged_rows():
    with pytest.raises(InvalidTwistParameters, match=r"^row 2 has 1 entries, expected 2$"):
        validate_twist(((one, one), (one,)))


def test_twisted_matrix_with_a_zero_cell_is_singular():
    f_op = build_F(((one, F.zero), (one, one)))
    with pytest.raises(Singular, match=r"^rank 3 < dim 4$"):
        twisted_matrix(build_standard("sp", 2).R, f_op)


def test_build_multiparametric_rejects_a_twist_of_the_wrong_size():
    with pytest.raises(InvalidTwistParameters, match=r"^twist is 2 x 2, family needs 4$"):
        build_multiparametric("so", 4, unit_twist(2))


def test_pairings_without_the_closed_forms_first_key_do_not_match(sp2_twist):
    closed, _ = twisted_expected("sp", 2, sp2_twist)
    key = min(closed.g)
    found = PairingPair(2, {k: v for k, v in closed.g.items() if k != key}, closed.gbar)
    assert pairings_match_up_to_gauge(found, closed) is False


def test_build_F_identity_twist_is_permutation():
    ident_twist = ((one, one), (one, one))
    assert build_F(ident_twist) == permutation_op(2, 2, 1, 2, F)


def test_build_F_diagonal_action(sp2_twist):
    f_op = build_F(sp2_twist)
    p = permutation_op(2, 2, 1, 2, F)
    pf = compose(p, f_op)
    assert pf.entry((1, 2), (1, 2)) == q
    assert pf.entry((1, 1), (1, 1)) == one


def test_twist_compat_family_cases(sp2_twist, so4_twist):
    assert check_twist_compat(build_standard("sp", 2).R, build_F(sp2_twist)).passed
    assert check_twist_compat(build_standard("so", 4).R, build_F(so4_twist)).passed


def test_twist_compat_permutation_f_with_any_braided_r():
    # F = P satisfies the compatibility equalities with any R-matrix
    for series, dim in (("so", 3), ("sp", 2)):
        r = build_standard(series, dim).R
        p = permutation_op(dim, 2, 1, 2, F)
        assert check_twist_compat(r, p).passed


def test_twist_compat_invalid_d_fails():
    rows = [[one] * 3 for _ in range(3)]
    rows[0][0] = q  # violates the twist conditions for N = 3
    f_entries = []
    for i in range(1, 4):
        for j in range(1, 4):
            f_entries.append(((j, i), (i, j), rows[i - 1][j - 1]))
    f_op = TensorOperator.from_entries(3, 2, F, f_entries)
    assert not check_twist_compat(build_standard("so", 3).R, f_op).passed


def test_twist_r_identity_twist_is_noop():
    f_op = build_F(unit_twist(2))
    r = build_standard("sp", 2).R
    assert check_twist_compat(r, f_op).passed
    assert twisted_matrix(r, f_op) == r


def test_twist_r_preserves_nu_and_certifies(so4_twist):
    sys = build_standard("so", 4)
    f_op = build_F(so4_twist)
    assert check_twist_compat(sys.R, f_op).passed
    twisted = twisted_matrix(sys.R, f_op)
    assert detect_nu(twisted) == sys.nu
    assert full_verification(RMatrixSystem(twisted, sys.nu)).status == "pass"


def test_build_multiparametric_identity_equals_standard():
    ident_twist = ((one, one), (one, one))
    assert build_multiparametric("sp", 2, ident_twist).R == build_standard("sp", 2).R


def test_build_multiparametric_equals_generic(sp2_twist, so4_twist):
    # the closed form and the generic twist are two routes to one matrix
    for series, dim, spec in (("sp", 2, sp2_twist), ("so", 4, so4_twist)):
        r, f_op = build_standard(series, dim).R, build_F(spec)
        assert check_twist_compat(r, f_op).passed
        assert build_multiparametric(series, dim, spec).R == twisted_matrix(r, f_op)


def test_builders_do_not_certify(monkeypatch, so4_twist):
    # Certifying is the pipeline's job: building forms no operator product.
    import bmwcert.core
    import bmwcert.families

    calls = []

    def counting(a, b):
        calls.append((a, b))
        return compose(a, b)

    monkeypatch.setattr(bmwcert.core, "compose", counting)
    monkeypatch.setattr(bmwcert.families, "compose", counting)
    build_standard("so", 4)
    assert calls == []
    build_multiparametric("so", 4, so4_twist)
    assert calls == []


def test_twisted_expected_sp2(sp2_twist):
    pair, x = twisted_expected("sp", 2, sp2_twist)
    assert x == FieldMatrix.from_entries(2, F, [(0, 0, q**-1), (1, 1, q)])
    res = full_verification(build_multiparametric("sp", 2, sp2_twist))
    assert res.status == "pass"
    assert pairings_match_up_to_gauge(res.pairing, pair)
    assert res.xy.X == x


def test_twisted_expected_identity_twist():
    ident_twist = ((one, one), (one, one))
    _, x = twisted_expected("sp", 2, ident_twist)
    assert x == FieldMatrix.identity(2, F)


def test_twisted_x_determinant_one(sp2_twist, so4_twist):
    for series, dim, spec in (("sp", 2, sp2_twist), ("so", 4, so4_twist)):
        _, x = twisted_expected(series, dim, spec)
        det = F.one
        for i in range(dim):
            det = det * x.get(i, i)
        assert det == one


def test_twisted_so4_x_nonscalar(so4_twist):
    _, x = twisted_expected("so", 4, so4_twist)
    diag = [x.get(i, i) for i in range(4)]
    assert diag == [one, q**-2, q**2, one]


def test_twisted_sp4_certifies(so4_twist):
    # the same q-power parameters are admissible for the symplectic series
    sys = build_multiparametric("sp", 4, so4_twist)
    res = full_verification(sys)
    assert res.status == "pass", res.aborted
    assert [str(v) for v in res.derived["X_diag"]] == ["1", "q^-2", "q^2", "1"]


def test_so2_builds_and_certifies():
    sys = build_standard("so", 2)
    assert sys.nu == q**-1
    assert full_verification(sys).status == "pass"


# (series, N, twist rows or None): so_3..so_6 and sp_2..sp_6 untwisted, and
# the sp_2 and so_4 twists (the latter on so_4 and sp_4).
FIELD_GENERIC_CASES = (
    [(series, n, None) for series, n in (("so", 3), ("so", 4), ("so", 5), ("so", 6))]
    + [("sp", n, None) for n in (2, 4, 6)]
    + [("sp", 2, SP2_TWIST_TEXT), ("so", 4, SO4_TWIST_TEXT), ("sp", 4, SO4_TWIST_TEXT)]
)


@pytest.mark.parametrize("s0", [Fraction(3, 2), Fraction(-5, 3)], ids=["3/2", "-5/3"])
def test_builders_are_field_generic(s0):
    # Building over Q at s = s0 equals building over Q(s) and evaluating.
    field = RationalField(s0)
    for series, n, rows in FIELD_GENERIC_CASES:
        spec_sym = twist_from_text(rows) if rows else unit_twist(n)
        spec = tuple(tuple(field.lift(v) for v in row) for row in spec_sym)
        d_sym, d = (spec_sym, spec) if rows else (None, None)
        numeric = standard_matrix(series, n, field, d)
        assert numeric.field is field
        symbolic = standard_matrix(series, n, d=d_sym)
        lifted = [(o, i, field.lift(v)) for (o, i), v in symbolic.items()]
        assert numeric == TensorOperator.from_entries(n, 2, field, lifted), (
            series, n, rows is not None,
        )
        pair_sym, x_sym = twisted_expected(series, n, spec_sym)
        pair, x = twisted_expected(series, n, spec, field)
        lifted = [(r, c, field.lift(v)) for (r, c), v in x_sym.items()]
        assert x == FieldMatrix.from_entries(n, field, lifted)
        assert pair.g == {k: field.lift(v) for k, v in pair_sym.g.items()}
        assert pair.gbar == {k: field.lift(v) for k, v in pair_sym.gbar.items()}
