"""Embeddings, partial traces, and the exact linear-algebra kernels."""

import random
from fractions import Fraction
from itertools import product

import pytest

from bmwcert import (
    FieldMatrix,
    RationalField,
    SYMBOLIC,
    Scalar,
    TensorOperator,
    add,
    char_poly,
    compose,
    embed,
    inverse,
    is_zero,
    parse,
    partial_trace,
    permutation_op,
    rank,
    scale,
    solve_multi_rhs,
)
from bmwcert.tensors import _index, _labels, realign
from bmwcert.core import RMatrixSystem, _kappa_raw
from bmwcert.errors import BadPositions, ShapeMismatch, Singular

from conftest import operator_from_table, SO3_TABLE

F = SYMBOLIC
q = F.q


def test_multi_index_bijection():
    # Entry r of the label table is the tuple with r = sum (p_k - 1) N^(n-k),
    # the first factor most significant, and the index table inverts it.
    for N in range(1, 7):
        for n in range(1, 4):
            labels, index = _labels(N, n), _index(N, n)
            assert len(labels) == len(index) == N**n
            for parts in product(range(1, N + 1), repeat=n):
                r = sum((p - 1) * N ** (n - k) for k, p in enumerate(parts, 1))
                assert labels[r] == parts
                assert index[parts] == r


def test_items_yield_labels_in_row_major_order():
    # Row-major over linear indices is lexicographic over label tuples,
    # first factor most significant.
    rng = random.Random(5)
    for N, n in ((2, 1), (3, 2), (2, 3)):
        cells = {}
        for out in product(range(1, N + 1), repeat=n):
            for inp in product(range(1, N + 1), repeat=n):
                if rng.random() < 0.4:
                    cells[(out, inp)] = F.from_int(rng.randint(1, 9))
        op = TensorOperator.from_entries(N, n, F, [(o, i, v) for (o, i), v in cells.items()])
        got = list(op.items())
        assert [cell for cell, _ in got] == sorted(cells)
        assert dict(got) == cells
        index = _index(N, n)
        assert [(index[o], index[i]) for (o, i), _ in got] == [
            cell for cell, _ in op.mat.items()
        ]


def test_embed_permutation_on_outer_factors():
    P = permutation_op(2, 2, 1, 2, F)
    P13 = embed(P, (1, 3), 3)
    for a, b, c in product((1, 2), repeat=3):
        assert P13.entry((c, b, a), (a, b, c)) == F.one


def test_embed_identity():
    I22 = TensorOperator.identity(2, 2, F)
    assert embed(I22, (1, 2), 2) == I22


def test_embed_reversed_positions_transposes():
    # embedding with positions (2, 1) conjugates by the permutation
    R = operator_from_table(SO3_TABLE, 3)
    P = permutation_op(3, 2, 1, 2, F)
    assert embed(R, (2, 1), 2) == compose(compose(P, R), P)


def test_embed_returns_the_same_object_per_placement():
    R = operator_from_table(SO3_TABLE, 3)
    r12 = embed(R, (1, 2), 3)
    assert embed(R, [1, 2], 3) is r12
    others = [embed(R, (2, 3), 3), embed(R, (2, 1), 3), embed(R, (1, 2), 4)]
    assert all(op is not r12 and op != r12 for op in others)
    # an equal operator built separately carries its own embeddings
    twin = operator_from_table(SO3_TABLE, 3)
    assert embed(twin, (1, 2), 3) is not r12
    assert embed(twin, (1, 2), 3) == r12


def test_embed_bad_positions():
    P = permutation_op(2, 2, 1, 2, F)
    with pytest.raises(BadPositions):
        embed(P, (1, 1), 3)
    with pytest.raises(BadPositions):
        embed(P, (1, 4), 3)
    with pytest.raises(BadPositions):
        embed(P, (1,), 3)


def test_partial_trace_of_permutation():
    P = permutation_op(2, 2, 1, 2, F)
    assert partial_trace(P, 1) == TensorOperator.identity(2, 1, F)
    assert partial_trace(P, 2) == TensorOperator.identity(2, 1, F)


def test_partial_trace_of_identity():
    I22 = TensorOperator.identity(3, 2, F)
    assert partial_trace(I22, 2) == scale(F.from_int(3), TensorOperator.identity(3, 1, F))


def test_partial_trace_errors():
    with pytest.raises(BadPositions):
        partial_trace(TensorOperator.identity(2, 1, F), 1)
    with pytest.raises(BadPositions):
        partial_trace(TensorOperator.identity(2, 2, F), 3)


def test_full_trace_of_so3_contraction():
    # Tr_12 K = mu for the rank-one contraction of so_3
    R = operator_from_table(SO3_TABLE, 3)
    kappa, outcome = _kappa_raw(RMatrixSystem(R, q**-2))
    assert outcome.passed
    mu_expected = q + F.one + q**-1
    assert partial_trace(kappa.K, 1).mat.trace() == mu_expected
    assert kappa.mu == mu_expected


def test_permutation_involution_and_braid():
    for N in (2, 3):
        P = permutation_op(N, 2, 1, 2, F)
        assert compose(P, P) == TensorOperator.identity(N, 2, F)
        P1 = embed(P, (1, 2), 3)
        P2 = embed(P, (2, 3), 3)
        lhs = compose(compose(P1, P2), P1)
        rhs = compose(compose(P2, P1), P2)
        assert lhs == rhs


def test_permutation_swaps():
    P = permutation_op(2, 2, 1, 2, F)
    assert P.entry((2, 1), (1, 2)) == F.one
    assert P.entry((1, 2), (1, 2)).is_zero()


def test_compose_add_scale_is_zero():
    P = permutation_op(2, 2, 1, 2, F)
    z, wit = is_zero(add(P, scale(Scalar.from_int(-1), P)))
    assert z and wit is None
    z, wit = is_zero(P)
    assert not z
    assert wit == ((1, 1), (1, 1), F.one)
    with pytest.raises(ShapeMismatch):
        compose(P, permutation_op(3, 2, 1, 2, F))


def test_shape_and_position_guards():
    # The guards that no verdict reaches: each names the shapes it refuses.
    m2, m3 = FieldMatrix.identity(2, F), FieldMatrix.identity(3, F)
    with pytest.raises(ShapeMismatch, match=r"^dim 2 vs 3$"):
        m2 * m3
    with pytest.raises(ShapeMismatch, match=r"^dim 2 vs 3$"):
        m2 + m3
    with pytest.raises(ShapeMismatch, match=r"^dim 2 vs 3$"):
        solve_multi_rhs(m2, m3)
    with pytest.raises(ShapeMismatch, match=r"^matrix dim 3 != 2\^1$"):
        TensorOperator(2, 1, m3)
    with pytest.raises(ShapeMismatch, match=r"^realign needs arity 2, got 1$"):
        realign(TensorOperator.identity(2, 1, F))
    for k, l in ((2, 1), (1, 1), (0, 2), (1, 3)):
        with pytest.raises(BadPositions, match=rf"^need 1 <= k < l <= n, got k={k}, l={l}, n=2$"):
            permutation_op(2, 2, k, l, F)


def test_mixed_type_operands_are_refused():
    # FieldMatrix and TensorOperator return NotImplemented for a foreign
    # operand, so Python raises TypeError, and == falls back to identity.
    m = FieldMatrix.identity(2, F)
    op = TensorOperator.identity(2, 1, F)
    for other in (object(), 1, op):
        with pytest.raises(TypeError):
            m * other
        with pytest.raises(TypeError):
            m + other
        assert m != other and not m == other
    for other in (object(), m, F.one):
        assert op != other and not op == other


def test_is_zero_witness_on_contraction():
    R = operator_from_table(SO3_TABLE, 3)
    kappa, outcome = _kappa_raw(RMatrixSystem(R, q**-2))
    assert outcome.passed
    z, wit = is_zero(kappa.K)
    assert not z and wit is not None


def test_rank_basics():
    assert rank(FieldMatrix.identity(4, F)) == 4
    assert rank(FieldMatrix(4, F)) == 0
    R = operator_from_table(SO3_TABLE, 3)
    kappa, outcome = _kappa_raw(RMatrixSystem(R, q**-2))
    assert outcome.passed
    assert rank(kappa.K.mat) == 1


def test_rank_product_bound():
    rng = random.Random(77)
    nf = RationalField(Fraction(3, 2))
    for _ in range(40):
        dim = rng.randint(2, 5)
        a = FieldMatrix(dim, nf)
        b = FieldMatrix(dim, nf)
        for m in (a, b):
            for _ in range(rng.randint(1, dim * 2)):
                m._add_entry(
                    rng.randrange(dim), rng.randrange(dim), Fraction(rng.randint(-3, 3))
                )
        assert rank(a * b) <= min(rank(a), rank(b))


def test_inverse_of_permutation():
    P = permutation_op(3, 2, 1, 2, F).mat
    assert inverse(P) == P


def test_inverse_of_r_matrix():
    R = operator_from_table(SO3_TABLE, 3)
    Rinv = inverse(R.mat)
    assert R.mat * Rinv == FieldMatrix.identity(9, F)
    assert Rinv * R.mat == FieldMatrix.identity(9, F)


def test_inverse_singular():
    R = operator_from_table(SO3_TABLE, 3)
    kappa, outcome = _kappa_raw(RMatrixSystem(R, q**-2))
    assert outcome.passed
    with pytest.raises(Singular):
        inverse(kappa.K.mat)


def test_char_poly_diag_q():
    m = FieldMatrix.from_entries(2, F, [(0, 0, q), (1, 1, F.zero - q**-1)])
    c = char_poly(m)
    assert c[0] == F.one
    assert c[1] == F.lam
    assert c[2] == Scalar.from_int(-1)


def test_char_poly_identity3():
    c = char_poly(FieldMatrix.identity(3, F))
    assert c == [F.one, F.from_int(3), F.from_int(3), F.one]


def test_char_poly_symmetric_functions():
    m = FieldMatrix.from_entries(3, F, [(0, 0, q**-1), (1, 1, F.one), (2, 2, q)])
    c = char_poly(m)
    expected = q + F.one + q**-1
    assert c[1] == expected and c[2] == expected and c[3] == F.one


def test_char_poly_numeric_crosscheck():
    # symbolic coefficients evaluated at s = 3/2 agree with the
    # characteristic polynomial of the evaluated matrix
    rng = random.Random(123)
    nf = RationalField(Fraction(3, 2))
    for _ in range(20):
        dim = rng.randint(2, 4)
        entries = []
        for _ in range(rng.randint(2, dim * dim)):
            entries.append(
                (rng.randrange(dim), rng.randrange(dim), q ** rng.randint(-2, 2))
            )
        m = FieldMatrix.from_entries(dim, F, entries)
        sym = [c.evaluate(Fraction(3, 2)) for c in char_poly(m)]
        lifted = [(r, c, nf.lift(v)) for (r, c), v in m.items()]
        num = char_poly(FieldMatrix.from_entries(dim, nf, lifted))
        assert sym == num


def test_char_poly_of_a_triangular_matrix_is_read_off_its_diagonal():
    # A triangular matrix takes the diagonal path; swapping its first two
    # basis vectors puts m[0][1] below the diagonal and m[1][2] above it, so
    # the conjugate takes Faddeev-LeVerrier, with the same polynomial.
    rng = random.Random(20261021)
    texts = ("0", "1", "-2", "q", "q^-1 - 3", "s^3/2", "(q - 3)/(q + 1)", "5/7")
    for field in (F, RationalField(Fraction(3, 2))):
        for _ in range(20):
            dim = rng.randint(3, 5)
            lower = rng.random() < 0.5
            forced = {(1, 0), (2, 1)} if lower else {(0, 1), (1, 2)}
            entries = [(r, r, field.lift(parse(rng.choice(texts)))) for r in range(dim)]
            for r, c in product(range(dim), repeat=2):
                if r != c and (c < r) == lower and ((r, c) in forced or rng.random() < 0.5):
                    entries.append((r, c, field.lift(parse(rng.choice(texts[1:])))))
            m = FieldMatrix.from_entries(dim, field, entries)
            swap = {0: 1, 1: 0}
            conj = FieldMatrix.from_entries(
                dim, field, [(swap.get(r, r), swap.get(c, c), v) for (r, c), v in m.items()]
            )
            cells = [cell for cell, _ in conj.items()]
            assert any(c < r for r, c in cells) and any(c > r for r, c in cells)
            assert char_poly(m) == char_poly(conj)


def test_solve_identity_and_self():
    b = FieldMatrix.from_entries(3, F, [(0, 1, q), (2, 0, F.one)])
    assert solve_multi_rhs(FieldMatrix.identity(3, F), b) == b
    a = FieldMatrix.from_entries(
        3, F, [(0, 0, q), (0, 1, F.one), (1, 1, F.lam), (2, 2, q**-2)]
    )
    assert solve_multi_rhs(a, a) == FieldMatrix.identity(3, F)


def test_solve_singular():
    a = FieldMatrix.from_entries(3, F, [(0, 0, q), (1, 0, q)])
    with pytest.raises(Singular):
        solve_multi_rhs(a, FieldMatrix.identity(3, F))


def test_solve_random_exact():
    # random invertible systems with genuinely polynomial entries: the
    # solution must reproduce the right-hand side exactly
    rng = random.Random(20240810)
    for _ in range(20):
        dim = rng.randint(2, 5)
        a = FieldMatrix.identity(dim, F)
        for i in range(dim):
            a.rows[i][i] = q ** rng.randint(-2, 2)
            for j in range(i + 1, dim):
                if rng.random() < 0.6:
                    a._add_entry(i, j, q ** rng.randint(-1, 2) + Scalar.from_int(rng.randint(-2, 2)))
        lower = FieldMatrix.identity(dim, F)
        for i in range(dim):
            for j in range(i):
                if rng.random() < 0.4:
                    lower._add_entry(i, j, q ** rng.randint(-1, 1) - Scalar.from_int(rng.randint(0, 2)))
        a = lower * a  # invertible by construction
        b = FieldMatrix(dim, F)
        for _ in range(dim * 2):
            b._add_entry(rng.randrange(dim), rng.randrange(dim), q ** rng.randint(-2, 2))
        x = solve_multi_rhs(a, b)
        assert a * x == b


def test_rank_of_conjugated_diagonal():
    # rank(A D_r B) = r for invertible triangular A, B and diagonal D_r
    rng = random.Random(31)
    for _ in range(15):
        dim = rng.randint(2, 5)
        r = rng.randint(0, dim)
        a = FieldMatrix.identity(dim, F)
        b = FieldMatrix.identity(dim, F)
        for i in range(dim):
            for j in range(i + 1, dim):
                if rng.random() < 0.5:
                    a._add_entry(i, j, q ** rng.randint(-1, 1))
                if rng.random() < 0.5:
                    b._add_entry(j, i, q ** rng.randint(-1, 1))
        d = FieldMatrix(dim, F)
        for i in range(r):
            d._add_entry(i, i, q ** rng.randint(-2, 2))
        assert rank(a * d * b) == r


def test_solve_numeric_shadow():
    from fractions import Fraction as Fr

    nf = RationalField(Fr(3, 2))
    a = FieldMatrix.from_entries(
        3,
        F,
        [(0, 0, q + F.one), (0, 2, q**-1), (1, 1, F.lam), (2, 0, F.one), (2, 2, q)],
    )
    b = FieldMatrix.identity(3, F)
    x = solve_multi_rhs(a, b)
    x_eval, a_eval = (
        FieldMatrix.from_entries(3, nf, [(r, c, nf.lift(v)) for (r, c), v in m.items()])
        for m in (x, a)
    )
    assert solve_multi_rhs(a_eval, FieldMatrix.identity(3, nf)) == x_eval


def test_trace_permutation_sandwich():
    # Tr_2(U_2 P_12 W_2) = W U as operators on the first factor
    rng = random.Random(5)
    for N in (2, 3):
        P = permutation_op(N, 2, 1, 2, F)
        for _ in range(25):
            u = FieldMatrix(N, F)
            w = FieldMatrix(N, F)
            for m in (u, w):
                for _ in range(rng.randint(1, N * N)):
                    m._add_entry(
                        rng.randrange(N), rng.randrange(N), q ** rng.randint(-2, 2)
                    )
            u2 = embed(TensorOperator(N, 1, u), (2,), 2)
            w2 = embed(TensorOperator(N, 1, w), (2,), 2)
            lhs = partial_trace(compose(compose(u2, P), w2), 2).mat
            assert lhs == w * u


# Entries for the sympy cross-check: Laurent monomials, polynomials in q and
# s = q^(1/2), and quotients with nontrivial denominators; none has a pole
# at s = 3/2.
_ORACLE_ENTRIES = ("1", "-2", "q", "q^-1", "s", "q - 1", "1/(q + 1)", "3/2*s - 1", "(q^2 + 1)/(q - 2)")


def _random_matrix(rng, dim, field, deps=0, zero_corner=False):
    """A random dim x dim matrix over field.  Its last deps rows are
    combinations of the first two, so its rank is at most dim - deps; with
    zero_corner its (0, 0) entry is zero, so the first pivot is not row 0's."""
    m = FieldMatrix(dim, field)
    for r in range(dim):
        for c in range(dim):
            if rng.random() < 0.6 and not (zero_corner and r == c == 0):
                m._add_entry(r, c, field.lift(parse(rng.choice(_ORACLE_ENTRIES))))
    for r in range(dim - deps, dim):
        a, b = (field.lift(parse(rng.choice(_ORACLE_ENTRIES))) for _ in range(2))
        m.rows.pop(r, None)
        for c in range(dim):
            m._add_entry(r, c, a * m.get(0, c) + b * m.get(1, c))
    return m


def test_kernels_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    QQ = sympy.QQ
    qs = QQ.frac_field(sympy.Symbol("s"))
    fields = [(SYMBOLIC, qs), (RationalField(Fraction(3, 2)), QQ)]

    def to_dom(x, dom):
        if dom is QQ:
            return QQ(x.numerator, x.denominator)
        # x = num / den with Laurent num and den: shift both by s^-low.
        low = min(min(p.terms) for p in (x.num, x.den)) if x else 0

        def poly(p):
            return qs.field.ring.from_dict({(e - low,): QQ(c) for e, c in p.terms.items()})

        return qs.field.new(poly(x.num), poly(x.den))

    def to_domain(m, dom):
        rows = [[to_dom(m.get(r, c), dom) for c in range(m.dim)] for r in range(m.dim)]
        return DomainMatrix(rows, (m.dim, m.dim), dom)

    rng = random.Random(20261018)
    for field, dom in fields:
        deficiencies = set()
        # Every (deps, zero_corner) pair comes up twice.
        for i in range(12):
            deps = i % 3
            dim = rng.randint(2 + deps, 6)
            a = _random_matrix(rng, dim, field, deps, zero_corner=i % 2 == 1)
            b = _random_matrix(rng, dim, field)
            sa, sb = to_domain(a, dom), to_domain(b, dom)
            assert to_domain(a * b, dom) == sa * sb
            sa_rank = sa.rank()
            assert rank(a) == sa_rank
            deficiencies.add(dim - sa_rank)
            assert [to_dom(c, dom) for c in char_poly(a)] == [
                (-1) ** k * c for k, c in enumerate(sa.charpoly())
            ]
            if sa_rank < dim:
                with pytest.raises(Singular):
                    inverse(a)
                continue
            sa_inv = sa.inv()
            assert to_domain(inverse(a), dom) == sa_inv
            assert to_domain(solve_multi_rhs(a, b), dom) == sa_inv * sb
        assert deficiencies >= {0, 1, 2}
