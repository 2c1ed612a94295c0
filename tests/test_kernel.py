"""The flat integer kernel of TensorOperator against the FieldMatrix reference.

Every operation on operators is checked on random sparse operators, in Q(s)
and at s = 3/2 and s = 101/97, against the same operation done entry by
entry on the materialised matrices: FieldMatrix products, sums and
scalings, and, for the index-moving operations, the entry-wise references
below, which share no code with the key kernels.  The draws cover negative exponents, Fraction
coefficients, cancellation, exponents of any size, and entries with a
non-monomial denominator, which have no flat form, mixed with operands
that have one.  Flat forms are not kept in lowest terms, so == is also
checked across operators whose denominators differ.
"""

import random
from fractions import Fraction
from itertools import permutations, product

from bmwcert import (
    FieldMatrix,
    RationalField,
    SYMBOLIC,
    Scalar,
    TensorOperator,
    add,
    compose,
    embed,
    is_zero,
    partial_trace,
    scale,
)
from bmwcert.tensors import realign, restrict_rows, row_supports, sub

F = SYMBOLIC
NUMERIC = RationalField(Fraction(3, 2))
# A point of large height: numerators and denominators grow fastest there.
HIGH = RationalField(Fraction(101, 97))
POINTS = {"numeric": NUMERIC, "high": HIGH}
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4))
# Far from 0: a key's exponent part has no bound.
FAR = 1 << 20
KINDS = ("laurent", "far", "rational", "numeric", "high")


def _laurent(rng, lo=-4, hi=4):
    v = F.zero
    for _ in range(rng.randint(1, 3)):
        v = v + Scalar.from_fraction(rng.choice(COEFFS)) * Scalar.s_power(rng.randint(lo, hi))
    return v


def _element(rng, kind):
    """A nonzero element of the field that `kind` draws from."""
    while True:
        v = _laurent(rng)
        if kind in POINTS:
            v = POINTS[kind].lift(v)
        if v:
            return v


def _operator(rng, N, n, kind, density=0.3):
    """A random operator of `kind`: Laurent entries; one entry with an
    exponent of size 2^20 ("far"); one entry with the denominator
    q + 1 ("rational"); or constants at s = 3/2 ("numeric") or at
    s = 101/97 ("high")."""
    field = POINTS.get(kind, F)
    dim = N**n
    m = FieldMatrix(dim, field)
    for r in range(dim):
        for c in range(dim):
            if rng.random() < density:
                m._add_entry(r, c, _element(rng, kind))
    r, c = rng.randrange(dim), rng.randrange(dim)
    if kind == "far":
        m._add_entry(r, c, Scalar.s_power(rng.choice((FAR, -FAR))))
    elif kind == "rational":
        m._add_entry(r, c, _element(rng, kind) / (F.q + F.one))
    return TensorOperator(N, n, m)


def _linear(parts, N):
    """The linear index of a label tuple, first factor most significant."""
    return sum((p - 1) * N ** (len(parts) - k) for k, p in enumerate(parts, 1))


def _embed_entries(op, positions, n):
    """embed's matrix, entry by entry: factor k of op acts on positions[k]
    and every other factor carries the identity."""
    N = op.N
    others = [p for p in range(1, n + 1) if p not in positions]
    out_m = FieldMatrix(N**n, op.field)
    for (out_p, in_p), v in op.items():
        out, inp = [0] * n, [0] * n
        for k, p in enumerate(positions):
            out[p - 1], inp[p - 1] = out_p[k], in_p[k]
        for labels in product(range(1, N + 1), repeat=len(others)):
            for p, lab in zip(others, labels):
                out[p - 1] = inp[p - 1] = lab
            out_m._add_entry(_linear(out, N), _linear(inp, N), v)
    return out_m


def _trace_entries(op, k):
    """partial_trace's matrix, entry by entry; k is 0-based."""
    N, n = op.N, op.arity
    out_m = FieldMatrix(N ** (n - 1), op.field)
    for (out_p, in_p), v in op.items():
        if out_p[k] == in_p[k]:
            ro = out_p[:k] + out_p[k + 1 :]
            ri = in_p[:k] + in_p[k + 1 :]
            out_m._add_entry(_linear(ro, N), _linear(ri, N), v)
    return out_m


def _realign_entries(op):
    """realign's matrix, entry by entry: S[(i,k),(j,l)] = op[(i,j),(k,l)]."""
    N = op.N
    entries = [
        (_linear((i, k), N), _linear((j, l), N), v)
        for ((i, j), (k, l)), v in op.items()
    ]
    return FieldMatrix.from_entries(N * N, op.field, entries)


def _check(op, ref):
    """op is the operator whose matrix is ref, and has a flat form exactly
    when ref gives one: == then compares op's flat form, which is not kept in
    lowest terms, with the reduced one that ref gives."""
    assert op.mat == ref
    fresh = TensorOperator(op.N, op.arity, ref)
    assert (op._flat is None) == (fresh._flat is None)
    assert op == fresh


def _pairs(rng):
    """Operand pairs on one space: both of one kind, or a Laurent operand
    with a rational one, either way round, or with a far one."""
    for N in (2, 3):
        for n in (1, 2, 3):
            if N**n > 9 and rng.random() < 0.5:
                continue
            for ka, kb in (
                ("laurent", "laurent"), ("numeric", "numeric"), ("high", "high"), ("far", "far"),
                ("laurent", "rational"), ("rational", "laurent"), ("laurent", "far"),
                ("rational", "rational"),
            ):
                yield _operator(rng, N, n, ka), _operator(rng, N, n, kb)


def test_flat_form_exists_exactly_for_laurent_entries_that_fit():
    rng = random.Random(1)
    for kind, flat in (
        ("laurent", True), ("numeric", True), ("high", True), ("far", True), ("rational", False),
    ):
        op = _operator(rng, 2, 2, kind)
        assert (op._flat is not None) is flat


def test_products_sums_and_equality_agree_with_field_matrices():
    rng = random.Random(20261018)
    for a, b in _pairs(rng):
        _check(compose(a, b), a.mat * b.mat)
        _check(add(a, b), a.mat + b.mat)
        _check(sub(a, b), a.mat - b.mat)
        assert (a == b) == (a.mat == b.mat)
        assert compose(a, TensorOperator.identity(a.N, a.arity, a.field)) == a
        assert add(a, b) == add(b, a)
        assert is_zero(sub(a, a)) == (True, None)
        assert is_zero(add(a, scale(a.field.zero - a.field.one, a))) == (True, None)


def _bumped(op):
    """op with one coefficient c of its first entry raised by 1 (by 2 if c
    is -1), which keeps that entry's denominator and support, so op's flat
    den and keys stay."""
    (out, inp), v = next(op.items())
    if op.field is F:
        e, c = next(iter(v.num.terms.items()))
        v = v + Scalar.s_power(e) * F.from_int(2 if c == -1 else 1)
    else:
        v = v + (2 if v == -1 else 1)
    entries = [(o, i, v if (o, i) == (out, inp) else w) for (o, i), w in op.items()]
    return TensorOperator.from_entries(op.N, op.arity, op.field, entries)


def test_equality_across_denominators_agrees_with_field_matrices():
    rng = random.Random(20)
    for kind in ("laurent", "numeric", "high"):
        for N, n in ((2, 1), (2, 2), (3, 2)):
            a = _operator(rng, N, n, kind, density=0.5)
            while not a.mat.rows:
                a = _operator(rng, N, n, kind, density=0.5)
            field = a.field
            c = field.from_int(2) / field.from_int(3)
            c_inv = field.one / c
            ident = TensorOperator.identity(N, n, field)
            rescaled = scale(c_inv, scale(c, a))
            assert rescaled._flat.den != a._flat.den
            bumped = _bumped(a)
            assert bumped._flat.den == a._flat.den
            supports = row_supports(a)
            first, *rest = sorted(supports)
            cell = (first, min(supports[first]))
            holed = TensorOperator.from_entries(
                N, n, field, [(o, i, v) for (o, i), v in a.items() if (o, i) != cell]
            )
            cases = [
                # Equal values over different dens.
                (a, rescaled, True),
                (a, compose(compose(a, scale(c, ident)), scale(c_inv, ident)), True),
                # One den, one support, one coefficient changed; and the same
                # over different dens.
                (a, bumped, False),
                (rescaled, bumped, False),
                # Different dens and different keys: a row dropped, and one
                # entry dropped.
                (a, scale(c, scale(c_inv, restrict_rows(a, rest))), False),
                (rescaled, holed, False),
            ]
            for x, y, equal in cases:
                assert x._flat is not None and y._flat is not None
                assert (x == y) is equal and (y == x) is equal
                assert (x.mat == y.mat) is equal


def test_exponents_past_a_packed_key_take_the_matrix_path():
    # A key's exponent part has no bound, so a product whose exponents pass
    # 2^15 stays flat.
    big = Scalar.s_power((1 << 15) - 4)
    a = TensorOperator.from_entries(2, 1, F, [((1,), (1,), big), ((1,), (2,), F.one)])
    b = TensorOperator.from_entries(2, 1, F, [((1,), (1,), big), ((2,), (1,), F.q)])
    assert a._flat is not None and b._flat is not None
    prod = compose(a, b)
    _check(prod, a.mat * b.mat)
    assert prod.entry((1,), (1,)) == big * big + F.q
    assert prod._flat is not None
    _check(scale(big, a), a.mat.scaled_by(big))


def test_cancellation_leaves_no_zero_entry():
    for field in (F, NUMERIC):
        one = field.one
        half = field.one / field.from_int(2)
        row = TensorOperator.from_entries(2, 1, field, [((1,), (1,), half), ((1,), (2,), half)])
        col = TensorOperator.from_entries(2, 1, field, [((1,), (1,), one), ((2,), (1,), field.zero - one)])
        prod = compose(row, col)
        assert prod.mat.rows == {}
        assert is_zero(prod) == (True, None)
        assert prod == TensorOperator(2, 1, FieldMatrix(2, field))


def test_scaling_agrees_with_field_matrices():
    rng = random.Random(7)
    laurent = [F.q, F.lam, Scalar.from_fraction(Fraction(-3, 4)), F.zero]
    scalars = {
        "laurent": laurent + [F.one / F.lam],
        "rational": laurent + [F.one / F.lam],
        # Scaling s^FAR by a non-Laurent scalar would have the reference run
        # gcds on dense polynomials of degree FAR.
        "far": laurent,
        "numeric": [Fraction(1, 2), Fraction(-9, 4), NUMERIC.lam, NUMERIC.zero],
        "high": [Fraction(1, 2), Fraction(-9, 4), HIGH.lam, HIGH.zero],
    }
    for kind in KINDS:
        for n in (1, 2):
            op = _operator(rng, 3, n, kind)
            for c in scalars[kind]:
                _check(scale(c, op), op.mat.scaled_by(c))


def test_embed_and_trace_agree_with_entrywise_reference():
    rng = random.Random(11)
    for kind in KINDS:
        for N, m in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
            op = _operator(rng, N, m, kind)
            for n in range(m, 4):
                for positions in permutations(range(1, n + 1), m):
                    fresh = TensorOperator(N, m, op.mat)
                    _check(embed(fresh, positions, n), _embed_entries(op, positions, n))
            for k in range(m if m > 1 else 0):
                _check(partial_trace(op, k + 1), _trace_entries(op, k))


def test_realign_and_row_restriction_agree_with_entrywise_reference():
    rng = random.Random(13)
    for kind in KINDS:
        for N, n in ((2, 1), (2, 2), (3, 2), (2, 3)):
            op = _operator(rng, N, n, kind)
            m = op.mat
            if n == 2:
                _check(realign(op), _realign_entries(op))
                assert realign(realign(op)) == op
            labels = list(product(range(1, N + 1), repeat=n))
            assert row_supports(op) == {
                labels[r]: frozenset(labels[c] for c in row) for r, row in m.rows.items()
            }
            for _ in range(3):
                rows = rng.sample(labels, rng.randint(0, N**n))
                kept = {r: row for r, row in m.rows.items() if labels[r] in rows}
                _check(restrict_rows(op, rows), FieldMatrix(m.dim, op.field, kept))


def test_laurent_results_of_a_non_laurent_operator_are_flat():
    # 1/(q + 1) and q/(q + 1) on the diagonal of row block 1: the trace over
    # factor 2 adds them to 1, and the rows of block 2 are Laurent.
    inv = F.one / (F.q + F.one)
    op = TensorOperator.from_entries(
        2, 2, F, [((1, 1), (1, 1), inv), ((1, 2), (1, 2), F.q * inv), ((2, 1), (2, 2), F.q**2)]
    )
    assert op._flat is None
    traced = partial_trace(op, 2)
    assert traced._flat is not None
    assert traced == TensorOperator.from_entries(2, 1, F, [((1,), (1,), F.one)])
    kept = restrict_rows(op, [(2, 1)])
    assert kept._flat is not None
    assert kept == TensorOperator.from_entries(2, 2, F, [((2, 1), (2, 2), F.q**2)])


def test_is_zero_witness_agrees_with_field_matrices():
    rng = random.Random(3)
    for kind in KINDS:
        for n in (1, 2, 3):
            op = _operator(rng, 2, n, kind, density=0.1)
            found = is_zero(op)
            zero, wit = op.mat.is_zero_with_witness()
            if zero:
                assert found == (True, None)
                continue
            r, c, v = wit
            labels = list(product((1, 2), repeat=n))
            assert found == (False, (labels[r], labels[c], v))
