"""Field arithmetic, canonical form, parsing and evaluation."""

import operator
import random
from fractions import Fraction

import pytest

from bmwcert import SYMBOLIC, LaurentPoly, Scalar, is_unit_sign, parse
from bmwcert.errors import (
    DivisionByZero,
    ExcludedEvaluationPoint,
    ParseError,
    PoleAtPoint,
)

F = SYMBOLIC
q = F.q
lam = F.lam
one = F.one


def test_lambda_cancellation():
    assert (q - q**-1) + q**-1 == q


def test_exact_polynomial_division():
    assert (q * q - one) / (q - one) == q + one


def test_lambda_times_nu():
    # expanded by hand: (q - q^-1) q^-2 = q^-1 - q^-3
    assert lam * q**-2 == q**-1 - q**-3


def test_parse_lambda():
    assert parse("q - q^-1") == lam


def test_parse_half_power():
    assert parse("q^(1/2)") == F.s
    assert parse("q^(3/2)") == F.s**3
    assert parse("q^(-1/2)") == F.s**-1


def test_parse_sp2_loop_value():
    # mu = lambda^-1 nu^-1 (q - nu)(q^-1 + nu) at nu = -q^-3, simplified by
    # hand to -(q^2 + q^-2)
    nu = F.zero - q**-3
    mu = (q - nu) * (q**-1 + nu) / (lam * nu)
    assert parse("-(q^2 + q^-2)") == mu


def test_parse_s_symbol():
    assert parse("s") == parse("q^(1/2)")
    assert parse("s^2") == q


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("q + #")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("q^(1/3)")
    with pytest.raises(ParseError):
        parse("q^(2/2)")
    with pytest.raises(ParseError):
        parse("(q+1)^(1/2)")  # half powers apply to q only
    with pytest.raises(ParseError):
        parse("q +")
    with pytest.raises(ParseError):
        parse("")
    for text, message, position in (
        ("q q", "trailing input", 2),
        ("(q", "expected ')'", 2),
        ("q^(3 2)", "expected '/' in half-integer exponent", 5),
        ("q^(3/2", "expected ')'", 6),
        ("q^(q/2)", "expected an integer numerator", 3),
        ("q^q", "expected an integer exponent", 2),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position, text
    with pytest.raises(DivisionByZero, match=r"^zero base with negative exponent at position 1$"):
        parse("0^-1")


def test_parse_literal_zero_denominator():
    with pytest.raises(DivisionByZero):
        parse("1/0")
    with pytest.raises(DivisionByZero):
        parse("q/(q - q)")


def test_evaluate_simple():
    assert lam.evaluate(2) == Fraction(15, 4)


def test_evaluate_excluded_points():
    expr = q + one + q**-1
    for at in (0, 1, -1):
        with pytest.raises(ExcludedEvaluationPoint):
            expr.evaluate(at)


def test_excluded_point_precedes_pole():
    # 1/(q - 1) has poles exactly at s = +-1, which are excluded first
    expr = one / (q - one)
    with pytest.raises(ExcludedEvaluationPoint):
        expr.evaluate(1)
    with pytest.raises(ExcludedEvaluationPoint):
        expr.evaluate(-1)


def test_pole_detection():
    expr = one / (q - Scalar.from_int(4))
    with pytest.raises(PoleAtPoint):
        expr.evaluate(2)
    assert expr.evaluate(3) == Fraction(1, 5)


def test_is_unit_sign():
    assert is_unit_sign(one) == 1
    assert is_unit_sign(Scalar.from_int(-1)) == -1
    assert is_unit_sign(q) is None
    assert is_unit_sign(F.zero) is None
    assert is_unit_sign(Fraction(1)) == 1
    assert is_unit_sign(Fraction(-1)) == -1
    assert is_unit_sign(Fraction(2)) is None


def random_scalar(rng, max_terms=3, span=3):
    """Small random element of Q(s), biased toward denominator 1."""

    def poly():
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[rng.randint(-span, span)] = Fraction(
                rng.randint(-4, 4) or 1, rng.randint(1, 3)
            )
        return LaurentPoly(terms)

    num = poly()
    if rng.random() < 0.5:
        return Scalar._make(num, LaurentPoly.const(1))
    den = LaurentPoly()
    while den.is_zero():
        den = poly()
    return Scalar._make(num, den)


def integral_coeffs_are_ints(x):
    """Every integral coefficient of num and den is a plain int."""
    for c in list(x.num.terms.values()) + list(x.den.terms.values()):
        if c.denominator == 1 and type(c) is not int:
            return False
    return True


def canonical_invariants(x):
    """The canonical-form contract of a scalar."""
    if not integral_coeffs_are_ints(x):
        return False
    if x.is_zero():
        return x.den.terms == {0: Fraction(1)}
    den = x.den
    if 0 not in den.terms:
        return False  # nonzero constant term
    if any(e < 0 for e in den.terms):
        return False
    if any(c.denominator != 1 for c in den.terms.values()):
        return False  # integer coefficients
    if den.terms[den.max_exp()] <= 0:
        return False  # positive leading coefficient
    ints = [int(c) for _, c in sorted(den.terms.items())]
    from math import gcd

    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return g == 1  # primitive


def test_canonical_idempotence_and_invariants():
    rng = random.Random(20240811)
    for _ in range(200):
        x = random_scalar(rng)
        assert canonical_invariants(x), str(x)
        again = Scalar._make(x.num, x.den)
        assert again == x
        assert again.num.terms == x.num.terms and again.den.terms == x.den.terms


def test_arithmetic_and_parse_keep_canonical_form():
    rng = random.Random(20240812)
    for _ in range(200):
        a = random_scalar(rng)
        b = random_scalar(rng)
        results = [a + b, a - b, a * b, parse(str(a)), parse(str(b))]
        if b:
            results.append(a / b)
        for r in results:
            assert canonical_invariants(r), (str(a), str(b), str(r))


def test_integral_coefficients_print_and_hash_as_before():
    # An integral Fraction coefficient is stored as an int; equality, hash
    # and text are the same as for the Fraction form.
    x = Scalar._make(
        LaurentPoly({2: Fraction(3), 0: Fraction(-1)}), LaurentPoly({0: Fraction(2)})
    )
    assert x.num.terms == {2: Fraction(3, 2), 0: Fraction(-1, 2)}
    y = parse("3*q - 1")
    assert y.num.terms == {2: 3, 0: -1}
    assert all(type(c) is int for c in y.num.terms.values())
    assert str(y) == "3*q - 1"
    as_fractions = LaurentPoly({2: Fraction(3), 0: Fraction(-1)})
    assert y.num == as_fractions and hash(y.num) == hash(as_fractions)


def test_arithmetic_agrees_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    def to_sympy(x):
        def poly(p):
            return sum(
                sympy.Rational(c.numerator, c.denominator) * s**e for e, c in p.terms.items()
            )

        return poly(x.num) / poly(x.den)

    rng = random.Random(20240813)
    for _ in range(40):
        a = random_scalar(rng)
        b = random_scalar(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        cases = [(a + b, sa + sb), (a * b, sa * sb)]
        if b:
            cases.append((a / b, sa / sb))
        for got, want in cases:
            assert sympy.cancel(to_sympy(got) - want) == 0, (str(a), str(b), str(got))


def test_parse_rejects_deep_nesting_with_position():
    for text in ("(" * 5000 + "q" + ")" * 5000, "-" * 5000 + "q", "(-" * 60 + "q" + ")" * 60):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position is not None
    assert parse("(" * 50 + "q" + ")" * 50) == q
    assert parse("-(-(-q))") == F.zero - q


def test_print_parse_roundtrip_corpus():
    texts = [
        "q",
        "1",
        "-1",
        "0",
        "q - q^-1",
        "q^(1/2)",
        "-(q^2 + q^-2)",
        "3/2*q - 1/3",
        "(q + 1)/(q - 1)",
        "q^(-3/2)/(q^2 + q + 1)",
        "1/2/(q - 1)",
    ]
    for text in texts:
        x = parse(text)
        assert parse(str(x)) == x, text


def test_hash_consistency():
    a = parse("(q^2 - 1)/(q - 1)")
    b = q + one
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_power_negative():
    assert q**-3 == one / (q * q * q)
    assert (q + one) ** 0 == one
    with pytest.raises(DivisionByZero):
        F.zero.inverse()


# Henrici's rules against the unreduced cross formulas.  The scalars share
# denominator factors from one pool, so equal, partly shared and coprime
# denominators all occur, and so do cancellation to 0 and to 1.
_FACTORS = ["q + 1", "q + 2", "2*q - 1", "q^2 + q + 1", "s + 3", "3*s^2 - s + 2"]


def pooled_scalar(rng):
    """s^k c (factors) / (factors), canonicalised by _make."""

    def poly(count):
        p = LaurentPoly.const(1)
        for _ in range(count):
            p = p * parse(rng.choice(_FACTORS)).num
        return p

    content = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 1, 2, 7]))
    num = poly(rng.randint(0, 2)) * LaurentPoly({rng.randint(-3, 3): content})
    return Scalar._make(num, poly(rng.randint(0, 2)))


def cross_formulas(a, b):
    """(name, value, unreduced num, unreduced den) of each operation."""
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    cases = [
        ("a + b", a + b, an * bd + bn * ad, ad * bd),
        ("a - b", a - b, an * bd - bn * ad, ad * bd),
        ("a * b", a * b, an * bn, ad * bd),
    ]
    if b:
        cases.append(("a / b", a / b, an * bd, ad * bn))
    if a:
        cases.append(("a.inverse()", a.inverse(), ad, an))
        cases.append(("a ** -2", a**-2, ad * ad, an * an))
    return cases


def assert_matches_cross_formulas(a, b):
    for name, got, num, den in cross_formulas(a, b):
        want = Scalar._make(num, den)
        where = (name, str(a), str(b), str(got), str(want))
        assert got.num.terms == want.num.terms and got.den.terms == want.den.terms, where
        assert canonical_invariants(got), where


def test_henrici_rules_agree_with_the_cross_formulas():
    from bmwcert.scalars import _ip_gcd

    rng = random.Random(20261018)
    pool = [pooled_scalar(rng) for _ in range(40)]
    kinds = {"equal": 0, "shared": 0, "coprime": 0, "zero": 0, "one": 0}
    for i, a in enumerate(pool):
        for b in pool[i : i + 8] + [-a, a.inverse() if a else a]:
            assert_matches_cross_formulas(a, b)
            if a.den == b.den:
                kinds["equal"] += 1
            elif len(_ip_gcd(a.den.int_list(), b.den.int_list())) > 1:
                kinds["shared"] += 1
            else:
                kinds["coprime"] += 1
            kinds["zero"] += (a + b).is_zero()
            kinds["one"] += a * b == one
    assert min(kinds.values()) > 0, kinds
    negative_leading = [x for x in pool if x.num.terms[x.num.max_exp()] < 0]
    fraction_content = [x for x in pool if any(type(c) is Fraction for c in x.num.terms.values())]
    shifted = [x for x in pool if x and x.num.min_exp() != 0]
    assert negative_leading and fraction_content and shifted


@pytest.mark.parametrize(
    "a, b, op, gcds, want",
    [
        # Sum, g = gcd(ad, bd) = 1: the one gcd is g itself.
        ("1/(q + 1)", "1/(q + 2)", "+", 1, "(2*q + 3)/(q^2 + 3*q + 2)"),
        # Sum, g = q + 1 and g2 = gcd(t, g) = 1.
        ("1/((q + 1)*(q + 2))", "1/((q + 1)*(q + 3))", "+", 2,
         "(2*q + 5)/(q^3 + 6*q^2 + 11*q + 6)"),
        # Sum, g = q + 1 and g2 = q + 1: t = -(q + 1) cancels against g.
        ("1/((q + 1)*(q + 2))", "-2/((q + 1)*(q + 3))", "+", 2, "-1/(q^2 + 5*q + 6)"),
        # Sum with a denominator of 1: no gcd.
        ("q + 1", "1/(q + 2)", "+", 0, "(q^2 + 3*q + 3)/(q + 2)"),
        # Product of monomial numerators: no gcd.
        ("2*q/(q + 1)", "3/(q + 2)", "*", 0, "6*q/(q^2 + 3*q + 2)"),
        # Product, both cross gcds cancel.
        ("(q + 1)/(q + 2)", "(q + 2)/(q + 1)", "*", 2, "1"),
        # Quotient and inverse take no gcd for the inverse.
        ("q/(q + 1)", "(q + 1)/(q + 2)", "/", 1, "q*(q + 2)/(q + 1)^2"),
    ],
)
def test_henrici_branches(monkeypatch, a, b, op, gcds, want):
    import bmwcert.scalars as scalars

    a, b = parse(a), parse(b)
    calls = []
    gcd = scalars._ip_gcd

    def counting(u, v):
        calls.append((u, v))
        return gcd(u, v)

    monkeypatch.setattr(scalars, "_ip_gcd", counting)
    got = {"+": operator.add, "*": operator.mul, "/": operator.truediv}[op](a, b)
    assert len(calls) == gcds
    monkeypatch.undo()
    assert got == parse(want)
    assert_matches_cross_formulas(a, b)


def test_inverse_and_powers_take_no_gcd(monkeypatch):
    import bmwcert.scalars as scalars

    x = parse("(q^2 - 1/3)/(2*q + 1)") * q**-3
    monkeypatch.setattr(scalars, "_ip_gcd", None)
    for got in (x.inverse(), x**3, x**-2):
        assert canonical_invariants(got)
    monkeypatch.undo()
    assert x.inverse() * x == one and x**3 * x**-2 == x
