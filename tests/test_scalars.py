"""Field arithmetic, canonical form, parsing and evaluation."""

import operator
import random
import sys
from fractions import Fraction

import pytest

from bmwcert import SYMBOLIC, LaurentPoly, Rational, RationalField, Scalar, is_unit_sign, parse
from bmwcert.errors import (
    DivisionByZero,
    ExcludedEvaluationPoint,
    ParseError,
    PoleAtPoint,
)

from conftest import OVERSIZED_PRODUCT, OVERSIZED_SUM, powers_taken

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
    for at in (0, 1, -1, Fraction(2, 2), Fraction(-3, 3)):
        message = f"^s = {Fraction(at)} puts q in \\{{0, 1\\}}$"
        for evaluate in (expr.evaluate, F.zero.evaluate, RationalField):
            with pytest.raises(ExcludedEvaluationPoint, match=message):
                evaluate(at)


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


EVAL_POINTS = [Fraction(3, 2), Fraction(-5, 3), Fraction(2, 7), Fraction(-1, 2), Fraction(7), Fraction(101, 97)]


def reference_value(x, at):
    """x at s = at, summed term by term in Fraction arithmetic, or None when
    the denominator vanishes there."""

    def value(p):
        total = Fraction(0)
        for e, c in p.terms.items():
            total += Fraction(c) * at**e
        return total

    den = value(x.den)
    return None if den == 0 else value(x.num) / den


def test_evaluate_and_lift_agree_with_a_term_by_term_reference():
    # Fractional coefficients, odd s exponents on both sides of 0, and
    # negative points exercise the integer evaluator's scaling and signs.
    # Every point also gets inputs with a pole there: a denominator factor
    # s - s0, or q - s0^2.
    rng = random.Random(20261020)
    for at in EVAL_POINTS:
        field = RationalField(at)
        s0 = Scalar.from_fraction(at)
        for i in range(150):
            x = random_scalar(rng, max_terms=4, span=5)
            if i % 10 == 0:
                x = F.zero
            elif i % 10 == 1:
                x = x / (F.s - s0)
            elif i % 10 == 2:
                x = x / (q - s0 * s0)
            want = reference_value(x, at)
            if want is None:
                message = f"^denominator vanishes at s = {at}$"
                with pytest.raises(PoleAtPoint, match=message):
                    x.evaluate(at)
                with pytest.raises(PoleAtPoint, match=message):
                    field.lift(x)
                continue
            for got, kind in ((x.evaluate(at), Fraction), (field.lift(x), Rational)):
                assert got == want, (str(x), at)
                assert type(got) is kind
        if at.denominator == 1:
            assert (q + one).evaluate(int(at)) == reference_value(q + one, at)


def test_rational_agrees_with_fraction():
    # Rational is the numeric field's element type.  With a Rational on both
    # sides it does its own arithmetic; every result must equal Fraction's,
    # print and hash alike, and be a Rational in lowest terms with a positive
    # denominator.  Mixed int and Fraction operands take Fraction's methods.
    # A zero divisor and a zero base to a negative power raise as Fraction
    # does.  Values reach past 2^64.
    rng = random.Random(20261021)
    big = 2**64
    ints = [0, 1, -1, 2, -3, 12, big, big + 1, -(3 * big + 5), 2**100 - 1]

    def draw_int():
        return rng.choice(ints) if rng.random() < 0.6 else rng.randint(-4 * big, 4 * big)

    def draw():
        den = 0
        while not den:
            den = draw_int()
        return Fraction(draw_int(), den)

    def same(got, want):
        assert got == want and want == got
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert str(got) == str(want) and hash(got) == hash(want)
        assert bool(got) is bool(want)

    binary = (operator.add, operator.sub, operator.mul, operator.truediv)
    for _ in range(400):
        a, b = draw(), draw()
        x, y = Rational(a.numerator, a.denominator), Rational(b.numerator, b.denominator)
        assert type(x) is Rational
        same(x, a)
        same(-x, -a)
        assert type(-x) is Rational
        assert (x == y) is (a == b) and (x != y) is (a != b)
        n = draw_int()
        for op in binary:
            operands = ((x, y, (a, b)), (x, b, (a, b)), (a, y, (a, b)), (x, n, (a, n)), (n, x, (n, a)))
            for lhs, rhs, ref in operands:
                if op is operator.truediv and not ref[1]:
                    with pytest.raises(ZeroDivisionError):
                        op(*ref)
                    with pytest.raises(ZeroDivisionError):
                        op(lhs, rhs)
                    continue
                got = op(lhs, rhs)
                same(got, op(*ref))
                if lhs is x and rhs is y:
                    assert type(got) is Rational
        for k in range(-3, 4):
            if not a and k < 0:
                with pytest.raises(ZeroDivisionError):
                    a**k
                with pytest.raises(ZeroDivisionError):
                    x**k
                continue
            same(x**k, a**k)
            assert type(x**k) is Rational
        assert (x == n) is (a == n) and (x == a.numerator) is (a == a.numerator)
        assert Fraction(x) == a and type(Fraction(x)) is Fraction


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


def test_seeded_grammar_sweep():
    # Strings of at most 10 tokens, foreign characters included: each one
    # parses or raises an input error, and each value prints as text that
    # parses back to it.  Digits are followed by a space, so every literal
    # and exponent has one digit.
    tokens = [f"{d} " for d in range(10)] + list("qs+-*/^() ") + ["#", "\u00b2", "\u0663"]
    rng = random.Random(2005)
    parsed = 0
    for _ in range(5000):
        text = "".join(rng.choices(tokens, k=rng.randint(1, 10)))
        try:
            value = parse(text)
        except (ParseError, DivisionByZero):
            continue
        assert parse(str(value)) == value, text
        parsed += 1
    assert parsed > 300


def test_only_ascii_digits_form_integers():
    for text, position in (("q^\u00b2", 2), ("\u0663*q", 0), ("1\u0663", 1)):
        with pytest.raises(ParseError, match=r"^unexpected character") as err:
            parse(text)
        assert err.value.position == position, text


def test_hash_consistency():
    a = parse("(q^2 - 1)/(q - 1)")
    b = q + one
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_division_by_zero_and_repr():
    with pytest.raises(DivisionByZero, match=r"^division by zero scalar$"):
        q / F.zero
    # No arithmetic result has a zero denominator; the guard stands for one.
    with pytest.raises(DivisionByZero, match=r"^zero denominator$"):
        Scalar._make(q.num, F.zero.num)
    assert repr(q) == "Scalar(q)"
    assert repr(F.zero) == "Scalar(0)"


def test_mixed_type_operands_are_refused():
    # Each operator returns NotImplemented for a foreign operand: Python then
    # raises TypeError, and == falls back to identity.  An int compares by
    # value.
    for other in (object(), "q", 1.5, Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(q, other)
        assert q != other and not q == other
    with pytest.raises(TypeError):
        q ** 0.5
    assert F.one == 1 and q != 1


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


def _bits(value):
    """Bits of the coefficients of value, ceil(log2 max(|num|, den)) each."""
    return sum(
        (max(abs(c.numerator), c.denominator) - 1).bit_length()
        for part in (value.num, value.den)
        for c in part.terms.values()
    )


def test_seeded_exponent_sweep(monkeypatch):
    # Powers with exponents of up to 9 digits: each one parses within the
    # bit bound or raises ParseError at its caret before it is taken, so a
    # refused text takes exactly the powers of its base.  Monomials with
    # coefficient +-1 are always free.
    limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) * 3322 // 1000
    bases = ["q", "s", "-q", "q^-3", "q^(3/2)", "7", "1/2", "3*q^2", "q + 3", "q - q^-1",
             "s + 1", "(q + 1)/(q - 2)", "q^2 + q + 1", "2/3*s^5 - 1", "q^100 + 1"]
    rng = random.Random(2005)
    taken = powers_taken(monkeypatch)
    accepted = 0
    for _ in range(1500):
        base = rng.choice(bases)
        k = rng.choice([1, -1]) * rng.randint(0, 10 ** rng.randint(1, 9) - 1)
        text = f"({base})^{k}"
        taken.clear()
        try:
            value = parse(text)
        except ParseError as err:
            assert str(err).startswith("power too large") and err.position == len(base) + 2, text
            assert base not in ("q", "s", "-q", "q^-3", "q^(3/2)"), text
            refused = taken[:]
            taken.clear()
            parse(base)
            assert refused == taken, text
            continue
        assert value == parse(base) ** k and _bits(value) <= limit, text
        accepted += 1
    assert 300 < accepted < 1200


def test_oversized_sums_and_products_are_refused_at_the_operator():
    # Every power in these texts is within its bound.  The sum passes the
    # bit limit at its 4th term and the product at its 2nd factor, and each
    # is refused at the operator that would form it.
    limit = (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) * 3322 // 1000
    terms = [f"1/((q+{i})^30+1)" for i in range(1, 21)]
    factors = OVERSIZED_PRODUCT.split("*")
    assert "+".join(terms) == OVERSIZED_SUM
    head = parse("+".join(terms[:3]))
    assert _bits(head) <= limit < _bits(head + parse(terms[3]))
    assert _bits(parse(factors[0])) <= limit < _bits(parse(factors[0]) * parse(factors[1]))
    for text, position in ((OVERSIZED_SUM, len("+".join(terms[:3]))),
                           (OVERSIZED_PRODUCT, len(factors[0]))):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"value too large: over {limit} bits (at position {position})"
        assert text[err.value.position] in "+*"


def test_exponent_bound_follows_the_int_digit_limit():
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("no int digit limit in this interpreter")
    limit = sys.get_int_max_str_digits()
    assert parse("2^3000") == Scalar.from_int(2**3000)
    sys.set_int_max_str_digits(640)  # 2,126 bits
    try:
        with pytest.raises(ParseError, match="power too large"):
            parse("2^3000")
        assert parse("2^2000") == Scalar.from_int(2**2000)
    finally:
        sys.set_int_max_str_digits(limit)
