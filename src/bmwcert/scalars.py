"""Exact arithmetic in the field Q(s) of rational functions in s, with q = s^2.

Working in s rather than q keeps the half-integer powers of q needed by the
odd orthogonal families inside a univariate Laurent setting.  Every value is
held in a canonical form:

  * the denominator is an ordinary primitive integer polynomial in s with a
    nonzero constant term and a positive leading coefficient;
  * all powers of s and all rational content live in the numerator;
  * numerator and denominator are coprime as polynomials;
  * every coefficient that is an integer is stored as a Python int, and only
    a coefficient that is not an integer is a Fraction.

The last rule keeps the arithmetic of the common case, integer
coefficients, in plain int operations.  Fraction(2) == 2 and the two hash
alike, so it changes no comparison, hash or printed text.

Equality of scalars is therefore structural equality, and values are safe to
hash and to share between threads: everything here is immutable and every
operation is pure.

Arithmetic keeps that form by Henrici's rules (P. Henrici, JACM 3(1):6-9,
1956; Knuth, TAOCP vol. 2, 4.5.1), which take gcds of the operands' own
parts and never of a whole product or cross-multiplied sum.  Write a = n/d
with n = s^k c P, P the primitive part, and b = n'/d' alike; gcd(P, d) = 1
and gcd(P', d') = 1 by the form, and s divides no denominator.

  * Product: cancel g1 = gcd(P, d') and g2 = gcd(P', d); the result is
    s^(k+k') c c' (P/g1)(P'/g2) / ((d/g2)(d'/g1)).  A prime factor of
    d/g2 divides neither P (coprime to d) nor P'/g2 (g2 took what P' shares
    with d), and likewise for d'/g1, so it is coprime.  A gcd is skipped
    when its denominator is 1 or its numerator part P is 1 (a monomial).
  * Inverse: s^-k c^-1 d / P.  P is already primitive, positive-leading
    and coprime to d, so no gcd is taken; a quotient is a product with an
    inverse.
  * Power: n^k / d^k, coprime because n and d are.
  * Sum: g = gcd(d, d'), t = n (d'/g) + n' (d/g), g2 = gcd(P_t, g); the
    result is (t/g2) / ((d/g) (d'/g2)).  A prime factor of d/g that divided
    t would divide n (d'/g), but it divides neither n nor d'/g; likewise
    for d'/g, and g2 takes what t shares with g.  When g = 1 the cross sum
    is already reduced, and when a denominator is 1 no gcd is taken at all.

Products and sums of primitive, positive-leading polynomials with nonzero
constant terms are such polynomials again (Gauss), and so are their exact
quotients, so every denominator stays in canonical form.
"""

import re
import sys
from fractions import Fraction
from math import gcd as _int_gcd

from .errors import (
    DivisionByZero,
    ExcludedEvaluationPoint,
    ParseError,
    PoleAtPoint,
    ZeroDivisionInText,
)


def _coeff(c):
    """A coefficient in canonical form: an integral Fraction as an int."""
    if c.__class__ is int or c.denominator != 1:
        return c
    return c.numerator


def _ratio(a, b):
    """Exact a / b of int or Fraction coefficients, b nonzero, canonical."""
    if b == 1:
        return a
    if a.__class__ is int and b.__class__ is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return _coeff(Fraction(a, b))


# ---------------------------------------------------------------------------
# Integer polynomial helpers (ascending coefficient lists, used for gcd work)


def _ip_degree(u):
    return len(u) - 1


def _ip_trim(u):
    while u and u[-1] == 0:
        u.pop()
    return u


def _ip_primitive(u):
    """Primitive part with positive leading coefficient; u must be nonzero."""
    g = 0
    for c in u:
        g = _int_gcd(g, abs(c))
    if u[-1] < 0:
        g = -g
    return [c // g for c in u]


def _ip_pseudo_rem(u, v):
    """A nonzero integer multiple of the remainder of u by v in Q[s], both
    nonzero, deg u >= deg v, and v positive-leading.  Each step scales by
    lc(v) / gcd(lc(v), c) only, which a monic v never does."""
    dv = _ip_degree(v)
    lv = v[-1]
    r = list(u)
    for k in range(_ip_degree(u) - dv, -1, -1):
        c = r.pop()
        if not c:
            continue
        if lv != 1:
            g = _int_gcd(lv, c)
            c //= g
            if lv != g:
                a = lv // g
                r = [a * x for x in r]
        for t in range(dv):
            r[k + t] -= c * v[t]
    return _ip_trim(r)


def _ip_gcd(u, v):
    """Gcd of primitive, positive-leading integer polynomials by a primitive
    remainder sequence; primitive and positive-leading itself."""
    if _ip_degree(u) < _ip_degree(v):
        u, v = v, u
    while v:
        r = _ip_pseudo_rem(u, v)
        u, v = v, (_ip_primitive(r) if r else [])
    return u


def _ip_mul(u, v):
    """Product of integer polynomials."""
    if len(u) == 1:
        c = u[0]
        return v if c == 1 else [c * b for b in v]
    if len(v) == 1:
        c = v[0]
        return u if c == 1 else [c * a for a in u]
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] += a * b
    return out


def _ip_exact_div(u, v):
    """Exact quotient u / v of integer polynomials (remainder known zero)."""
    n, d = list(u), v
    q = [0] * (len(n) - len(d) + 1)
    for k in range(len(q) - 1, -1, -1):
        qc = n[len(d) - 1 + k] // d[-1]
        q[k] = qc
        if qc:
            for t in range(len(d)):
                n[k + t] -= qc * d[t]
    return q


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial in s with rational coefficients.

    `terms` maps exponent -> nonzero coefficient, an int when integral and
    a Fraction otherwise; the empty map is zero.  Instances are treated as
    immutable once constructed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def const(cls, c):
        if c.__class__ is not int:
            c = _coeff(Fraction(c))
        return cls({0: c} if c else None)

    @classmethod
    def s_power(cls, k):
        return cls({k: 1})

    def is_zero(self):
        return not self.terms

    def min_exp(self):
        return min(self.terms)

    def max_exp(self):
        return max(self.terms)

    def shift(self, k):
        """Multiply by s^k."""
        if k == 0 or not self.terms:
            return self
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v if v.__class__ is int else _coeff(v)
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return LaurentPoly()
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        for e, v in out.items():
            if v.__class__ is not int:
                out[e] = _coeff(v)
        return LaurentPoly(out)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def int_form(self, low=0):
        """Split s^-low times a poly with min_exp low as content * int list.

        Returns (content, coeffs) with content a canonical coefficient
        carrying the sign of the leading coefficient and coeffs an
        ascending, primitive, positive-leading integer list.
        """
        deg = self.max_exp()
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = _int_gcd(num_gcd, c.numerator)
            d = c.denominator
            if d != 1:
                den_lcm = den_lcm // _int_gcd(den_lcm, d) * d
        if self.terms[deg] < 0:
            num_gcd = -num_gcd
        coeffs = [0] * (deg - low + 1)
        if den_lcm == 1:
            for e, c in self.terms.items():
                coeffs[e - low] = c // num_gcd
            return num_gcd, coeffs
        # num_gcd and den_lcm are coprime, so the content is not integral.
        for e, c in self.terms.items():
            coeffs[e - low] = c.numerator * (den_lcm // c.denominator) // num_gcd
        return Fraction(num_gcd, den_lcm), coeffs

    def int_list(self):
        """The ascending coefficient list of an integer polynomial."""
        coeffs = [0] * (self.max_exp() + 1)
        for e, c in self.terms.items():
            coeffs[e] = c
        return coeffs

    @classmethod
    def from_int_list(cls, coeffs, scale=1, shift=0):
        """scale * s^shift * sum coeffs[e] s^e."""
        if scale.__class__ is not int:
            scale = _coeff(scale)
        if scale.__class__ is int:
            return cls({e + shift: scale * c for e, c in enumerate(coeffs) if c})
        return cls({e + shift: _coeff(scale * c) for e, c in enumerate(coeffs) if c})


def _int_terms(terms):
    """(den, {e: den c_e}) for {e: c_e}, den the least common denominator."""
    den = 1
    for c in terms.values():
        if c.__class__ is not int:
            d = c.denominator
            den = den // _int_gcd(den, d) * d
    if den == 1:
        return 1, terms
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


_LP_ONE = LaurentPoly.const(1)
_ONE_TERMS = _LP_ONE.terms


# ---------------------------------------------------------------------------
# Scalars


class Scalar:
    """An element of Q(s) in canonical form (see module docstring)."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den):
        # Callers go through _make; this constructor trusts its arguments.
        self.num = num
        self.den = den
        self._hash = None

    # -- construction

    @staticmethod
    def _make(num, den):
        """Canonicalize num/den, both LaurentPoly."""
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            return _SC_ZERO
        # Move the s-power of the denominator into the numerator.
        dshift = den.min_exp()
        if dshift:
            den = den.shift(-dshift)
            num = num.shift(-dshift)
        # Split off the numerator's own s-power before polynomial work.
        nshift = num.min_exp()
        n0 = num.shift(-nshift) if nshift else num
        ncont, nint = n0.int_form()
        dcont, dint = den.int_form()
        if len(dint) > 1 and len(nint) > 1:
            g = _ip_gcd(nint, dint)
            if len(g) > 1:
                nint = _ip_exact_div(nint, g)
                dint = _ip_exact_div(dint, g)
        scale = _ratio(ncont, dcont)
        return Scalar(
            LaurentPoly.from_int_list(nint, scale).shift(nshift),
            LaurentPoly.from_int_list(dint),
        )

    @classmethod
    def from_fraction(cls, c):
        c = Fraction(c)
        if not c:
            return _SC_ZERO
        return cls(LaurentPoly.const(c), _LP_ONE)

    from_int = from_fraction

    @classmethod
    def s_power(cls, k):
        return cls(LaurentPoly.s_power(k), _LP_ONE)

    @classmethod
    def q_power(cls, k):
        return cls.s_power(2 * k)

    # -- predicates

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    # -- arithmetic: Henrici's rules (module docstring)

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        ad, bd = self.den, other.den
        if ad is bd or ad.terms == bd.terms:
            if ad.terms == _ONE_TERMS:
                s = self.num + other.num
                return Scalar(s, _LP_ONE) if s.terms else _SC_ZERO
            return Scalar._make(self.num + other.num, ad)
        if bd.terms == _ONE_TERMS:
            return Scalar(self.num + other.num * ad, ad)
        if ad.terms == _ONE_TERMS:
            return Scalar(self.num * bd + other.num, bd)
        adl, bdl = ad.int_list(), bd.int_list()
        g = _ip_gcd(adl, bdl)
        if len(g) == 1:
            return Scalar(self.num * bd + other.num * ad, ad * bd)
        ad = LaurentPoly.from_int_list(_ip_exact_div(adl, g))
        bd = LaurentPoly.from_int_list(_ip_exact_div(bdl, g))
        r = Scalar._make(self.num * bd + other.num * ad, LaurentPoly.from_int_list(g))
        return Scalar(r.num, r.den * ad * bd)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        if self.num.is_zero():
            return self
        return Scalar(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = self.num.terms, other.num.terms
        if not a or not b:
            return _SC_ZERO
        ad, bd = self.den, other.den
        # A factor c s^k only rescales the other numerator.
        if bd.terms == _ONE_TERMS and (ad.terms == _ONE_TERMS or len(b) == 1):
            return Scalar(self.num * other.num, ad)
        if ad.terms == _ONE_TERMS and len(a) == 1:
            return Scalar(self.num * other.num, bd)
        ka = self.num.min_exp()
        kb = other.num.min_exp()
        ca, an = self.num.int_form(ka)
        cb, bn = other.num.int_form(kb)
        adl, bdl = ad.int_list(), bd.int_list()
        if len(an) > 1 and len(bdl) > 1:
            g = _ip_gcd(an, bdl)
            if len(g) > 1:
                an, bdl = _ip_exact_div(an, g), _ip_exact_div(bdl, g)
        if len(bn) > 1 and len(adl) > 1:
            g = _ip_gcd(bn, adl)
            if len(g) > 1:
                bn, adl = _ip_exact_div(bn, g), _ip_exact_div(adl, g)
        den = _ip_mul(adl, bdl)
        return Scalar(
            LaurentPoly.from_int_list(_ip_mul(an, bn), ca * cb, ka + kb),
            LaurentPoly.from_int_list(den) if len(den) > 1 else _LP_ONE,
        )

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.num.is_zero():
            raise DivisionByZero("division by zero scalar")
        return self * other.inverse()

    def inverse(self):
        num = self.num
        if num.is_zero():
            raise DivisionByZero("inverse of zero")
        k = num.min_exp()
        c, p = num.int_form(k)
        return Scalar(
            LaurentPoly.from_int_list(self.den.int_list(), _ratio(1, c), -k),
            LaurentPoly.from_int_list(p) if len(p) > 1 else _LP_ONE,
        )

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        # Powers of coprime polynomials are coprime: no gcd.
        num = den = _LP_ONE
        bn, bd = self.num, self.den
        while k:
            if k & 1:
                num = num * bn
                den = den * bd
            k >>= 1
            if k:
                bn = bn * bn
                bd = bd * bd
        return Scalar(num, den) if num.terms else _SC_ZERO

    # -- comparison and hashing (canonical form makes this structural)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((hash(self.num), hash(self.den)))
        return self._hash

    # -- evaluation

    def evaluate(self, at_s):
        """Exact value at s = at_s; at_s must be admissible and not a pole.

        At s = a/b in lowest terms num and den both carry the factor
        a^lo b^-hi, lo and hi their least and greatest exponent, so the value
        is the quotient of two integer sums sum_e c_e a^(e-lo) b^(hi-e), num's
        over its coefficients' common denominator.
        """
        at_s = Fraction(at_s)
        a, b = at_s.numerator, at_s.denominator
        if b == 1 and -1 <= a <= 1:
            raise ExcludedEvaluationPoint(f"s = {at_s} puts q in {{0, 1}}")
        nd, num = _int_terms(self.num.terms)
        den = self.den.terms
        exps = (*num, *den)
        lo, hi = min(exps), max(exps)
        dval = sum(c * a ** (e - lo) * b ** (hi - e) for e, c in den.items())
        if not dval:
            raise PoleAtPoint(f"denominator vanishes at s = {at_s}")
        nval = sum(c * a ** (e - lo) * b ** (hi - e) for e, c in num.items())
        return Fraction(nval, dval * nd)

    # -- printing

    def __str__(self):
        if self.num.is_zero():
            return "0"
        num_s = _poly_text(self.num)
        if self.den.terms == {0: 1}:
            return num_s
        if len(self.num.terms) > 1:
            num_s = f"({num_s})"
        return f"{num_s}/({_poly_text(self.den)})"

    def __repr__(self):
        return f"Scalar({self})"


_SC_ZERO = Scalar(LaurentPoly(), _LP_ONE)
_SC_ONE = Scalar(_LP_ONE, _LP_ONE)


def _term_text(e, c):
    """One monomial |c| * s^e in grammar text, sign stripped."""
    c = abs(c)
    if e == 0:
        return str(c)
    if e % 2 == 0:
        k = e // 2
        power = "q" if k == 1 else f"q^{k}"
    else:
        power = f"q^({e}/2)"
    if c == 1:
        return power
    return f"{c}*{power}"


def _poly_text(p):
    parts = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        if not parts:
            parts.append(("-" if c < 0 else "") + _term_text(e, c))
        else:
            parts.append((" - " if c < 0 else " + ") + _term_text(e, c))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Sign test shared by both coefficient fields


def is_unit_sign(a):
    """+1 for the constant 1, -1 for the constant -1, None otherwise."""
    if a == 1:
        return 1
    if a == -1:
        return -1
    return None


# ---------------------------------------------------------------------------
# Parsing (the coefficient grammar shared by files and the CLI)
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := ('-' | '+') factor | atom ['^' exponent]
#   atom   := INT | 'q' | 's' | '(' expr ')'
#   exponent := ['-'] INT | '(' ['-'] INT '/' '2' ')'
#
# INT is a run of ASCII digits.  Half-integer exponents require an odd
# numerator and apply to q only; `s` is shorthand for q^(1/2).  Parentheses
# and unary signs nest at most _MAX_DEPTH deep, which keeps the recursive
# descent far from the interpreter's recursion limit.
#
# The whole text is lexed first, so an unexpected character is reported
# ahead of any syntax error.  The tokens (kind, value, position) form a stack,
# the next token last, on an "end" token that is popped only to raise.

_MAX_DEPTH = 100
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([qs+\-*/^()])|(\S))")


def parse(text):
    """Parse grammar text into a canonical Scalar.

    q parses as s^2; raises ParseError with a character position on bad
    syntax and ZeroDivisionInText, a DivisionByZero that is an input error,
    on a literal zero denominator.
    """
    toks = []
    for m in _TOKEN.finditer(text):
        digits, char, bad = m.groups()
        pos = m.start(m.lastindex)
        if char:
            toks.append((char, char, pos))
        elif digits:
            try:
                toks.append(("int", int(digits), pos))
            except ValueError:  # more digits than the interpreter converts
                raise ParseError("integer literal too long", pos) from None
        else:
            raise ParseError(f"unexpected character {bad!r}", pos)
    toks = [("end", None, len(text))] + toks[::-1]
    value = _parse_expr(toks, 0)
    _expect(toks, "end", "trailing input")
    return value


def _expect(toks, kind, message):
    """The value of the next token, which must be of `kind`."""
    got, value, pos = toks.pop()
    if got != kind:
        raise ParseError(message, pos)
    return value


def _parse_expr(toks, depth):
    value = _parse_term(toks, depth)
    while toks[-1][0] in ("+", "-"):
        op, _, pos = toks.pop()
        rhs = _parse_term(toks, depth)
        value = _check_size(value + rhs if op == "+" else value - rhs, pos)
    return value


def _parse_term(toks, depth):
    value = _parse_factor(toks, depth)
    while toks[-1][0] in ("*", "/"):
        op, _, pos = toks.pop()
        rhs = _parse_factor(toks, depth)
        if op == "/" and rhs.is_zero():
            raise ZeroDivisionInText(f"zero denominator at position {pos}")
        value = _check_size(value * rhs if op == "*" else value / rhs, pos)
    return value


def _parse_factor(toks, depth):
    kind, val, pos = toks.pop()
    if kind in ("+", "-", "("):
        if depth >= _MAX_DEPTH:
            raise ParseError(f"nesting deeper than {_MAX_DEPTH} levels", pos)
        if kind == "+":
            return _parse_factor(toks, depth + 1)
        if kind == "-":
            return -_parse_factor(toks, depth + 1)
        value = _parse_expr(toks, depth + 1)
        _expect(toks, ")", "expected ')'")
    elif kind == "int":
        value = Scalar.from_int(val)
    elif kind in ("q", "s"):
        value = Scalar.s_power(2 if kind == "q" else 1)
    else:
        raise ParseError("expected a number, q, s or '('", pos)
    if toks[-1][0] != "^":
        return value
    caret = toks.pop()[2]
    half = toks[-1][0] == "("
    if half:
        toks.pop()
    sign = -1 if toks[-1][0] == "-" else 1
    if sign < 0:
        toks.pop()
    if not half:
        k = sign * _expect(toks, "int", "expected an integer exponent")
        if value.is_zero() and k < 0:
            raise ZeroDivisionInText(f"zero base with negative exponent at position {caret}")
        _check_power(value, abs(k), caret)
        return value**k
    numer = sign * _expect(toks, "int", "expected an integer numerator")
    _expect(toks, "/", "expected '/' in half-integer exponent")
    _, den, pos = toks.pop()
    if den != 2:  # only an int token has an int value
        raise ParseError("half-integer exponents must have denominator 2", pos)
    _expect(toks, ")", "expected ')'")
    if numer % 2 == 0:
        raise ParseError("half-integer exponent must be odd", caret)
    if kind != "q":
        raise ParseError("half-integer exponents apply only to q", caret)
    return Scalar.s_power(numer)


def _bit_limit():
    """The bits of the longest int literal of the interpreter's digit limit."""
    return (getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) * 3322 // 1000


def _check_size(value, pos):
    """value, or ParseError at the operator at pos that formed it when its
    coefficients hold more bits than _bit_limit, summed over num and den,
    ceil(log2 max(|numerator|, denominator)) each.  With every operand so
    bounded, no operation of the grammar stalls on its coefficients."""
    limit = _bit_limit()
    terms = (*value.num.terms.values(), *value.den.terms.values())
    if sum((max(abs(c.numerator), c.denominator) - 1).bit_length() for c in terms) > limit:
        raise ParseError(f"value too large: over {limit} bits", pos)
    return value


def _check_power(value, k, caret):
    """ParseError at the caret when value^k may hold more bits than an int
    literal of the interpreter's digit limit.  For p the num or den of value,
    p^k has at most k * span + 1 terms of at most k * log2(t * m) bits, t the
    terms of p, m its largest coefficient part; so q^k (t * m = 1) is free."""
    limit = _bit_limit()
    size = 0
    for terms in (value.num.terms, value.den.terms) if value else ():
        m = max(max(abs(c.numerator), c.denominator) for c in terms.values())
        size += ((max(terms) - min(terms)) * k + 1) * k * (len(terms) * m - 1).bit_length()
    if size > limit:
        raise ParseError(f"power too large: over {limit} bits", caret)


# ---------------------------------------------------------------------------
# Coefficient fields: the shared face of the symbolic and numeric paths.
# A field object carries the distinguished constants, `from_int`, `lift`
# from Q(s) into the field, and the pair `to_flat` / `from_flat` that moves a
# Laurent element in and out of the integer form of tensors.py; elements
# themselves do the arithmetic, elimination included, and str() gives their
# grammar text.


class ScalarField:
    """The symbolic field Q(s)."""

    def __init__(self):
        self.zero = _SC_ZERO
        self.one = _SC_ONE
        self.s = Scalar.s_power(1)
        self.q = Scalar.q_power(1)
        self.lam = self.q - self.q.inverse()

    def from_int(self, n):
        return Scalar.from_fraction(n)

    def lift(self, x):
        """A Q(s) element of this field: the element itself."""
        return x

    def to_flat(self, v):
        """(den, {exponent: int}) with v = sum c_e s^e / den and den the
        least common denominator of v's coefficients, or None when v is not
        a Laurent polynomial."""
        if v.den.terms != _ONE_TERMS:
            return None
        return _int_terms(v.num.terms)

    def from_flat(self, terms, den):
        """The canonical element sum c_e s^e / den of nonzero int terms."""
        if den == 1:
            return Scalar(LaurentPoly(terms), _LP_ONE)
        return Scalar(LaurentPoly({e: _ratio(c, den) for e, c in terms.items()}), _LP_ONE)


class Rational(Fraction):
    """The element type of RationalField: a Fraction whose + - * / and ==
    with another Rational, unary minus, ** by an int and bool work on the
    two slots directly, with no operator dispatch and at most one gcd per
    result.  Any other operand goes to Fraction's own method, so str, hash,
    == with ints and Fractions, and Fraction(x) are Fraction's.  A Rational
    result is in lowest terms with a positive denominator."""

    __slots__ = ()

    def __add__(a, b):
        if b.__class__ is Rational:
            da, db = a._denominator, b._denominator
            if da == db:
                return _rational(a._numerator + b._numerator, da)
            return _rational(a._numerator * db + b._numerator * da, da * db)
        return Fraction.__add__(a, b)

    def __sub__(a, b):
        if b.__class__ is Rational:
            da, db = a._denominator, b._denominator
            if da == db:
                return _rational(a._numerator - b._numerator, da)
            return _rational(a._numerator * db - b._numerator * da, da * db)
        return Fraction.__sub__(a, b)

    def __mul__(a, b):
        if b.__class__ is Rational:
            return _rational(a._numerator * b._numerator, a._denominator * b._denominator)
        return Fraction.__mul__(a, b)

    def __truediv__(a, b):
        # A zero divisor goes to Fraction, which raises ZeroDivisionError.
        if b.__class__ is Rational and b._numerator:
            return _rational(a._numerator * b._denominator, a._denominator * b._numerator)
        return Fraction.__truediv__(a, b)

    def __neg__(a):
        return _coprime(-a._numerator, a._denominator)

    def __pow__(a, b):
        if b.__class__ is int:
            n, d = a._numerator, a._denominator
            if b >= 0:
                return _coprime(n**b, d**b)
            if n > 0:
                return _coprime(d**-b, n**-b)
            if n < 0:
                return _coprime((-d) ** -b, (-n) ** -b)
        return Fraction.__pow__(a, b)

    def __eq__(a, b):
        if b.__class__ is Rational:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    # Defining __eq__ would otherwise set __hash__ to None.
    __hash__ = Fraction.__hash__

    def __bool__(a):
        return a._numerator != 0


def _coprime(n, d):
    """The Rational n/d of coprime ints n and d > 0."""
    x = object.__new__(Rational)
    x._numerator = n
    x._denominator = d
    return x


def _rational(n, d):
    """The Rational n/d in lowest terms, n and d ints, d nonzero."""
    g = _int_gcd(n, d)
    if d < 0:
        g = -g
    return _coprime(n // g, d // g)


class RationalField:
    """Plain rational arithmetic at a fixed admissible value of s, on
    Rational elements."""

    def __init__(self, at_s):
        self.at_s = Fraction(at_s)
        self.zero = _coprime(0, 1)
        self.one = _coprime(1, 1)
        # lift raises ExcludedEvaluationPoint at an excluded s0.
        self.s, self.q, self.lam = (self.lift(x) for x in (SYMBOLIC.s, SYMBOLIC.q, SYMBOLIC.lam))

    def from_int(self, n):
        return _coprime(n, 1)

    def lift(self, x):
        """The value of a Q(s) element at s = at_s; PoleAtPoint at a pole."""
        v = x.evaluate(self.at_s)
        return _coprime(v._numerator, v._denominator)

    def to_flat(self, v):
        """(den, {0: numerator}); every element here is a constant."""
        return v._denominator, {0: v._numerator}

    def from_flat(self, terms, den):
        return _rational(terms[0], den)


SYMBOLIC = ScalarField()
