"""Randomized property suites (seeded, 100+ cases each).

Each suite is a plain callable returning the number of cases exercised, so
the acceptance tests can re-run them and report totals.
"""

import random
from fractions import Fraction

from bmwcert import (
    FieldMatrix,
    PairingPair,
    RMatrixSystem,
    SYMBOLIC,
    Scalar,
    TensorOperator,
    build_multiparametric,
    build_standard,
    full_verification,
    permutation_op,
    rank,
    skew_inverse,
    solve_multi_rhs,
)
from bmwcert.core import _xy_outcomes

from conftest import twist_from_text, SP2_TWIST_TEXT
from test_scalars import random_scalar

F = SYMBOLIC
q = F.q


def run_field_axioms(cases=120, seed=1001):
    rng = random.Random(seed)
    for _ in range(cases):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + F.zero == a
        assert a * F.one == a
        if not a.is_zero():
            assert a * a.inverse() == F.one
        assert a - a == F.zero
    return cases


def run_evaluate_homomorphism(cases=120, seed=1002):
    rng = random.Random(seed)
    points = [Fraction(3, 2), Fraction(2), Fraction(-5, 3), Fraction(7, 2)]
    done = 0
    while done < cases:
        a = random_scalar(rng)
        b = random_scalar(rng)
        at = rng.choice(points)
        try:
            va, vb = a.evaluate(at), b.evaluate(at)
            vs = (a + b).evaluate(at)
            vp = (a * b).evaluate(at)
        except Exception:
            continue  # pole of a factor; pick another sample
        assert vs == va + vb
        assert vp == va * vb
        done += 1
    return done


def run_parse_print_roundtrip(cases=120, seed=1003):
    from bmwcert import parse

    rng = random.Random(seed)
    for _ in range(cases):
        x = random_scalar(rng)
        assert parse(str(x)) == x
    return cases


def _gauge_systems():
    return [
        build_standard("so", 3),
        build_standard("sp", 2),
        build_standard("so", 4),
        build_multiparametric("sp", 2, twist_from_text(SP2_TWIST_TEXT)),
    ]


def run_gauge_invariance(cases=100, seed=1004):
    rng = random.Random(seed)
    prepared = []
    for sys in _gauge_systems():
        res = full_verification(sys)
        assert res.status == "pass"
        prepared.append((res.pairing, res.xy))
    for k in range(cases):
        pair, xy = prepared[k % len(prepared)]
        c = Scalar.from_fraction(
            Fraction(rng.randint(1, 5), rng.randint(1, 5))
        ) * q ** rng.randint(-3, 3)
        if rng.random() < 0.5:
            c = F.zero - c
        rescaled = PairingPair(
            N=pair.N,
            g={key: c * v for key, v in pair.g.items()},
            gbar={key: v / c for key, v in pair.gbar.items()},
            pivot=pair.pivot,
        )
        xy2, outcomes = _xy_outcomes(rescaled, F)
        assert all(o.passed for o in outcomes)
        assert xy2.X == xy.X
        assert xy2.Y == xy.Y
        assert xy2.epsilon == xy.epsilon
    return cases


def _random_delta_p(rng, n):
    """Delta * P with a random invertible diagonal Delta: skew invertible for
    every choice, and not of BMW type in general."""
    p = permutation_op(n, 2, 1, 2, F)
    entries = []
    for (out, inp), _ in p.items():
        c = q ** rng.randint(-2, 2) * Scalar.from_int(rng.randint(1, 3))
        if rng.random() < 0.3:
            c = F.zero - c
        entries.append((out, inp, c))
    return TensorOperator.from_entries(n, 2, F, entries)


def run_cd_commute_non_bmw(cases=100, seed=1005):
    rng = random.Random(seed)
    placeholder_nu = q**5
    for k in range(cases):
        n = 2 if k % 3 else 3
        r = _random_delta_p(rng, n)
        skew = skew_inverse(RMatrixSystem(r, placeholder_nu))
        assert skew.C.mat * skew.D.mat == skew.D.mat * skew.C.mat
    return cases


def _skew_system_matrices(r_op):
    """The defining linear system of the skew inverse, rebuilt directly from
    the entry formula as an independent reference."""
    n = r_op.N
    m = FieldMatrix(n * n, F)
    b = FieldMatrix(n * n, F)
    for a in range(1, n + 1):
        for bb in range(1, n + 1):
            for e in range(1, n + 1):
                for bp in range(1, n + 1):
                    v = r_op.entry((a, bb), (e, bp))
                    if v:
                        m._add_entry((a - 1) * n + (e - 1), (bp - 1) * n + (bb - 1), v)
    for a in range(1, n + 1):
        for e in range(1, n + 1):
            b._add_entry((a - 1) * n + (e - 1), (e - 1) * n + (a - 1), F.one)
    return m, b


def run_psi_uniqueness(cases=100, seed=1006):
    rng = random.Random(seed)
    for k in range(cases):
        n = 2 if k % 4 else 3
        r = _random_delta_p(rng, n)
        skew = skew_inverse(RMatrixSystem(r, q**5))
        m, b = _skew_system_matrices(r)
        assert rank(m) == n * n  # unique solution exists
        # an equation-permuted system must reproduce the same Psi
        perm = list(range(n * n))
        rng.shuffle(perm)
        m2 = FieldMatrix(n * n, F)
        b2 = FieldMatrix(n * n, F)
        for (row, col), v in m.items():
            m2._add_entry(perm[row], col, v)
        for (row, col), v in b.items():
            b2._add_entry(perm[row], col, v)
        sol = solve_multi_rhs(m2, b2)
        for (row, col), v in sol.items():
            i, kk = divmod(row, n)
            j, l = divmod(col, n)
            assert skew.Psi.entry((i + 1, j + 1), (kk + 1, l + 1)) == v
    return cases


def test_field_axioms():
    assert run_field_axioms() >= 100


def test_evaluate_homomorphism():
    assert run_evaluate_homomorphism() >= 100


def test_parse_print_roundtrip():
    assert run_parse_print_roundtrip() >= 100


def test_gauge_invariance():
    assert run_gauge_invariance() >= 100


def test_cd_commute_non_bmw():
    assert run_cd_commute_non_bmw() >= 100


def test_psi_uniqueness():
    assert run_psi_uniqueness() >= 100
