"""Verification suite for BMW-type R-matrices.

Everything here reduces to exact zero-residual identity checks over the
coefficient field: no tolerances exist on the symbolic path, and the numeric
path replays the same residuals in plain rational arithmetic.  A check
produces an Outcome whose witness, when it fails, is the first offending
matrix entry in row-major order.

The verification pipeline is: Yang-Baxter, eigenvalue detection, the
contraction operator K = lambda^-1 nu^-1 (q - R)(q^-1 + R) and its quotient
relations, the skew inverse Psi with its partial traces C and D, the trace
identities tying C and D to K, the rank-one factorization of K into the
bilinear pairings g and gbar, the mutually inverse X/Y contractions with the
palindromic symmetry of the characteristic polynomial of X, and finally the
conjugation lemma for commuting-entry matrices against K_23 K_12, decided as
one commutant identity: with Z = K_23 K_12 X_3, P_13 Z = (N^-1 Tr_3(P_13 Z))_12.
Its witness, built only when that fails, reads Y as X^-1, which xy-inverse
checks first.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product
from typing import Optional

from .errors import (
    KappaNotIdempotentScaled,
    NotBMWSpectralType,
    NotSkewInvertible,
    RankNotOne,
    ReciprocityViolation,
    ShapeMismatch,
    Singular,
)
from .scalars import is_unit_sign
from .tensors import (
    FieldMatrix,
    TensorOperator,
    add,
    char_poly,
    compose,
    embed,
    inverse,
    is_zero,
    multi_to_linear,
    linear_to_multi,
    partial_trace,
    permutation_op,
    rank,
    scale,
    solve_multi_rhs,
    sub,
)

# ---------------------------------------------------------------------------
# Data records


class RMatrixSystem:
    """An invertible operator on V x V together with its contraction
    eigenvalue nu; the unit of verification.

    nu must avoid {0, q, -q^-1}, which also keeps the loop value mu nonzero.
    """

    __slots__ = ("N", "R", "nu", "R_inv")

    def __init__(self, R, nu):
        if R.arity != 2:
            raise ShapeMismatch(f"an R-matrix has arity 2, got {R.arity}")
        f = R.field
        if nu == f.zero or nu == f.q or nu == f.zero - f.one / f.q:
            raise ValueError(f"nu = {nu} lies in the excluded set {{0, q, -q^-1}}")
        self.N = R.N
        self.R = R
        self.nu = nu
        # Eager inversion doubles as the invertibility check.
        self.R_inv = TensorOperator(R.N, 2, inverse(R.mat))

    @property
    def field(self):
        return self.R.field


@dataclass
class KappaData:
    """The contraction operator K with its loop value mu (K^2 = mu K), and
    rank(K), eliminated once, on first use."""

    K: TensorOperator
    mu: object

    @cached_property
    def rank(self):
        return rank(self.K.mat)


@dataclass
class SkewData:
    """Skew inverse Psi of R with its partial traces C and D, both arity-1
    operators, so the checks that embed them share one embedding each, and
    Tr_2(D_2 R_12^-1), which cd-commute and d-rinv-trace compare against."""

    Psi: TensorOperator
    C: TensorOperator
    D: TensorOperator
    outcomes: list = dc_field(default_factory=list)
    d_rinv_trace: Optional[FieldMatrix] = None


@dataclass
class PairingPair:
    """Bilinear pairings read off the rank-one contraction operator.

    g and gbar map 1-based index pairs to field elements; pivot records the
    (out, in) entry of K that fixed the normalization.
    """

    N: int
    g: dict
    gbar: dict
    pivot: Optional[tuple] = None


@dataclass
class XYPair:
    """The mutually inverse contractions of g with gbar, plus the sign of
    the palindromic symmetry of char(X): row j, column i of X is
    sum_k g^ik gbar_kj, and row i, column j of Y is sum_k gbar_ik g^kj."""

    X: FieldMatrix
    Y: FieldMatrix
    epsilon: Optional[int]
    char_coeffs: list = dc_field(default_factory=list)


@dataclass
class Outcome:
    """Result of one identity check.

    passed is True iff the residual operator is identically zero; witness
    is the first nonzero residual entry (out_parts, in_parts, value).
    """

    id: str
    equation: str
    passed: bool
    witness: Optional[tuple] = None


@dataclass
class VerificationResult:
    """Ordered outcomes plus derived values; aborted carries the reason when
    a structural error cut the pipeline short, and system is the
    RMatrixSystem the outcomes were verified against."""

    outcomes: list
    derived: dict
    aborted: Optional[str] = None
    system: Optional[RMatrixSystem] = None

    @property
    def status(self):
        if self.aborted:
            return "aborted"
        return "pass" if all(o.passed for o in self.outcomes) else "fail"


# ---------------------------------------------------------------------------
# The residual rule


def _outcome(check_id, equation, pairs):
    """Pass iff lhs == rhs for every (lhs, rhs) pair of operators, N x N
    matrices or scalars.

    Values are canonical and no zeros are stored, so equal pairs are exactly
    those with a zero residual; the residual is formed only when a pair
    differs, for its witness: the first nonzero entry (out_parts, in_parts,
    v) of an operator, ((row,), (col,), v) 1-based of a matrix, or
    ((), (), v) for scalars.
    """
    for lhs, rhs in pairs:
        if lhs != rhs:
            if isinstance(lhs, TensorOperator):
                wit = is_zero(sub(lhs, rhs))[1]
            elif isinstance(lhs, FieldMatrix):
                r, c, v = (lhs - rhs).is_zero_with_witness()[1]
                wit = ((r + 1,), (c + 1,), v)
            else:
                wit = ((), (), lhs - rhs)
            return Outcome(check_id, equation, False, wit)
    return Outcome(check_id, equation, True)


# ---------------------------------------------------------------------------
# Spectral data


def _w_operator(R):
    """W = (qI - R)(q^-1 I + R), which detect_nu and K are both read off."""
    f = R.field
    ident = TensorOperator.identity(R.N, 2, f)
    return compose(sub(scale(f.q, ident), R), add(scale(f.one / f.q, ident), R))


def detect_nu(R, w_op=None):
    """Read the contraction eigenvalue off an invertible operator.

    W = (qI - R)(q^-1 I + R) maps onto the nu-eigenspace of a BMW-type R, so
    the first nonzero column of W must be an eigenvector; w_op, when given,
    is that W, formed by the caller.  Raises NotBMWSpectralType when W = 0
    (quadratic minimal polynomial), when the column is not an eigenvector,
    or when the eigenvalue lies in the excluded set {0, q, -q^-1}.
    """
    f = R.field
    q = f.q
    if w_op is None:
        w_op = _w_operator(R)
    if not w_op.mat.rows:
        raise NotBMWSpectralType("(q - R)(q^-1 + R) vanishes identically")
    col0 = min(c for row in w_op.mat.rows.values() for c in row)
    v = w_op.mat.column(col0)
    rv = R.mat.apply_to_column(v)
    r0 = min(v)
    if r0 not in rv:
        raise NotBMWSpectralType("candidate column is not an eigenvector")
    nu = rv[r0] / v[r0]
    if rv != {k: nu * x for k, x in v.items()}:
        raise NotBMWSpectralType("candidate column is not an eigenvector")
    if nu == f.zero or nu == q or nu == f.zero - f.one / q:
        raise NotBMWSpectralType(f"eigenvalue {nu} lies in the excluded set")
    return nu


def _kappa_raw(sys, w_op=None):
    """K = lambda^-1 nu^-1 W with W = (q - R)(q^-1 + R), mu, and the
    K^2 = mu K outcome, without raising; the orchestration reports the
    failure and keeps going.  w_op, when given, is W, formed by the caller."""
    f = sys.field
    q = f.q
    coeff = f.one / (f.lam * sys.nu)
    kappa = scale(coeff, _w_operator(sys.R) if w_op is None else w_op)
    mu = coeff * (q - sys.nu) * (f.one / q + sys.nu)
    outcome = _outcome(
        "kappa-idempotent", "K^2 = mu K", [(compose(kappa, kappa), scale(mu, kappa))]
    )
    return KappaData(kappa, mu), outcome


def kappa_of(sys):
    """Build K = lambda^-1 nu^-1 (q - R)(q^-1 + R) and verify K^2 = mu K."""
    kappa, outcome = _kappa_raw(sys)
    if not outcome.passed:
        exc = KappaNotIdempotentScaled(
            "K^2 differs from mu K; the operator is not of BMW type"
        )
        exc.witness = outcome.witness
        raise exc
    return kappa


# ---------------------------------------------------------------------------
# Relation suites


def check_yang_baxter(sys):
    r1 = embed(sys.R, (1, 2), 3)
    r2 = embed(sys.R, (2, 3), 3)
    r1r2 = compose(r1, r2)
    return _outcome(
        "yang-baxter",
        "R1 R2 R1 = R2 R1 R2",
        [(compose(r1r2, r1), compose(r2, r1r2))],
    )


def check_kappa_inverse_form(sys, kappa):
    """The second defining expression of K: lam^-1 (R^-1 - R + lam I)."""
    f = sys.field
    lam_inv = f.one / f.lam
    ident = TensorOperator.identity(sys.N, 2, f)
    alt = scale(lam_inv, add(sub(sys.R_inv, sys.R), scale(f.lam, ident)))
    return _outcome(
        "kappa-inverse-form", "K = lam^-1 (R^-1 - R + lam I)", [(kappa.K, alt)]
    )


def check_bmw_relations(sys, kappa, yang_baxter):
    """The quotient relations tying R and K, embedded on three factors.

    The braid relation is the Yang-Baxter equation again, so it reuses
    `yang_baxter`, the outcome of check_yang_baxter(sys).  The three-site
    products that several relations share are formed once.
    """
    f = sys.field
    nu = sys.nu
    nu_inv = f.one / nu
    r, r_inv, k = sys.R, sys.R_inv, kappa.K
    ident2 = TensorOperator.identity(sys.N, 2, f)
    r1 = embed(r, (1, 2), 3)
    r2 = embed(r, (2, 3), 3)
    ri1 = embed(r_inv, (1, 2), 3)
    ri2 = embed(r_inv, (2, 3), 3)
    k1 = embed(k, (1, 2), 3)
    k2 = embed(k, (2, 3), 3)
    k2r1 = compose(k2, r1)
    k2ri1 = compose(k2, ri1)
    k2k1 = compose(k2, k1)
    k1k2 = compose(k1, k2)
    k1r2 = compose(k1, r2)
    k1ri2 = compose(k1, ri2)

    braid = Outcome(
        "bmw-braid", yang_baxter.equation, yang_baxter.passed, yang_baxter.witness
    )
    return [
        braid,
        _outcome(
            "bmw-cubic",
            "R^2 = I + lambda (R - nu K)",
            [(compose(r, r), add(ident2, scale(f.lam, sub(r, scale(nu, k)))))],
        ),
        _outcome(
            "bmw-rk",
            "R K = K R = nu K",
            [(compose(r, k), scale(nu, k)), (compose(k, r), scale(nu, k))],
        ),
        _outcome(
            "bmw-k2rk2",
            "K2 R1 K2 = nu^-1 K2 and K2 R1^-1 K2 = nu K2",
            [
                (compose(k2r1, k2), scale(nu_inv, k2)),
                (compose(k2ri1, k2), scale(nu, k2)),
            ],
        ),
        _outcome(
            "bmw-kk-rinv",
            "K2 K1 = K2 R1^-1 R2^-1",
            [(k2k1, compose(k2ri1, ri2))],
        ),
        _outcome(
            "bmw-kk-rr",
            "K1 K2 = K1 R2 R1 and K2 K1 = K2 R1 R2",
            [(k1k2, compose(k1r2, r1)), (k2k1, compose(k2r1, r2))],
        ),
        _outcome(
            "bmw-kkk",
            "K1 K2 K1 = K1 and K2 K1 K2 = K2",
            [(compose(k1k2, k1), k1), (compose(k2k1, k2), k2)],
        ),
        _outcome(
            "bmw-k1rk1",
            "K1 R2 K1 = nu^-1 K1 and K1 R2^-1 K1 = nu K1",
            [
                (compose(k1r2, k1), scale(nu_inv, k1)),
                (compose(k1ri2, k1), scale(nu, k1)),
            ],
        ),
    ]


def check_minimal_cubic(sys, kappa):
    """(R - q)(R + q^-1) is exactly -lam nu K, so the cubic reuses K."""
    f = sys.field
    ident = TensorOperator.identity(sys.N, 2, f)
    prod = compose(
        scale(f.zero - f.lam * sys.nu, kappa.K), sub(sys.R, scale(sys.nu, ident))
    )
    zero = scale(f.zero, ident)
    return _outcome("minimal-cubic", "(R - q)(R + q^-1)(R - nu) = 0", [(prod, zero)])


# ---------------------------------------------------------------------------
# Skew inverse


def skew_inverse(sys):
    """Solve for the skew inverse Psi: Tr_2(R_12 Psi_23) = Tr_2(Psi_12 R_23) = P_13.

    In entries the defining system reads, for all a, e, c, g:
        sum_{b, bp} R[(a,b),(e,bp)] Psi[(bp,c),(b,g)] = delta(a,g) delta(c,e)
    which decouples into one N^2 x N^2 coefficient matrix shared by N^2
    right-hand sides.  Psi, when it exists, is the unique solution; both
    defining equalities and both derived contractions
        Tr_1(C_1 R_12) = I,   Tr_2(D_2 R_12) = I
    are then verified exactly.
    """
    f = sys.field
    n = sys.N
    m = FieldMatrix(n * n, f)
    for (out_p, in_p), v in sys.R.items():
        a, b = out_p
        e, bp = in_p
        m._add_entry((a - 1) * n + (e - 1), (bp - 1) * n + (b - 1), v)
    rhs = FieldMatrix(n * n, f)
    for a in range(1, n + 1):
        for e in range(1, n + 1):
            rhs._add_entry((a - 1) * n + (e - 1), (e - 1) * n + (a - 1), f.one)
    try:
        sol = solve_multi_rhs(m, rhs)
    except Singular as exc:
        raise NotSkewInvertible(f"the reshuffled {n * n} x {n * n} system is singular") from exc
    psi_mat = FieldMatrix(n * n, f)
    for (row, col), v in sol.items():
        i, k = divmod(row, n)
        j, l = divmod(col, n)
        psi_mat._add_entry(
            multi_to_linear((i + 1, j + 1), n), multi_to_linear((k + 1, l + 1), n), v
        )
    psi = TensorOperator(n, 2, psi_mat)
    skew = SkewData(psi, partial_trace(psi, 1), partial_trace(psi, 2))
    skew.outcomes = check_skew(sys, skew)
    if not all(o.passed for o in skew.outcomes):
        bad = next(o for o in skew.outcomes if not o.passed)
        raise NotSkewInvertible(f"no common solution of the defining equalities ({bad.id})")
    skew.d_rinv_trace = partial_trace(compose(embed(skew.D, (2,), 2), sys.R_inv), 2).mat
    return skew


def check_skew(sys, skew):
    """Outcomes for the defining equalities of Psi and the contractions of
    C and D against R."""
    f = sys.field
    n = sys.N
    p13 = permutation_op(n, 2, 1, 2, f)
    r12 = embed(sys.R, (1, 2), 3)
    r23 = embed(sys.R, (2, 3), 3)
    psi12 = embed(skew.Psi, (1, 2), 3)
    psi23 = embed(skew.Psi, (2, 3), 3)
    c1 = embed(skew.C, (1,), 2)
    d2 = embed(skew.D, (2,), 2)
    ident1 = TensorOperator.identity(n, 1, f)
    return [
        _outcome(
            "skew-left",
            "Tr_2(R_12 Psi_23) = P_13",
            [(partial_trace(compose(r12, psi23), 2), p13)],
        ),
        _outcome(
            "skew-right",
            "Tr_2(Psi_12 R_23) = P_13",
            [(partial_trace(compose(psi12, r23), 2), p13)],
        ),
        _outcome(
            "c-contraction",
            "Tr_1(C_1 R_12) = I",
            [(partial_trace(compose(c1, sys.R), 1), ident1)],
        ),
        _outcome(
            "d-contraction",
            "Tr_2(D_2 R_12) = I",
            [(partial_trace(compose(d2, sys.R), 2), ident1)],
        ),
    ]


def check_prop1(sys, skew):
    """Commutation of Psi with C and D through R_21^-1, and the equality of
    the four contractions Tr_2(C_2 R_21^-1) = Tr_2(D_2 R_12^-1) = CD = DC.

    These need only skew invertibility, not the BMW structure.
    """
    psi = skew.Psi
    c1 = embed(skew.C, (1,), 2)
    c2 = embed(skew.C, (2,), 2)
    d1 = embed(skew.D, (1,), 2)
    d2 = embed(skew.D, (2,), 2)
    r21_inv = embed(sys.R_inv, (2, 1), 2)
    c, d = skew.C.mat, skew.D.mat
    cd = c * d
    dc = d * c
    t_c = partial_trace(compose(c2, r21_inv), 2).mat
    return [
        _outcome(
            "psi-c-left", "C_1 Psi_12 = R_21^-1 C_2", [(compose(c1, psi), compose(r21_inv, c2))]
        ),
        _outcome(
            "psi-c-right", "Psi_12 C_1 = C_2 R_21^-1", [(compose(psi, c1), compose(c2, r21_inv))]
        ),
        _outcome(
            "psi-d-left", "D_2 Psi_12 = R_21^-1 D_1", [(compose(d2, psi), compose(r21_inv, d1))]
        ),
        _outcome(
            "psi-d-right", "Psi_12 D_2 = D_1 R_21^-1", [(compose(psi, d2), compose(d1, r21_inv))]
        ),
        _outcome(
            "cd-commute",
            "Tr_2(C_2 R_21^-1) = Tr_2(D_2 R_12^-1) = CD = DC",
            [(t_c, cd), (skew.d_rinv_trace, cd), (dc, cd)],
        ),
    ]


# ---------------------------------------------------------------------------
# The rank-one structure of K and its trace identities


def theorem_suite(sys, skew, kappa):
    """Consequences of rank(K) = 1: the partial traces of K reproduce C and
    D, C and D are inverse to each other up to nu^2, and Tr C = Tr D = nu mu.

    The computed rank is substituted as-is, so a rank != 1 input yields
    informative failures rather than crashes.  Returns (outcomes, rank_K).
    """
    f = sys.field
    n = sys.N
    nu = sys.nu
    rank_k = kappa.rank
    rk = f.from_int(rank_k)
    nu_inv = f.one / nu
    ident = FieldMatrix.identity(n, f)
    c, d = skew.C.mat, skew.D.mat
    d2 = embed(skew.D, (2,), 2)
    d2k = compose(d2, kappa.K)
    outcomes = [
        Outcome(
            "kappa-rank-one",
            "rank(K) = 1",
            rank_k == 1,
            None if rank_k == 1 else ((), (), rk),
        ),
        _outcome(
            "kappa-trace2",
            "Tr_2(K_12) = nu^-1 rank(K) D",
            [(partial_trace(kappa.K, 2).mat, d.scaled_by(nu_inv * rk))],
        ),
        _outcome(
            "kappa-trace1",
            "Tr_1(K_12) = nu^-1 rank(K) C",
            [(partial_trace(kappa.K, 1).mat, c.scaled_by(nu_inv * rk))],
        ),
        _outcome(
            "d-rinv-trace",
            "Tr_2(D_2 R_12^-1) = nu^2 I",
            [(skew.d_rinv_trace, ident.scaled_by(nu * nu))],
        ),
        _outcome(
            "cd-scalar",
            "CD = DC = nu^2 I",
            [
                (c * d, ident.scaled_by(nu * nu)),
                (d * c, ident.scaled_by(nu * nu)),
            ],
        ),
        _outcome(
            "d-kappa-trace1",
            "Tr_1(D_2 K_12) = nu rank(K) I",
            [(partial_trace(d2k, 1).mat, ident.scaled_by(nu * rk))],
        ),
        _outcome(
            "d-kappa-trace",
            "Tr_2(D_2 K_12) = nu I",
            [(partial_trace(d2k, 2).mat, ident.scaled_by(nu))],
        ),
        _outcome(
            "trace-c-d",
            "Tr C = Tr D = nu mu",
            [(c.trace(), nu * kappa.mu), (d.trace(), nu * kappa.mu)],
        ),
    ]
    return outcomes, rank_k


def factor_pairings(kappa):
    """Split the rank-one K as K[out, in] = gbar[out] g[in].

    With rows as outputs, the row side of K carries gbar and the column side
    carries g (the diagonal twists, whose g and gbar differ by more than a
    gauge factor, pin this orientation down).  The first nonzero entry of K
    in row-major order, at (out0, in0), fixes the normalization: g is the
    out0 row of K and gbar is the in0 column divided by the pivot value.
    Any other pivot differs by the gauge rescaling g -> c g, gbar -> c^-1
    gbar, which all downstream data ignore.
    """
    k_op = kappa.K
    n = k_op.N
    if kappa.rank != 1:
        raise RankNotOne(f"rank(K) = {kappa.rank}, expected 1")
    (r0, c0), pivot_val = next(iter(k_op.mat.items()))
    g = {}
    for col, v in sorted(k_op.mat.rows[r0].items()):
        g[linear_to_multi(col, n, 2)] = v
    gbar = {}
    for row in sorted(k_op.mat.rows):
        rowdict = k_op.mat.rows[row]
        if c0 in rowdict:
            gbar[linear_to_multi(row, n, 2)] = rowdict[c0] / pivot_val
    return PairingPair(
        N=n,
        g=g,
        gbar=gbar,
        pivot=(linear_to_multi(r0, n, 2), linear_to_multi(c0, n, 2)),
    )


def check_pairing_factorization(kappa, pair):
    """Entrywise K[out, in] = gbar[out] g[in], and sum_ij g^ij gbar_ij = mu."""
    f = kappa.K.field
    total = f.zero
    for idx, gv in pair.g.items():
        if idx in pair.gbar:
            total = total + gv * pair.gbar[idx]
    outer = [(ob, ig, bv * gv) for ob, bv in pair.gbar.items() for ig, gv in pair.g.items()]
    return _outcome(
        "pairing-factorization",
        "K[out, in] = gbar[out] g[in], sum g gbar = mu",
        [(total, kappa.mu), (kappa.K, TensorOperator.from_entries(pair.N, 2, f, outer))],
    )


def _build_xy(pair, f):
    """X = (G Gbar)^T and Y = Gbar G with G[i, k] = g^ik and Gbar[k, j] =
    gbar_kj, so X[j, i] = sum_k g^ik gbar_kj.

    A change of basis R -> (A (x) A) R (A (x) A)^-1 takes G Gbar to
    A^-T (G Gbar) A^T, so it is the transpose that moves as X -> A X A^-1,
    which the conjugation rule of rtt_lemma needs; a diagonal X cannot tell
    the two apart.
    """
    n = pair.N
    g = FieldMatrix.from_entries(n, f, [(i - 1, k - 1, v) for (i, k), v in pair.g.items()])
    gbar = FieldMatrix.from_entries(n, f, [(k - 1, j - 1, v) for (k, j), v in pair.gbar.items()])
    x = FieldMatrix.from_entries(n, f, [(j, i, v) for (i, j), v in (g * gbar).items()])
    return x, gbar * g


def _xy_outcomes(pair, field):
    """Build X and Y as _build_xy does, X[j, i] = sum_k g^ik gbar_kj and
    Y[i, j] = sum_k gbar_ik g^kj with the first index the row, then check
    XY = I, the palindromic symmetry C_k = eps C_{N-k} of char(X) with
    eps = C_N = +-1, and the identity C_N C_k = C_{N-k}.

    Returns (xy, outcomes), xy None when XY != I; a gauge rescaling of the
    pairings leaves X, Y and eps unchanged.
    """
    n = pair.N
    x, y = _build_xy(pair, field)
    ident = FieldMatrix.identity(n, field)
    inv_ok = _outcome("xy-inverse", "X Y = I", [(x * y, ident)])
    if not inv_ok.passed:
        return None, [inv_ok]
    coeffs = char_poly(x)
    eps = is_unit_sign(coeffs[n])
    if eps is None:
        recip = Outcome(
            "charpoly-reciprocity",
            "C_k = eps C_{N-k} with eps = C_N = +-1",
            False,
            ((), (), coeffs[n]),
        )
    else:
        eps_el = field.from_int(eps)
        recip = _outcome(
            "charpoly-reciprocity",
            "C_k = eps C_{N-k} with eps = C_N = +-1",
            [(coeffs[k], eps_el * coeffs[n - k]) for k in range(n + 1)],
        )
    palin = _outcome(
        "charpoly-palindrome",
        "C_N C_k = C_{N-k}",
        [(coeffs[n] * coeffs[k], coeffs[n - k]) for k in range(n + 1)],
    )
    return XYPair(x, y, eps, coeffs), [inv_ok, recip, palin]


def xy_matrices(pair, field):
    """X and Y as in _xy_outcomes; raises ReciprocityViolation naming the
    first check that fails."""
    xy, outcomes = _xy_outcomes(pair, field)
    for outcome in outcomes:
        if not outcome.passed:
            raise ReciprocityViolation(f"{outcome.id} fails: {outcome.equation}")
    return xy


def rtt_lemma(kappa, xy):
    """For every matrix unit T: T_1 K_23 K_12 = K_23 K_12 (X T X^-1)_3;
    linearity extends the check to every commuting-entry matrix.

    With Z = K_23 K_12 X_3 the rule reads T_1 Z = Z T_3 for every T, that
    is, P_13 Z commutes with every T_3, which holds exactly when
    P_13 Z = (N^-1 Tr_3(P_13 Z))_12: one identity decides the check.  X_3
    commutes with K_12, so Z is formed as (K X_2)_23 K_12, which embeds X
    on two factors instead of three.  Only when the identity fails is a
    witness built: the first nonzero residual T_1 KK - KK (X T Y)_3,
    KK = K_23 K_12, over the matrix units e_ab in row-major order.  The
    witness needs Y = X^-1, which xy-inverse establishes before the
    pipeline runs this check.
    """
    f = kappa.K.field
    n = kappa.K.N
    eq_text = "T_1 K_23 K_12 = K_23 K_12 (X T X^-1)_3 for all matrix units T"
    k12 = embed(kappa.K, (1, 2), 3)
    kx = compose(kappa.K, embed(TensorOperator(n, 1, xy.X), (2,), 2))
    pz = compose(permutation_op(n, 3, 1, 3, f), compose(embed(kx, (2, 3), 3), k12))
    if pz == embed(scale(f.one / f.from_int(n), partial_trace(pz, 3)), (1, 2), 3):
        return Outcome("rtt-conjugation", eq_text, True)
    kk = compose(embed(kappa.K, (2, 3), 3), k12)
    for a, b in product(range(n), repeat=2):
        t = FieldMatrix.from_entries(n, f, [(a, b, f.one)])
        t1 = embed(TensorOperator(n, 1, t), (1,), 3)
        m3 = embed(TensorOperator(n, 1, xy.X * t * xy.Y), (3,), 3)
        outcome = _outcome("rtt-conjugation", eq_text, [(compose(t1, kk), compose(kk, m3))])
        if not outcome.passed:
            return outcome
    raise ValueError("rtt-conjugation fails for X, but no matrix unit shows it: Y is not X^-1")


# ---------------------------------------------------------------------------
# Orchestration


def full_verification(sys_or_r):
    """Run the complete ordered pipeline and aggregate the outcomes.

    Accepts a ready RMatrixSystem, or a bare arity-2 operator whose nu is
    then detected; either way nu is detected once, and the `nu-detect`
    outcome compares that value with the nu verified against.  Each derived
    object is formed once per verdict: W = (q - R)(q^-1 + R), which nu and
    K are read off, K with its rank, and Psi, C, D with Tr_2(D_2 R^-1).
    Structural errors (no skew inverse, rank != 1, XY != I) short-circuit
    into a partial result whose `aborted` field names the reason; ordinary
    failures, including a failed K^2 = mu K, are reported as failed
    outcomes and the pipeline continues.
    """
    if isinstance(sys_or_r, RMatrixSystem):
        sys = sys_or_r
        w_op = _w_operator(sys.R)
        try:
            detected = detect_nu(sys.R, w_op)
        except NotBMWSpectralType:
            detected = None
    else:
        w_op = _w_operator(sys_or_r)
        detected = detect_nu(sys_or_r, w_op)
        sys = RMatrixSystem(sys_or_r, detected)
    f = sys.field
    derived = {
        "N": sys.N,
        "nu": sys.nu,
        "mu": None,
        "trace_C": None,
        "trace_D": None,
        "epsilon": None,
        "rank_K": None,
        "X_diag": None,
    }
    yang_baxter = check_yang_baxter(sys)
    outcomes = [yang_baxter]

    def result(reason=None):
        return VerificationResult(outcomes, derived, reason, sys)

    passed = detected is not None and detected == sys.nu
    outcomes.append(
        Outcome(
            "nu-detect",
            "detected contraction eigenvalue equals the supplied nu",
            passed,
            None if passed or detected is None else ((), (), detected),
        )
    )

    kappa, kappa_outcome = _kappa_raw(sys, w_op)
    del w_op  # W, and the view detect_nu read, are not needed past K
    outcomes.append(kappa_outcome)
    outcomes.append(check_kappa_inverse_form(sys, kappa))
    derived["mu"] = kappa.mu

    outcomes.extend(check_bmw_relations(sys, kappa, yang_baxter))
    outcomes.append(check_minimal_cubic(sys, kappa))

    try:
        skew = skew_inverse(sys)
    except NotSkewInvertible as exc:
        return result(f"NotSkewInvertible: {exc}")
    outcomes.extend(skew.outcomes)
    derived["trace_C"] = skew.C.mat.trace()
    derived["trace_D"] = skew.D.mat.trace()

    outcomes.extend(check_prop1(sys, skew))

    theorem_outcomes, rank_k = theorem_suite(sys, skew, kappa)
    outcomes.extend(theorem_outcomes)
    derived["rank_K"] = rank_k

    try:
        pair = factor_pairings(kappa)
    except RankNotOne as exc:
        return result(f"RankNotOne: {exc}")
    outcomes.append(check_pairing_factorization(kappa, pair))

    xy, xy_outcomes = _xy_outcomes(pair, f)
    outcomes.extend(xy_outcomes)
    if xy is None:
        return result("ReciprocityViolation: XY differs from the identity")
    derived["epsilon"] = xy.epsilon
    diag = _diagonal_of(xy.X, f)
    derived["X_diag"] = diag

    outcomes.append(rtt_lemma(kappa, xy))
    return result()


def _diagonal_of(x, f):
    """Diagonal entries when the matrix is diagonal, else None."""
    for r, row in x.rows.items():
        for c in row:
            if r != c:
                return None
    return [x.get(i, i) for i in range(x.dim)]
