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
conjugation lemma for commuting-entry matrices against K_23 K_12.  That
lemma needs rank(K) = 1 and is decided on N x N data: with
M[a, f] = sum_k K[(a,k),(k,f)], which is Gbar G for every gauge of the
pairings, it holds exactly when M X is a scalar matrix.  Its witness, built
only when the lemma fails, reads Y as X^-1, which xy-inverse checks first.

Derived quantities are verified, not solved for: R^-1, Psi and the
factorization K = gbar g^T are formed in closed form from the paper's own
identities and accepted only after an exact check by products
(_closed_form_r_inv, _psi_candidate, _rank_one_pairing).  When K has rank
one, the K-bordered relations are decided on N rows of the N^3.
Elimination and the full three-site products run only when a candidate or
a restricted check fails, and a failure's witness always comes from the
full residual, so outcomes do not depend on which path decided them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from itertools import product

from .errors import (
    NotBMWSpectralType,
    NotSkewInvertible,
    RankNotOne,
    ShapeMismatch,
    Singular,
)
from .scalars import Scalar, is_unit_sign
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
    realign,
    restrict_rows,
    row_supports,
    scale,
    solve_multi_rhs,
    sub,
)

# ---------------------------------------------------------------------------
# Data records


def excluded_nus(field):
    """The values nu must avoid, each with its name: 0, q and -q^-1."""
    return (("0", field.zero), ("q", field.q), ("-q^-1", field.zero - field.one / field.q))


class RMatrixSystem:
    """An invertible operator on V x V together with its contraction
    eigenvalue nu; the unit of verification.

    nu must avoid {0, q, -q^-1}, which also keeps the loop value mu nonzero.
    Building a system composes nothing: R^-1 is set by full_verification
    when the closed form of kappa-inverse-form checks out, and is otherwise
    eliminated on first read, which raises Singular for a singular R.
    """

    __slots__ = ("N", "R", "nu", "_r_inv")

    def __init__(self, R, nu):
        if R.arity != 2:
            raise ShapeMismatch(f"an R-matrix has arity 2, got {R.arity}")
        if any(nu == e for _, e in excluded_nus(R.field)):
            raise ValueError(f"nu = {nu} lies in the excluded set {{0, q, -q^-1}}")
        self.N = R.N
        self.R = R
        self.nu = nu
        self._r_inv = None

    @property
    def field(self):
        return self.R.field

    @property
    def R_inv(self):
        if self._r_inv is None:
            self._r_inv = TensorOperator(self.N, 2, inverse(self.R.mat))
        return self._r_inv


@dataclass
class KappaData:
    """The contraction operator K with its loop value mu (K^2 = mu K), and
    the operator R it was formed from.

    `pairing` is the pivot factorization of K (see factor_pairings) when
    K == gbar g^T, which holds exactly when rank(K) = 1, and None otherwise;
    `rank` is eliminated only when that comparison fails.  `rk` and `kr` are
    the products R K and K R, which the closed-form R^-1, bmw-rk and
    minimal-cubic share.  Each is formed once, on first use.
    """

    K: TensorOperator
    mu: object
    R: TensorOperator | None = None

    @cached_property
    def pairing(self):
        return _rank_one_pairing(self.K)

    @cached_property
    def rank(self):
        return 1 if self.pairing is not None else rank(self.K.mat)

    @cached_property
    def rk(self):
        return compose(self.R, self.K)

    @cached_property
    def kr(self):
        return compose(self.K, self.R)


@dataclass
class SkewData:
    """Skew inverse Psi of R with its partial traces C and D, both arity-1
    operators, so the checks that embed them share one embedding each, and
    Tr_2(D_2 R_12^-1), which cd-commute and d-rinv-trace compare against."""

    Psi: TensorOperator
    C: TensorOperator
    D: TensorOperator
    outcomes: list = dc_field(default_factory=list)
    d_rinv_trace: FieldMatrix | None = None


@dataclass
class PairingPair:
    """Bilinear pairings read off the rank-one contraction operator.

    g and gbar map 1-based index pairs to field elements; pivot records the
    (out, in) entry of K that fixed the normalization.
    """

    N: int
    g: dict
    gbar: dict
    pivot: tuple | None = None


@dataclass
class XYPair:
    """The mutually inverse contractions of g with gbar, plus the sign of
    the palindromic symmetry of char(X): row j, column i of X is
    sum_k g^ik gbar_kj, and row i, column j of Y is sum_k gbar_ik g^kj."""

    X: FieldMatrix
    Y: FieldMatrix
    epsilon: int
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
    witness: tuple | None = None


@dataclass
class VerificationResult:
    """The record of one verdict: the ordered outcomes, the RMatrixSystem
    they were verified against, and the K, skew inverse, pairings and X/Y
    the pipeline formed, each None when the pipeline stopped before it.
    aborted carries the reason when a structural error cut it short."""

    outcomes: list
    system: RMatrixSystem
    aborted: str | None = None
    kappa: KappaData | None = None
    skew: SkewData | None = None
    pairing: PairingPair | None = None
    xy: XYPair | None = None

    @property
    def status(self):
        if self.aborted:
            return "aborted"
        return "pass" if all(o.passed for o in self.outcomes) else "fail"

    @property
    def derived(self):
        """The values a report prints, read off the record.  rank_K is set
        with the skew inverse, since theorem_suite runs right after it."""
        skew, xy = self.skew, self.xy
        return {
            "N": self.system.N,
            "nu": self.system.nu,
            "mu": None if self.kappa is None else self.kappa.mu,
            "trace_C": None if skew is None else skew.C.mat.trace(),
            "trace_D": None if skew is None else skew.D.mat.trace(),
            "epsilon": None if xy is None else xy.epsilon,
            "rank_K": None if skew is None else self.kappa.rank,
            "X_diag": None if xy is None else _diagonal_of(xy.X),
        }


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
    if w_op is None:
        w_op = _w_operator(R)
    if not w_op.mat.rows:
        raise NotBMWSpectralType("(q - R)(q^-1 + R) vanishes identically")
    col0 = min(c for row in w_op.mat.rows.values() for c in row)
    v = w_op.mat.column(col0)
    rv = R.mat.apply_to_column(v)
    r0 = min(v)
    nu = rv[r0] / v[r0] if r0 in rv else f.zero
    if rv != {k: nu * x for k, x in v.items() if nu}:
        raise NotBMWSpectralType("candidate column is not an eigenvector")
    if any(nu == e for _, e in excluded_nus(f)):
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
    return KappaData(kappa, mu, sys.R), outcome


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


def _closed_form_r_inv(sys, kappa):
    """The candidate R^-1 = R - lam I + lam K of kappa-inverse-form, or None
    when it is not R^-1.

    K = (lam nu)^-1 (q - R)(q^-1 + R) says R^2 - lam R = I - lam nu K, so
    R (R - lam I + lam K) = I + lam (R K - nu K): the candidate is R^-1
    exactly when R K = nu K, which the product R K of bmw-rk decides.
    """
    f = sys.field
    k = kappa.K
    if kappa.rk != scale(sys.nu, k):
        return None
    return add(sub(sys.R, scale(f.lam, TensorOperator.identity(sys.N, 2, f))), scale(f.lam, k))


def check_kappa_inverse_form(sys, kappa):
    """The second defining expression of K: lam^-1 (R^-1 - R + lam I).

    Decided as lam K = R^-1 - R + lam I, which scales by lam, not by 1/lam,
    so both sides keep the flat form.  The residual K - lam^-1 (...) is
    lam^-1 times that of the scaled identity, so a failure's witness is the
    first nonzero entry of the latter divided by lam.
    """
    f = sys.field
    ident = TensorOperator.identity(sys.N, 2, f)
    eq_text = "K = lam^-1 (R^-1 - R + lam I)"
    lam_k = scale(f.lam, kappa.K)
    rhs = add(sub(sys.R_inv, sys.R), scale(f.lam, ident))
    if lam_k == rhs:
        return Outcome("kappa-inverse-form", eq_text, True)
    out, inp, v = is_zero(sub(lam_k, rhs))[1]
    return Outcome("kappa-inverse-form", eq_text, False, (out, inp, v / f.lam))


def check_bmw_relations(sys, kappa, yang_baxter):
    """The quotient relations tying R and K, embedded on three factors.

    The braid relation is the Yang-Baxter equation again, so it reuses
    `yang_baxter`, the outcome of check_yang_baxter(sys).  The five
    K-bordered relations have K_1 or K_2 as the leftmost factor of both
    sides.  When K = gbar g^T (kappa.pairing), gbar being 1 at the pivot row
    p of K, row (a, b, c) of K_23 is gbar_bc times row (a, p) and row
    (a, b, c) of K_12 is gbar_ab times row (p, c).  So those relations hold
    exactly when the N rows (a, p) of each side, respectively (p, c), agree,
    and only these rows are formed.  A failure is decided again on the full
    products, which give its witness.
    """
    f = sys.field
    nu = sys.nu
    r, k = sys.R, kappa.K
    ident2 = TensorOperator.identity(sys.N, 2, f)
    nu_k = scale(nu, k)
    k1 = embed(k, (1, 2), 3)
    k2 = embed(k, (2, 3), 3)
    braid = Outcome(
        "bmw-braid", yang_baxter.equation, yang_baxter.passed, yang_baxter.witness
    )
    head = [
        braid,
        _outcome(
            "bmw-cubic",
            "R^2 = I + lambda (R - nu K)",
            [(compose(r, r), add(ident2, scale(f.lam, sub(r, nu_k))))],
        ),
        _outcome("bmw-rk", "R K = K R = nu K", [(kappa.rk, nu_k), (kappa.kr, nu_k)]),
    ]
    pair = kappa.pairing
    if pair is not None:
        n = sys.N
        r0 = multi_to_linear(pair.pivot[0], n)
        k1_rows = restrict_rows(k1, range(r0 * n, r0 * n + n))
        k2_rows = restrict_rows(k2, range(r0, n**3, n * n))
        bordered = _k_bordered(sys, k1, k2, k1_rows, k2_rows)
        if all(o.passed for o in bordered):
            return head + bordered
        full = _k_bordered(sys, k1, k2, k1, k2)
        return head + [o if o.passed else w for o, w in zip(bordered, full)]
    return head + _k_bordered(sys, k1, k2, k1, k2)


def _k_bordered(sys, k1, k2, k1_left, k2_left):
    """Outcomes of the five K-bordered relations, with k1_left and k2_left,
    K_1 and K_2 or some of their rows, as the leftmost factor of each side.
    The three-site products that several relations share are formed once."""
    f = sys.field
    nu = sys.nu
    nu_inv = f.one / nu
    r1 = embed(sys.R, (1, 2), 3)
    r2 = embed(sys.R, (2, 3), 3)
    ri1 = embed(sys.R_inv, (1, 2), 3)
    ri2 = embed(sys.R_inv, (2, 3), 3)
    k2r1 = compose(k2_left, r1)
    k2ri1 = compose(k2_left, ri1)
    k2k1 = compose(k2_left, k1)
    k1k2 = compose(k1_left, k2)
    k1r2 = compose(k1_left, r2)
    k1ri2 = compose(k1_left, ri2)
    return [
        _outcome(
            "bmw-k2rk2",
            "K2 R1 K2 = nu^-1 K2 and K2 R1^-1 K2 = nu K2",
            [
                (compose(k2r1, k2), scale(nu_inv, k2_left)),
                (compose(k2ri1, k2), scale(nu, k2_left)),
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
            [(compose(k1k2, k1), k1_left), (compose(k2k1, k2), k2_left)],
        ),
        _outcome(
            "bmw-k1rk1",
            "K1 R2 K1 = nu^-1 K1 and K1 R2^-1 K1 = nu K1",
            [
                (compose(k1r2, k1), scale(nu_inv, k1_left)),
                (compose(k1ri2, k1), scale(nu, k1_left)),
            ],
        ),
    ]


def check_minimal_cubic(sys, kappa):
    """(R - q)(R + q^-1) is exactly -lam nu K, so the cubic is
    -lam nu (K R - nu K) and reuses the product K R of bmw-rk."""
    f = sys.field
    k = kappa.K
    prod = scale(f.zero - f.lam * sys.nu, sub(kappa.kr, scale(sys.nu, k)))
    zero = scale(f.zero, k)
    return _outcome("minimal-cubic", "(R - q)(R + q^-1)(R - nu) = 0", [(prod, zero)])


# ---------------------------------------------------------------------------
# Skew inverse


def _psi_candidate(sys, kappa):
    """The closed-form skew inverse Psi_12 = nu^-2 D'_1 (R^-1)_21 C'_2 with
    C' = nu Tr_1 K and D' = nu Tr_2 K, or None unless rank(K) = 1.

    psi-c-left, C_1 Psi_12 = R_21^-1 C_2, with D C = nu^2 I gives Psi; when
    rank(K) = 1, C' and D' are the C and D that kappa-trace1 and
    kappa-trace2 state.
    """
    if kappa is None or kappa.pairing is None:
        return None
    nu = sys.nu
    c = scale(nu, partial_trace(kappa.K, 1))
    d = scale(nu, partial_trace(kappa.K, 2))
    dr = compose(embed(d, (1,), 2), embed(sys.R_inv, (2, 1), 2))
    return scale(sys.field.one / (nu * nu), compose(dr, embed(c, (2,), 2)))


def skew_inverse(sys, kappa=None):
    """The skew inverse Psi: Tr_2(R_12 Psi_23) = Tr_2(Psi_12 R_23) = P_13.

    In entries the defining system reads, for all a, e, c, g:
        sum_{b, bp} R[(a,b),(e,bp)] Psi[(bp,c),(b,g)] = delta(a,g) delta(c,e)
    which is M_R S_Psi = P, where S_X is realign(X), M_X = S_X P, and P is
    the transposition of V x V: one N^2 x N^2 coefficient matrix shared by
    N^2 right-hand sides.  Tr_2(Psi_12 R_23) = P_13 reads M_Psi S_R = P, and
    follows: M_R S_Psi = P says S_R (P S_Psi P) = I, and a one-sided inverse
    of a square matrix is two-sided, so S_Psi P S_R = P.

    Psi, when it exists, is the unique solution.  Given kappa with
    rank(K) = 1, the closed form of _psi_candidate is taken when
    M_R S_Psi = P holds for it, which proves M_R nonsingular, so it is the
    solution elimination would find.  Only otherwise is the system solved,
    and the solution is checked by the same product.  The Psi returned thus
    always satisfies both defining equalities, and check_skew verifies the
    two contractions of C and D against R.
    """
    n = sys.N
    swap = permutation_op(n, 2, 1, 2, sys.field)
    m_r = compose(realign(sys.R), swap)
    psi = _psi_candidate(sys, kappa)
    if psi is None or compose(m_r, realign(psi)) != swap:
        try:
            sol = solve_multi_rhs(m_r.mat, swap.mat)
        except Singular as exc:
            raise NotSkewInvertible(f"the reshuffled {n * n} x {n * n} system is singular") from exc
        psi = realign(TensorOperator(n, 2, sol))
        if compose(m_r, realign(psi)) != swap:
            raise RuntimeError("the solved skew inverse fails M_R S_Psi = P")
    skew = SkewData(psi, partial_trace(psi, 1), partial_trace(psi, 2))
    skew.outcomes = check_skew(sys, skew)
    skew.d_rinv_trace = partial_trace(compose(embed(skew.D, (2,), 2), sys.R_inv), 2).mat
    return skew


def check_skew(sys, skew):
    """Outcomes for the defining equalities of Psi and the contractions of
    C = Tr_1 Psi and D = Tr_2 Psi against R.

    skew_inverse returns only a Psi with M_R S_Psi = P, so skew-left and
    skew-right hold.  The contractions follow from them, and are still
    formed and compared:
    - skew-right in entries is sum_{b,y} Psi[(a,b),(e,y)] R[(y,c),(b,g)] =
      delta(a,g) delta(c,e); summed over a = e it is
      sum_{b,y} C[b,y] R[(y,c),(b,g)] = delta(c,g), which is
      Tr_1(C_1 R_12) = I;
    - skew-left summed over c = g is sum_{b,y} R[(a,b),(e,y)] D[y,b] =
      delta(a,e), which is Tr_2(R_12 D_2) = I, and by cyclicity of Tr_2
      Tr_2(D_2 R_12) = I.
    """
    f = sys.field
    n = sys.N
    c1 = embed(skew.C, (1,), 2)
    d2 = embed(skew.D, (2,), 2)
    ident1 = TensorOperator.identity(n, 1, f)
    return [
        Outcome("skew-left", "Tr_2(R_12 Psi_23) = P_13", True),
        Outcome("skew-right", "Tr_2(Psi_12 R_23) = P_13", True),
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
    informative failures rather than crashes.
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
    return [
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
    if kappa.rank != 1:
        raise RankNotOne(f"rank(K) = {kappa.rank}, expected 1")
    # A rank-one K equals the gbar g^T read off its pivot, so kappa.rank is
    # 1 only when that comparison set kappa.pairing.
    return kappa.pairing


def _pivot_pairing(k_op):
    """g and gbar read off a nonzero K at its first nonzero entry, as
    factor_pairings describes, whatever the rank of K."""
    m = k_op.mat
    n = k_op.N
    (r0, c0), pivot_val = next(iter(m.items()))
    g = {linear_to_multi(col, n, 2): v for col, v in sorted(m.rows[r0].items())}
    gbar = {}
    for row in sorted(m.rows):
        rowdict = m.rows[row]
        if c0 in rowdict:
            gbar[linear_to_multi(row, n, 2)] = rowdict[c0] / pivot_val
    return PairingPair(
        N=n,
        g=g,
        gbar=gbar,
        pivot=(linear_to_multi(r0, n, 2), linear_to_multi(c0, n, 2)),
    )


def _rank_one_pairing(k_op):
    """The pivot pairing of K when K == gbar g^T, which holds exactly when
    rank(K) = 1; else None.  Every nonzero row of gbar g^T has the columns
    of g, so a K whose rows differ in support, or K = 0, is turned down
    before a field element is read."""
    if len(set(row_supports(k_op).values())) != 1:
        return None
    pair = _pivot_pairing(k_op)
    return pair if k_op == _outer(pair, k_op.field) else None


def _outer(pair, f):
    """gbar g^T: the operator with entry gbar[out] g[in] at (out, in)."""
    outer = [(ob, ig, bv * gv) for ob, bv in pair.gbar.items() for ig, gv in pair.g.items()]
    return TensorOperator.from_entries(pair.N, 2, f, outer)


def check_pairing_factorization(kappa, pair):
    """Entrywise K[out, in] = gbar[out] g[in], and sum_ij g^ij gbar_ij = mu."""
    f = kappa.K.field
    total = f.zero
    for idx, gv in pair.g.items():
        if idx in pair.gbar:
            total = total + gv * pair.gbar[idx]
    return _outcome(
        "pairing-factorization",
        "K[out, in] = gbar[out] g[in], sum g gbar = mu",
        [(total, kappa.mu), (kappa.K, _outer(pair, f))],
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
    # XY = I gives (det X)(det Y) = 1, and det X = det(G Gbar) =
    # det(Gbar G) = det Y, so C_N = det X is +-1 here.
    coeffs = char_poly(x)
    eps = is_unit_sign(coeffs[n])
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


def rtt_lemma(kappa, xy):
    """For every matrix unit T: T_1 K_23 K_12 = K_23 K_12 (X T X^-1)_3;
    linearity extends the check to every commuting-entry matrix.

    K must have rank one; RankNotOne is raised otherwise.  Then
    K = gbar g^T, and K_23 K_12 has the entry gbar_bc g_de M[a, f] at
    ((a,b,c),(d,e,f)), where M[a, f] = sum_k K[(a,k),(k,f)] is (Gbar G)_af
    for every gauge of the pairings.  So the rule reads T M X = M X T for
    every T: it holds exactly when the N x N matrix M X is scalar.  Only
    when the rule fails is a witness built: the first nonzero residual
    T_1 KK - KK (X T Y)_3, KK = K_23 K_12, over the matrix units e_ab in
    row-major order.  The witness needs Y = X^-1, which xy-inverse
    establishes before the pipeline runs this check.
    """
    if kappa.rank != 1:
        raise RankNotOne(f"rank(K) = {kappa.rank}, expected 1")
    f = kappa.K.field
    n = kappa.K.N
    eq_text = "T_1 K_23 K_12 = K_23 K_12 (X T X^-1)_3 for all matrix units T"
    m = []
    for r, row in kappa.K.mat.rows.items():
        a, k = divmod(r, n)
        m.extend((a, c % n, v) for c, v in row.items() if c // n == k)
    mx = FieldMatrix.from_entries(n, f, m) * xy.X
    if mx == FieldMatrix.identity(n, f).scaled_by(mx.get(0, 0)):
        return Outcome("rtt-conjugation", eq_text, True)
    kk = compose(embed(kappa.K, (2, 3), 3), embed(kappa.K, (1, 2), 3))
    for a, b in product(range(n), repeat=2):
        t = FieldMatrix.from_entries(n, f, [(a, b, f.one)])
        t1 = embed(TensorOperator(n, 1, t), (1,), 3)
        m3 = embed(TensorOperator(n, 1, xy.X * t * xy.Y), (3,), 3)
        outcome = _outcome("rtt-conjugation", eq_text, [(compose(t1, kk), compose(kk, m3))])
        if not outcome.passed:
            return outcome
    raise RuntimeError("rtt-conjugation fails for X, but no matrix unit shows it: Y is not X^-1")


# ---------------------------------------------------------------------------
# Orchestration


def full_verification(sys_or_r):
    """Run the complete ordered pipeline and aggregate the outcomes.

    Accepts a ready RMatrixSystem, or a bare arity-2 operator whose nu is
    then detected; either way nu is detected once, and the `nu-detect`
    outcome compares that value with the nu verified against.  Each derived
    object is formed once per verdict: W = (q - R)(q^-1 + R), which nu and
    K are read off, K with its rank, R^-1, and Psi, C, D with
    Tr_2(D_2 R^-1).  R^-1 is kept on the system: the closed form when
    R K = nu K, else eliminated on first read.
    The result records K, the skew inverse, the pairings and X/Y as each
    is formed.  Structural errors (no skew inverse, rank != 1, XY != I)
    short-circuit into a partial result whose `aborted` field names the
    reason; ordinary failures, including a failed K^2 = mu K, are reported
    as failed outcomes and the pipeline continues.
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
    yang_baxter = check_yang_baxter(sys)
    passed = detected is not None and detected == sys.nu
    nu_outcome = Outcome(
        "nu-detect",
        "detected contraction eigenvalue equals the supplied nu",
        passed,
        None if passed or detected is None else ((), (), detected),
    )
    kappa, kappa_outcome = _kappa_raw(sys, w_op)
    del w_op  # W, and the view detect_nu read, are not needed past K
    result = VerificationResult([yang_baxter, nu_outcome, kappa_outcome], sys, kappa=kappa)
    outcomes = result.outcomes
    if sys._r_inv is None:
        sys._r_inv = _closed_form_r_inv(sys, kappa)
    outcomes.append(check_kappa_inverse_form(sys, kappa))

    outcomes.extend(check_bmw_relations(sys, kappa, yang_baxter))
    outcomes.append(check_minimal_cubic(sys, kappa))

    try:
        result.skew = skew = skew_inverse(sys, kappa)
    except NotSkewInvertible as exc:
        result.aborted = f"NotSkewInvertible: {exc}"
        return result
    outcomes.extend(skew.outcomes)
    outcomes.extend(check_prop1(sys, skew))
    outcomes.extend(theorem_suite(sys, skew, kappa))

    try:
        result.pairing = pair = factor_pairings(kappa)
    except RankNotOne as exc:
        result.aborted = f"RankNotOne: {exc}"
        return result
    outcomes.append(check_pairing_factorization(kappa, pair))

    xy, xy_outcomes = _xy_outcomes(pair, sys.field)
    outcomes.extend(xy_outcomes)
    if xy is None:
        result.aborted = "ReciprocityViolation: XY differs from the identity"
        return result
    result.xy = xy

    outcomes.append(rtt_lemma(kappa, xy))
    return result


def _diagonal_of(x):
    """Diagonal entries when the matrix is diagonal, else None."""
    if any(c != r for r, row in x.rows.items() for c in row):
        return None
    return [x.get(i, i) for i in range(x.dim)]


# ---------------------------------------------------------------------------
# Transport


def _clear_denominators(cells, N, field):
    """The rounds of diagonal_gauge on [out, inp, value] cells, in place;
    True when every cell is Laurent within 4N rounds."""
    to_flat = field.to_flat
    for _ in range(4 * N):
        bad = next((cell for cell in cells if to_flat(cell[2]) is None), None)
        if bad is None:
            return True
        out, inp, v = bad
        x = next((x for x in inp if inp.count(x) > out.count(x)), None)
        if x is None:  # no diagonal gauge moves this entry
            return False
        den = Scalar(v.den, field.one.num)
        for cell in cells:
            k = cell[1].count(x) - cell[0].count(x)
            if k:
                cell[2] = cell[2] * den**k
    return all(to_flat(cell[2]) is not None for cell in cells)


def diagonal_gauge(R):
    """A Laurent R0 = (D (x) D)^-1 R (D (x) D) with D diagonal, or None,
    found from the entries alone: R0[(k,l),(i,j)] = R[(k,l),(i,j)] d_i d_j
    / (d_k d_l), and each of at most 4N rounds multiplies d_x by the
    denominator of the first entry (row-major) that is not Laurent, x an
    index found more often among its input than its output labels.  A
    second pass runs on R0 and W / lam, W = (q - R0)(q^-1 + R0), since lam
    can cancel a denominator of R0 that K = W / (lam nu) keeps.  None at
    once for an operator with a flat form: every numeric operator and family.

    A verdict on R0 is a verdict on R: every identity is covariant under
    R -> G R G^-1, G = D (x) D, and K, Psi, C, D and X move by diagonal
    similarity.  So a report prints the same nu, mu (read off nu), tr C,
    tr D, rank K, eps (from char X) and X_diag (a diagonal similarity keeps
    the diagonal, and keeps X diagonal or not).  A residual entry scales by
    d_out / d_in, so a caller keeps only a passing verdict on R0.
    """
    if R._flat is not None:
        return None
    N, f = R.N, R.field
    cells = [[*cell, v] for cell, v in R.items()]
    if not _clear_denominators(cells, N, f):
        return None
    r0 = TensorOperator.from_entries(N, 2, f, cells)
    w = scale(f.one / f.lam, _w_operator(r0))
    if w._flat is None and _clear_denominators(cells + [[*cell, v] for cell, v in w.items()], N, f):
        r0 = TensorOperator.from_entries(N, 2, f, cells)
    return r0
