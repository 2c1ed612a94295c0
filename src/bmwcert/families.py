"""Standard orthogonal and symplectic R-matrix families and their
diagonal multiparametric twists.

The standard family on matrix units e_ij (sending v_j to v_i) is

    R = sum_ij q^(d_ij - d_ij') e_ij (x) e_ji
        + lam * sum_{j<i} e_jj (x) e_ii
        - lam * sum_{j<i} q^(rho_i - rho_j) eps_i eps_j e_i'j (x) e_ij'

with i' = N+1-i, rho antisymmetric under i -> i', eps all +1 for the
orthogonal series and eps_i = -eps_i' = +1 (i <= N/2) for the symplectic
one.  Builders only build: the verification pipeline certifies what they
return, and the frozen tables of the test suite pin their index conventions.
"""

from .core import Outcome, RMatrixSystem, PairingPair, _outcome
from .errors import BadDimension, InvalidTwistParameters, Singular
from .scalars import SYMBOLIC, Scalar
from .tensors import (
    FieldMatrix,
    TensorOperator,
    compose,
    embed,
    row_supports,
)

# Flag carried into reports for symplectic families: the eigenvalue exponent
# is stated differently depending on whether N counts the dimension or the
# rank, and the two readings disagree numerically.
SP_NU_NOTE = (
    "sp_N contraction eigenvalue: detected nu = -q^-(N+1) with N the dimension "
    "of V; conventions quoting -q^(-1-2N) use N for the rank N/2. The detected "
    "value is authoritative here and the -q^(-1-2N) reading with N the "
    "dimension contradicts the spectrum."
)


def _rho_s_exponents(series, N):
    if series == "so":
        if N % 2:
            n = N // 2
            return list(range(2 * n - 1, 0, -2)) + [0] + list(range(-1, -2 * n - 1, -2))
        n = N // 2
        return list(range(2 * n - 2, -1, -2)) + list(range(0, -2 * n + 1, -2))
    n = N // 2
    return list(range(2 * n, 0, -2)) + list(range(-2, -2 * n - 2, -2))


def family_spec(series, N):
    """(rho, signs) for so_N (N >= 2) or sp_N (N even >= 2): rho as
    monomials q^rho_i, signs in {+1, -1}."""
    if series not in ("so", "sp"):
        raise BadDimension(f"unknown series {series!r}, expected 'so' or 'sp'")
    if N < 2:
        raise BadDimension(f"need N >= 2, got {N}")
    if series == "sp" and N % 2:
        raise BadDimension(f"sp requires even N, got {N}")
    rho = tuple(Scalar.s_power(e) for e in _rho_s_exponents(series, N))
    if series == "so":
        signs = (1,) * N
    else:
        signs = tuple(1 if i <= N // 2 else -1 for i in range(1, N + 1))
    return rho, signs


def standard_matrix(series, N, field=SYMBOLIC, d=None):
    """The raw R-matrix over `field`, without any self-check.  Given d, the
    N x N tuple of twist parameters in `field`, the closed-form
    multiparametric matrix: the permutation part dressed with d_ij/d_ji and
    the projector part with d_i'i/d_jj'."""
    rho, signs = family_spec(series, N)
    lam = field.lam
    q = field.q
    rho = [field.lift(r) for r in rho]
    entries = []
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            jp = N + 1 - j
            e = (1 if i == j else 0) - (1 if i == jp else 0)
            coeff = q**e
            if d is not None:
                coeff = coeff * d[i - 1][j - 1] / d[j - 1][i - 1]
            entries.append(((i, j), (j, i), coeff))
    for i in range(2, N + 1):
        for j in range(1, i):
            entries.append(((j, i), (j, i), lam))
    for i in range(2, N + 1):
        for j in range(1, i):
            ip = N + 1 - i
            jp = N + 1 - j
            coeff = lam * (rho[i - 1] / rho[j - 1])
            if d is not None:
                coeff = coeff * (d[ip - 1][i - 1] / d[j - 1][jp - 1])
            if signs[i - 1] * signs[j - 1] == 1:
                coeff = field.zero - coeff
            entries.append(((ip, i), (j, jp), coeff))
    return TensorOperator.from_entries(N, 2, field, entries)


def family_nu(series, N, field=SYMBOLIC):
    """The contraction eigenvalue of the family: q^(1-N) for so_N and
    -q^-(N+1) for sp_N (see SP_NU_NOTE)."""
    if series == "so":
        return field.q ** (1 - N)
    return field.zero - field.q ** -(N + 1)


def build_standard(series, N):
    """Standard family system with nu = family_nu(series, N), uncertified:
    full_verification certifies it.

    Each call builds a fresh system: a verdict writes nothing into the
    system, but leaves embeddings on its operators, so a shared one would
    keep them.
    """
    return RMatrixSystem(standard_matrix(series, N), family_nu(series, N))


# ---------------------------------------------------------------------------
# Twists


def validate_twist(d):
    """Check the compatibility conditions of a diagonal twist, the N x N
    tuple of tuples d.

    u_j := d_1j d_1'j and w_i := d_i1 d_i1' must reproduce every product
    d_ij d_i'j and d_ij d_ij'.  Then u_i u_i' = (d_1i d_1i')(d_Ni d_Ni') =
    w_1 w_N and w_i w_i' = (d_i1 d_i'1)(d_iN d_i'N) = u_1 u_N, so both are
    the one constant u_1 u_N, which needs no check of its own.  Raises
    InvalidTwistParameters naming the first violated condition.
    """
    n = len(d)
    for i in range(n):
        if len(d[i]) != n:
            raise InvalidTwistParameters(f"row {i + 1} has {len(d[i])} entries, expected {n}")
        for j in range(n):
            if not d[i][j]:
                raise InvalidTwistParameters(f"d[{i + 1}][{j + 1}] = 0")
    u = tuple(d[0][j] * d[n - 1][j] for j in range(n))
    w = tuple(d[i][0] * d[i][n - 1] for i in range(n))
    for i in range(n):
        for j in range(n):
            if d[i][j] * d[n - 1 - i][j] != u[j]:
                raise InvalidTwistParameters(
                    f"d[{i + 1}][{j + 1}] d[{n - i}][{j + 1}] != u[{j + 1}]"
                )
            if d[i][j] * d[i][n - 1 - j] != w[i]:
                raise InvalidTwistParameters(
                    f"d[{i + 1}][{j + 1}] d[{i + 1}][{n - j}] != w[{i + 1}]"
                )


def build_F(d, field=SYMBOLIC):
    """The twisting operator F with P F = sum d_ij e_ii (x) e_jj, i.e.
    F(v_i (x) v_j) = d_ij v_j (x) v_i.  d must have passed
    validate_twist."""
    n = len(d)
    entries = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries.append(((j, i), (i, j), d[i - 1][j - 1]))
    return TensorOperator.from_entries(n, 2, field, entries)


_COMPAT_EQUATION = "R12 F23 F12 = F23 F12 R23 and F12 F23 R12 = R23 F12 F23"


def check_twist_compat(r, f_op):
    """Both compatibility equalities between R and F on three factors.

    F e_(i,j) = d_ij e_(j,i) sends e_(a,b,c) under M = F23 F12 to
    d_ab d_ac e_(b,c,a) and under M' = F12 F23 to d_ac d_bc e_(c,a,b).  So
    R12 M = M R23 iff d_ab d_ac = d_ax d_ay, and M' R12 = R23 M' iff
    d_xa d_ya = d_ba d_ca, for every label a and every nonzero
    R[(x,y),(b,c)]: with u(i,j) = (d_ai d_aj)_a and w(i,j) = (d_ia d_ja)_a,
    u and w agree on every such row and column pair.  When F has build_F's
    shape that decides; the three-site products are formed only when it
    does not, or when a condition fails, for the witness.
    """
    N = f_op.N
    d = {inp: v for (out, inp), v in f_op.items() if out == inp[::-1]}
    if (r.N, r.arity, f_op.arity) == (N, 2, 2) and len(d) == N * N == f_op.mat.nnz():
        supports = row_supports(r)
        labels = range(1, N + 1)
        u, w = {}, {}  # u(j,i) = u(i,j) and w(j,i) = w(i,j): each is formed once
        for i, j in {*supports, *(col for cols in supports.values() for col in cols)}:
            if (j, i) in u:
                u[i, j], w[i, j] = u[j, i], w[j, i]
            else:
                u[i, j] = tuple(d[a, i] * d[a, j] for a in labels)
                w[i, j] = tuple(d[i, a] * d[j, a] for a in labels)
        pairs = ((row, col) for row, cols in supports.items() for col in cols)
        if all(u[row] == u[col] and w[row] == w[col] for row, col in pairs):
            return Outcome("twist-compat", _COMPAT_EQUATION, True)
    r12 = embed(r, (1, 2), 3)
    r23 = embed(r, (2, 3), 3)
    f12 = embed(f_op, (1, 2), 3)
    f23 = embed(f_op, (2, 3), 3)
    f23f12 = compose(f23, f12)
    f12f23 = compose(f12, f23)
    return _outcome(
        "twist-compat",
        _COMPAT_EQUATION,
        [
            (compose(r12, f23f12), compose(f23f12, r23)),
            (compose(f12f23, r12), compose(r23, f12f23)),
        ],
    )


def twisted_matrix(r, f_op):
    """The generic twist (P F) R (F^-1 P) of an arity-2 operator R, F as
    build_F builds it; check_twist_compat decides whether F and R are
    compatible, which is not checked here.

    P F is the diagonal D whose entry at (i, j) is d_ij, the one entry in
    column (i, j) of F, so the twist is D R D^-1: entry (out, in) of R
    scaled by D[out] / D[in].  A missing entry, a zero d_ij, makes F
    singular and raises Singular as elimination would.
    """
    d = {inp: v for (_, inp), v in f_op.items()}
    if len(d) < f_op.N**2:
        raise Singular(f"rank {len(d)} < dim {f_op.N**2}")
    entries = [(o, i, d[o] * v / d[i]) for (o, i), v in r.items()]
    return TensorOperator.from_entries(r.N, 2, r.field, entries)


def build_multiparametric(series, N, d):
    """Closed-form multiparametric family (standard_matrix with d) with the
    family's nu, uncertified: full_verification certifies it.  Raises
    InvalidTwistParameters unless d is a valid N x N twist."""
    if len(d) != N:
        raise InvalidTwistParameters(f"twist is {len(d)} x {len(d)}, family needs {N}")
    validate_twist(d)
    return RMatrixSystem(standard_matrix(series, N, d=d), family_nu(series, N))


def pairings_match_up_to_gauge(found, closed):
    """True when found = (c g, c^-1 gbar) against the closed forms for one
    nonzero scalar c."""
    key = min(closed.g)
    if key not in found.g:
        return False
    c = found.g[key] / closed.g[key]
    return (
        found.g == {k: c * v for k, v in closed.g.items()}
        and {k: v * c for k, v in found.gbar.items()} == closed.gbar
    )


def twisted_expected(series, N, d, field=SYMBOLIC):
    """Closed-form twisted pairings gbar_ij = delta_ij' eps_i q^-rho_i d_ii',
    g^ij = delta^ij' eps_i' q^-rho_i d_ii'^-1, and X = diag(d_i'i / d_ii'),
    over `field`, which the twist parameters d belong to.

    Returns (PairingPair, X); the pipeline's factorization agrees up to one
    gauge scalar and its X agrees exactly.  d must have passed
    validate_twist.
    """
    rho, signs = family_spec(series, N)
    f = field
    g = {}
    gbar = {}
    x = FieldMatrix(N, f)
    for i in range(1, N + 1):
        ip = N + 1 - i
        inv_rho = f.lift(rho[i - 1].inverse())
        dv = d[i - 1][ip - 1]
        gb = inv_rho * dv
        gv = inv_rho / dv
        gbar[(i, ip)] = gb if signs[i - 1] == 1 else f.zero - gb
        g[(i, ip)] = gv if signs[ip - 1] == 1 else f.zero - gv
        x._add_entry(i - 1, i - 1, d[ip - 1][i - 1] / d[i - 1][ip - 1])
    return PairingPair(N=N, g=g, gbar=gbar), x
