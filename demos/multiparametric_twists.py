"""Diagonal multiparametric twists: deform a standard family while keeping
every BMW relation, and watch the X matrix pick up a non-scalar diagonal.

Run with:  python demos/multiparametric_twists.py
"""

from bmwcert import (
    SYMBOLIC,
    TwistSpec,
    build_F,
    build_multiparametric,
    build_standard,
    check_twist_compat,
    factor_pairings,
    full_verification,
    kappa_of,
    parse,
    twist_r,
    twisted_expected,
    validate_twist,
    xy_matrices,
)

F = SYMBOLIC
q = F.q
one = F.one

# For N = 2 every nonzero parameter array is admissible.  This one rescales
# the v1 (x) v2 leg by q.
spec = TwistSpec(((one, q), (one, one)))
validity = validate_twist(spec)
print("twist conditions: u =", [str(v) for v in validity.u],
      " w =", [str(v) for v in validity.w],
      " constant =", validity.constant)

sp2 = build_standard("sp", 2)
f_op = build_F(spec)
print("compatibility with sp_2:", check_twist_compat(sp2.R, f_op).passed)

# Two independent routes to the twisted matrix: conjugation by the twisting
# operator, and the closed-form entry pattern.  They must agree exactly;
# build_multiparametric builds the closed form only, so compare here.
generic = twist_r(sp2, f_op)
closed = build_multiparametric("sp", 2, spec)
print("closed form equals the generic twist:", closed.R == generic.R)
print("nu is preserved:", closed.nu == sp2.nu)

result = full_verification(closed)
print("twisted sp_2 certification:", result.status)

# The pairings now carry the twist parameters and X is no longer scalar.
xy = xy_matrices(factor_pairings(kappa_of(closed)), F)
print("X diagonal:", [str(xy.X.get(i, i)) for i in range(2)])
print("epsilon:", xy.epsilon)
pair, x_expected = twisted_expected("sp", 2, spec)
print("matches diag(d_i'i / d_ii'):", xy.X == x_expected)

print()
# A four-dimensional example with q-power parameters.  The exponents come
# from products x_i y_j where both vectors have constant pair sums, which is
# exactly what the twist conditions ask for.
rows = [
    ["q", "1", "q", "1"],
    ["q^2", "1", "q^2", "1"],
    ["q^-1", "1", "q^-1", "1"],
    ["1", "1", "1", "1"],
]
spec4 = TwistSpec(tuple(tuple(parse(c) for c in row) for row in rows))
so4 = build_multiparametric("so", 4, spec4)
res4 = full_verification(so4)
print("twisted so_4 certification:", res4.status)
print("X diagonal:", [str(v) for v in res4.derived["X_diag"]])
det = one
for v in res4.derived["X_diag"]:
    det = det * v
print("det X =", det)
