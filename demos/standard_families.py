"""Build the standard orthogonal and symplectic R-matrices and read off
their basic data: the contraction eigenvalue nu, the loop value mu, and the
closed-form bilinear pairings.

Run with:  python demos/standard_families.py
"""

from bmwcert import (
    FieldMatrix,
    SYMBOLIC,
    TwistSpec,
    build_standard,
    full_verification,
    skew_inverse,
    twisted_expected,
)

F = SYMBOLIC

# The so_3 R-matrix acts on a 9-dimensional space but has only 14 nonzero
# entries; every coefficient is an exact element of Q(q^(1/2)).
so3 = build_standard("so", 3)
print("so_3 R-matrix, nonzero entries:")
for (out, inp), value in so3.R.items():
    print(f"  v{inp[0]} (x) v{inp[1]}  ->  v{out[0]} (x) v{out[1]}   coeff {value}")

print()
print("nu =", so3.nu)

# K = lambda^-1 nu^-1 (q - R)(q^-1 + R) squares to mu K; mu is the loop
# value of the associated link invariant.  The verdict records K.
kappa = full_verification(so3).kappa
print("mu =", kappa.mu)

# The skew inverse Psi gives the C and D matrices; their traces equal nu mu.
skew = skew_inverse(so3)
print("Tr C =", skew.C.mat.trace())
print("Tr D =", skew.D.mat.trace())

print()
# The closed-form pairings are antidiagonal with q^-rho weights; the induced
# X matrix is the identity for every untwisted family, the twist with every
# d_ij = 1.
pair, x = twisted_expected("so", 3, TwistSpec(((F.one,) * 3,) * 3))
print("closed-form pairings for so_3:")
print("  g    =", {k: str(v) for k, v in sorted(pair.g.items())})
print("  gbar =", {k: str(v) for k, v in sorted(pair.gbar.items())})
print("  X is the identity:", x == FieldMatrix.identity(3, F))

print()
# Same story for sp_2, where the signs make mu negative.
sp2 = build_standard("sp", 2)
print("sp_2: nu =", sp2.nu, " mu =", full_verification(sp2).kappa.mu)
