"""Sparse exact linear algebra for operators on tensor powers of V.

Row = output index, column = input index.  Multi-indices over n tensor
factors with labels 1..N linearize as r = sum((parts_k - 1) * N^(n-k)), the
first factor being the most significant digit.  Only this module computes
linear indices: callers read and build operators by label tuples, which
items, from_entries and row_supports map through one cached table per (N, n)
in layout order.

An operator has a flat integer form exactly when every entry is a Laurent
polynomial in s, which in the numeric field is every operator: one positive
denominator shared by the whole operator, and rows of integer terms keyed
by (exponent of s, column).  compose (Gustavson's row-by-row product), add,
sub, scale and == work on that form with int arithmetic only, and none of
them reduces it to lowest terms: == cross-multiplies when the denominators
differ, and the `mat` view reduces each entry.  An operator
with an entry whose denominator is not a power of s, as a file, a twist
cell or a scaling by 1/lam can give, has none and takes the FieldMatrix
path.  embed, partial_trace, realign, restrict_rows and row_supports have
one key kernel each, over both forms: an operator without a flat form gives
its FieldMatrix rows over a unit denominator, keyed by plain columns, and
its result goes back through the constructor, flat if it is Laurent.
`TensorOperator.mat`, the FieldMatrix of canonical field elements, is a view
built from the flat form on first read and kept; elimination, is_zero's
witnesses and reports read it.

A FieldMatrix is stored row-major as nested dicts {row: {col: value}} of
field elements holding no zeros.  It carries elimination, char_poly, X and Y,
and the operators without a flat form.

Values are immutable by convention: an operator must not be mutated after
construction.  Every operation returns a fresh object except `embed`, which
keeps each embedding on the operator it came from and returns that shared
object on a repeated call, so one verdict embeds each operator only once.
Concurrent callers stay safe: a race at worst computes one embedding or one
view twice.

Elimination is one Gauss-Jordan pass over the coefficient field: each pivot
row is divided by its pivot, then clears its column in every other row.
Field arithmetic keeps every entry reduced, so rows need no clearing of
denominators or content.  The rank counts the pivots; a solution row is its
pivot row's right-hand part.  Pivots are chosen deterministically (fewest
nonzeros, then lowest row index), so results never depend on scheduling.
"""

from functools import cache
from itertools import product
from math import gcd

from .errors import BadPositions, ShapeMismatch, Singular


# ---------------------------------------------------------------------------
# Multi-index plumbing


@cache
def _labels(N, n):
    """The label tuples over n factors in layout order: entry r labels index r."""
    return tuple(product(range(1, N + 1), repeat=n))


@cache
def _index(N, n):
    """{label: linear index} over n factors, the inverse of _labels."""
    return {parts: r for r, parts in enumerate(_labels(N, n))}


# ---------------------------------------------------------------------------
# Matrices


class FieldMatrix:
    """Square sparse matrix over a coefficient field."""

    __slots__ = ("dim", "rows", "field")

    def __init__(self, dim, field, rows=None):
        self.dim = dim
        self.field = field
        self.rows = rows if rows is not None else {}

    @classmethod
    def identity(cls, dim, field):
        one = field.one
        return cls(dim, field, {i: {i: one} for i in range(dim)})

    @classmethod
    def from_entries(cls, dim, field, entries):
        """entries: iterable of (row, col, value); repeated cells accumulate."""
        m = cls(dim, field)
        for r, c, v in entries:
            m._add_entry(r, c, v)
        return m

    def _add_entry(self, r, c, v):
        if not v:
            return
        row = self.rows.setdefault(r, {})
        new = row[c] + v if c in row else v
        if new:
            row[c] = new
        else:
            del row[c]
            if not row:
                del self.rows[r]

    def get(self, r, c):
        return self.rows.get(r, {}).get(c, self.field.zero)

    def items(self):
        """Iterate ((row, col), value) in row-major order."""
        for r in sorted(self.rows):
            row = self.rows[r]
            for c in sorted(row):
                yield (r, c), row[c]

    def nnz(self):
        return sum(len(row) for row in self.rows.values())

    def __mul__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ShapeMismatch(f"dim {self.dim} vs {other.dim}")
        out = {}
        orows = other.rows
        for r, row in self.rows.items():
            acc = {}
            for k, a in row.items():
                brow = orows.get(k)
                if not brow:
                    continue
                for c, b in brow.items():
                    v = a * b
                    cur = acc.get(c)
                    if cur is None:
                        acc[c] = v
                    else:
                        cur = cur + v
                        if cur:
                            acc[c] = cur
                        else:
                            del acc[c]
            if acc:
                out[r] = acc
        return FieldMatrix(self.dim, self.field, out)

    def __add__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise ShapeMismatch(f"dim {self.dim} vs {other.dim}")
        out = {r: dict(row) for r, row in self.rows.items()}
        m = FieldMatrix(self.dim, self.field, out)
        for r, row in other.rows.items():
            for c, v in row.items():
                m._add_entry(r, c, v)
        return m

    def __sub__(self, other):
        return self + other.scaled_by(_minus_one(self.field))

    def scaled_by(self, c):
        if not c:
            return FieldMatrix(self.dim, self.field)
        return FieldMatrix(
            self.dim,
            self.field,
            {r: {k: c * v for k, v in row.items()} for r, row in self.rows.items()},
        )

    def trace(self):
        t = self.field.zero
        for r, row in self.rows.items():
            if r in row:
                t = t + row[r]
        return t

    def is_zero_with_witness(self):
        """(True, None) if zero, else (False, (row, col, value)) row-major."""
        for (r, c), v in self.items():
            return False, (r, c, v)
        return True, None

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows


def _minus_one(field):
    return field.zero - field.one


# ---------------------------------------------------------------------------
# The flat integer form
#
# An operator whose entries are all Laurent polynomials in s is held as
# 1/den times integer terms: rows {row: {key: int}}, where each key packs an
# exponent of s above a column as (exp << bits) + col, bits being the bit
# length of the operator's dimension.  So col = key & ((1 << bits) - 1) and
# exp = key >> bits, of any size and sign, and adding e << bits to a key
# multiplies its term by s^e.  In the numeric field every exponent is 0 and
# a key is its column.  den > 0 and no zero is stored, so equal operators
# have equal keys.  The form is not kept in lowest terms, which would cost a
# gcd over every coefficient per operation; _flat_equal compares values.


class _Flat:
    __slots__ = ("den", "rows", "bits")

    def __init__(self, den, rows, bits):
        self.den = den
        self.rows = rows
        self.bits = bits


def _pruned(den, rows, bits):
    """_Flat of den and rows, with zero values and empty rows dropped."""
    out = {}
    for r, row in rows.items():
        if not all(row.values()):
            row = {k: v for k, v in row.items() if v}
        if row:
            out[r] = row
    return _Flat(den, out, bits)


def _flatten(m):
    """The flat form of a FieldMatrix, or None when an entry is not Laurent."""
    to_flat = m.field.to_flat
    bits = m.dim.bit_length()
    den = 1
    parts = []
    for r, row in m.rows.items():
        for c, v in row.items():
            split = to_flat(v)
            if split is None:
                return None
            d, terms = split
            if d != 1:
                den = den // gcd(den, d) * d
            parts.append((r, c, d, terms))
    rows = {}
    for r, c, d, terms in parts:
        f = den // d
        row = rows.setdefault(r, {})
        for e, x in terms.items():
            row[(e << bits) + c] = x * f
    return _Flat(den, rows, bits)


def _unflatten(flat, dim, field):
    """The FieldMatrix of canonical field elements that flat stands for."""
    from_flat = field.from_flat
    den = flat.den
    bits = flat.bits
    mask = (1 << bits) - 1
    rows = {}
    for r, row in flat.rows.items():
        cols = {}
        for k, v in row.items():
            terms = cols.get(k & mask)
            if terms is None:
                terms = cols[k & mask] = {}
            terms[k >> bits] = v
        rows[r] = {c: from_flat(terms, den) for c, terms in cols.items()}
    return FieldMatrix(dim, field, rows)


def _flat_product(a, b):
    """Gustavson's row-by-row product: a key of b shifted by the exponent
    bits of a's key is the key of the product term."""
    brows = b.rows
    mask = (1 << a.bits) - 1
    out = {}
    for r, row in a.rows.items():
        acc = {}
        get = acc.get
        for key, x in row.items():
            c = key & mask
            brow = brows.get(c)
            if brow is None:
                continue
            e = key - c
            for bkey, y in brow.items():
                k = bkey + e
                acc[k] = get(k, 0) + x * y
        if not all(acc.values()):
            acc = {k: v for k, v in acc.items() if v}
        if acc:
            out[r] = acc
    return _Flat(a.den * b.den, out, a.bits)


def _flat_sum(a, b, sign):
    """a + sign * b over the least common denominator."""
    g = gcd(a.den, b.den)
    fa = b.den // g
    fb = a.den // g * sign
    rows = {r: {k: v * fa for k, v in row.items()} for r, row in a.rows.items()}
    for r, row in b.rows.items():
        acc = rows.get(r)
        if acc is None:
            rows[r] = {k: v * fb for k, v in row.items()}
            continue
        get = acc.get
        for k, v in row.items():
            acc[k] = get(k, 0) + v * fb
    return _pruned(a.den * fa, rows, a.bits)


def _flat_equal(a, b):
    """Whether a and b stand for one operator.  Over one den equal values
    have equal terms; otherwise each term is compared cross-multiplied by
    the other den over gcd(a.den, b.den)."""
    if a.den == b.den:
        return a.rows == b.rows
    brows = b.rows
    if a.rows.keys() != brows.keys():
        return False
    g = gcd(a.den, b.den)
    fa = b.den // g
    fb = a.den // g
    for r, row in a.rows.items():
        brow = brows[r]
        if row.keys() != brow.keys():
            return False
        for k, v in row.items():
            if v * fa != brow[k] * fb:
                return False
    return True


def _flat_scale(cden, cterms, a):
    """sum_e c_e s^e / cden times a.  By a monomial c s^e each key shifts by
    e and each value is multiplied by c, which makes a zero only when c is
    zero, and then the operator is empty."""
    bits = a.bits
    if len(cterms) == 1:
        [(e, x)] = cterms.items()
        e <<= bits
        rows = {r: {k + e: v * x for k, v in row.items()} for r, row in a.rows.items()} if x else {}
        return _Flat(a.den * cden, rows, bits)
    rows = {}
    for r, row in a.rows.items():
        acc = {}
        get = acc.get
        for e, x in cterms.items():
            e <<= bits
            for k, v in row.items():
                k += e
                acc[k] = get(k, 0) + x * v
        rows[r] = acc
    return _pruned(a.den * cden, rows, bits)


def _flat_embed(a, N, positions, n):
    """Embedding of the key rows of an arity-m operator: each index of a
    moves to its place among n factors, and every label of the other factors
    adds the same offset to row and column."""

    def offsets(factors):
        # Offset of every label tuple of `factors`, first factor most
        # significant, as _labels orders them.
        out = [0]
        for p in factors:
            w = N ** (n - p)
            out = [o + d * w for o in out for d in range(N)]
        return out

    place = offsets(positions)
    others = offsets(p for p in range(1, n + 1) if p not in positions)
    bits = a.bits
    mask = (1 << bits) - 1
    nbits = (N**n).bit_length()
    rows = {}
    for r, row in a.rows.items():
        base = {((k >> bits) << nbits) + place[k & mask]: v for k, v in row.items()}
        pr = place[r]
        for off in others:
            rows[pr + off] = {k + off: v for k, v in base.items()}
    return _Flat(a.den, rows, nbits)


def _flat_trace(a, N, n, k):
    """Contraction of factor k (0-based) of arity-n key rows."""
    w = N ** (n - 1 - k)
    digit = [(x // w) % N for x in range(N**n)]
    rest = [(x // (w * N)) * w + x % w for x in range(N**n)]
    bits = a.bits
    mask = (1 << bits) - 1
    nbits = (N ** (n - 1)).bit_length()
    rows = {}
    for r, row in a.rows.items():
        dr = digit[r]
        acc = rows.setdefault(rest[r], {})
        get = acc.get
        for key, v in row.items():
            c = key & mask
            if digit[c] == dr:
                kk = ((key >> bits) << nbits) + rest[c]
                cur = get(kk)
                acc[kk] = v if cur is None else cur + v
    return _pruned(a.den, rows, nbits)


# ---------------------------------------------------------------------------
# Tensor operators


class TensorOperator:
    """An operator on V^(x n), V of dimension N.

    Held in the flat integer form exactly when every entry is a Laurent
    polynomial, else as a FieldMatrix; `mat`, the FieldMatrix view, is built
    from the flat form on first read and kept.  The index-moving operations
    run one key kernel over either form (see _key_rows).
    """

    __slots__ = ("N", "arity", "field", "_mat", "_flat", "_embedded")

    def __init__(self, N, arity, mat):
        if mat.dim != N**arity:
            raise ShapeMismatch(f"matrix dim {mat.dim} != {N}^{arity}")
        self.N = N
        self.arity = arity
        self.field = mat.field
        self._mat = mat
        # The flat form, None when an entry is not Laurent.
        self._flat = _flatten(mat)
        # embed's results, keyed by (positions, n); lives as long as self.
        self._embedded = {}

    @classmethod
    def _of_flat(cls, N, arity, field, flat):
        op = cls.__new__(cls)
        op.N = N
        op.arity = arity
        op.field = field
        op._mat = None
        op._flat = flat
        op._embedded = {}
        return op

    @property
    def mat(self):
        if self._mat is None:
            self._mat = _unflatten(self._flat, self.N**self.arity, self.field)
        return self._mat

    @classmethod
    def from_entries(cls, N, arity, field, entries):
        """entries: iterable of (out_parts, in_parts, value), tuples of 1-based labels."""
        index = _index(N, arity)
        m = FieldMatrix(N**arity, field)
        for out, inp, v in entries:
            m._add_entry(index[out], index[inp], v)
        return cls(N, arity, m)

    @classmethod
    def identity(cls, N, arity, field):
        dim = N**arity
        rows = {i: {i: 1} for i in range(dim)}
        return cls._of_flat(N, arity, field, _Flat(1, rows, dim.bit_length()))

    def entry(self, out, inp):
        index = _index(self.N, self.arity)
        return self.mat.get(index[out], index[inp])

    def items(self):
        """Iterate ((out_parts, in_parts), value) in row-major order."""
        labels = _labels(self.N, self.arity)
        for (r, c), v in self.mat.items():
            yield (labels[r], labels[c]), v

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        if self.N != other.N or self.arity != other.arity:
            return False
        a, b = self._flat, other._flat
        if a is not None and b is not None:
            return _flat_equal(a, b)
        if a is not None or b is not None:
            # Only one has all entries Laurent.
            return False
        return self._mat == other._mat


def _check_same_shape(a, b):
    if a.N != b.N or a.arity != b.arity:
        raise ShapeMismatch(
            f"operators on different spaces: N={a.N},n={a.arity} vs N={b.N},n={b.arity}"
        )


def _like(a, flat):
    return TensorOperator._of_flat(a.N, a.arity, a.field, flat)


def _key_rows(op):
    """The input of the key kernels: op's flat form, or, when op has none,
    its FieldMatrix rows over a unit denominator, keyed by plain columns,
    which are keys of exponent 0."""
    flat = op._flat
    return flat if flat is not None else _Flat(1, op.mat.rows, op.mat.dim.bit_length())


def _of_key_rows(op, arity, out):
    """The operator on `arity` factors whose key rows a kernel gave as out
    from op's.  When op has no flat form they hold field elements and go
    through the constructor, which flattens them if they are Laurent."""
    if op._flat is not None:
        return TensorOperator._of_flat(op.N, arity, op.field, out)
    return TensorOperator(op.N, arity, FieldMatrix(op.N**arity, op.field, out.rows))


def compose(a, b):
    """Operator product a then-after b (matrix product a * b)."""
    _check_same_shape(a, b)
    fa, fb = a._flat, b._flat
    if fa is not None and fb is not None:
        return _like(a, _flat_product(fa, fb))
    return TensorOperator(a.N, a.arity, a.mat * b.mat)


def add(a, b):
    _check_same_shape(a, b)
    fa, fb = a._flat, b._flat
    if fa is not None and fb is not None:
        return _like(a, _flat_sum(fa, fb, 1))
    return TensorOperator(a.N, a.arity, a.mat + b.mat)


def sub(a, b):
    _check_same_shape(a, b)
    fa, fb = a._flat, b._flat
    if fa is not None and fb is not None:
        return _like(a, _flat_sum(fa, fb, -1))
    return TensorOperator(a.N, a.arity, a.mat - b.mat)


def scale(c, a):
    fa = a._flat
    split = a.field.to_flat(c) if fa is not None else None
    if split is not None:
        return _like(a, _flat_scale(*split, fa))
    return TensorOperator(a.N, a.arity, a.mat.scaled_by(c))


def is_zero(a):
    """(True, None) or (False, (out_parts, in_parts, value)) for the first
    nonzero entry in row-major order.

    Read from the `mat` view: checks decide equality on the flat form with
    ==, and only a failed check asks for its residual's witness.
    """
    zero, wit = a.mat.is_zero_with_witness()
    if zero:
        return True, None
    r, c, v = wit
    labels = _labels(a.N, a.arity)
    return False, (labels[r], labels[c], v)


def embed(op, positions, n):
    """Place an arity-m operator on the named factors of V^(x n).

    positions lists m distinct labels in 1..n; factor k of op acts on space
    positions[k].  The remaining factors carry the identity.  The result is
    kept on op, and a repeated call returns the same object.
    """
    positions = tuple(positions)
    cached = op._embedded.get((positions, n))
    if cached is not None:
        return cached
    if len(positions) != op.arity:
        raise BadPositions(f"{len(positions)} positions for arity {op.arity}")
    if len(set(positions)) != len(positions):
        raise BadPositions(f"repeated positions {positions}")
    if not all(1 <= p <= n for p in positions):
        raise BadPositions(f"positions {positions} outside 1..{n}")
    result = _of_key_rows(op, n, _flat_embed(_key_rows(op), op.N, positions, n))
    op._embedded[(positions, n)] = result
    return result


def partial_trace(op, space):
    """Contract the in/out indices of one tensor factor."""
    n = op.arity
    if n < 2:
        raise BadPositions("partial trace needs arity >= 2")
    if not 1 <= space <= n:
        raise BadPositions(f"space {space} outside 1..{n}")
    return _of_key_rows(op, n - 1, _flat_trace(_key_rows(op), op.N, n, space - 1))


def restrict_rows(op, rows):
    """op with every row whose label is not in `rows` set to zero.  compose works
    row by row, so compose(restrict_rows(a, rows), b) forms only those rows of a b."""
    flat = _key_rows(op)
    index = _index(op.N, op.arity)
    kept = {r: flat.rows[r] for r in (index[p] for p in rows) if r in flat.rows}
    return _of_key_rows(op, op.arity, _Flat(flat.den, kept, flat.bits))


def row_supports(op):
    """{row label: frozenset of its nonzero column labels} for every nonzero
    row, read off the keys, so a flat operator builds no field element."""
    flat = _key_rows(op)
    labels = _labels(op.N, op.arity)
    mask = (1 << flat.bits) - 1
    return {labels[r]: frozenset(labels[k & mask] for k in row) for r, row in flat.rows.items()}


def realign(op):
    """The arity-2 operator S with S[(i,k),(j,l)] = op[(i,j),(k,l)]: the
    second output index trades places with the first input index.  S is its
    own inverse, and a sum over one index of each of two arity-2 operators
    becomes a matrix product of their realignments."""
    N = op.N
    if op.arity != 2:
        raise ShapeMismatch(f"realign needs arity 2, got {op.arity}")
    flat = _key_rows(op)
    mask = (1 << flat.bits) - 1
    rows = {}
    for r, row in flat.rows.items():
        i, j = divmod(r, N)
        for key, v in row.items():
            c = key & mask
            k, l = divmod(c, N)
            rows.setdefault(i * N + k, {})[key - c + j * N + l] = v
    return _of_key_rows(op, 2, _Flat(flat.den, rows, flat.bits))


def permutation_op(N, n, k, l, field):
    """The transposition of factors k and l of V^(x n)."""
    if not (1 <= k < l <= n):
        raise BadPositions(f"need 1 <= k < l <= n, got k={k}, l={l}, n={n}")
    index = _index(N, n)
    rows = {}
    for parts, c in index.items():
        swapped = list(parts)
        swapped[k - 1], swapped[l - 1] = swapped[l - 1], swapped[k - 1]
        rows[index[tuple(swapped)]] = {c: 1}
    return TensorOperator._of_flat(N, n, field, _Flat(1, rows, (N**n).bit_length()))


# ---------------------------------------------------------------------------
# Elimination kernels


def _eliminate(m, extra=None):
    """Gauss-Jordan elimination of m, or of [m | extra] with the columns of
    extra shifted by m.dim, over the coefficient field.  Each pivot row is
    multiplied by the inverse of its pivot, then clears its column from
    every other row, above it as well as below.

    Returns the rows and the list of (pivot_col, row_index) in elimination
    order; every pivot entry is one.  Pivot choice: among the rows below the
    pivots so far with a nonzero in the column, fewest nonzeros wins, ties
    broken by lowest current position.
    """
    rows = []
    for r in range(m.dim):
        row = dict(m.rows.get(r, {}))
        if extra is not None:
            for c, v in extra.rows.get(r, {}).items():
                row[m.dim + c] = v
        if row:
            rows.append(row)
    pivots = []
    nrows = len(rows)
    next_row = 0
    for col in range(m.dim):
        best = None
        for i in range(next_row, nrows):
            if col in rows[i]:
                size = len(rows[i])
                if best is None or size < best[1]:
                    best = (i, size)
        if best is None:
            continue
        piv_i = best[0]
        rows[next_row], rows[piv_i] = rows[piv_i], rows[next_row]
        inv = m.field.one / rows[next_row][col]
        piv = rows[next_row] = {c: v * inv for c, v in rows[next_row].items()}
        for i in range(nrows):
            row = rows[i]
            if i == next_row or col not in row:
                continue
            # piv[col] is one, so the loop also drops col from the row.
            f = row[col]
            for c, v in piv.items():
                cur = row.get(c)
                if cur is None:
                    row[c] = -(f * v)
                else:
                    cur = cur - f * v
                    if cur:
                        row[c] = cur
                    else:
                        del row[c]
        pivots.append((col, next_row))
        next_row += 1
    return rows, pivots


def rank(m):
    """Rank over the coefficient field, computed exactly."""
    return len(_eliminate(m)[1])


def solve_multi_rhs(a, b):
    """Solve a * x = b for square a, returning x; raises Singular.  After
    Gauss-Jordan on [a | b], pivot row k reads x[col] = its right-hand part,
    so row col of x is that part."""
    if a.dim != b.dim:
        raise ShapeMismatch(f"dim {a.dim} vs {b.dim}")
    dim = a.dim
    rows, pivots = _eliminate(a, b)
    if len(pivots) != dim:
        raise Singular(f"rank {len(pivots)} < dim {dim}")
    x = FieldMatrix(dim, a.field)
    for col, k in pivots:
        sol = {c - dim: v for c, v in rows[k].items() if c >= dim}
        if sol:
            x.rows[col] = sol
    return x


def inverse(m):
    """Exact inverse; raises Singular if the matrix is not invertible."""
    return solve_multi_rhs(m, FieldMatrix.identity(m.dim, m.field))


def char_poly(m):
    """Coefficients (C_0, ..., C_dim) with det(xI - m) = sum (-1)^k C_k x^(dim-k).

    With this sign convention C_k is the k-th elementary symmetric function
    of the eigenvalues; C_0 = 1 and C_dim = det(m).  A triangular m has its
    diagonal as eigenvalues, det(xI - m) = prod (x - m_ii), so C_k is e_k of
    the diagonal; any other m takes the Faddeev-LeVerrier recurrence, whose
    integer divisions are exact in characteristic zero.  Intended for small
    matrices (dimension N, not N^2).
    """
    field = m.field
    n = m.dim
    cells = [(r, c) for r, row in m.rows.items() for c in row]
    if all(c <= r for r, c in cells) or all(c >= r for r, c in cells):
        cs = [field.one] + [field.zero] * n
        for i in range(n):
            t = m.get(i, i)
            if t:
                for k in range(i + 1, 0, -1):
                    cs[k] = cs[k] + t * cs[k - 1]
        return cs
    cs = [field.one]
    mk = m
    ident = FieldMatrix.identity(n, field)
    for k in range(1, n + 1):
        ck = (field.zero - mk.trace()) / field.from_int(k)
        cs.append(ck)
        if k < n:
            mk = m * (mk + ident.scaled_by(ck))
    return [c if k % 2 == 0 else field.zero - c for k, c in enumerate(cs)]
