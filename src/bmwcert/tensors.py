"""Sparse exact linear algebra for operators on tensor powers of V.

Matrices are stored row-major as nested dicts {row: {col: value}} holding no
zeros; row = output index, column = input index.  Multi-indices over n tensor
factors with labels 1..N linearize as r = sum((parts_k - 1) * N^(n-k)), the
first factor being the most significant digit.

Values are immutable by convention: an operator must not be mutated after
construction.  Every operation returns a fresh object except `embed`, which
keeps each embedding on the operator it came from and returns that shared
object on a repeated call, so one verdict embeds each operator only once.
Concurrent callers stay safe: a race at worst computes one embedding twice.

Elimination uses a fraction-free scheme: rows are cleared of denominators up
front, updates cross-multiply against the pivot, and every updated row is
divided by its common content.  Pivots are chosen deterministically (fewest
nonzeros, then lowest row index), so results never depend on scheduling.
"""

from __future__ import annotations

from itertools import product

from .errors import BadPositions, ShapeMismatch, Singular


# ---------------------------------------------------------------------------
# Multi-index plumbing


def multi_to_linear(parts, N):
    r = 0
    for p in parts:
        r = r * N + (p - 1)
    return r


def linear_to_multi(r, N, n):
    parts = [0] * n
    for k in range(n - 1, -1, -1):
        parts[k] = r % N + 1
        r //= N
    return tuple(parts)


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

    def column(self, c):
        out = {}
        for r, row in self.rows.items():
            if c in row:
                out[r] = row[c]
        return out

    def apply_to_column(self, col):
        """Matrix times a sparse column vector {row: value}."""
        out = {}
        for r, row in self.rows.items():
            acc = None
            for k, a in row.items():
                if k in col:
                    t = a * col[k]
                    acc = t if acc is None else acc + t
            if acc:
                out[r] = acc
        return out

    def map_entries(self, fn, field):
        out = {}
        for r, row in self.rows.items():
            new = {}
            for c, v in row.items():
                w = fn(v)
                if w:
                    new[c] = w
            if new:
                out[r] = new
        return FieldMatrix(self.dim, field, out)


def _minus_one(field):
    return field.zero - field.one


# ---------------------------------------------------------------------------
# Tensor operators


class TensorOperator:
    """An operator on V^(x n), V of dimension N, stored as a FieldMatrix."""

    __slots__ = ("N", "arity", "mat", "_embedded")

    def __init__(self, N, arity, mat):
        if mat.dim != N**arity:
            raise ShapeMismatch(f"matrix dim {mat.dim} != {N}^{arity}")
        self.N = N
        self.arity = arity
        self.mat = mat
        # embed's results, keyed by (positions, n); lives as long as self.
        self._embedded = {}

    @property
    def field(self):
        return self.mat.field

    @classmethod
    def from_entries(cls, N, arity, field, entries):
        """entries: iterable of (out_parts, in_parts, value) with 1-based labels."""
        m = FieldMatrix(N**arity, field)
        for out, inp, v in entries:
            m._add_entry(multi_to_linear(out, N), multi_to_linear(inp, N), v)
        return cls(N, arity, m)

    @classmethod
    def identity(cls, N, arity, field):
        return cls(N, arity, FieldMatrix.identity(N**arity, field))

    def entry(self, out, inp):
        return self.mat.get(multi_to_linear(out, self.N), multi_to_linear(inp, self.N))

    def items(self):
        """Iterate ((out_parts, in_parts), value) in row-major order."""
        N, n = self.N, self.arity
        for (r, c), v in self.mat.items():
            yield (linear_to_multi(r, N, n), linear_to_multi(c, N, n)), v

    def __eq__(self, other):
        if not isinstance(other, TensorOperator):
            return NotImplemented
        return self.N == other.N and self.arity == other.arity and self.mat == other.mat

    def map_entries(self, fn, field):
        return TensorOperator(self.N, self.arity, self.mat.map_entries(fn, field))


def _check_same_shape(a, b):
    if a.N != b.N or a.arity != b.arity:
        raise ShapeMismatch(
            f"operators on different spaces: N={a.N},n={a.arity} vs N={b.N},n={b.arity}"
        )


def compose(a, b):
    """Operator product a then-after b (matrix product a * b)."""
    _check_same_shape(a, b)
    return TensorOperator(a.N, a.arity, a.mat * b.mat)


def add(a, b):
    _check_same_shape(a, b)
    return TensorOperator(a.N, a.arity, a.mat + b.mat)


def sub(a, b):
    _check_same_shape(a, b)
    return TensorOperator(a.N, a.arity, a.mat - b.mat)


def scale(c, a):
    return TensorOperator(a.N, a.arity, a.mat.scaled_by(c))


def is_zero(a):
    """(True, None) or (False, (out_parts, in_parts, value)) for the first
    nonzero entry in row-major order."""
    zero, wit = a.mat.is_zero_with_witness()
    if zero:
        return True, None
    r, c, v = wit
    return False, (linear_to_multi(r, a.N, a.arity), linear_to_multi(c, a.N, a.arity), v)


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
    N = op.N
    others = [p for p in range(1, n + 1) if p not in positions]
    out_m = FieldMatrix(N**n, op.field)
    labels = list(range(1, N + 1))
    for (out_p, in_p), v in op.items():
        base_out = [0] * n
        base_in = [0] * n
        for k, p in enumerate(positions):
            base_out[p - 1] = out_p[k]
            base_in[p - 1] = in_p[k]
        for combo in product(labels, repeat=len(others)):
            for p, lab in zip(others, combo):
                base_out[p - 1] = lab
                base_in[p - 1] = lab
            out_m._add_entry(multi_to_linear(base_out, N), multi_to_linear(base_in, N), v)
    result = op._embedded[(positions, n)] = TensorOperator(N, n, out_m)
    return result


def partial_trace(op, space):
    """Contract the in/out indices of one tensor factor."""
    n = op.arity
    if n < 2:
        raise BadPositions("partial trace needs arity >= 2")
    if not 1 <= space <= n:
        raise BadPositions(f"space {space} outside 1..{n}")
    N = op.N
    k = space - 1
    out_m = FieldMatrix(N ** (n - 1), op.field)
    for (out_p, in_p), v in op.items():
        if out_p[k] != in_p[k]:
            continue
        ro = out_p[:k] + out_p[k + 1 :]
        ri = in_p[:k] + in_p[k + 1 :]
        out_m._add_entry(multi_to_linear(ro, N), multi_to_linear(ri, N), v)
    return TensorOperator(N, n - 1, out_m)


def permutation_op(N, n, k, l, field):
    """The transposition of factors k and l of V^(x n)."""
    if not (1 <= k < l <= n):
        raise BadPositions(f"need 1 <= k < l <= n, got k={k}, l={l}, n={n}")
    one = field.one
    m = FieldMatrix(N**n, field)
    for parts in product(range(1, N + 1), repeat=n):
        swapped = list(parts)
        swapped[k - 1], swapped[l - 1] = swapped[l - 1], swapped[k - 1]
        m._add_entry(multi_to_linear(swapped, N), multi_to_linear(parts, N), one)
    return TensorOperator(N, n, m)


# ---------------------------------------------------------------------------
# Elimination kernels


def _prepare_rows(m, extra=None):
    """Working rows for elimination: cleared of denominators and content.

    extra, if given, is a second matrix whose columns ride along shifted by
    m.dim (augmented system).
    """
    field = m.field
    rows = []
    for r in range(m.dim):
        row = dict(m.rows.get(r, {}))
        if extra is not None:
            for c, v in extra.rows.get(r, {}).items():
                row[m.dim + c] = v
        if row:
            row = field.strip_row_content(row)
        rows.append(row)
    return rows


def _eliminate(rows, pivot_cols, field):
    """Fraction-free forward elimination in place.

    Returns the list of (pivot_col, row_index) in elimination order.  Pivot
    choice: among rows with a nonzero in the column, fewest nonzeros wins,
    ties broken by lowest current position.
    """
    pivots = []
    nrows = len(rows)
    next_row = 0
    for col in pivot_cols:
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
        piv = rows[next_row]
        pv = piv[col]
        for i in range(next_row + 1, nrows):
            row = rows[i]
            if col not in row:
                continue
            f = row.pop(col)
            new = {}
            for c, v in row.items():
                new[c] = v * pv
            for c, v in piv.items():
                if c == col:
                    continue
                t = f * v
                cur = new.get(c)
                if cur is None:
                    new[c] = field.zero - t
                else:
                    cur = cur - t
                    if cur:
                        new[c] = cur
                    else:
                        del new[c]
            rows[i] = field.strip_row_content(new) if new else new
        pivots.append((col, next_row))
        next_row += 1
    return pivots


def rank(m):
    """Rank over the coefficient field, computed exactly."""
    rows = [r for r in _prepare_rows(m) if r]
    pivots = _eliminate(rows, range(m.dim), m.field)
    return len(pivots)


def solve_multi_rhs(a, b):
    """Solve a * x = b for square a, returning x; raises Singular."""
    if a.dim != b.dim:
        raise ShapeMismatch(f"dim {a.dim} vs {b.dim}")
    field = a.field
    dim = a.dim
    rows = _prepare_rows(a, extra=b)
    pivots = _eliminate(rows, range(dim), field)
    if len(pivots) != dim:
        raise Singular(f"rank {len(pivots)} < dim {dim}")
    # Back substitution over the field; pivots[k] = (col k, row k).
    x = FieldMatrix(dim, field)
    for k in range(dim - 1, -1, -1):
        col, _ = pivots[k]
        row = rows[k]
        pv = row[col]
        rhs = {}

        def acc(cc, delta):
            cur = rhs.get(cc)
            cur = delta if cur is None else cur + delta
            if cur:
                rhs[cc] = cur
            else:
                rhs.pop(cc, None)

        for c, v in row.items():
            if c >= dim:
                acc(c - dim, v)
            elif c != col:
                xr = x.rows.get(c)
                if xr:
                    for cc, xv in xr.items():
                        acc(cc, field.zero - v * xv)
        sol = {}
        for cc, v in rhs.items():
            w = v / pv
            if w:
                sol[cc] = w
        if sol:
            x.rows[col] = sol
    return x


def inverse(m):
    """Exact inverse; raises Singular if the matrix is not invertible."""
    return solve_multi_rhs(m, FieldMatrix.identity(m.dim, m.field))


def char_poly(m):
    """Coefficients (C_0, ..., C_dim) with det(xI - m) = sum (-1)^k C_k x^(dim-k).

    With this sign convention C_k is the k-th elementary symmetric function
    of the eigenvalues; C_0 = 1 and C_dim = det(m).  Faddeev-LeVerrier
    recurrence; the integer divisions are exact in characteristic zero.
    Intended for small matrices (dimension N, not N^2).
    """
    field = m.field
    n = m.dim
    cs = [field.one]
    mk = m
    ident = FieldMatrix.identity(n, field)
    for k in range(1, n + 1):
        ck = (field.zero - mk.trace()) / field.from_int(k)
        cs.append(ck)
        if k < n:
            mk = m * (mk + ident.scaled_by(ck))
    return [c if k % 2 == 0 else field.zero - c for k, c in enumerate(cs)]
