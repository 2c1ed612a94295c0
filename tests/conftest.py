"""Shared fixtures: hand-derived matrices frozen as independent oracles.

The so_3 and sp_2 tables below were expanded by hand from the closed-form
family definition (matrix units e_ij send v_j to v_i, collisions between the
diagonal and the projector part summed manually).  They must never be
regenerated from the builders they are meant to check.
"""

import json
from fractions import Fraction

import pytest

from bmwcert import (
    SYMBOLIC,
    Scalar,
    TensorOperator,
    compose,
    embed,
    export_family,
    inverse,
    parse,
)

F = SYMBOLIC

# so_3: 14 nonzero entries, including the lambda*(1 - q^-1) collision cell
# and the two -lambda*q^(-1/2) cells coupling v2 (x) v2 with v1 (x) v3.
SO3_TABLE = {
    ((1, 1), (1, 1)): "q",
    ((1, 2), (2, 1)): "1",
    ((1, 3), (3, 1)): "q^-1",
    ((2, 1), (1, 2)): "1",
    ((2, 2), (2, 2)): "1",
    ((2, 3), (3, 2)): "1",
    ((3, 1), (1, 3)): "q^-1",
    ((3, 2), (2, 3)): "1",
    ((3, 3), (3, 3)): "q",
    ((1, 2), (1, 2)): "q - q^-1",
    ((1, 3), (1, 3)): "(q - q^-1)*(1 - q^-1)",
    ((2, 3), (2, 3)): "q - q^-1",
    ((2, 2), (1, 3)): "-(q - q^-1)*q^(-1/2)",
    ((1, 3), (2, 2)): "-(q - q^-1)*q^(-1/2)",
}

# sp_2: the lambda cell picks up +lambda*q^-2 from the projector part.
SP2_TABLE = {
    ((1, 1), (1, 1)): "q",
    ((2, 2), (2, 2)): "q",
    ((1, 2), (2, 1)): "q^-1",
    ((2, 1), (1, 2)): "q^-1",
    ((1, 2), (1, 2)): "(q - q^-1)*(1 + q^-2)",
}

# A q-power twist for so_4 satisfying the compatibility conditions; built
# from exponents a_ij = x_i y_j with x = (1, 2, -1, 0), y = (1, 0, 1, 0),
# both having constant pair sums, which makes u_j = q^(y_j), w_i = q^(x_i)
# and u_i u_i' = w_i w_i' = q.  Its X = diag(1, q^-2, q^2, 1) is non-scalar.
SO4_TWIST_TEXT = [
    ["q", "1", "q", "1"],
    ["q^2", "1", "q^2", "1"],
    ["q^-1", "1", "q^-1", "1"],
    ["1", "1", "1", "1"],
]

SP2_TWIST_TEXT = [["1", "q"], ["1", "1"]]

# Grammar text whose every power is within the bit bound, but whose sum or
# product is not: each takes seconds to parse unless it is refused at the
# operator that forms the oversized value.
OVERSIZED_SUM = "+".join(f"1/((q+{i})^30+1)" for i in range(1, 21))
OVERSIZED_PRODUCT = "*".join(["(q+1)^84"] * 40)


def operator_from_table(table, n):
    return TensorOperator.from_entries(
        n, 2, F, [(out, inp, parse(text)) for (out, inp), text in table.items()]
    )


def twist_from_text(rows):
    """The N x N twist tuple of the grammar text rows."""
    return tuple(tuple(parse(c) for c in row) for row in rows)


def change_of_basis(r, a):
    """(A (x) A) R (A (x) A)^-1 for an arity-2 R and an N x N FieldMatrix A;
    it keeps every BMW identity and nu, and takes X to A X A^-1."""
    n = r.N
    a1 = TensorOperator(n, 1, a)
    a1_inv = TensorOperator(n, 1, inverse(a))
    aa = compose(embed(a1, (1,), 2), embed(a1, (2,), 2))
    aa_inv = compose(embed(a1_inv, (1,), 2), embed(a1_inv, (2,), 2))
    return compose(aa, compose(r, aa_inv))


def powers_taken(monkeypatch):
    """The exponents of every Scalar power taken from now on, in order."""
    taken = []
    power = Scalar.__pow__

    def spy(value, k):
        taken.append(k)
        return power(value, k)

    monkeypatch.setattr(Scalar, "__pow__", spy)
    return taken


def so3_file_without_nu(tmp_path):
    """The exported so_3 file with its nu removed, so verify detects nu."""
    path = tmp_path / "so3.json"
    export_family("so", 3, None, str(path))
    doc = json.loads(path.read_text())
    del doc["nu"]
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="session")
def so3_frozen():
    return operator_from_table(SO3_TABLE, 3)


@pytest.fixture(scope="session")
def sp2_frozen():
    return operator_from_table(SP2_TABLE, 2)


@pytest.fixture(scope="session")
def so4_twist():
    return twist_from_text(SO4_TWIST_TEXT)


@pytest.fixture(scope="session")
def sp2_twist():
    return twist_from_text(SP2_TWIST_TEXT)


def sc(text):
    return parse(text)


def frac(a, b=1):
    return Fraction(a, b)


def int_sc(n):
    return Scalar.from_int(n)
