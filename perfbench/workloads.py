"""Seeded job lists, generated input files and hand-written expected answers.

Stdlib only, and independent of the package under test: the R-matrix files
are written as coefficient-grammar text by string composition from the
closed-form family definition, and the package's own parser does all of
the canonicalisation when a job reads them.

Every workload is a fixed multiset of jobs.  The seed shuffles the order of
the jobs and draws the free parameters of the generated inputs (diagonal
gauge constants, twist exponents), but never the composition of the list:
the benchmark compares runs made with different seeds, so each seed must
ask for the same amount of work.
"""

from __future__ import annotations

import json
import os
import random

# The 35 identity checks of the plain pipeline, in report order.
PIPELINE_IDS = (
    "yang-baxter", "nu-detect", "kappa-idempotent", "kappa-inverse-form",
    "bmw-braid", "bmw-cubic", "bmw-rk", "bmw-k2rk2", "bmw-kk-rinv", "bmw-kk-rr",
    "bmw-kkk", "bmw-k1rk1", "minimal-cubic", "skew-left", "skew-right",
    "c-contraction", "d-contraction", "psi-c-left", "psi-c-right", "psi-d-left",
    "psi-d-right", "cd-commute", "kappa-rank-one", "kappa-trace2", "kappa-trace1",
    "d-rinv-trace", "cd-scalar", "d-kappa-trace1", "d-kappa-trace", "trace-c-d",
    "pairing-factorization", "xy-inverse", "charpoly-reciprocity",
    "charpoly-palindrome", "rtt-conjugation",
)
# A twisted family adds three checks before the pipeline and one after it.
TWIST_IDS = ("twist-valid", "twist-compat", "twist-closed-form") + PIPELINE_IDS + (
    "twisted-x-match",
)

# Family jobs.  N stops at 5: on a shared 2-core host, other tenants slow
# whole stretches of seconds to minutes, and symbolic jobs more than numeric
# ones.  A job's fastest pass only holds still when the job is short and a
# run holds many passes.  With so_6, sp_6 and so_7 in the list a pass took
# 1.5-3 s, and ten 60 s runs spread 0.2-0.37 of their median.
FAMILY_JOBS = (
    ("so", 3), ("so", 4), ("so", 5),
    ("sp", 2), ("sp", 4),
)
NUMERIC_AT = "3/2"

WORKLOADS = ("sym-families", "num-families")


def expect_pass(ids):
    """Expected answer of a job whose every check passes."""
    return {"code": 0, "status": "pass", "checks": {i: True for i in ids}}


def expect_control(ids, passing, status, reason):
    """Expected answer of a negative control: exit 1, only `passing` pass,
    and for an aborted run a reason starting with `reason`."""
    unknown = set(passing) - set(ids)
    if unknown:
        raise ValueError(f"unknown check ids {sorted(unknown)}")
    return {"code": 1, "status": status, "reason": reason,
            "checks": {i: i in passing for i in ids}}


# ---------------------------------------------------------------------------
# Coefficient text for the standard families


def _rho_s_exponents(series, n):
    """Exponents of s = q^(1/2) in rho_i for so_N / sp_N."""
    h = n // 2
    if series == "so":
        if n % 2:
            return list(range(2 * h - 1, 0, -2)) + [0] + list(range(-1, -2 * h - 1, -2))
        return list(range(2 * h - 2, -1, -2)) + list(range(0, -2 * h + 1, -2))
    return list(range(2 * h, 0, -2)) + list(range(-2, -2 * h - 2, -2))


def _q_power_text(e2):
    """q^(e2/2) as grammar text."""
    if e2 == 0:
        return "1"
    if e2 % 2 == 0:
        return "q" if e2 == 2 else f"q^{e2 // 2}"
    return f"q^({e2}/2)"


def family_entries(series, n):
    """{((k, l), (i, j)): text} for the standard so_N / sp_N R-matrix.

    R = sum q^(d_ij - d_ij') e_ij (x) e_ji + lam sum_{i>j} e_jj (x) e_ii
        - lam sum_{i>j} eps_i eps_j q^(rho_i - rho_j) e_i'j (x) e_ij'
    with matrix units sending v_j to v_i; colliding cells are summed as text.
    """
    rho = _rho_s_exponents(series, n)
    signs = [1] * n if series == "so" else [1 if i <= n // 2 else -1 for i in range(1, n + 1)]
    cells = {}

    def put(out, inp, text):
        cells.setdefault((out, inp), []).append(text)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            e = (1 if i == j else 0) - (1 if i == n + 1 - j else 0)
            put((i, j), (j, i), _q_power_text(2 * e))
    for i in range(2, n + 1):
        for j in range(1, i):
            put((j, i), (j, i), "(q - q^-1)")
    for i in range(2, n + 1):
        for j in range(1, i):
            sign = "-" if signs[i - 1] * signs[j - 1] == 1 else ""
            text = f"{sign}(q - q^-1)*{_q_power_text(rho[i - 1] - rho[j - 1])}"
            put((n + 1 - i, i), (j, n + 1 - j), text)
    return {cell: " + ".join(parts) for cell, parts in cells.items()}


def family_nu_text(series, n):
    return f"q^{1 - n}" if series == "so" else f"-q^{-(n + 1)}"


# ---------------------------------------------------------------------------
# Changes of basis R -> (A (x) A) R (A (x) A)^-1


def diagonal_gauge(entries, a):
    """a[i] is the grammar text of the i-th diagonal entry of A (0-based)."""
    return {
        ((k, l), (i, j)): f"({c})*({a[k - 1]})*({a[l - 1]})/(({a[i - 1]})*({a[j - 1]}))"
        for ((k, l), (i, j)), c in entries.items()
    }


def _unipotent_inverse(u):
    """Inverse of an upper unitriangular integer matrix, by back substitution."""
    n = len(u)
    inv = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for c in range(n):
        for r in range(c - 1, -1, -1):
            inv[r][c] = -sum(u[r][k] * inv[k][c] for k in range(r + 1, c + 1))
    return inv


def unipotent_gauge(entries, n, u):
    """u: upper unitriangular integer matrix.  Each output cell is written as
    an integer combination of the input cells' texts."""
    inv = _unipotent_inverse(u)
    cells = {}
    for ((k0, l0), (i0, j0)), c in entries.items():
        for k in range(1, n + 1):
            ak = u[k - 1][k0 - 1]
            if not ak:
                continue
            for l in range(1, n + 1):
                al = u[l - 1][l0 - 1]
                if not al:
                    continue
                for i in range(1, n + 1):
                    bi = inv[i0 - 1][i - 1]
                    if not bi:
                        continue
                    for j in range(1, n + 1):
                        bj = inv[j0 - 1][j - 1]
                        if not bj:
                            continue
                        cells.setdefault(((k, l), (i, j)), []).append(
                            f"({ak * al * bi * bj})*({c})"
                        )
    return {cell: " + ".join(parts) for cell, parts in cells.items()}


def write_rmatrix(path, n, entries, nu_text=None):
    doc = {"dim": n}
    if nu_text is not None:
        doc["nu"] = nu_text
    doc["entries"] = [
        {"out": list(out), "in": list(inp), "coeff": text}
        for (out, inp), text in sorted(entries.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Diagonal twists d_ij = q^(x_i y_j)


def draw_twist(rng, n):
    """Exponent vectors with constant pair sums x_i + x_i' and y_j + y_j';
    then u_j = q^(cx y_j), w_i = q^(cy x_i) and u_i u_i' = w_i w_i' = q^(cx cy),
    so the twist is valid for every draw.  Not every d_ij is 1."""
    while True:
        x = _paired_vector(rng, n)
        y = _paired_vector(rng, n)
        d = [[_q_power_text(2 * x[i] * y[j]) for j in range(n)] for i in range(n)]
        if any(v != "1" for row in d for v in row):
            return d


def _paired_vector(rng, n):
    """Integers v with v_i + v_i' the same for every pair; even n only."""
    if n % 2:
        raise ValueError("twists are drawn for even N only")
    total = rng.randint(-1, 1)
    v = [0] * n
    for i in range(n // 2):
        v[i] = rng.randint(-1, 1)
        v[n - 1 - i] = total - v[i]
    return v


def write_twist(path, d):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d": d}, fh)


# ---------------------------------------------------------------------------
# Job lists


def _job(argv, expected, files=()):
    return {"argv": argv, "expected": expected, "files": list(files)}


def _family_jobs(rng, workdir, at_s):
    jobs = []
    extra = [] if at_s is None else ["--at-s", at_s]
    for series, n in FAMILY_JOBS:
        argv = ["verify", "--family", series, "--dim", str(n), "--report", "json"] + extra
        jobs.append(_job(argv, expect_pass(PIPELINE_IDS)))
    for series, n in (("so", 4), ("sp", 2)):
        path = os.path.join(workdir, f"twist_{series}{n}.json")
        write_twist(path, draw_twist(rng, n))
        argv = ["verify", "--family", series, "--dim", str(n), "--twist", path,
                "--report", "json"] + extra
        jobs.append(_job(argv, expect_pass(TWIST_IDS), files=[("twist", path)]))
    return jobs


def _file_job(workdir, name, n, entries, nu_text, detect, expected):
    path = os.path.join(workdir, name)
    write_rmatrix(path, n, entries, nu_text)
    argv = ["verify", "--input", path, "--report", "json"]
    if detect:
        argv.append("--detect-nu")
    return _job(argv, expected, files=[("rmatrix", path)])


def _file_jobs(rng, workdir):
    """R-matrix files for the symbolic workload: a diagonal and a unipotent
    change of basis of standard families, and the negative controls."""
    jobs = []
    # A = diag(q + c_i), c a permutation of 1..N: rational entries whose
    # numerators and denominators share factors, so gcd work dominates.  The
    # permutation moves the job's time by about 4%.
    a = [f"q + {c}" for c in rng.sample(range(1, 4), 3)]
    jobs.append(_file_job(workdir, "diag_so3.json", 3, diagonal_gauge(family_entries("so", 3), a),
                          family_nu_text("so", 3), True, expect_pass(PIPELINE_IDS)))
    # A = I + e_12: polynomial entries and a dense operator.
    u = [[1, 1], [0, 1]]
    jobs.append(_file_job(workdir, "unip_sp2.json", 2, unipotent_gauge(family_entries("sp", 2), 2, u),
                          family_nu_text("sp", 2), False, expect_pass(PIPELINE_IDS)))
    jobs.extend(_negative_controls(workdir))
    return jobs


# Checks that hold for every operator, whatever its spectrum: bmw-cubic is
# the definition of K rearranged, and the skew inverse is solved from the
# four equations skew-left, skew-right, c- and d-contraction.
_ALWAYS = {"bmw-cubic", "skew-left", "skew-right", "c-contraction", "d-contraction"}


def _negative_controls(workdir):
    jobs = []
    # Raising R[(1,1),(1,1)] of so_3 from q to q^2 makes v1 (x) v1 an
    # eigenvector with eigenvalue q^2, outside {q, -q^-1, nu}: minimal-cubic
    # fails, and so does every relation that needs the spectrum.
    # K = (q - R)(q^-1 + R)/(lam nu) then has rank 2 (v1 (x) v1 joins the
    # image), so the pipeline aborts after the theorem suite.  v1 (x) v1 is
    # the first nonzero column of (q - R)(q^-1 + R), so --detect-nu picks
    # nu = q^2 and nu-detect passes.
    entries = {**family_entries("so", 3), ((1, 1), (1, 1)): "q^2"}
    jobs.append(_file_job(
        workdir, "bump_so3.json", 3, entries, family_nu_text("so", 3), True,
        expect_control(PIPELINE_IDS[:30], _ALWAYS | {"nu-detect"}, "aborted", "RankNotOne"),
    ))
    # The identity with nu = q^5 satisfies every braid-type identity and
    # nothing that involves the spectrum; it has no skew inverse, so the
    # pipeline aborts after minimal-cubic.
    ident = {((i, j), (i, j)): "1" for i in (1, 2) for j in (1, 2)}
    jobs.append(_file_job(
        workdir, "ident2.json", 2, ident, "q^5", False,
        expect_control(PIPELINE_IDS[:13], {"yang-baxter", "bmw-braid", "bmw-cubic"},
                       "aborted", "NotSkewInvertible"),
    ))
    return jobs


def build(workload, seed, workdir):
    """Write the workload's input files into workdir; return its job list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sym-families":
        jobs = _family_jobs(rng, workdir, None) + _file_jobs(rng, workdir)
    else:
        jobs = _family_jobs(rng, workdir, NUMERIC_AT)
    rng.shuffle(jobs)
    return jobs
