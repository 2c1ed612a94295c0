"""The numeric fast path: evaluate every coefficient at a rational point of
s before composing any operators, then run the same residual checks in plain
rational arithmetic.  Useful as a quick smoke test; the symbolic run stays
the source of truth.

Run with:  python demos/numeric_fast_path.py
"""

import time
from fractions import Fraction

from bmwcert import JobConfig, run_job

for dim in (4, 5):
    sym_cfg = JobConfig(source=("family", "so", dim))
    num_cfg = JobConfig(source=("family", "so", dim), at_s=Fraction(3, 2))

    t0 = time.perf_counter()
    sym_report, sym_code = run_job(sym_cfg)
    t1 = time.perf_counter()
    num_report, num_code = run_job(num_cfg)
    t2 = time.perf_counter()

    sym_vec = [(c["id"], c["pass"]) for c in sym_report["checks"]]
    num_vec = [(c["id"], c["pass"]) for c in num_report["checks"]]
    print(f"so_{dim}:")
    print(f"  symbolic: {sym_report['status']} in {t1 - t0:.3f}s")
    print(f"  numeric:  {num_report['status']} in {t2 - t1:.3f}s (s = 3/2, q = 9/4)")
    print(f"  identical pass/fail vectors: {sym_vec == num_vec}")

# In numeric mode the derived values are plain fractions:
report, _ = run_job(JobConfig(source=("family", "sp", 2), at_s=Fraction(3, 2)))
print()
print("sp_2 at s = 3/2:")
print("  nu =", report["derived"]["nu"], " mu =", report["derived"]["mu"])
