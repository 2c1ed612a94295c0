"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each bmwcert layer at the place
where their caller binds them: `core` and `cli` import names such as
`compose` and `kappa_of` directly, so the wrapper replaces the module
attribute of the calling module, not the defining one.  Scalar arithmetic
is wrapped on the `Scalar` class.  The package's own source stays
untouched, and `uninstall` restores every attribute.

Each span records name, start, end and parent; spans stay in memory and
the worker writes them out when it exits.  Scalar operations are far too
many for spans: they are counted and timed at the same boundaries instead.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from fractions import Fraction

# Pipeline stages: metric name -> function that full_verification calls.
STAGES = {
    "yang_baxter": "check_yang_baxter",
    "nu_detect": "detect_nu",
    "kappa": "_kappa_raw",
    "kappa_inverse_form": "check_kappa_inverse_form",
    "bmw_relations": "check_bmw_relations",
    "minimal_cubic": "check_minimal_cubic",
    "skew_inverse": "skew_inverse",
    "prop1": "check_prop1",
    "theorem_suite": "theorem_suite",
    "factor_pairings": "factor_pairings",
    "pairing_factorization": "check_pairing_factorization",
    "xy": "_xy_outcomes",
    "rtt_lemma": "rtt_lemma",
}

# Tensor-layer functions -> span name, and the modules that bind them.
TENSOR_OPS = {
    "compose": "tensors.compose",
    "embed": "tensors.embed",
    "partial_trace": "tensors.partial_trace",
    "rank": "tensors.elim",
    "solve_multi_rhs": "tensors.elim",
    "inverse": "tensors.elim",
    "char_poly": "tensors.char_poly",
}
TENSOR_CALLERS = ("core", "families", "cli")

# Functions cli calls in the other layers -> span name.
CLI_CALLS = {
    "full_verification": "core.full_verification",
    "standard_matrix": "families.build",
    "build_F": "families.build",
    "check_twist_compat": "families.build",
    "validate_twist": "families.build",
    "twisted_expected": "families.build",
    "pairings_match_up_to_gauge": "families.build",
    "import_rmatrix": "report.import",
    "import_twist": "report.import",
    "build_report": "report.render",
    "render_json": "report.render",
    "render_text": "report.render",
    # run_job recomputes these after the pipeline has finished.
    "kappa_of": "cli.recompute",
    "factor_pairings": "cli.recompute",
    "_build_xy": "cli.recompute",
}
# Spans under cli.main that cli.other.s leaves out; the rest of main's time
# is cli.other.s.
ACCOUNTED = frozenset(
    ("core.full_verification", "families.build", "report.import", "report.render",
     "cli.recompute")
)

SCALAR_OPS = {
    "__add__": "add",
    "__sub__": "add",
    "__mul__": "mul",
    "__pow__": "mul",
    "__truediv__": "div",
    "inverse": "div",
}

# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = (
    "tensors.compose.calls", "tensors.product.madds", "tensors.product.nnz_out",
    "tensors.embed.calls", "tensors.embed.distinct", "tensors.elim.calls",
    "scalars.mul.calls", "scalars.add.calls", "scalars.div.calls",
    "scalars.slow_calls", "scalars.max_terms", "scalars.max_coeff_bits",
    "scalars.parse.calls",
)

_DEN_ONE = {0: Fraction(1)}


def _bits(c):
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    """Spans and counters for one traced process; install() before the
    jobs, job_metrics() after each job, uninstall() at the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._saved = []
        self._job_start = 0
        # Wrappers hold these two objects, so they are cleared, not replaced.
        self.counts = Counter()
        self.embed_keys = set()
        self._reset_counters()

    def _reset_counters(self):
        self.counts.clear()
        self.embed_keys.clear()
        self.max_terms = 0
        self.max_bits = 0
        self.scalar_s = 0.0
        self._scalar_depth = 0

    # -- installation

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        from bmwcert import cli, core, families, report, scalars

        modules = {"core": core, "families": families, "cli": cli}
        for stage, fn_name in STAGES.items():
            self._patch(core, fn_name, self._spanned(f"core.{stage}", getattr(core, fn_name)))
        for fn_name, span in TENSOR_OPS.items():
            for caller in TENSOR_CALLERS:
                mod = modules[caller]
                if fn_name in mod.__dict__:
                    self._patch(mod, fn_name, self._tensor_wrapper(fn_name, span, getattr(mod, fn_name)))
        for fn_name, span in CLI_CALLS.items():
            self._patch(cli, fn_name, self._spanned(span, getattr(cli, fn_name)))
        for mod in (cli, report):
            self._patch(mod, "parse_scalar", self._parse_wrapper(mod.parse_scalar))
        for method, kind in SCALAR_OPS.items():
            self._patch(scalars.Scalar, method,
                        self._scalar_wrapper(kind, getattr(scalars.Scalar, method)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span; the worker's entry into cli.main."""
        idx = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    def _tensor_wrapper(self, fn_name, span, fn):
        counts = self.counts
        calls_key = f"{span}.calls"

        if fn_name == "compose":
            def wrapper(a, b):
                brows = b.mat.rows
                madds = 0
                for row in a.mat.rows.values():
                    for k in row:
                        other = brows.get(k)
                        if other:
                            madds += len(other)
                idx = self._enter(span)
                try:
                    out = fn(a, b)
                finally:
                    self._exit(idx)
                counts[calls_key] += 1
                counts["tensors.product.madds"] += madds
                self._entry_sizes(out)
                return out

            return wrapper

        if fn_name == "embed":
            def wrapper(op, positions, n):
                key = (op.N, op.arity, tuple(positions), n,
                       tuple((r, tuple(sorted(row.items()))) for r, row in sorted(op.mat.rows.items())))
                self.embed_keys.add(key)
                counts[calls_key] += 1
                idx = self._enter(span)
                try:
                    return fn(op, positions, n)
                finally:
                    self._exit(idx)

            return wrapper

        def wrapper(*args):
            counts[calls_key] += 1
            idx = self._enter(span)
            try:
                return fn(*args)
            finally:
                self._exit(idx)

        return wrapper

    def _entry_sizes(self, op):
        """nnz of a product and the size of its largest entry."""
        counts = self.counts
        terms = self.max_terms
        bits = self.max_bits
        nnz = 0
        for row in op.mat.rows.values():
            nnz += len(row)
            for v in row.values():
                if isinstance(v, Fraction):
                    t, b = 1, _bits(v)
                else:
                    t = len(v.num.terms) + len(v.den.terms)
                    b = max(_bits(c) for c in (*v.num.terms.values(), *v.den.terms.values()))
                if t > terms:
                    terms = t
                if b > bits:
                    bits = b
        counts["tensors.product.nnz_out"] += nnz
        self.max_terms = terms
        self.max_bits = bits

    def _parse_wrapper(self, fn):
        def wrapper(text):
            self.counts["scalars.parse.calls"] += 1
            idx = self._enter("scalars.parse")
            try:
                return fn(text)
            finally:
                self._exit(idx)

        return wrapper

    def _scalar_wrapper(self, kind, fn):
        counts = self.counts
        calls_key = f"scalars.{kind}.calls"
        perf = time.perf_counter

        def wrapper(a, *rest):
            # Only the outermost Scalar call counts; nested ones run bare.
            if self._scalar_depth:
                return fn(a, *rest)
            counts[calls_key] += 1
            slow = a.den.terms != _DEN_ONE
            if not slow and rest:
                b = rest[0]
                slow = hasattr(b, "den") and b.den.terms != _DEN_ONE
            if slow:
                counts["scalars.slow_calls"] += 1
            self._scalar_depth = 1
            t0 = perf()
            try:
                return fn(a, *rest)
            finally:
                self.scalar_s += perf() - t0
                self._scalar_depth = 0

        return wrapper

    # -- per-job metrics

    def job_metrics(self):
        """Metrics of the spans and counters since the previous call."""
        spans = self.spans[self._job_start:]
        base = self._job_start
        self._job_start = len(self.spans)
        m = Counter()
        in_pipeline = []
        child_accounted = [0.0] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            p = parent - base
            inside = p >= 0 and (spans[p][0] == "core.full_verification" or in_pipeline[p])
            in_pipeline.append(inside)
            if name.startswith("core.") and name != "core.full_verification":
                if inside:
                    m[f"{name}.s"] += dur
            else:
                m[f"{name}.s"] += dur
            if p >= 0 and name in ACCOUNTED and spans[p][0] == "cli.main":
                child_accounted[p] += dur
        for i, (name, start, end, _) in enumerate(spans):
            if name == "cli.main":
                m["cli.other.s"] += (end - start) - child_accounted[i]
        m.pop("cli.main.s", None)
        m.update(self.counts)
        m["tensors.embed.distinct"] = len(self.embed_keys)
        m["scalars.max_terms"] = self.max_terms
        m["scalars.max_coeff_bits"] = self.max_bits
        m["scalars.s"] = self.scalar_s
        self._reset_counters()
        return dict(m)

    def self_times(self):
        """Seconds per span name, each span less the time its child spans
        cover, over every span recorded."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def pass_metrics(jobs):
    """Sum per-job metrics over one pass of the job list; maxima stay maxima."""
    total = Counter()
    for m in jobs:
        for k, v in m.items():
            if k.startswith("scalars.max_"):
                total[k] = max(total[k], v)
            else:
                total[k] += v
    return dict(total)
