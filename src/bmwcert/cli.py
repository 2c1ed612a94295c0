"""Command-line front end.

    bmwcert verify --family so --dim 4 --report json
    bmwcert verify --input R.json --detect-nu
    bmwcert verify --family sp --dim 2 --twist d.json --at-s 3/2
    bmwcert export --family so --dim 3 --out so3.json

Exit codes: 0 when every check passes, 1 when a check fails or the pipeline
aborts on a structural error, 2 on input or configuration errors, 3 on an
internal error.

Numeric mode (--at-s) evaluates every matrix entry at the given rational
value of s before any operator is composed, then runs the same residual
checks in exact rational arithmetic; it is a fast smoke-test, not the source
of truth.  An R with entries that are not all Laurent is decided first on a
Laurent diagonal gauge of it (core.diagonal_gauge), on the integer kernel;
that verdict is kept only when it passes, else R is decided as given.
"""

from __future__ import annotations

import argparse
import re
import sys as _sys
from dataclasses import dataclass
from fractions import Fraction

from .core import Outcome, RMatrixSystem, diagonal_gauge, excluded_nus, full_verification

# Not called here: the benchmark tracer (perfbench/tracer.py) wraps these
# names in this module and fails when they are missing.  Its name for K is
# bound to _kappa_raw until the tracer stops binding names in this module.
from .core import _build_xy, factor_pairings, _kappa_raw as kappa_of  # noqa: F401
from .errors import BmwError, InvalidTwistParameters, PoleAtPoint, Singular, UnluckyPoint
from .families import (
    SP_NU_NOTE,
    build_F,
    build_multiparametric,
    build_standard,
    check_twist_compat,
    family_nu,
    pairings_match_up_to_gauge,
    standard_matrix,
    twisted_expected,
    twisted_matrix,
    validate_twist,
)
from .report import (
    build_report,
    export_rmatrix,
    import_rmatrix,
    import_twist,
    render_json,
    render_text,
)
from .scalars import RationalField, SYMBOLIC, parse as parse_scalar
from .tensors import TensorOperator, rank

# Carried into every numeric report: what a verdict at one point proves.
NUMERIC_NOTE = (
    "numeric mode: checks ran at s = {} only; a failure there is a failure in "
    "Q(s), a pass is not a certificate; run without --at-s to certify"
)


@dataclass
class JobConfig:
    """One verification job: where the operator comes from and how to run."""

    source: tuple  # ("family", series, dim) | ("file", path)
    twist: str | None = None  # path of a twist parameter file
    nu: str | None = None  # grammar text, or "detect"
    at_s: Fraction | None = None  # numeric mode when set
    report_format: str = "text"
    out: str | None = None

    def echo(self):
        if self.source[0] == "family":
            src = f"family:{self.source[1]}:{self.source[2]}"
        else:
            src = f"file:{self.source[1]}"
        return {
            "source": src,
            "twist": self.twist,
            "nu": self.nu,
            "mode": "symbolic" if self.at_s is None else f"numeric(s={self.at_s})",
            "report": self.report_format,
        }


def _lifted(name, v, field):
    """The Q(s) input `v`, named `name` in messages, lifted into `field`.  A
    value that is nonzero in Q(s) but vanishes at s0, or that has a pole
    there, is an unlucky point, reported as such."""
    try:
        w = field.lift(v)
    except PoleAtPoint:
        w = None
    if v and not w:
        problem = "has a pole" if w is None else "vanishes"
        raise UnluckyPoint(
            f"{name} = {v} {problem} at s = {field.at_s}, "
            "an unlucky point; choose another --at-s"
        )
    return w


def _lifted_nu(v, field):
    """nu lifted as by _lifted; a nu outside {0, q, -q^-1} in Q(s) that
    lands on one of them at s0 is an unlucky point too (_lifted reports one
    that vanishes)."""
    w = _lifted("nu", v, field)
    for name, excluded in excluded_nus(SYMBOLIC):
        if v != excluded and w == field.lift(excluded):
            raise UnluckyPoint(
                f"nu = {v} equals {name} at s = {field.at_s}, "
                "an unlucky point; choose another --at-s"
            )
    return w


def _resolve_nu(config, r_op, field, file_nu, series):
    """The eigenvalue to verify against, honoring --nu; None when it is to
    be detected, which full_verification does for a bare operator."""
    if config.nu == "detect":
        return None
    if config.nu is not None:
        return _lifted_nu(parse_scalar(config.nu), field)
    if series is not None:
        return family_nu(series, r_op.N, field)
    if file_nu is not None:
        return _lifted_nu(file_nu, field)
    return None


def run_job(config):
    """Execute one job; returns (report document, exit_code 0|1).

    Input and configuration problems raise (BmwError subclasses, ValueError,
    OSError); the CLI maps those onto exit code 2.
    """
    field = SYMBOLIC if config.at_s is None else RationalField(config.at_s)
    notes = [] if config.at_s is None else [NUMERIC_NOTE.format(config.at_s)]
    pre_outcomes = []
    series = None
    file_r = file_nu = None
    expected_x = None
    expected_pair = None

    if config.source[0] == "family":
        series, dim = config.source[1], config.source[2]
        base = standard_matrix(series, dim, field)
        if series == "sp":
            notes.append(SP_NU_NOTE)
    else:
        file_r, file_nu = import_rmatrix(config.source[1])
        entries = [
            (out, inp, _lifted(f"entry out={list(out)} in={list(inp)}", v, field))
            for (out, inp), v in file_r.items()
        ]
        base = TensorOperator.from_entries(file_r.N, 2, field, entries)

    r_op = base
    if config.twist is not None:
        d_sym = import_twist(config.twist)
        if len(d_sym) != base.N:
            raise InvalidTwistParameters(
                f"twist is {len(d_sym)} x {len(d_sym)}, operator needs {base.N} x {base.N}"
            )
        d = tuple(
            tuple(_lifted(f"d[{i}][{j}]", v, field) for j, v in enumerate(row, 1))
            for i, row in enumerate(d_sym, 1)
        )
        # Valid in Q(s), with no cell vanishing or having a pole at s0,
        # implies valid at s0, so d is not validated again.
        validate_twist(d_sym)
        pre_outcomes.append(
            Outcome("twist-valid", "d_ij d_i'j = u_j, d_ij d_ij' = w_i, u_i u_i' = w_i w_i' = const", True)
        )
        f_op = build_F(d, field)
        compat = check_twist_compat(base, f_op)
        pre_outcomes.append(compat)
        generic = twisted_matrix(base, f_op)
        if series is not None:
            closed = standard_matrix(series, base.N, field, d)
            match = closed == generic
            pre_outcomes.append(
                Outcome(
                    "twist-closed-form",
                    "closed-form multiparametric matrix equals the generic twist",
                    match,
                )
            )
            r_op = closed if match else generic
            expected_pair, expected_x = twisted_expected(series, r_op.N, d, field)
        else:
            r_op = generic

    nu = _resolve_nu(config, r_op, field, file_nu, series)
    # A pass prints only values a diagonal gauge keeps; twisted-x-match
    # reads the pairings too, so a twisted family is decided as given.
    # R0's verdict stands only when it passes.  An error it raises, R's
    # would raise with the same text: a diagonal similarity keeps the rank
    # of R, the column of W that nu is read from, and nu.
    r0 = diagonal_gauge(r_op) if expected_x is None else None
    try:
        for r in (r_op,) if r0 is None else (r0, r_op):
            result = full_verification(r if nu is None else RMatrixSystem(r, nu))
            if result.status == "pass":
                break
    except Singular as exc:
        detail = exc
        # A family R is invertible at every admissible s0; a file's R
        # may be singular at s0 only, which rank in Q(s) tells apart.
        if file_r is not None and config.at_s is not None:
            k, dim = rank(file_r.mat), file_r.mat.dim
            if k == dim:
                raise UnluckyPoint(
                    f"R is singular at s = {config.at_s} but invertible in Q(s), "
                    "an unlucky point; choose another --at-s"
                ) from None
            detail = f"rank {k} < dim {dim}"
        raise Singular(f"R is singular in Q(s): {detail}") from None
    result.outcomes = pre_outcomes + result.outcomes

    if expected_x is not None and result.aborted is None:
        found = result.pairing
        x_match = result.xy.X == expected_x and pairings_match_up_to_gauge(found, expected_pair)
        result.outcomes.append(
            Outcome(
                "twisted-x-match",
                "pipeline X equals diag(d_i'i / d_ii') and pairings match up to gauge",
                x_match,
            )
        )

    return build_report(result, config.echo(), notes), (0 if result.status == "pass" else 1)


def export_family(series, dim, twist_path, out_path):
    """Write a family (twisted if requested) in the file format, uncertified:
    `verify --input` certifies the file."""
    provenance = {"source": "standard-family", "series": series, "dim": dim}
    if twist_path is None:
        sys = build_standard(series, dim)
    else:
        # An all-ones twist is checked like any other, then exported as the
        # plain family it equals.
        d = import_twist(twist_path)
        sys = build_multiparametric(series, dim, d)
        if any(v != SYMBOLIC.one for row in d for v in row):
            provenance["source"] = "multiparametric-family"
            provenance["d"] = [[str(v) for v in row] for row in d]
    export_rmatrix(
        sys.R,
        sys.nu,
        out_path,
        comment=f"{series}_{dim} BMW-type R-matrix",
        provenance=provenance,
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bmwcert",
        description="Exact certification of BMW-type R-matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification pipeline")
    verify.add_argument("--family", choices=("so", "sp"))
    verify.add_argument("--dim", type=int)
    verify.add_argument("--input", metavar="FILE", help="R-matrix file to verify")
    verify.add_argument("--twist", metavar="FILE", help="twist parameter file")
    verify.add_argument("--nu", metavar="TEXT", help="contraction eigenvalue")
    verify.add_argument("--detect-nu", action="store_true", help="detect nu from the operator")
    verify.add_argument(
        "--at-s", metavar="RATIONAL", help="numeric mode at s (e.g. 3/2 or -5/3)"
    )
    verify.add_argument("--report", choices=("text", "json"), default="text")
    verify.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    export = sub.add_parser("export", help="write a family R-matrix file")
    export.add_argument("--family", choices=("so", "sp"), required=True)
    export.add_argument("--dim", type=int, required=True)
    export.add_argument("--twist", metavar="FILE")
    export.add_argument("--out", metavar="PATH", required=True)
    return parser


def _config_from_args(args):
    if args.input is not None:
        if args.family is not None or args.dim is not None:
            raise ValueError("--input excludes --family/--dim")
        source = ("file", args.input)
    else:
        if args.family is None or args.dim is None:
            raise ValueError("need --family and --dim, or --input FILE")
        source = ("family", args.family, args.dim)
    if args.nu is not None and args.detect_nu:
        raise ValueError("--nu and --detect-nu are mutually exclusive")
    nu = "detect" if args.detect_nu else args.nu
    at_s = None
    if args.at_s is not None:
        try:
            at_s = Fraction(args.at_s)
        except (ValueError, ZeroDivisionError) as exc:
            reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise ValueError(f"bad --at-s value {args.at_s!r}: {reason}") from exc
    return JobConfig(
        source=source,
        twist=args.twist,
        nu=nu,
        at_s=at_s,
        report_format=args.report,
        out=args.out,
    )


def _join_negative_values(argv):
    """argparse reads a value that starts with a single '-' as an option,
    so `--at-s -5/3` and `--nu -q^-3` are rewritten to `--at-s=-5/3` and
    `--nu=-q^-3` before parsing."""
    out = []
    for arg in argv:
        if out and (
            out[-1] == "--at-s" and re.fullmatch(r"-\d+/\d+", arg)
            or out[-1] == "--nu" and re.match(r"-(?!-)", arg)
        ):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(_join_negative_values(_sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "export":
            export_family(args.family, args.dim, args.twist, args.out)
            return 0
        config = _config_from_args(args)
        report, code = run_job(config)
        text = render_json(report) if config.report_format == "json" else render_text(report)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _sys.stdout.write(text)
        return code
    except (BmwError, ValueError, OSError) as exc:
        print(f"bmwcert: error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"bmwcert: internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
