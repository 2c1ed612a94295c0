__doc__ = """bmwcert: exact certification of BMW-type R-matrices.

usage: bmwcert verify (--family so|sp --dim N | --input FILE) [--twist FILE]
                      [--nu TEXT | --detect-nu] [--at-s RATIONAL]
                      [--report text|json] [--out PATH]
       bmwcert export --family so|sp --dim N [--twist FILE] --out PATH
       bmwcert -h | --help

A value is the next argument, whatever it starts with (--at-s -5/3), or
follows '=' (--at-s=-5/3).  Options are spelled in full; of a repeated
option the last counts.  --at-s evaluates every entry at a rational s and
runs the same checks in exact rational arithmetic: a fast smoke test, not
a certificate.

Exit codes: 0 when every check passes, 1 when a check fails or the pipeline
aborts on a structural error, 2 on input errors, usage errors included, and
3 on an internal error.
"""

import sys as _sys
from collections import namedtuple
from fractions import Fraction

from .core import Outcome, RMatrixSystem, diagonal_gauge, excluded_nus, full_verification

# Not called here: the benchmark tracer (perfbench/tracer.py) wraps these
# names in this module and fails when they are missing.  Its name for K is
# bound to _kappa_raw until the tracer stops binding names in this module.
from .core import _build_xy, factor_pairings, _kappa_raw as kappa_of  # noqa: F401
from .errors import InputError, InvalidTwistParameters, PoleAtPoint, Singular, UnluckyPoint
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


class JobConfig(
    namedtuple(
        "JobConfig", "source twist nu at_s report_format out", defaults=(None, None, None, "text", None)
    )
):
    """One verification job: where the operator comes from and how to run.

    source is ("family", series, dim) or ("file", path); twist is the path
    of a twist parameter file; nu is grammar text or "detect"; at_s, when
    set, is the point of numeric mode; out is a path for the report.
    """

    __slots__ = ()

    def echo(self):
        return {
            "source": ":".join(map(str, self.source)),
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
        raise UnluckyPoint(f"{name} = {v} {problem} at s = {field.at_s}")
    return w


def _lifted_nu(v, field):
    """nu lifted as by _lifted; a nu outside {0, q, -q^-1} in Q(s) that
    lands on one of them at s0 is an unlucky point too (_lifted reports one
    that vanishes)."""
    w = _lifted("nu", v, field)
    for name, excluded in excluded_nus(SYMBOLIC):
        if v != excluded and w == field.lift(excluded):
            raise UnluckyPoint(f"nu = {v} equals {name} at s = {field.at_s}")
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

    An R with entries that are not all Laurent is decided first on a Laurent
    diagonal gauge of it (core.diagonal_gauge), on the integer kernel.  Input
    and configuration problems raise InputError or OSError, which `main`
    maps onto exit code 2; any other error is a bug.
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
        # Valid in Q(s), with no cell vanishing or having a pole at s0,
        # implies valid at s0, so d is not validated again.
        validate_twist(d_sym)
        d = tuple(
            tuple(_lifted(f"d[{i}][{j}]", v, field) for j, v in enumerate(row, 1))
            for i, row in enumerate(d_sym, 1)
        )
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
    except Singular:
        # A verdict eliminates only R, for R^-1: with R of full rank the
        # error is a bug, and propagates as one.
        k, dim = rank(r_op.mat), r_op.mat.dim
        if k == dim:
            raise
        # A family R is invertible at every admissible s0; a file's R
        # may be singular at s0 only, which rank in Q(s) tells apart.
        if file_r is not None and config.at_s is not None:
            k = rank(file_r.mat)
            if k == dim:
                at = f"at s = {config.at_s}"
                raise UnluckyPoint(f"R is singular {at} but invertible in Q(s)") from None
        raise InputError(f"R is singular in Q(s): rank {k} < dim {dim}") from None

    post = []
    if expected_x is not None and result.aborted is None:
        found = result.pairing
        x_match = result.xy.X == expected_x and pairings_match_up_to_gauge(found, expected_pair)
        post.append(
            Outcome(
                "twisted-x-match",
                "pipeline X equals diag(d_i'i / d_ii') and pairings match up to gauge",
                x_match,
            )
        )
    result = result._replace(outcomes=pre_outcomes + result.outcomes + post)
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


# The options of each command: None for a flag, the tuple of allowed
# values, or the function that reads the value.
_OPTIONS = {"export": {"--family": ("so", "sp"), "--dim": int, "--twist": str, "--out": str}}
_OPTIONS["verify"] = {
    **_OPTIONS["export"], "--input": str, "--nu": str, "--detect-nu": None, "--at-s": Fraction,
    "--report": ("text", "json"),
}
_HELP = ("-h", "--help")


def _read_argv(argv):
    """(command, {option: value}) from argv, with True for a flag, or
    (None, {}) for -h/--help.  A usage error raises InputError."""
    command = argv[0] if argv else ""
    if command in _HELP:
        return None, {}
    if command not in _OPTIONS:
        got = f", got {command!r}" if argv else ""
        raise InputError(f"expected a command, verify or export{got}")
    table, opts, args = _OPTIONS[command], {}, iter(argv[1:])
    for arg in args:
        name, eq, value = arg.partition("=")
        if name in _HELP:
            return None, {}
        if name not in table:
            raise InputError(f"{command}: unknown option {arg!r}")
        kind = table[name]
        if kind is None:
            if eq:
                raise InputError(f"{name} takes no value")
            opts[name] = True
            continue
        value = value if eq else next(args, None)
        if value is None:
            raise InputError(f"{name} needs a value")
        try:
            if isinstance(kind, tuple) and value not in kind:
                raise ValueError(f"expected {' or '.join(kind)}")
            opts[name] = value if isinstance(kind, tuple) else kind(value)
        except (ValueError, ZeroDivisionError) as exc:
            reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
            raise InputError(f"bad {name} value {value!r}: {reason}") from None
    return command, opts


def _config_from_opts(opts):
    if "--input" in opts:
        if "--family" in opts or "--dim" in opts:
            raise InputError("--input excludes --family/--dim")
        source = ("file", opts["--input"])
    else:
        if "--family" not in opts or "--dim" not in opts:
            raise InputError("need --family and --dim, or --input FILE")
        source = ("family", opts["--family"], opts["--dim"])
    if "--nu" in opts and "--detect-nu" in opts:
        raise InputError("--nu and --detect-nu are mutually exclusive")
    nu = "detect" if "--detect-nu" in opts else opts.get("--nu")
    report = opts.get("--report", "text")
    return JobConfig(source, opts.get("--twist"), nu, opts.get("--at-s"), report, opts.get("--out"))


def main(argv=None):
    try:
        command, opts = _read_argv(_sys.argv[1:] if argv is None else argv)
        if command is None:
            _sys.stdout.write(__doc__)  # assigned, not a docstring, so -OO keeps it
            return 0
        if command == "export":
            if not {"--family", "--dim", "--out"} <= opts.keys():
                raise InputError("export needs --family, --dim and --out")
            export_family(opts["--family"], opts["--dim"], opts.get("--twist"), opts["--out"])
            return 0
        config = _config_from_opts(opts)
        report, code = run_job(config)
        text = render_json(report) if config.report_format == "json" else render_text(report)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _sys.stdout.write(text)
        return code
    except (InputError, OSError) as exc:
        print(f"bmwcert: error: {exc}", file=_sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        print(f"bmwcert: internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
