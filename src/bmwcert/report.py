"""Certification reports and the R-matrix file format.

The file format is sparse JSON with 1-based indices and coefficients in the
shared grammar:

    {"dim": N,
     "nu": "<text>",                      # optional
     "comment": "<text>",                 # optional
     "entries": [{"out": [k, l], "in": [i, j], "coeff": "<text>"}, ...]}

Omitted entries are zero; duplicate (out, in) pairs are an error.  Reports
serialize with a fixed key order and canonical scalar text, so identical
configurations produce byte-identical JSON.
"""

import json
import sys

from . import __version__
from .errors import DimensionMismatch, ParseError
from .scalars import SYMBOLIC, parse as parse_scalar
from .tensors import TensorOperator


def build_report(result, config_echo, notes=()):
    """The report document of a VerificationResult, a dict with its keys in
    JSON order; values print as str().  A legal value may have more digits
    than the interpreter's limit on int-to-text conversion (3.10.7 and
    later), so the limit is lifted while values print; input text keeps it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        derived = dict(result.derived)
        for key in ("nu", "mu", "trace_C", "trace_D"):
            if derived.get(key) is not None:
                derived[key] = str(derived[key])
        if derived.get("X_diag") is not None:
            derived["X_diag"] = [str(x) for x in derived["X_diag"]]
        checks = []
        for o in result.outcomes:
            entry = {"id": o.id, "equation": o.equation, "pass": o.passed}
            if o.witness is not None:
                out, inp, value = o.witness
                entry["witness"] = {
                    "out": list(out),
                    "in": list(inp),
                    "value": str(value),
                }
            checks.append(entry)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    report = {"status": result.status}
    if result.aborted is not None:
        report["reason"] = result.aborted
    report["metadata"] = {"tool": "bmwcert", "version": __version__, "config": config_echo}
    report["notes"] = list(notes)
    report["derived"] = derived
    report["checks"] = checks
    return report


def render_json(report):
    return json.dumps(report, indent=2) + "\n"


def render_text(report):
    lines = [f"status: {report['status']}"]
    if "reason" in report:
        lines.append(f"reason: {report['reason']}")
    for note in report["notes"]:
        lines.append(f"note: {note}")
    for key, value in report["derived"].items():
        if key == "X_diag" and value is not None:
            value = "[" + ", ".join(value) + "]"
        lines.append(f"{key}: {value}")
    lines.append("checks:")
    for chk in report["checks"]:
        flag = "pass" if chk["pass"] else "FAIL"
        line = f"  [{flag}] {chk['id']}: {chk['equation']}"
        if "witness" in chk:
            w = chk["witness"]
            line += f"  witness out={w['out']} in={w['in']} value={w['value']}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# R-matrix files


def import_rmatrix(path):
    """Read an operator file; returns (TensorOperator arity 2, nu or None).

    Raises ParseError on malformed JSON, grammar errors or duplicate cells,
    and DimensionMismatch on indices outside 1..dim.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    dim = doc.get("dim")
    if not _is_int(dim) or dim < 1:
        raise ParseError(f"bad dim {dim!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ParseError("missing entries list")
    f = SYMBOLIC
    seen = set()
    triples = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"entry {k}: must be an object with out, in and coeff")
        out = entry.get("out")
        inp = entry.get("in")
        coeff = entry.get("coeff")
        for pair in (out, inp):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(_is_int(x) for x in pair)
            ):
                raise ParseError(f"entry {k}: indices must be pairs of integers")
            if not all(1 <= x <= dim for x in pair):
                raise DimensionMismatch(
                    f"entry {k}: index {pair} outside 1..{dim} (indices are 1-based)"
                )
        cell = (tuple(out), tuple(inp))
        if cell in seen:
            raise ParseError(f"entry {k}: duplicate cell out={out} in={inp}")
        seen.add(cell)
        if not isinstance(coeff, str):
            raise ParseError(f"entry {k}: coeff must be grammar text")
        try:
            value = parse_scalar(coeff)
        except ParseError as exc:
            raise ParseError(f"entry {k}: {exc}") from exc
        triples.append((cell[0], cell[1], value))
    op = TensorOperator.from_entries(dim, 2, f, triples)
    if "nu" not in doc:
        return op, None
    if not isinstance(doc["nu"], str):
        raise ParseError("nu must be grammar text")
    return op, parse_scalar(doc["nu"])


def _read_json(path):
    """The parsed JSON document in `path`; ParseError when it is not UTF-8
    JSON that the interpreter can read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        except ValueError as exc:  # more digits than the interpreter converts
            raise ParseError("invalid JSON: integer literal too long") from exc


def _is_int(x):
    """A JSON integer; bool is an int subclass in Python but not here."""
    return isinstance(x, int) and not isinstance(x, bool)


def export_rmatrix(op, nu, path, comment=None, provenance=None):
    """Write an arity-2 operator in the file format; round-trips through
    import_rmatrix."""
    doc = {"dim": op.N}
    if nu is not None:
        doc["nu"] = str(nu)
    if comment:
        doc["comment"] = comment
    if provenance:
        doc["provenance"] = provenance
    doc["entries"] = [
        {"out": list(out), "in": list(inp), "coeff": str(v)}
        for (out, inp), v in op.items()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def import_twist(path):
    """Read a twist file: {"d": [["<coeff>", ...], ...]} with grammar text."""
    doc = _read_json(path)
    grid = doc.get("d") if isinstance(doc, dict) else None
    if not isinstance(grid, list) or not grid:
        raise ParseError("twist file needs a nonempty 'd' array")
    rows = []
    for i, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != len(grid):
            raise ParseError(f"twist row {i} is not a list of {len(grid)} entries")
        rows.append(tuple(_twist_cell(c, i + 1, j + 1) for j, c in enumerate(row)))
    return tuple(rows)


def _twist_cell(text, i, j):
    """Parse cell d[i][j] (1-based) of a twist file, naming it in errors."""
    if not isinstance(text, str):
        raise ParseError(f"twist d[{i}][{j}]: must be grammar text, got {json.dumps(text)}")
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise ParseError(f"twist d[{i}][{j}]: {exc}") from exc
