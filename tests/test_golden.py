"""Golden reports: the full stdout of six verify runs, compared byte for byte.

test_report_determinism runs one config twice, so it cannot see a change
that moves where a derived value comes from; these files can.  File paths
in the config echo read `<tmp>`.  A deliberate change to report text
rewrites the file it touches.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bmwcert import export_family, main

from conftest import SP2_TWIST_TEXT, so3_file_without_nu

GOLDEN = Path(__file__).parent / "golden"


def _sp2_twist(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"d": SP2_TWIST_TEXT}))
    return str(path)


def _ident2(tmp_path):
    """The identity on V (x) V, N = 2, with nu = q^5: it has no skew inverse."""
    path = tmp_path / "ident2.json"
    entries = [{"out": [i, j], "in": [i, j], "coeff": "1"} for i in (1, 2) for j in (1, 2)]
    path.write_text(json.dumps({"dim": 2, "nu": "q^5", "entries": entries}))
    return str(path)


def _bump_so3(tmp_path):
    """so_3 with R[(1,1),(1,1)] raised from q to q^2: rank(K) = 2."""
    path = tmp_path / "bump_so3.json"
    export_family("so", 3, None, str(path))
    doc = json.loads(path.read_text())
    cell = next(e for e in doc["entries"] if e["out"] == [1, 1] and e["in"] == [1, 1])
    cell["coeff"] = "q^2"
    path.write_text(json.dumps(doc))
    return str(path)


RUNS = {
    "so3.json": lambda tmp: ["verify", "--family", "so", "--dim", "3", "--report", "json"],
    "sp2_twist_at_s.json": lambda tmp: [
        "verify", "--family", "sp", "--dim", "2", "--twist", _sp2_twist(tmp),
        "--at-s", "3/2", "--report", "json",
    ],
    "so3_file_no_nu.txt": lambda tmp: ["verify", "--input", so3_file_without_nu(tmp)],
}


# Runs that abort: the reason key (JSON) and line (text) are pinned here.
ABORTED = {
    "ident2_aborted.json": lambda tmp: ["verify", "--input", _ident2(tmp), "--report", "json"],
    "bump_so3_aborted.txt": lambda tmp: ["verify", "--input", _bump_so3(tmp), "--detect-nu"],
}


def run_golden(name, tmp_path):
    """(exit code, stdout with tmp_path written as <tmp>) of one run."""
    argv = {**RUNS, **ABORTED}[name](tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().replace(str(tmp_path), "<tmp>")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(tmp_path, name):
    code, out = run_golden(name, tmp_path)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_failing_twisted_report_matches_golden(tmp_path):
    # sp_2's nu is -q^-3, so with q^-3 K^2 = mu K fails, while XY = I still
    # holds and the pipeline runs to its end: twisted-x-match fails on a
    # record whose K is not of BMW type.
    argv = ["verify", "--family", "sp", "--dim", "2", "--twist", _sp2_twist(tmp_path), "--nu", "q^-3"]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 1
    assert buf.getvalue() == (GOLDEN / "sp2_twist_wrong_nu.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(ABORTED))
def test_aborted_report_matches_golden(tmp_path, name):
    code, out = run_golden(name, tmp_path)
    assert code == 1
    assert out == (GOLDEN / name).read_text(encoding="utf-8")
