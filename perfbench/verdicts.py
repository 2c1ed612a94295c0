"""Verdict checker: compares one job's exit code and JSON report with the
hand-written expected answer from workloads.py.

A job fails when its exit code, status, abort reason or ordered
check-id -> pass map differs from the expected answer, or when the call
raised.  Every failing job is listed; none is dropped or re-run.
"""

from __future__ import annotations

import json


def check(expected, code, report_text, raised=None):
    """Return the list of differences; empty when the verdict matches."""
    if raised is not None:
        return [f"raised {raised}"]
    problems = []
    if code != expected["code"]:
        problems.append(f"exit code {code}, expected {expected['code']}")
    try:
        doc = json.loads(report_text)
    except ValueError:
        return problems + ["report is not JSON"]
    if doc.get("status") != expected["status"]:
        problems.append(f"status {doc.get('status')!r}, expected {expected['status']!r}")
    reason = doc.get("reason")
    want_reason = expected.get("reason")
    if want_reason is None and reason is not None:
        problems.append(f"unexpected abort reason {reason!r}")
    if want_reason is not None and not (reason or "").startswith(want_reason):
        problems.append(f"reason {reason!r}, expected {want_reason}...")
    got = [(c.get("id"), c.get("pass")) for c in doc.get("checks", [])]
    want = list(expected["checks"].items())
    if got != want:
        diff = sorted(set(got) ^ set(want))
        problems.append(f"check map differs: {len(got)} checks vs {len(want)} expected, "
                        f"differing (id, pass) pairs {diff[:6]}")
    return problems
