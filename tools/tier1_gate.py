"""Tier-1 gate: run the tier-1 test command and accept exactly one known failure.

Usage, from anywhere:  python3 tools/tier1_gate.py

The command is ROADMAP.md's tier-1 verify command plus ``--junitxml``.  The
gate exits 0 exactly when the set of failed or errored test ids equals
``EXPECTED``: criterion 4 asserts a published claim that is false, so it
must stay red.  Any other failure or error, a collection error, a missing
report, or criterion 4 passing (which would mean it was weakened) exits 1.
Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = {"tests/test_acceptance.py::test_criterion_4_blowup_family"}


def case_id(case: ET.Element) -> str:
    """``path::name`` from a junit ``testcase``; a collection error, which
    has no class name, keeps its bare name."""
    classname, name = case.get("classname", ""), case.get("name", "")
    if not classname:
        return name
    parts = classname.split(".")
    for cut in range(len(parts), 0, -1):
        path = Path(*parts[:cut]).with_suffix(".py")
        if (ROOT / path).is_file():
            return "::".join([path.as_posix(), *parts[cut:], name])
    return f"{classname}::{name}"


def red_ids(report: Path) -> set[str]:
    return {
        case_id(case)
        for case in ET.parse(report).getroot().iter("testcase")
        if case.find("failure") is not None or case.find("error") is not None
    }


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
               f"--junitxml={report}"]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        if not report.is_file():
            print(f"tier-1 gate: pytest exited {code} and wrote no report")
            return 1
        red = red_ids(report)
    if red == EXPECTED:
        print(f"tier-1 gate: ok, only the expected failure: {', '.join(sorted(EXPECTED))}")
        return 0
    for tid in sorted(red - EXPECTED):
        print(f"tier-1 gate: unexpected failure: {tid}")
    for tid in sorted(EXPECTED - red):
        print(f"tier-1 gate: expected failure now passes: {tid}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
