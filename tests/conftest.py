"""Shared pytest hooks: per-criterion summary for the acceptance suite, and
the source tree on the import path of the subprocesses tests start."""

import os
import re
from pathlib import Path

# pyproject's `pythonpath` reaches this process only; C8 runs
# `python -m volmin.cli` in a subprocess, which needs a checkout's `src` too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

CRITERIA = {
    "c1": "gradient exactness",
    "c2": "transition construction invariants",
    "c3": "identifiability without anchors",
    "c4": "anchor-present sanity",
    "c5": "two-class oracle equivalence",
    "c6": "scattering geometry suite",
    "c7": "protocol constants",
    "c8": "re-run determinism",
}

_NODE = re.compile(r"test_acceptance\.py::.*test_(c\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key, verdict in (
        ("passed", "pass"),
        ("skipped", "skipped"),
        ("failed", "FAIL"),
        ("error", "FAIL"),
    ):
        for rep in terminalreporter.stats.get(key, []):
            m = _NODE.search(getattr(rep, "nodeid", ""))
            if m is None or m.group(1) not in CRITERIA:
                continue
            crit = m.group(1)
            # a FAIL verdict sticks; pass/skipped never override it
            if outcomes.get(crit) != "FAIL":
                outcomes[crit] = verdict
    if not outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for crit in sorted(outcomes):
        label = f"{crit.upper()} {CRITERIA[crit]} "
        verdict = outcomes[crit]
        markup = {"green": True} if verdict == "pass" else (
            {"yellow": True} if verdict == "skipped" else {"red": True}
        )
        terminalreporter.write_line(f"{label:.<48} {verdict}", **markup)
