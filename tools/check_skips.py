"""Fail when a tier-1 test skips for a reason other than an absent dataset.

    python -m pytest --junitxml=tier1-report.xml
    python3 tools/check_skips.py tier1-report.xml

Reads the JUnit XML report that pytest writes. The tier-1 suite skips only
where the MNIST IDX files are absent or scikit-learn does not import (the
digits variants). Any other skip is a test that stopped running without
failing, so the script prints each one, with its reason, and exits 1. It
exits 0 when every skip has one of the two reasons, and prints how many
skips each reason covered.
"""

from __future__ import annotations

import re
import sys
import xml.etree.ElementTree as ET

# the skip messages of the two absent inputs, as `pytest.skip` and
# `pytest.importorskip` word them in tests/conftest.py and tests/test_acceptance.py
ALLOWED = {
    "MNIST IDX files absent": re.compile(r"MNIST IDX files (unavailable|not available)"),
    "sklearn does not import": re.compile(r"could not import 'sklearn[\w.]*'"),
}


def classify_skips(path: str) -> tuple[dict, list]:
    """({allowed reason: skip count}, [(test id, message) of every other skip])
    over the test cases of the JUnit XML report at `path`."""
    counts = dict.fromkeys(ALLOWED, 0)
    unexpected = []
    for case in ET.parse(path).getroot().iter("testcase"):
        for skip in case.iter("skipped"):
            message = skip.get("message", "")
            reason = next((name for name, pattern in ALLOWED.items() if pattern.match(message)), None)
            if reason is None:
                unexpected.append((f"{case.get('classname')}::{case.get('name')}", message))
            else:
                counts[reason] += 1
    return counts, unexpected


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: check_skips.py REPORT.xml", file=sys.stderr)
        return 2
    counts, unexpected = classify_skips(args[0])
    for test, message in unexpected:
        print(f"unexpected skip: {test}: {message}")
    print(", ".join(f"{count} skipped: {reason}" for reason, count in counts.items()))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
