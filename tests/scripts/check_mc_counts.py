"""Checks the counts of a `diners_mc --exhaustive --json=-` summary.

Usage: python3 check_mc_counts.py FILE KEY=VALUE...

FILE holds diners_mc's stdout: the human-readable report, then the JSON
summary from the first line that is exactly "{". The run must have
verified, and each KEY, a dotted path into the summary such as
reduction.canonical_hits, must hold exactly the integer VALUE.
"""
import json
import sys

lines = open(sys.argv[1]).read().splitlines()
summary = json.loads("\n".join(lines[lines.index("{"):]))
assert summary["result"] == "verified", summary["result"]
for pin in sys.argv[2:]:
    path, want = pin.split("=")
    got = summary
    for part in path.split("."):
        got = got[part]
    assert got == int(want), (path, got, int(want))
print("counts ok:", " ".join(sys.argv[2:]))
