"""Checks the `phases` object of a `diners_mc --exhaustive --json=-` summary.

Usage: python3 check_mc_phases.py FILE

FILE holds diners_mc's stdout: the human-readable report, then the JSON
summary from the first line that is exactly "{". The run must have
verified, every phase timer must be present and positive (each phase ran),
and the phases plus exploration must fit inside the wall time, since they
time disjoint parts of it. The peak RSS field must be present and positive.
"""
import json
import sys

PHASES = ("label", "closure", "convergence", "progress", "locality")

lines = open(sys.argv[1]).read().splitlines()
summary = json.loads("\n".join(lines[lines.index("{"):]))
assert summary["result"] == "verified", summary["result"]
phases = summary["phases"]
expected = {name + "_seconds" for name in PHASES}
assert set(phases) == expected, sorted(phases)
for key, value in phases.items():
    assert isinstance(value, (int, float)) and value > 0, (key, value)
rss = summary["max_rss_bytes"]
assert isinstance(rss, int) and rss > 0, rss
timed = sum(phases.values()) + summary["explore_seconds"]
assert timed <= summary["wall_seconds"] * (1 + 1e-9), (timed, summary)
print("phases ok:", ", ".join(f"{k}={v:.6f}" for k, v in phases.items()))
