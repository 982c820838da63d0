"""Gates perfbench results against a committed baseline.

Usage: python3 check_perfbench.py BASELINE RESULTS...

Every file holds perfbench results in one of two forms: the stdout of
`python3 perfbench/run.py --workload W ... --trace 0` (a detail line naming
the workload, then the result line), or a JSON document whose "workloads"
object maps each workload to its result line, as the committed baseline
does. Later files override earlier ones for the same workload.

For every workload BENCHMARK.json declares, the results must be `correct`
with `failed` 0. Correctness covers the run's own output checks: verify-k4's
state counts, converge-ring1M's steps_to_i, locality-sweep's radius and the
serve-far SLO verdict. Against the baseline, `peak_rss_mb` gates on every
workload and `task_cpu_ms` on the workloads in CPU_GATED, each at the bound
BENCHMARK.json gives it. The other end-to-end metrics are printed only.
Exits 1 on any failure, naming each one.
"""
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
CPU_GATED = ("verify-k4", "locality-sweep")


def load_results(path):
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "workloads" in doc:
        return doc["workloads"]
    results, workload = {}, None
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if "workload" in record:
            workload = record["workload"]
        elif "metrics" in record and workload is not None:
            results[workload] = record
    return results


def gated(metric, workload):
    return metric == "peak_rss_mb" or (
        metric == "task_cpu_ms" and workload in CPU_GATED)


def main(argv):
    if len(argv) < 3:
        print("usage: check_perfbench.py BASELINE RESULTS...", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    baseline = load_results(argv[1])
    results = {}
    for path in argv[2:]:
        results.update(load_results(path))

    failures = []
    for workload in workloads:
        base, run = baseline.get(workload), results.get(workload)
        if base is None:
            failures.append(f"{workload}: no baseline")
            continue
        if run is None:
            failures.append(f"{workload}: no result")
            continue
        if not run["correct"]:
            failures.append(f"{workload}: correct is false")
            continue
        if run["failed"] != 0:
            failures.append(f"{workload}: failed {run['failed']} of "
                            f"{run['attempted']} operations")
        print(f"{workload}: {run['attempted']} attempted, "
              f"{run['failed']} failed")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            was = base["metrics"][name]["value"]
            now = run["metrics"][name]["value"]
            change = now / was - 1
            worse = change if m["better"] == "lower" else -change
            gate = f"bound {bound:.0%}" if gated(name, workload) else "report"
            print(f"  {name:12} {was:12.4g} -> {now:12.4g} {m['unit']:3} "
                  f"{change:+8.1%}  {gate}")
            if gated(name, workload) and worse > bound:
                failures.append(f"{workload}: {name} {now:.4g} {m['unit']} "
                                f"is {worse:.1%} worse than baseline "
                                f"{was:.4g} (bound {bound:.0%})")
    for failure in failures:
        print("FAIL", failure)
    print("perfbench gate:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
