"""``python3 perf/run.py --compare A B``: two recorded sets of runs of
the benchmark, per workload and end-to-end metric.

``within``: B's median is not worse than A's by more than the metric's
bound.  ``regressed``: it is.  ``unresolved``: the runs of one set are
spread wider than the bound, so the comparison cannot tell."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from common import load_benchmark_json, quartile_spread


def main(path_a: Path, path_b: Path) -> int:
    spec = {m["name"]: m for m in load_benchmark_json()["end_to_end"]}
    runs_a = json.loads(path_a.read_text())["runs"]
    runs_b = json.loads(path_b.read_text())["runs"]
    verdicts = {"within": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<18} {'metric':<15} {'unit':<6} "
          f"{'A q1/median/q3':>30} {'B q1/median/q3':>30} "
          f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload, entries_a in runs_a.items():
        for name, metric in spec.items():
            a = [run["metrics"][name] for run in entries_a]
            b = [run["metrics"][name] for run in runs_b[workload]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spread = max(quartile_spread(a), quartile_spread(b))
            # Set-up time is exempt from the spread rule, as it is for
            # the driver: it is only held to its bound between medians.
            if spread > metric["bound"] and name != "setup_s":
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "within"
            verdicts[verdict] += 1
            print(f"{workload:<18} {name:<15} {metric['unit']:<6} "
                  f"{_quartiles(a):>30} {_quartiles(b):>30} "
                  f"{med_b / med_a:>7.3f} {100 * worse:>8.1f}% "
                  f"{100 * metric['bound']:>5.0f}% {100 * spread:>6.1f}%  "
                  f"{verdict}")
    print(f"ratios are B's median over A's (base: A's median, n="
          f"{len(next(iter(runs_a.values())))} runs per workload); "
          + ", ".join(f"{count} {verdict}"
                      for verdict, count in verdicts.items()))
    return 0 if verdicts["within"] == sum(verdicts.values()) else 1


def _quartiles(values) -> str:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.4g}/{statistics.median(values):.4g}/{q3:.4g}"
