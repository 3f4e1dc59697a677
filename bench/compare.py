"""Compare two saved benchmark outputs.

Each file holds the standard output of one or more `bench/run.py`
runs; only their `{"bench_record": ...}` lines are read. For every
workload and metric this prints each side's median and quartiles, the
ratio of the medians (B/A), and whether B is worse than A by more than
the metric's bound in BENCHMARK.json (per-layer metrics have none).

B also fails the comparison when one of its runs failed a check, and
when a workload and metric that A reports is missing from B, as it is
when every B run of a workload failed and printed no record.
"""

import json
import statistics


def load(path):
    """({(workload, metric): [values]}, [runs that failed a check]) from
    the bench_record lines."""
    values, failed = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"bench_record"'):
                continue
            rec = json.loads(line)["bench_record"]
            for name, m in rec["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(
                    m["value"])
            if rec["failed"]:
                failed.append(f"{rec['workload']} seed {rec['seed']}: "
                              f"{rec['failed']} of {rec['attempted']} "
                              "invocations failed")
    return values, failed


def summary(values):
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def worsening(a, b, better):
    """Share of A's median by which B is worse (negative: better)."""
    if a == 0:
        return None
    return (b - a) / a if better == "lower" else (a - b) / a


def main(path_a, path_b, spec):
    defs = {d["name"]: d for d in spec["end_to_end"] + spec["per_layer"]}
    (a, _), (b, b_failed) = load(path_a), load(path_b)
    exceeded = bool(b_failed)
    print(f"{'workload':<9} {'metric':<50} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'B/A':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        d = defs.get(name, {})
        ma, qa1, qa3 = summary(a[key])
        mb, qb1, qb3 = summary(b[key])
        ratio = f"{mb / ma:8.4f}" if ma else f"{'n/a':>8}"
        worse = worsening(ma, mb, d.get("better"))
        if "bound" not in d or worse is None:
            verdict = "no bound"
        elif worse > d["bound"]:
            verdict = f"WORSE by {worse:.1%} > bound {d['bound']:.0%}"
            exceeded = True
        else:
            verdict = f"within bound {d['bound']:.0%}"
        print(f"{workload:<9} {name:<50} "
              f"{f'{ma:.6g} [{qa1:.6g}, {qa3:.6g}]':<34} "
              f"{f'{mb:.6g} [{qb1:.6g}, {qb3:.6g}]':<34} {ratio}  {verdict}")
    for key in sorted(set(a) ^ set(b)):
        side = "A" if key in a else "B"
        print(f"{key[0]:<9} {key[1]:<50} only in {side}")
        exceeded |= side == "A"
    for run in b_failed:
        print(f"B FAILED {run}")
    return 1 if exceeded else 0
