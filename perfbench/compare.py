"""Compare two sets of benchmark runs (parent, change).

    python3 perfbench/run.py compare runs.jsonl

The file holds the JSONL records `run.py collect` writes, one per run,
each tagged with its side.  For every workload and end-to-end metric
this prints each side's median and quartiles, the share of seed-paired
runs the change won, and a verdict; per-layer medians from traced runs
print beside them.

Verdict rule (bounds from BENCHMARK.json):
  improved   the change wins at least 9/10 of the pairs (ties count for
             neither side) and the medians differ, in the better
             direction, by more than the parent's interquartile range;
  regressed  the change's median is worse than the parent's by more than
             the bound (a share of the parent's median);
  unresolved the parent's own spread (IQR / median) is wider than the
             bound, unless every change run beats (or, for a
             regression, loses to) every parent run; also when fewer
             than ten seed-paired runs exist;
  no worse   otherwise.
"""

import json
import math
import statistics
import sys

MIN_PAIRS = 10  # choosing-metrics section 8: at least ten pairs


def benchmark(path="BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def workload_names(bench):
    return [w["name"] for w in bench["workloads"]]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return (v, v, v)
    q = statistics.quantiles(values, n=4)
    return (q[0], statistics.median(values), q[2])


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def wins(parent, change, better):
    """Seed-paired wins of the change; ties count for neither side."""
    won = 0
    for p, c in zip(parent, change):
        if (c > p) if better == "higher" else (c < p):
            won += 1
    return won


def verdict(parent, change, better, bound):
    """parent and change are values paired by index (same seeds)."""
    if min(len(parent), len(change)) < MIN_PAIRS:
        return "unresolved"
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    gain = (cm - pm) if better == "higher" else (pm - cm)
    n = min(len(parent), len(change))
    if wins(parent, change, better) >= math.ceil(0.9 * n) and gain > q3 - q1:
        return "improved"
    wide = spread(parent) > bound
    if better == "higher":
        all_better, all_worse = min(change) > max(parent), max(change) < min(parent)
    else:
        all_better, all_worse = max(change) < min(parent), min(change) > max(parent)
    worse = -gain / abs(pm) if pm else (0.0 if gain >= 0 else math.inf)
    if worse > bound:
        return "unresolved" if wide and not all_worse else "regressed"
    if wide and not all_better:
        return "unresolved"
    return "no worse"


def load(path):
    recs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                recs.append(json.loads(line))
    return recs


def by_workload(recs, trace):
    out = {}
    for r in recs:
        if bool(r.get("trace")) == trace:
            out.setdefault(r["workload"], {})[r["seed"]] = r["result"]["metrics"]
    return out


def one_line(rec):
    res = rec["result"]
    ms = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items() if v["value"])
    return (f"{rec['side']} {rec['workload']} seed={rec['seed']} correct={res['correct']} "
            f"attempted={res['attempted']} failed={res['failed']} {ms}")


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report(parent_recs, change_recs, bench, out=sys.stdout):
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    verdicts = []
    p_e2e, c_e2e = by_workload(parent_recs, False), by_workload(change_recs, False)
    p_pl, c_pl = by_workload(parent_recs, True), by_workload(change_recs, True)
    for w in [x["name"] for x in bench["workloads"]]:
        if w not in p_e2e or w not in c_e2e:
            continue
        seeds = sorted(set(p_e2e[w]) & set(c_e2e[w]))
        print(f"\n== {w} ({len(seeds)} seed-paired runs)", file=out)
        print(f"{'metric':20s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s} "
              f"{'won':>6s}  verdict", file=out)
        for name, m in e2e.items():
            pv = [p_e2e[w][s][name]["value"] for s in seeds if name in p_e2e[w][s]]
            cv = [c_e2e[w][s][name]["value"] for s in seeds if name in c_e2e[w][s]]
            if not pv or not cv:
                continue
            v = verdict(pv, cv, m["better"], m["bound"])
            verdicts.append((w, name, v))
            print(f"{name:20s} {fmt(quartiles(pv)):32s} {fmt(quartiles(cv)):32s} "
                  f"{wins(pv, cv, m['better']):>3d}/{len(pv):<2d}  {v}", file=out)
        if w in p_pl and w in c_pl:
            print(f"  per-layer medians (traced runs): parent -> change", file=out)
            names = [x["name"] for x in bench["per_layer"]]
            for name in names:
                pv = [r[name]["value"] for r in p_pl[w].values() if name in r]
                cv = [r[name]["value"] for r in c_pl[w].values() if name in r]
                if not pv or not cv or (not any(pv) and not any(cv)):
                    continue
                pm, cm = statistics.median(pv), statistics.median(cv)
                delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
                print(f"  {name:30s} {pm:12.5g} -> {cm:12.5g}  {delta}", file=out)
    return verdicts


def main(argv):
    if len(argv) != 1:
        print("usage: run.py compare RUNS.jsonl", file=sys.stderr)
        return 2
    bench = benchmark()
    recs = load(argv[0])
    report([r for r in recs if r["side"] == "parent"],
           [r for r in recs if r["side"] == "change"], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
