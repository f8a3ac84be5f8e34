"""Compare a parent commit's benchmark runs with a change's, pair by pair.

    python3 benchmarks/e2e/compare.py parent.json change.json

Each file holds the runs ``run.py --out`` appended.  For every workload
the i-th parent run that measured it is paired with the i-th change
run; run the two commits alternately, at least ten pairs, with the
same ``run.py`` arguments on both sides.  A pair whose runs differ in
seed, ``--smoke``, ``--seconds`` or ``--trace`` is refused (exit 2).

Per end-to-end metric and workload the verdict is:

* ``gain`` -- at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ by more
  than the parent's own quartile distance;
* ``unresolved`` -- the spread (quartile distance over median) of
  either side exceeds the metric's bound in ``BENCHMARK.json``, unless
  every change run beats every parent run;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``ok`` -- none of these.

``fail_rate`` has no tolerance: any increase is a regression.  One row
is printed per workload, then each side's median and quartiles.  The
exit status is 1 when any verdict is a regression.
"""

import argparse
import json
import sys
from pathlib import Path

from run import describe

ROOT = Path(__file__).resolve().parents[2]

#: Pairs a gain claim needs, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: ``run.py`` settings two paired runs must share.
SETTINGS = ("seed", "smoke", "seconds", "trace")


def load_runs(path):
    return json.loads(Path(path).read_text())["runs"]


def quartiles(values):
    stats = describe(values)
    return stats["q1"], stats["median"], stats["q3"]


def settings(run):
    """What must match between a paired parent and change run."""
    return {key: run.get(key) for key in SETTINGS}


def verdict(parent, change, better, bound):
    """Judge one metric on one workload; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    worse = sign * (c_median - p_median) / p_median
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    all_better = (max(change) < min(parent) if better == "lower"
                  else min(change) > max(parent))
    spread = max((p3 - p1) / p_median, (c3 - c1) / c_median)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and worse < 0
            and abs(c_median - p_median) > p3 - p1):
        label = "gain"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse > bound:
        label = "regression"
    else:
        label = "ok"
    return {
        "verdict": label, "change_pct": 100.0 * worse * sign,
        "spread_pct": 100.0 * spread, "wins": wins, "pairs": pairs,
        "parent": (p1, p_median, p3), "change": (c1, c_median, c3),
    }


def compare(parent_runs, change_runs, spec):
    """``{workload: {metric: verdict}}`` over the workloads both measured."""
    table = {}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        parent_side = [r for r in parent_runs if workload in r["workloads"]]
        change_side = [r for r in change_runs if workload in r["workloads"]]
        pairs = min(len(parent_side), len(change_side))
        if not pairs:
            continue
        for index, (p, c) in enumerate(zip(parent_side, change_side)):
            if settings(p) != settings(c):
                raise ValueError(
                    "{} pair {}: parent run {} != change run {}".format(
                        workload, index, settings(p), settings(c)))
        parent_first = sum(
            1 for p, c in zip(parent_side, change_side)
            if p["started_at"] < c["started_at"])
        parent = [r["workloads"][workload] for r in parent_side[:pairs]]
        change = [r["workloads"][workload] for r in change_side[:pairs]]
        row = {"pairs": pairs, "parent_first": parent_first}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [w["end_to_end"][name]["value"] for w in parent]
            c = [w["end_to_end"][name]["value"] for w in change]
            row[name] = verdict(p, c, metric["better"], metric["bound"])
        p_fail = sum(w["failed"] for w in parent) / max(
            1, sum(w["attempted"] for w in parent))
        c_fail = sum(w["failed"] for w in change) / max(
            1, sum(w["attempted"] for w in change))
        row["fail_rate"] = {
            "verdict": "regression" if c_fail > p_fail else "ok",
            "parent": p_fail, "change": c_fail,
        }
        table[workload] = row
    return table


def print_table(table, spec):
    metrics = [m["name"] for m in spec["end_to_end"]]
    print("{:26s} {:>14s}".format("workload", "pairs") + "".join(
        " {:>34s}".format(name) for name in metrics) + " {:>16s}".format(
        "fail_rate"))
    for workload, row in table.items():
        cells = "".join(
            " {:>34s}".format("{} {:+.1f}% (spread {:.1f}%)".format(
                row[name]["verdict"], row[name]["change_pct"],
                row[name]["spread_pct"]))
            for name in metrics)
        fail = row["fail_rate"]
        print("{:26s} {:>14s}{} {:>16s}".format(
            workload, "{}, {} parent 1st".format(
                row["pairs"], row["parent_first"]),
            cells, "{} {:.2f}->{:.2f}".format(
                fail["verdict"], fail["parent"], fail["change"])))
    if any(row["pairs"] < MIN_PAIRS for row in table.values()):
        print("(fewer than {} pairs: no gain can be claimed)".format(
            MIN_PAIRS))
    print("\nmedian [q1, q3] parent -> change, change wins / pairs")
    for workload, row in table.items():
        for name in metrics:
            v = row[name]
            print("  {:26s} {:12s} {:.4f} [{:.4f}, {:.4f}] -> "
                  "{:.4f} [{:.4f}, {:.4f}]  {}/{}".format(
                      workload, name, v["parent"][1], v["parent"][0],
                      v["parent"][2], v["change"][1], v["change"][0],
                      v["change"][2], v["wins"], v["pairs"]))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="results file of the parent commit")
    parser.add_argument("change", help="results file of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        table = compare(load_runs(args.parent), load_runs(args.change), spec)
    except ValueError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    print_table(table, spec)
    regressed = any(
        row[name]["verdict"] == "regression"
        for row in table.values()
        for name in [m["name"] for m in spec["end_to_end"]] + ["fail_rate"])
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
