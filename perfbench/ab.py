#!/usr/bin/env python3
"""A/B runs of the HARBOR benchmark, and its steadiness check.

    python3 perfbench/ab.py --base HEAD~1 --head HEAD [--pairs 10]
    python3 perfbench/ab.py --base . --head . [--pairs 10]

Options: --workloads a,b (default: every workload in BENCHMARK.json),
--seconds (default: its run_seconds), --seed (first seed) and --trace 0|1.

Each side is a commit, extracted with `git archive` under
.bench_build/ab/, or `.` for this working tree. This checkout's perfbench/
is put into both, so both sides run identical benchmark code, and each is
built once. Pair i runs both sides with seed seed+i, alternating which side
runs first. Per workload and metric it prints each side's median,
quartiles and spread (q3 - q1) / median, the change of the medians, how
many pairs the head won (ties count for neither side) and, for a metric
with a bound in BENCHMARK.json, whether a spread or the head's change goes
past it.

With the same tree on both sides it is the steadiness check: every spread,
and the change of every median, must stay within the metric's bound.
Quartiles are statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def tree_for(rev):
    """Returns a directory holding rev's sources with this perfbench/."""
    if rev == ".":
        return ROOT
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = os.path.join(ROOT, ".bench_build", "ab", sha)
    if not os.path.isdir(tree):
        os.makedirs(tree)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit("git archive %s failed" % rev)
    shutil.rmtree(os.path.join(tree, "perfbench"), ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(tree, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s --workload %s --seed %d failed (exit %d):\n%s" %
                 (tree, workload, seed, out.returncode, out.stderr[-2000:]))
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit("%s --workload %s --seed %d: incorrect result" % (tree, workload, seed))
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def directions(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in spec[key]}


def spread(q):
    """(q3 - q1) / median of a quartile triple."""
    return (q[2] - q[0]) / q[1] if q[1] else 0.0


def ab(args, spec, workloads):
    trees = {"base": tree_for(args.base), "head": tree_for(args.head)}
    metrics = directions(spec, args.trace)
    worst = 0.0
    for w in workloads:
        res = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                res[side].append(run_once(trees[side], w, args.seed + i, args.seconds, args.trace))
        print("== %s: %d pairs, failed share base %s head %s" % (
            w, args.pairs,
            sorted({r["failed"] / r["attempted"] for r in res["base"]}),
            sorted({r["failed"] / r["attempted"] for r in res["head"]})))
        for name in sorted(res["base"][0]["metrics"]):
            b = [r["metrics"][name]["value"] for r in res["base"]]
            h = [r["metrics"][name]["value"] for r in res["head"]]
            bq, hq = quartiles(b), quartiles(h)
            better = metrics.get(name, {}).get("better", "lower")
            wins = sum(1 for x, y in zip(b, h) if (y < x if better == "lower" else y > x))
            delta = hq[1] / bq[1] - 1 if bq[1] else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                widest = max(spread(bq), spread(hq))
                worse = -delta if better == "higher" else delta
                worst = max(worst, widest / bound)
                flag = "  bound %g%%" % (100 * bound)
                if widest > bound:
                    flag += " SPREAD TOO WIDE"
                if worse > bound:
                    flag += " HEAD WORSE THAN BOUND"
            print("  %-34s base %-12.6g [%-.6g, %-.6g] (%5.2f%%)  head %-12.6g [%-.6g, %-.6g] (%5.2f%%)  %+7.2f%%  "
                  "head wins %d/%d (%s better)%s" % (
                      name, bq[1], bq[0], bq[2], 100 * spread(bq), hq[1], hq[0], hq[2], 100 * spread(hq),
                      100 * delta, wins, args.pairs, better, flag))
    if worst:
        print("largest spread / bound: %.2f" % worst)


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()
    ab(args, spec, [w for w in args.workloads.split(",") if w])


if __name__ == "__main__":
    main()
