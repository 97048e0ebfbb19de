#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --spread RUNS_DIR
    python3 perfbench/compare.py --self-check

A run directory holds one `*.out` file per run: the standard output of
`perfbench/run.py ... --trace 0`. Runs are grouped by the workload named in
their provenance line; traced runs and other files are skipped.

For each workload and end-to-end metric of BENCHMARK.json the comparison
prints one verdict:

  improved    the change wins at least 9 of 10 pairs (runs paired by seed,
              ties count for neither side) and its median is better than the
              parent's by more than the parent's interquartile range;
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the metric's bound (unless every change run is
              better than every parent run, which is an improvement);
  regressed   the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

Each side's share of failed operations is printed too. Quartiles are
Python's statistics.quantiles(values, n=4). Exit code: 1 if any metric
regressed or either side reported a wrong answer, else 0.
"""

import json
import os
import random
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """Returns (provenance dict, result dict) from one run's stdout."""
    lines = [l for l in text.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    prov = {}
    for line in lines[:-1]:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "provenance" in obj:
            prov = obj["provenance"]
    return prov, result


def load_runs(directory):
    """workload -> list of (seed, result) for the untraced runs in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not name.endswith(".out") or not os.path.isfile(path):
            continue
        with open(path) as f:
            try:
                prov, result = parse_run(f.read())
            except (ValueError, IndexError):
                print("skipping %s: no result line" % path, file=sys.stderr)
                continue
        if prov.get("trace"):
            continue
        runs.setdefault(prov.get("workload", "?"), []).append((prov.get("seed"), result))
    return runs


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def pair_up(parent, change):
    """Pairs (seed, value) lists by seed when the seed sets match, else by order."""
    ps, cs = dict(parent), dict(change)
    if len(ps) == len(parent) and set(ps) == set(cs):
        return [(ps[s], cs[s]) for s in sorted(ps)]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(parent, change, better, bound):
    """Verdict for one metric; `parent`/`change` are lists of (seed, value)."""
    sign = 1.0 if better == "higher" else -1.0
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    mp, q1p, q3p, spread_p = quartile_spread(pv)
    mc, _, _, spread_c = quartile_spread(cv)
    gain = sign * (mc - mp)
    pairs = pair_up(parent, change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > (q3p - q1p):
        return "improved"
    if max(spread_p, spread_c) > bound:
        if all(sign * (c - p) > 0 for c in cv for p in pv):
            return "improved"
        return "unresolved"
    if mp and -gain / abs(mp) > bound:
        return "regressed"
    return "unchanged"


def failed_share(results):
    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    return failed, attempted


def metric_values(results, name):
    return [(seed, r["metrics"][name]["value"]) for seed, r in results
            if name in r.get("metrics", {})]


def compare(parent_dir, change_dir):
    spec = load_spec()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        p, c = parent.get(wl, []), change.get(wl, [])
        if not p or not c:
            print("%s: missing runs (parent %d, change %d)" % (wl, len(p), len(c)))
            continue
        pf, pa = failed_share(p)
        cf, ca = failed_share(c)
        print("%s: parent %d runs, failed %d/%d (%.6f); change %d runs, failed %d/%d (%.6f)"
              % (wl, len(p), pf, pa, pf / pa, len(c), cf, ca, cf / ca))
        if not all(r["correct"] for _, r in p + c):
            print("  WRONG ANSWER reported by at least one run")
            status = 1
        for m in spec["end_to_end"]:
            pv, cv = metric_values(p, m["name"]), metric_values(c, m["name"])
            if not pv or not cv:
                continue
            v = verdict(pv, cv, m["better"], m["bound"])
            if v == "regressed":
                status = 1
            mp, q1p, q3p, _ = quartile_spread([x for _, x in pv])
            mc, q1c, q3c, _ = quartile_spread([x for _, x in cv])
            print("  %-22s parent %12.4g [%.4g, %.4g]  change %12.4g [%.4g, %.4g]  %+7.2f%%  %s"
                  % (m["name"], mp, q1p, q3p, mc, q1c, q3c,
                     100.0 * (mc - mp) / mp if mp else 0.0, v))
    return status


def spread(runs_dir):
    """Prints each metric's median and quartile spread against its bound."""
    spec = load_spec()
    runs = load_runs(runs_dir)
    status = 0
    for wl in [w["name"] for w in spec["workloads"]]:
        rs = runs.get(wl, [])
        if not rs:
            continue
        f, a = failed_share(rs)
        print("%s: %d runs, failed %d/%d, correct=%s" % (wl, len(rs), f, a,
                                                        all(r["correct"] for _, r in rs)))
        for m in spec["end_to_end"]:
            vals = [x for _, x in metric_values(rs, m["name"])]
            if not vals:
                continue
            med, q1, q3, sp = quartile_spread(vals)
            flag = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                flag, status = "  OVER BOUND", 1
            elif m["name"] != "setup_s" and sp > m["bound"] / 3:
                flag = "  over a third of the bound"
            print("  %-22s median %12.4g  spread %6.3f  bound %.3f%s"
                  % (m["name"], med, sp, m["bound"], flag))
    return status


def self_check():
    """Runs the verdict rule on synthetic run sets whose verdicts are known."""
    rng = random.Random(7)

    def runs(center, noise):
        return [(seed, center * (1 + rng.gauss(0, noise))) for seed in range(10)]

    cases = [
        ("same distribution", runs(100, 0.01), runs(100, 0.01), "lower", 0.1, "unchanged"),
        ("20% faster", runs(100, 0.01), runs(80, 0.01), "lower", 0.1, "improved"),
        ("30% slower", runs(100, 0.01), runs(130, 0.01), "lower", 0.1, "regressed"),
        ("5% slower within bound", runs(100, 0.01), runs(105, 0.01), "lower", 0.1,
         "unchanged"),
        ("throughput up 25%", runs(1000, 0.01), runs(1250, 0.01), "higher", 0.1, "improved"),
        ("throughput down 25%", runs(1000, 0.01), runs(750, 0.01), "higher", 0.1, "regressed"),
        ("spread wider than bound", runs(100, 0.3), runs(110, 0.3), "lower", 0.1, "unresolved"),
    ]
    ok = True
    for name, p, c, better, bound, want in cases:
        got = verdict(p, c, better, bound)
        print("%-26s want %-10s got %-10s %s" % (name, want, got, "ok" if got == want else "FAIL"))
        ok &= got == want
    text = ('{"provenance": {"workload": "oltp_point", "seed": 3, "trace": 0}}\n'
            '{"correct": true, "attempted": 10, "failed": 0, '
            '"metrics": {"read_p50_us": {"value": 5.0, "unit": "us"}}}\n')
    prov, result = parse_run(text)
    parsed = prov["seed"] == 3 and result["metrics"]["read_p50_us"]["value"] == 5.0
    print("%-26s %s" % ("run file parsing", "ok" if parsed else "FAIL"))
    return 0 if ok and parsed else 1


def main(argv):
    if argv[1:] == ["--self-check"]:
        return self_check()
    if len(argv) == 3 and argv[1] == "--spread":
        return spread(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
