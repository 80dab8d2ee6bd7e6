#!/usr/bin/env python3
"""Run-to-run spread and held-out-seed agreement of the benchmark.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--heldout 9001]

Run it from the repository root. For each workload it runs
perfbench/run.py once per seed (trace 0), then prints, for every
end-to-end metric, the median, the quartile spread (Q3 - Q1 of
statistics.quantiles(values, n=4), as a share of the median) and that
spread against the metric's bound in BENCHMARK.json. With --heldout it
also runs that seed and reports whether each of its values lies within
the bound of the seeds' median. It exits non-zero if any run fails its
correctness check, any spread exceeds its bound, or a held-out value
falls outside its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"], capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d: exit %d\n%s" % (workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--heldout", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = 0
    for w in a.workloads.split(","):
        results = []
        for seed in parse_seeds(a.seeds):
            r = run(w, seed, a.seconds)
            results.append(r)
            vals = " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(r["metrics"].items()))
            print("%s seed %d: correct=%s attempted=%d failed=%d %s"
                  % (w, seed, r["correct"], r["attempted"], r["failed"], vals), flush=True)
            if not r["correct"]:
                bad += 1
        held = run(w, a.heldout, a.seconds) if a.heldout is not None else None
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            ok = spread <= bound
            line = "%-12s %-15s median %12.5g  spread %6.3f  bound %.3f  %s" % (
                w, name, med, spread, bound, "ok" if ok else "OVER BOUND")
            if spread > bound / 3 and ok:
                line += " (above a third of the bound)"
            if held is not None:
                hv = held["metrics"][name]["value"]
                dev = (hv - med) / med
                hok = abs(dev) <= bound
                line += "  | held-out seed %d: %.5g (%+.3f) %s" % (a.heldout, hv, dev, "ok" if hok else "OUTSIDE BOUND")
                bad += not hok
            bad += not ok
            print(line, flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
