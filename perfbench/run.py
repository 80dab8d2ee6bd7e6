#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the repository root. It builds perfbench/ (a Go module that
imports the repository through a relative replace) into .bench_build/,
with the Go build cache there too, then runs one workload and relays its
output; the last line is the JSON result. --smoke runs every workload at
tiny sizes with the traced replay, plus corrupted-response negative
cases, and checks the results. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["score_cold", "edit_session", "opi_flow"]
# The request classes each workload corrupts in the smoke negative cases.
CORRUPT_CLASSES = {"score_cold": ["score"], "edit_session": ["hit", "delta"], "opi_flow": ["opi"]}


def go_env():
    """Keep every file Go writes inside the checkout, and stay offline."""
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD_DIR, "gocache"),
        "GOPATH": os.path.join(BUILD_DIR, "gopath"),
        "GOMODCACHE": os.path.join(BUILD_DIR, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD_DIR, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD_DIR, "cache"),
        "GOTMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "TMPDIR": os.path.join(BUILD_DIR, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
    })
    return env


def find_go():
    go = shutil.which("go")
    if go is None and os.path.exists("/usr/local/go/bin/go"):
        go = "/usr/local/go/bin/go"
    return go


def build():
    go = find_go()
    if go is None:
        sys.exit("run.py: no go toolchain found")
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    res = subprocess.run([go, "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=go_env(),
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("run.py: build failed")


def run_bench(args, capture=False):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT, env=go_env(),
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, (out.decode() if out else "")


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "2", "--smoke"]
        for trace, want in (("0", e2e), ("1", layers)):
            spans = os.path.join(BUILD_DIR, "spans", "smoke-%s.jsonl" % w)
            code, out = run_bench(base + ["--trace", trace, "--spans", spans], capture=True)
            res = last_json(out) if code == 0 else None
            if res is None:
                problems.append("%s trace %s: exit %d" % (w, trace, code))
                continue
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace %s: correct=%s failed=%d" % (w, trace, res["correct"], res["failed"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append("%s trace %s: metric names or units differ from BENCHMARK.json: %s"
                                % (w, trace, sorted(set(got.items()) ^ set(want.items()))))
            if trace == "1" and not os.path.exists(spans):
                problems.append("%s: no spans written" % w)
            print("smoke %-12s trace %s: correct=%s attempted=%d failed=%d"
                  % (w, trace, res["correct"], res["attempted"], res["failed"]))
        # Negative cases: one corrupted response must be counted as failed.
        for cls in CORRUPT_CLASSES[w]:
            code, out = run_bench(base + ["--trace", "0", "--corrupt", cls], capture=True)
            res = last_json(out) if code == 0 else None
            if res is None or res["correct"] or res["failed"] < 1:
                problems.append("%s: corrupted %s response was not caught (%s)" % (w, cls, res))
            else:
                print("smoke %-12s negative case: corrupted %s response counted, failed=%d"
                      % (w, cls, res["failed"]))
    for p in problems:
        print("SMOKE FAIL:", p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--smoke", action="store_true", help="tiny-size run of every workload with checks")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    build()
    if a.smoke:
        return smoke()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        args += ["--spans", os.path.join(BUILD_DIR, "spans", "%s-seed%d.jsonl" % (a.workload, a.seed))]
    code, _ = run_bench(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
