#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

  python3 perfbench/selftest.py

1. Smoke: every workload, untraced and traced, on tiny inputs, emits
   exactly the metrics BENCHMARK.json names, each with its unit.
2. A planted wrong native reference makes every workload's run fail.
3. The same seed gives the same inputs; another seed gives others.
4. `compare` verdicts on hand-made samples.
5. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(*args, cwd=None):
    r = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                       + list(args), capture_output=True, text=True,
                       cwd=cwd, timeout=300)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r.returncode, result, r


def smoke():
    for w in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            what = "smoke %s --trace %d" % (w["name"], trace)
            rc, res, r = bench("--workload", w["name"], "--seed", "7",
                               "--seconds", "1", "--trace", str(trace),
                               "--smoke")
            if res is None:
                expect(False, what + ": no JSON result (%s)" % r.stderr.strip())
                continue
            expect(rc == 0 and set(res) == {"correct", "attempted", "failed",
                                             "metrics"}
                   and res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, what + ": correct, exit 0")
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = res["metrics"]
            expect(set(got) == set(want),
                   what + ": metric names match BENCHMARK.json %s" % group)
            expect(all(got[k]["unit"] == want[k] for k in want if k in got),
                   what + ": units match")
            expect(all(isinstance(m["value"], (int, float))
                       and math.isfinite(m["value"]) for m in got.values()),
                   what + ": values are finite numbers")


def planted():
    for w in SPEC["workloads"]:
        rc, res, _ = bench("--workload", w["name"], "--seed", "7", "--seconds",
                           "1", "--smoke", "--plant-wrong-reference")
        expect(rc != 0 and res is not None and not res["correct"]
               and res["failed"] == res["attempted"] and res["attempted"] > 0,
               "planted wrong reference trips the check on %s" % w["name"])


def seeded():
    exe = run.BENCH_EXE

    def digest(seed):
        r = subprocess.run([exe, "--workload", "phase-churn", "--seed",
                            str(seed), "--smoke", "--inputs-digest"],
                           capture_output=True, text=True)
        return r.stdout.strip()
    a, b, c = digest(3), digest(3), digest(4)
    expect(a and a == b and a != c,
           "inputs are a function of the seed (%s %s %s)" % (a, b, c))


def verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [x * 0.8 for x in base]
    slower = [x * 1.3 for x in base]
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0, 9.0, 11.0, 6.0, 14.0, 10.0]
    expect(run.verdict(base, faster, "lower", 0.1) == "improved",
           "compare: a 20% faster side is improved")
    expect(run.verdict(base, slower, "lower", 0.1) == "worse",
           "compare: a 30% slower side is worse")
    expect(run.verdict(base, list(base), "lower", 0.1) == "within bound",
           "compare: the same samples are within bound")
    expect(run.verdict(base, noisy, "lower", 0.1) == "unresolved",
           "compare: a spread wider than the bound is unresolved")
    expect(run.verdict(base, slower, "higher", 0.1) == "improved",
           "compare: 'better: higher' flips the direction")


def bare_directory():
    root = os.path.join(HERE, "..")
    out_dir = os.path.join(root, run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, res, _ = bench("--workload", SPEC["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0",
                           cwd=tmp)
        expect(rc != 0 and res is None,
               "a directory with only the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    os.chdir(os.path.join(HERE, ".."))
    verdicts()
    smoke()
    planted()
    seeded()
    bare_directory()
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)
