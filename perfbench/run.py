#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench/bench.exe` from source, runs
one workload for a fixed time as repeated fresh-process sessions, and
prints the aggregated metrics as one JSON object on the last line.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py compare A.jsonl B.jsonl

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced sessions and reports the per-layer ledger.
--out FILE appends the result to FILE (one JSON line per run) for
`compare`.  --smoke (tiny inputs) and --plant-wrong-reference exist for
perfbench/selftest.py.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ["kmeans-steady", "oo-interp", "phase-churn", "csv-surgical"]
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".perfbench"  # runtime-events rings and span files; gitignored
SESSION_TIMEOUT_S = 60
MAX_RUN_S = 150  # stay inside the 180 s a run may take
MIN_SESSIONS = 5  # per kind of session, so every median has a middle


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("neither dune nor opam is on PATH")


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the repository root: %s is missing" % need)
    cmd = dune_command() + ["build", "--root", ".", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(BENCH_EXE):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def session_env():
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    # GC settings are part of what is measured: always the defaults
    env.pop("OCAMLRUNPARAM", None)
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT_DIR)
    return env


def run_session(args, traced, env):
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace", "--spans",
                os.path.join(OUT_DIR, args.workload + ".spans.tsv")]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant_wrong_reference:
        cmd.append("--plant-wrong-reference")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "session timed out after %d s" % SESSION_TIMEOUT_S
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, "session exited %d: %s" % (r.returncode, r.stderr.strip())
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "session printed no JSON result"


def median(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def metric(value, unit):
    return {"value": value, "unit": unit}


def steady_sessions(plain):
    """The faster half of the sessions by native reference time.  All
    sessions of a run share one seed, so their native work is the same;
    a session whose native reference ran slow shared the host with a busy
    neighbour.  Such spells slow the JIT's mixed work less than the
    reference's tight loops, so they bias a ratio low; leaving them out
    keeps each ratio to the host's usual state."""
    by_speed = sorted(plain, key=lambda s: median(s["native_ms"]))
    return by_speed[:(len(by_speed) + 1) // 2]


def iqm(xs):
    """Interquartile mean: the mean of the middle half of the values."""
    xs = sorted(xs)
    return statistics.mean(xs[len(xs) // 4:len(xs) - len(xs) // 4])


def end_to_end(plain):
    """The gated metrics.  Times are divided by the native reference
    timed right after each iteration (per iteration for the typical
    iteration, their sum for the wall), so machine-speed drift within
    and between runs cancels.  Each ratio is the median over the run's
    steady sessions (see steady_sessions); setup and RSS are the median
    over all sessions."""
    steady = steady_sessions(plain)
    rel_iter = [iqm([t / n for t, n in zip(s["iter_ms"], s["native_ms"])])
                for s in steady]
    rel_wall = [s["wall_s"] * 1000.0 / sum(s["native_ms"]) for s in steady]
    return {
        "setup_s": metric(median([s["setup_s"] for s in plain]), "s"),
        "wall_vs_native": metric(median(rel_wall), "x"),
        "iter_iqm_vs_native": metric(median(rel_iter), "x"),
        "peak_rss_mb": metric(median([s["peak_rss_mb"] for s in plain]), "MB"),
    }


def raw_times(plain):
    """Absolute times, printed and recorded but not gated: on a shared host
    they drift with machine speed (see README.md)."""
    lat = [x for s in plain for x in s["iter_ms"]]
    return {
        "wall_s": median([s["wall_s"] for s in plain]),
        "iter_p50_ms": median(lat),
        "iter_p90_ms": p90(lat),
        # kept only to document why they are not end-to-end metrics
        "iter_p50_vs_native": median(
            [median([t / n for t, n in zip(s["iter_ms"], s["native_ms"])])
             for s in steady_sessions(plain)]),
        "iter_p90_vs_native": median(
            [p90(s["iter_ms"]) / median(s["native_ms"]) for s in plain]),
        "iter_p99_ms": statistics.quantiles(lat, n=100)[98],
        "first20_ms": median([sum(s["iter_ms"][:20]) for s in plain]),
        "native_iter_p50_ms": median([x for s in plain for x in s["native_ms"]]),
        "iteration_samples": len(lat),
        "sessions": len(plain),
        "steady_sessions": len(steady_sessions(plain)),
    }


def per_layer(plain, traced):
    out = {}
    for name, m in traced[0]["layers"].items():
        out[name] = metric(median([s["layers"][name]["value"] for s in traced]),
                           m["unit"])
    out["trace.overhead"] = metric(
        median([s["wall_s"] for s in traced])
        / median([s["wall_s"] for s in plain]), "ratio")
    return out


def measure(args):
    build()
    env = session_env()
    traced_run = args.trace == 1
    plain, traced, errors = [], [], []
    min_sessions = 1 if args.smoke else MIN_SESSIONS
    start = time.monotonic()
    while True:
        # trace 1 alternates plain and traced sessions, so both see the
        # same machine conditions and their wall ratio is the overhead
        want_traced = traced_run and len(traced) < len(plain)
        res, err = run_session(args, want_traced, env)
        if err:
            errors.append(err)
            break
        (traced if want_traced else plain).append(res)
        elapsed = time.monotonic() - start
        enough = len(plain) >= min_sessions and (
            not traced_run or len(traced) >= min_sessions)
        if (elapsed >= args.seconds and enough) or elapsed >= MAX_RUN_S:
            break
    sessions = plain + traced
    attempted = sum(s["attempted"] for s in sessions) + len(errors)
    failed = sum(s["failed"] for s in sessions) + len(errors)
    for s in sessions:
        if s["first_failure"]:
            print("check failed: %s seed %d trace %d: %s" % (
                s["workload"], s["seed"], s["trace"], s["first_failure"]),
                file=sys.stderr)
            break
    for e in errors:
        print("error: " + e, file=sys.stderr)
    metrics, raw = {}, {}
    if plain and (traced or not traced_run):
        if traced_run:
            metrics = per_layer(plain, traced)
        else:
            metrics, raw = end_to_end(plain), raw_times(plain)
            print("%s seed %d: %d sessions, %d iteration samples, "
                  "wall_s %.4g, iter_p50_ms %.4g, iter_p90_ms %.4g, "
                  "native iteration %.4g ms, fail_ratio %.6g (%d/%d)" % (
                      args.workload, args.seed, raw["sessions"],
                      raw["iteration_samples"], raw["wall_s"],
                      raw["iter_p50_ms"], raw["iter_p90_ms"],
                      raw["native_iter_p50_ms"], failed / attempted, failed,
                      attempted))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "seconds": args.seconds,
                                "raw": raw, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---- compare: two result files, one verdict per workload and metric ----

def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (math.nan,) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Verdict for one metric of one workload.  [base] and [new] are the
    per-run values in run order; the k-th runs of each side form a pair.
    A gain needs ten pairs, nine tenths of them won and a median shift
    beyond the base's IQR; a spread wider than the bound leaves a metric
    unresolved unless every new run beats every base run."""
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (nmed - bmed) > 0 and abs(nmed - bmed) > bq3 - bq1):
        return "improved"
    if sign * (nmed - bmed) < -bound * abs(bmed):
        return "worse"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else math.inf,
                 (nq3 - nq1) / abs(nmed) if nmed else math.inf)
    all_better = all(sign * (n - b) > 0 for b in base for n in new)
    if spread > bound and not all_better:
        return "unresolved"
    return "within bound"


def load_results(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r["trace"] == 0:
                by_workload.setdefault(r["workload"], []).append(r["result"])
    return by_workload


def compare(path_a, path_b):
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load_results(path_a), load_results(path_b)
    print("%-14s %-12s %-32s %-32s %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "verdict"))
    worse = False
    for w in sorted(set(a) | set(b)):
        for m in spec["end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a.get(w, [])
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b.get(w, [])
                  if name in r["metrics"]]
            v = verdict(va, vb, m["better"], m["bound"])
            worse = worse or v == "worse"

            def fmt(xs):
                if not xs:
                    return "-"
                q1, med, q3 = quartiles(xs)
                return "%.6g [%.6g, %.6g] n=%d" % (med, q1, q3, len(xs))
            print("%-14s %-12s %-32s %-32s %s" % (w, name, fmt(va), fmt(vb), v))
        fa = sum(r["failed"] for r in a.get(w, []))
        fb = sum(r["failed"] for r in b.get(w, []))
        ta = sum(r["attempted"] for r in a.get(w, []))
        tb = sum(r["attempted"] for r in b.get(w, []))
        print("%-14s %-12s %-32s %-32s" % (
            w, "fail_ratio", "%d/%d" % (fa, ta), "%d/%d" % (fb, tb)))
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            die("usage: run.py compare A.jsonl B.jsonl")
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--plant-wrong-reference", action="store_true")
    return measure(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
