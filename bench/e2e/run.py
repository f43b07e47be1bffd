#!/usr/bin/env python3
"""End-to-end IPOP benchmark runner.

One run (the form of BENCHMARK.json's "command"):

    python3 bench/e2e/run.py --workload tunnel_clear --seed 1 --seconds 10 --trace 0

builds bench_e2e from this checkout's sources (into $CARGO_TARGET_DIR, or
.bench_build), runs one workload, checks its outputs and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones (and
writes a Chrome trace next to the build).

All workloads, interleaved, with medians and IQRs per metric:

    python3 bench/e2e/run.py --all --reps 5 [--trace 0|1] [--out set.json]

Compare two such sets against the bounds in BENCHMARK.json:

    python3 bench/e2e/run.py --compare parent.json change.json

Self-test of the comparator (no build, no workloads):

    python3 bench/e2e/run.py --self-test
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
# Per-run limit for bench_e2e; a run takes 7-25 s on a 4-vCPU Xeon VM.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


# --- build -------------------------------------------------------------------


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def build():
    """Configure (once) and build bench_e2e; returns the binary path."""
    if not (ROOT / "src" / "ipop" / "node.hpp").is_file():
        raise SystemExit("bench/e2e: no IPOP sources under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise SystemExit("bench/e2e: cmake not found")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build directory.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(out), "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return out / "bench_e2e"


# --- one run -----------------------------------------------------------------


def run_once(binary, spec, workload, seed, seconds, trace):
    """Run one workload; returns the checked result dict."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / ("%s-seed%d.json" % (workload, seed)))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("bench_e2e exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])
    return check_result(result, spec, trace)


def check_result(result, spec, trace):
    """Validate the driver's result against BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit("malformed result keys: %s" % sorted(result))
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"]: m for m in wanted}
    got = result["metrics"]
    if set(got) != set(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        raise SystemExit("metric set mismatch: missing %s, extra %s" % (missing, extra))
    correct = bool(result["correct"])
    for name, m in got.items():
        value = m["value"]
        if m["unit"] != names[name]["unit"]:
            raise SystemExit("metric %s: unit %s, expected %s"
                             % (name, m["unit"], names[name]["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SystemExit("metric %s is not a finite number" % name)
        if not trace and value <= 0:
            log("metric %s is %r; end-to-end metrics are never 0" % (name, value))
            correct = False
    if result["attempted"] < 1:
        log("no operation was attempted")
        correct = False
    result["correct"] = correct
    return result


# --- sets, summaries, comparison -----------------------------------------------


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def run_set(spec, reps, seconds, trace, seed_base):
    """Repetitions interleaved across workloads, so host-speed drift lands
    on every workload alike."""
    binary = build()
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for rep in range(reps):
        for w in workloads:
            seed = seed_base + rep
            t0 = time.time()
            r = run_once(binary, spec, w, seed, seconds, trace)
            log("%-14s seed %-4d %5.1fs correct=%s failed=%d/%d"
                % (w, seed, time.time() - t0, r["correct"], r["failed"],
                   r["attempted"]))
            runs[w].append(r)
    return runs


def summarize(runs):
    table = {}
    for w, rs in runs.items():
        table[w] = {}
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rs]
            table[w][name] = {
                "unit": rs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "iqr_frac": spread(values),
                "values": values,
            }
    return table


def print_summary(table):
    for w, metrics in table.items():
        print("%s" % w)
        for name, s in metrics.items():
            print("  %-28s %14.6g %-8s IQR %6.2f%%"
                  % (name, s["median"], s["unit"], 100 * s["iqr_frac"]))


def compare(spec, base, new):
    """Verdict per (workload, metric): pass, fail or unresolved.

    A metric fails when the change's median is worse than the parent's by
    more than its bound.  When either side's spread is wider than the
    bound the metric is unresolved, unless every run of the change reads
    better than every run of the parent.  A workload whose change fails a
    larger share of its operations fails outright.
    """
    verdicts = {}
    for w in base:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            b = [r["metrics"][name]["value"] for r in base[w]]
            n = [r["metrics"][name]["value"] for r in new[w]]
            bm, nm = statistics.median(b), statistics.median(n)
            worse = sign * (nm - bm) / abs(bm) if bm else 0.0
            all_better = all(sign * (x - y) < 0 for x in n for y in b)
            if max(spread(b), spread(n)) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "fail"
            else:
                verdict = "pass"
            verdicts[(w, name)] = (verdict, worse)
        share = lambda rs: (sum(r["failed"] for r in rs)
                            / max(1, sum(r["attempted"] for r in rs)))
        if share(new[w]) > share(base[w]):
            verdicts[(w, "failed_share")] = ("fail", share(new[w]) - share(base[w]))
        else:
            verdicts[(w, "failed_share")] = ("pass", 0.0)
    return verdicts


def self_test():
    spec = {"end_to_end": [
        {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.05},
        {"name": "pps", "unit": "1/s", "better": "higher", "bound": 0.10},
    ]}

    def runs(lat, pps, failed=0, attempted=1000):
        return [{"correct": True, "attempted": attempted, "failed": failed,
                 "metrics": {"lat_ms": {"value": l, "unit": "ms"},
                             "pps": {"value": p, "unit": "1/s"}}}
                for l, p in zip(lat, pps)]

    steady = [10.0, 10.01, 9.99, 10.02, 9.98]
    base = {"w": runs(steady, [100, 101, 99, 100.5, 99.5])}
    cases = [
        ("worse than its bound fails",
         {"w": runs([x * 1.10 for x in steady], [100, 101, 99, 100.5, 99.5])},
         ("w", "lat_ms"), "fail"),
        ("within its bound passes",
         {"w": runs([x * 1.02 for x in steady], [97, 98, 96, 97.5, 96.5])},
         ("w", "pps"), "pass"),
        ("larger failure share fails",
         {"w": runs(steady, [100, 101, 99, 100.5, 99.5], failed=5)},
         ("w", "failed_share"), "fail"),
        ("spread wider than the bound is unresolved",
         {"w": runs(steady, [60, 140, 80, 120, 100])},
         ("w", "pps"), "unresolved"),
    ]
    ok = True
    for what, new, key, want in cases:
        got = compare(spec, base, new)[key][0]
        status = "ok" if got == want else "FAILED"
        ok &= got == want
        print("self-test: %-44s -> %-10s [%s]" % (what, got, status))
    return 0 if ok else 1


# --- main ----------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f)["runs"])
        failed = False
        for (w, name), (verdict, worse) in sorted(compare(spec, *sets).items()):
            print("%-14s %-16s %-10s worse by %+.2f%%" % (w, name, verdict, 100 * worse))
            failed |= verdict == "fail"
        return 1 if failed else 0
    if args.all:
        runs = run_set(spec, args.reps, seconds, args.trace == 1, args.seed)
        table = summarize(runs)
        print_summary(table)
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"runs": runs, "summary": table}, f, indent=1)
        return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1
    if not args.workload:
        ap.error("--workload, --all, --compare or --self-test is required")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload %s" % args.workload)
    binary = build()
    result = run_once(binary, spec, args.workload, args.seed, seconds,
                      args.trace == 1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
