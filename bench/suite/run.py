#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

One measurement, the interface BENCHMARK.json declares:
  python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
The last line of stdout is the JSON result; the exit code is non-zero when a
correctness check failed or the build failed.

Every workload, several reps, one JSON file:
  python3 bench/suite/run.py --all [--seed N] [--reps R] [--out FILE]
Two such files side by side:
  python3 bench/suite/run.py --compare A.json B.json
The ctest bench_suite_smoke:
  python3 bench/suite/run.py --smoke --binary PATH

The first call configures and builds bench/suite (Release) into
.bench_build/suite at the repository root; later calls rebuild incrementally.
"""
import argparse
import fcntl
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "bench_suite"

# Metrics read from the host clock or host memory.  Everything else is
# simulated, or a count of simulated work, and repeats exactly for a given
# seed and commit.
HOST_METRIC = re.compile(r"^(wall_s|setup_s|peak_rss_mb)$|_(ns|us|ms)(_|$)|busy_s_est$|"
                         r"events_per_wall_s$|trace_overhead_pct$")


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no Jenga sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "--target", "bench_suite", "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                fail("build failed: " + " ".join(cmd))
    return BINARY


def run_binary(binary, args):
    """Runs bench_suite; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def parse_output(lines):
    """(result JSON or None, meta JSON) from bench_suite's stdout."""
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    meta = next((json.loads(l[5:]) for l in lines if l.startswith("meta ")), {})
    return result, meta


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# --- --all -------------------------------------------------------------------

def host_info(meta):
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "cpu": cpu,
        "nproc": meta.get("nproc"),
        "kernel": platform.release(),
        "build_type": meta.get("build_type"),
        "compiler": meta.get("compiler"),
    }


def run_all(binary, args):
    code, lines = run_binary(binary, ["--list"])
    names = [l.split("\t")[0] for l in lines if l.strip()]
    report = {"seed": args.seed, "reps": args.reps, "host": None, "workloads": {}}
    all_ok = True
    for name in names:
        samples, units, digests, ok = {}, {}, set(), True
        attempted = failed = 0
        runs = [["--trace", "0"]] * args.reps + [["--trace", "1"]]
        for extra in runs:
            code, lines = run_binary(binary, ["--workload", name, "--seed", str(args.seed)] + extra)
            result, meta = parse_output(lines)
            print("\n".join(l for l in lines if l.startswith(("  ", "check FAILED"))))
            if result is None:
                ok = False
                continue
            report["host"] = report["host"] or host_info(meta)
            ok = ok and code == 0 and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            digests.add((meta.get("ledger_digest"), meta.get("admission_digest")))
            metrics = result["metrics"]
            if "wall_s" not in metrics and "wall_s" in meta:  # --trace 0 reports it on meta
                metrics["wall_s"] = {"value": meta["wall_s"], "unit": "s"}
            for metric, v in metrics.items():
                samples.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
        ok = ok and len(digests) == 1
        all_ok = all_ok and ok
        print(f"{name}: {'correct' if ok else 'CHECK FAILED'}, {failed}/{attempted} txs not "
              f"committed, digests {'repeat' if len(digests) == 1 else 'DIFFER'} across reps\n")
        report["workloads"][name] = {
            "correct": ok, "attempted": attempted, "failed": failed,
            "metrics": {m: {"unit": units[m], "median": statistics.median(v), "samples": v}
                        for m, v in samples.items()},
        }
    out = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(out + "\n")
        print(f"wrote {args.out}")
    else:
        print(out)
    return 0 if all_ok else 1


# --- --compare ---------------------------------------------------------------

def compare(path_a, path_b):
    a, b = json.loads(Path(path_a).read_text()), json.loads(Path(path_b).read_text())
    spec = load_benchmark()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    same_commit = a["host"]["commit"] == b["host"]["commit"] != "unknown"
    regressions = 0
    print(f"A={path_a} ({a['host']['commit'][:12]})  B={path_b} ({b['host']['commit'][:12]})")
    for wl in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma, mb = a["workloads"][wl]["metrics"], b["workloads"][wl]["metrics"]
        print(f"\n{wl}")
        print(f"  {'metric':34} {'A median':>12} {'A q1..q3':>23} {'B median':>12} "
              f"{'B q1..q3':>23} {'change':>8} {'bound':>6}  verdict")
        for name in sorted(set(ma) & set(mb)):
            va, vb = ma[name]["samples"], mb[name]["samples"]
            med_a, med_b = statistics.median(va), statistics.median(vb)
            qa, qb = quartiles(va), quartiles(vb)
            change = (med_b - med_a) / med_a if med_a else 0.0
            worse = -change if better.get(name) == "higher" else change
            bound = bounds.get(name, {}).get("bound")
            spread = max((qa[1] - qa[0]) / med_a if med_a else 0,
                         (qb[1] - qb[0]) / med_b if med_b else 0)
            if not HOST_METRIC.search(name) and same_commit:
                verdict = "same" if set(va) == set(vb) else "MISMATCH (deterministic metric moved)"
            elif bound is None:
                verdict = "-"
            elif spread > bound:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            elif worse > bound:
                verdict = "REGRESSION"
            elif -worse > bound:
                verdict = "better"
            else:
                verdict = "within bound"
            if verdict.startswith(("REGRESSION", "MISMATCH")):
                regressions += 1
            print(f"  {name:34} {med_a:12.6g} {qa[0]:11.5g}..{qa[1]:<11.5g} {med_b:12.6g} "
                  f"{qb[0]:11.5g}..{qb[1]:<11.5g} {100 * change:7.2f}% "
                  f"{'' if bound is None else '%.0f%%' % (100 * bound):>6}  {verdict}")
    return 1 if regressions else 0


# --- --smoke -----------------------------------------------------------------

def smoke(binary):
    """leader-crash once in each mode, the two side by side: every
    BENCHMARK.json metric present with its unit, and the correctness gates
    pass."""
    spec = load_benchmark()
    procs = {trace: subprocess.Popen([str(binary), "--workload", "leader-crash", "--seed", "2",
                                      "--trace", trace], stdout=subprocess.PIPE, text=True)
             for trace in ("0", "1")}
    problems = []
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        out, _ = procs[trace].communicate()
        code, lines = procs[trace].returncode, out.splitlines()
        result, _ = parse_output(lines)
        if result is None or code != 0 or not result["correct"]:
            problems.append(f"--trace {trace}: correctness gates failed (exit {code})")
            continue
        for m in declared:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append(f"--trace {trace}: metric {m['name']} missing")
            elif got["unit"] != m["unit"]:
                problems.append(f"--trace {trace}: {m['name']} unit {got['unit']} != {m['unit']}")
        extra = set(result["metrics"]) - {m["name"] for m in declared}
        if extra:
            problems.append(f"--trace {trace}: undeclared metrics {sorted(extra)}")
    for p in problems:
        print("smoke:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=3, help="--all: untraced invocations per workload")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="use this bench_suite instead of building one")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not (args.workload or args.all or args.smoke):
        p.error("--workload, --all, --compare or --smoke is required")
    binary = Path(args.binary) if args.binary else build()
    if args.smoke:
        return smoke(binary)
    if args.all:
        return run_all(binary, args)
    sys.stdout.flush()
    return subprocess.run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
