#!/usr/bin/env python3
"""Build and run the check/lint/serve benchmark from the root of a checkout.

One run:
    python3 perfbench/run.py --workload check-scale --seed 1 --seconds 20 --trace 0

prints a summary and, as its last stdout line, one JSON object with the
keys correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).

Input-size record (what each workload's project holds, as measured):
    python3 perfbench/run.py --inputs [--seed 1]

Steadiness report:
    python3 perfbench/run.py --steadiness [--runs 10] [--seed 1]

runs each workload --runs times with seeds seed, seed+1, ... and prints,
per end-to-end metric, the median and the quartile spread (Q3 - Q1, as
statistics.quantiles(values, n=4) gives them, over the median) against the
bound BENCHMARK.json sets. It exits 1 when a spread exceeds its bound or a
run is not correct.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    # The benchmark links the repository's own libraries, so it needs the
    # sources next to it; refuse early (and without a result) otherwise.
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("run from the root of a full checkout: %s is missing" % needed)
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout + proc.stderr)
        die("build failed", 1)


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(pgid):
    """Kill whatever is left of one run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_once(workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (exit code, stdout)."""
    work = os.path.join(WORK, "%d-%s-%d" % (os.getpid(), workload, seed))
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = "", 124
        print("perfbench: run timed out", file=sys.stderr)
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return code, out


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def steadiness(args):
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bad = []
    for w in workloads:
        values = {}
        for i in range(args.runs):
            code, out = run_once(w, args.seed + i, seconds, 0)
            res = result_of(out) if code == 0 else None
            if res is None or not res["correct"]:
                bad.append("%s seed %d: exit %d, correct=%s" % (w, args.seed + i, code,
                                                                 res and res["correct"]))
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, %ss each)" % (w, args.runs, seconds))
        for m in bench["end_to_end"]:
            vs = values.get(m["name"], [])
            if len(vs) < 2:
                bad.append("%s %s: too few values" % (w, m["name"]))
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= m["bound"]
            print("  %-16s median %12.5g %-6s spread %6.3f  bound %.2f  %s" % (
                m["name"], med, m["unit"], spread, m["bound"], "ok" if ok else "TOO NOISY"))
            if not ok:
                bad.append("%s %s spread %.3f > %.2f" % (w, m["name"], spread, m["bound"]))
    for b in bad:
        print("FAIL " + b)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--inputs", action="store_true")
    args = p.parse_args()
    build()
    if args.steadiness:
        sys.exit(steadiness(args))
    if args.inputs:
        records = []
        for w in spec()["workloads"]:
            code, out = run_once(w["name"], args.seed, 1, 0, extra=["--inputs"])
            if code != 0:
                die("input record of %s failed" % w["name"], 1)
            records.append(json.loads(out.strip().splitlines()[-1]))
        print(json.dumps({"seed": args.seed, "workloads": records}, indent=2))
        return
    if not args.workload:
        die("--workload is required")
    code, out = run_once(args.workload, args.seed, args.seconds or spec()["run_seconds"],
                         args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
