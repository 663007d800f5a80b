#!/usr/bin/env python3
r"""Control-plane benchmark for CapMaestro.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload deep-10k --seed 1 \
        --seconds 30 --trace 0

The first run builds perfbench_plane, the CMake package in this
directory, which compiles the library from ../src into .bench_build/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, measured with tracing off;
with --trace 1 they are its per-layer metrics, from a traced
measurement, plus trace_cost.* (traced minus untraced value of every
end-to-end metric). METRICS.md says what each metric is and which
end-to-end metric each layer should move.

Every run also writes a record, stamped with a fingerprint (source
digest and git sha when known, build type, nproc, CPU model, host
processes, benchmark digest), to .bench_build/results/. Summarise one
set of records, or compare two, with

    python3 perfbench/run.py --report DIR_A [DIR_B]

which refuses records whose machine and benchmark fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
RESULTS = os.path.join(REPO, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench_plane")
BUILD_TYPE = "Release"
WORKLOADS = ("deep-10k", "table4-room", "feedfail-sim")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Fingerprint fields that must match before two records are compared.
COMPARABLE = ("benchmark", "build_type", "nproc", "cpu_model",
              "host_processes")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            out.write("timed out\n")
            return 1


def build():
    """Configure (once) and build perfbench_plane; exit on failure."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no CapMaestro sources next to the benchmark "
             "(expected src/CMakeLists.txt beside perfbench/)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(REPO, ".bench_build", "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(max(1, min(4, nproc())))
    for attempt in range(2):
        ok = True
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            ok = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log,
                            max(1, deadline - time.monotonic())) == 0
        if ok:
            ok = run_logged(["cmake", "--build", BUILD, "--target",
                             "perfbench_plane", "-j", jobs], log,
                            max(1, deadline - time.monotonic())) == 0
        if ok and os.access(BINARY, os.X_OK):
            return
        if attempt == 0:
            # A cache from another checkout location cannot be reused.
            subprocess.run(["cmake", "-E", "remove_directory", BUILD])
            os.makedirs(BUILD, exist_ok=True)
    with open(log) as f:
        sys.stderr.write("".join(f.readlines()[-40:]))
    fail("build failed (log: .bench_build/build.log)")


def digest(paths):
    h = hashlib.sha256()
    for root in paths:
        for base, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(host_processes):
    return {
        "git_sha": git_sha(),
        "source": digest([os.path.join(REPO, "src")]),
        "benchmark": digest([HERE]),
        "build_type": BUILD_TYPE,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "host_processes": host_processes,
    }


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out" % args.workload)
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail("perfbench_plane exited %d without a result" % proc.returncode)

    spec = load_spec()

    def value(group, name):
        # A layer the workload does not have, or a measurement the gate
        # cut short, reads 0.
        return result[group].get(name, {"value": 0.0})["value"]

    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name.startswith("trace_cost."):
                base = name[len("trace_cost."):]
                v = value("traced_e2e", base) - value("e2e", base)
            else:
                v = value("layers", name)
            metrics[name] = {"value": v, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": value("e2e", m["name"]),
                                  "unit": m["unit"]}

    violations = result["violations"]
    correct = not violations
    attempted = max(1, result["attempted"])
    # A run that fails the gate counts every due budget as failed.
    failed = result["fallbacks"] if correct else attempted

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(result["host_processes"]),
        "correct": correct, "attempted": attempted, "failed": failed,
        "violations": violations, "e2e": result["e2e"],
        "traced_e2e": result["traced_e2e"], "layers": result["layers"],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-s%d-t%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    fp = record["fingerprint"]
    print("fingerprint: git %s, source %s, benchmark %s, %s, nproc %d, "
          "%s, %d host processes" % (
              fp["git_sha"] or "unknown", fp["source"], fp["benchmark"],
              fp["build_type"], fp["nproc"], fp["cpu_model"],
              fp["host_processes"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def load_records(path):
    files = ([os.path.join(path, n) for n in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    records = []
    for name in files:
        if name.endswith(".json"):
            with open(name) as f:
                records.append(json.load(f))
    return records


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def report(paths):
    """Per-workload medians and quartile spreads of end-to-end metrics;
    with two sets, the drift of the second median against the first."""
    sets = [[r for r in load_records(p) if not r["trace"]] for p in paths]
    keys = {}
    for records in sets:
        for r in records:
            keys.setdefault(r["workload"], set()).add(
                tuple(r["fingerprint"][k] for k in COMPARABLE))
    for workload, seen in sorted(keys.items()):
        if len(seen) > 1:
            for key in sorted(seen, key=str):
                print("%s fingerprint: %s" % (
                    workload, dict(zip(COMPARABLE, key))))
            fail("refusing to compare records with different "
                 "fingerprints", 3)
    spec = load_spec()
    verdict = 0
    for workload in WORKLOADS:
        rows = [[r for r in records if r["workload"] == workload]
                for records in sets]
        if not any(rows):
            continue
        bad = sum(1 for rs in rows for r in rs if not r["correct"])
        print("%s: %s runs%s" % (workload, "/".join(str(len(rs))
                                                    for rs in rows),
                                  ", %d incorrect" % bad if bad else ""))
        verdict |= bool(bad)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols, medians = [], []
            for rs in rows:
                values = [r["e2e"][name]["value"] for r in rs]
                if not values:
                    continue
                med, sp = spread(values)
                medians.append(med)
                flag = "" if sp <= bound / 3 else (
                    " (>bound/3)" if sp <= bound else " (>bound)")
                if sp > bound and name != "setup_s":
                    verdict = 1
                cols.append("median %.6g spread %.3f%s" % (med, sp, flag))
            line = "  %-26s bound %.2f  %s" % (name, bound, "  |  ".join(cols))
            if len(medians) == 2 and medians[0]:
                worse = (medians[1] - medians[0]) / abs(medians[0])
                if m["better"] == "higher":
                    worse = -worse
                line += "  drift %+.3f%s" % (
                    worse, " (worse than bound)" if worse > bound else "")
                if worse > bound:
                    verdict = 1
            print(line)
    sys.exit(verdict)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--report", nargs="+", metavar="RECORDS",
                        help="one or two directories (or files) of records")
    args = parser.parse_args()
    if args.report:
        if len(args.report) > 2:
            parser.error("--report takes one or two sets of records")
        report(args.report)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    run(args)


if __name__ == "__main__":
    main()
