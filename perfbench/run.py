#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/ (and the
simulator libraries it links from src/) into .bench_build/ as a Release
build, runs one workload, prints every metric by name with its unit and
direction, writes the full results (run facts, every run, the metrics)
to .bench_out/, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (the traced run also writes its spans to
.bench_out/ as a Chrome trace). The exit code is 0 only when every run
passed its correctness checks.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Generous per-run ceiling; a healthy run takes run_seconds plus a few.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def spec_problems(spec):
    """Every way BENCHMARK.json breaks the naming rules (empty = none)."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r for %s" % (m["unit"], m["name"]))
            if m["better"] not in ("higher", "lower"):
                problems.append("bad direction for %s" % m["name"])
    for n in names:
        if not NAME_RE.match(n):
            problems.append("bad name %r" % n)
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        problems.append("names used twice: %s" % ", ".join(dupes))
    return problems


def result_problems(result, expected):
    """Every way @result breaks the output schema (empty = none).
    @expected is the BENCHMARK.json metric list the mode must print."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    problems = []
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        v = result[k]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append("%s must be a whole number" % k)
    if result["attempted"] == 0:
        problems.append("attempted must be at least 1")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if not isinstance(metrics, dict) or set(metrics) != set(want):
        got = set(metrics) if isinstance(metrics, dict) else set()
        problems.append("metrics missing %s, unexpected %s"
                        % (sorted(set(want) - got), sorted(got - set(want))))
        return problems
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("%s must hold exactly value and unit" % name)
            continue
        v = m["value"]
        if (not isinstance(v, (int, float)) or isinstance(v, bool)
                or not math.isfinite(v)):
            problems.append("%s value is not a finite number" % name)
        if m["unit"] != want[name]:
            problems.append("%s unit %r, BENCHMARK.json says %r"
                            % (name, m["unit"], want[name]))
    return problems


def source_id():
    """The git commit when there is one, else a digest of the sources
    (benchmark checkouts are plain trees)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    """Configure once, then (re)build the benchmark binary. Build output
    goes to stderr so stdout stays the benchmark's own."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found under %s" % ROOT)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build failed: %s" % " ".join(cmd))
                return False
    return True


def print_table(result, expected):
    better = {m["name"]: m["better"] for m in expected}
    for name, m in result["metrics"].items():
        print("%-34s %22.10g %-9s (%s is better)"
              % (name, m["value"], m["unit"], better[name]))
    print("runs attempted %d, failed %d, correct %s"
          % (result["attempted"], result["failed"], result["correct"]))


def main(argv):
    spec = load_spec()
    problems = spec_problems(spec)
    if problems:
        log("BENCHMARK.json: " + "; ".join(problems))
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--plant-digest-mismatch", action="store_true",
                    help="self-test: corrupt one run's counter digest")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".json", "--commit", source_id()]
    if args.trace:
        cmd += ["--spans-out", stem + ".spans.json"]
    if args.plant_digest_mismatch:
        cmd.append("--plant-digest-mismatch")
    for stale in (stem + ".json", stem + ".spans.json"):
        if os.path.exists(stale):
            os.remove(stale)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("benchmark binary failed (exit %d)" % proc.returncode)
        return 2
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark binary printed no result line")
        return 2
    expected = spec["per_layer" if args.trace else "end_to_end"]
    problems = result_problems(result, expected)
    if problems:
        log("result breaks the output schema: " + "; ".join(problems))
        return 2
    with open(stem + ".json") as f:
        facts = json.load(f)
    print("run facts: nproc %s, %s, %s build%s, commit %s, seed %s"
          % (facts["nproc"], facts["compiler"], facts["build_type"],
             " (WARNING: %s)" % facts["suspect_build"].strip()
             if facts["suspect_build"] else "",
             facts["commit"], facts["seed"]))
    print_table(result, expected)
    log("results written to %s" % os.path.relpath(stem + ".json", ROOT))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
