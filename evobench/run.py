#!/usr/bin/env python3
"""Build and run the evolvenet benchmark.

    python3 evobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 evobench/run.py --selftest

Run from the root of a source tree. The first form builds
evobench/main.exe with dune (shared build cache off, so nothing is
written outside the tree) and runs it; the last line of standard output
is the JSON result. Without the library sources next to it the build
fails and the script exits non-zero without a result.

--selftest runs every workload at a tiny size, untraced and traced,
checks that each prints exactly the metrics BENCHMARK.json names, all
finite, with zero failed operations, then repeats the untraced runs on
a second seed.
"""

import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "evobench", "main.exe")


def fail(msg):
    print("evobench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "RESULTS.md"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s here: run from the root of an evolvenet source tree" % need)
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "--display=quiet", "./evobench/main.exe"]
    # build chatter goes to stderr; stdout is reserved for the result
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    """HEAD when the tree is a git checkout, else 'unknown'."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest():
    """MD5 over the library sources, so runs of a tree without git
    history still name the code they measured."""
    h = hashlib.md5()
    for top in ("lib", "evobench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def run(args, capture=False):
    cmd = [EXE] + args + ["--commit", commit(), "--source-digest", source_digest()]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(workload, seed, trace):
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"]
        done = run(args, capture=True)
        label = "%s seed=%d trace=%d" % (workload, seed, trace)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            problems.append("%s: exit %d" % (label, done.returncode))
            return
        res = json.loads(lines[-1])
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            problems.append("%s: result keys %s" % (label, sorted(res)))
            return
        if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
            problems.append("%s: correct=%s attempted=%d failed=%d" % (
                label, res["correct"], res["attempted"], res["failed"]))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != wanted[trace]:
            missing = sorted(set(wanted[trace]) - set(got))
            extra = sorted(set(got) - set(wanted[trace]))
            problems.append("%s: missing %s, extra %s (or unit mismatch)" % (
                label, missing, extra))
        for k, v in res["metrics"].items():
            if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                problems.append("%s: %s is not a finite number" % (label, k))
        print("selftest %-36s ok=%s" % (label, not problems), flush=True)

    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        check(name, 1, 0)
        check(name, 1, 1)
    for name in names:
        check(name, 2, 0)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--selftest"]:
        sys.exit(selftest())
    sys.exit(run(argv).returncode)


if __name__ == "__main__":
    main()
