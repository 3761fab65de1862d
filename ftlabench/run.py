#!/usr/bin/env python3
"""Build ftla-bench from source and run it.

Run from the repository root:

    python3 ftlabench/run.py --workload fj-dense --seed 1 --seconds 28 --trace 0
    python3 ftlabench/run.py --smoke-test

Every argument except --smoke-test is passed to the ftla-bench binary
(see ftla_bench.cpp or README.md); its last stdout line is the result
JSON. The build goes to $CARGO_TARGET_DIR/ftlabench, or
.bench_build/ftlabench when that variable is unset, and build output goes
to stderr. With --trace 1 and no --spans, spans are written next to the
build as spans/<workload>-seed<seed>.json.

--smoke-test builds, then runs every workload of BENCHMARK.json at smoke
size, end-to-end and traced, and fails unless each run exits 0, reports
correct, and prints every metric BENCHMARK.json names for its mode.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "ftlabench")


def build():
    """Configures once, then builds; returns the binary path or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ftla-bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("ftlabench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "ftla-bench")


def arg_value(args, flag, default):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def smoke_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {"0": [m["name"] for m in spec["end_to_end"]],
             "1": [m["name"] for m in spec["per_layer"]]}
    failures = 0
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", w["name"], "--seed", "1", "--seconds", "0",
                   "--trace", trace, "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            problem = None
            if proc.returncode != 0 or not lines:
                problem = "exit %d" % proc.returncode
            else:
                result = json.loads(lines[-1])
                missing = [n for n in names[trace] if n not in result["metrics"]]
                if not result["correct"]:
                    problem = "not correct"
                elif missing:
                    problem = "missing metrics " + ", ".join(missing)
            status = "ok" if problem is None else "FAIL (%s)" % problem
            print("smoke %-13s trace=%s %s" % (w["name"], trace, status))
            if problem is not None:
                failures += 1
                sys.stderr.write(proc.stdout + proc.stderr)
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if args == ["--smoke-test"]:
        return smoke_test(binary)
    if arg_value(args, "--trace", "0") == "1" and "--spans" not in args:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        name = "%s-seed%s.json" % (arg_value(args, "--workload", "run"),
                                   arg_value(args, "--seed", "1"))
        args += ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
