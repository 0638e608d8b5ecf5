#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 vxbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 vxbench/run.py --selftest

Builds vxbench (optimized, from this checkout's sources) on first use into
$CARGO_TARGET_DIR/cmake (default .bench_build/cmake), then runs one workload
in its own process. The last line of standard output is the result JSON;
build output goes to a log file beside the build. Exits non-zero when the
build fails, the sources are missing or any answer is wrong.

--selftest builds and runs the harness self-tests and checks that
BENCHMARK.json lists exactly the metrics and workloads of the binary.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write("vxbench/run.py: " + msg + "\n")
    sys.exit(3)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("the library sources (CMakeLists.txt, src/) are not in this "
             "checkout; nothing to build")
    out = os.path.join(build_dir(), "cmake")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(build_dir(), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def source_hash():
    h = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def selftest():
    binary = build("vxbench")
    tests = build("vxbench_selftest")
    if subprocess.call([tests]) != 0:
        return 1
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {(kind, m["name"], m["unit"], m["better"])
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}
    got = {tuple(line.split()) for line in listed
           if line.startswith(("end_to_end", "per_layer"))}
    ok = want == got
    for extra in sorted(got - want):
        print("reported but not in BENCHMARK.json:", *extra)
    for missing in sorted(want - got):
        print("in BENCHMARK.json but not reported:", *missing)
    workloads = {line.split()[1] for line in listed
                 if line.startswith("workload ")}
    if workloads != {w["name"] for w in spec["workloads"]}:
        print("BENCHMARK.json workloads differ from the binary's:",
              sorted(workloads))
        ok = False
    print("BENCHMARK.json matches the binary" if ok else
          "BENCHMARK.json does NOT match the binary")
    return 0 if ok else 1


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    binary = build("vxbench")
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    sys.stdout.flush()
    return subprocess.call([binary] + argv + [
        "--trace-dir", traces, "--commit", commit(),
        "--source-hash", source_hash()])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
