#!/usr/bin/env python3
"""End-to-end Synapse benchmark: build, run one workload, print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the Synapse
libraries and the driver (perfbench/CMakeLists.txt) under .bench_build/
(or $CARGO_TARGET_DIR, relative to the checkout); later runs rebuild only
what changed. Every file a run writes stays under that directory:

    .bench_build/work/<workload>-<pid>/    stores, trajectories, atom files
                                           (removed when the run ends)
    .bench_build/results/<workload>-seed<N>-trace<T>.json
                                           metrics, checks, fingerprint
    .bench_build/results/<workload>-seed<N>-trace1.spans.json
                                           spans of a traced run (Chrome
                                           trace-event format)

Workloads are those of BENCHMARK.json (perfbench/README.md).

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1. A traced run also reports its tracing overhead
(traced minus untraced end-to-end value) against the latest untraced run
of the same workload and seed, when there is one.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "synapse_perfbench")
RESULTS = os.path.join(BUILD_ROOT, "results")
RUN_TIMEOUT_S = 170
BUILD_JOBS = min(4, os.cpu_count() or 1)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    """Run a build step with its output on stderr; fail the run if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Synapse source tree next to {PACKAGE}")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", PACKAGE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "synapse_perfbench",
               "-j", str(BUILD_JOBS)], "build")


def run_driver(args, workdir, out, spans):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out, "--trace-out", spans]
    env = dict(os.environ, TMPDIR=workdir)
    # Own process group: a timeout takes down the driver and every child
    # it forked (profiled applications, emulation ranks) together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def first_line(cmd, **kwargs):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    except OSError:
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def source_digest():
    """sha256 over src/ and perfbench/: identifies the measured code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def filesystem_of(path):
    """(fstype, mount point) of the mount holding `path`."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    with open("/proc/self/mounts") as f:
        for line in f:
            fields = line.split()
            mount, fstype = fields[1], fields[2]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best[1]):
                best = (fstype, mount)
    return best


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def speed_probe_ms():
    """Median time of a fixed pure-Python loop: shows how fast this
    machine ran at the time, so drift between runs can be told apart
    from a change in the code."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        sum(i * i for i in range(200000))
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def fingerprint(workdir):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    fstype, mount = filesystem_of(workdir)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "git_sha": first_line(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env),
        "source_sha256": source_digest(),
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "store_filesystem": fstype,
        "store_mount": mount,
        "speed_probe_ms": speed_probe_ms(),
    }


def pick(metrics, spec, kind):
    """The metrics BENCHMARK.json names for this run kind, checked."""
    out = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in metrics:
            fail(f"driver did not report {kind} metric {name}")
        if metrics[name]["unit"] != entry["unit"]:
            fail(f"{name}: unit {metrics[name]['unit']} != {entry['unit']}")
        out[name] = {"value": metrics[name]["value"], "unit": entry["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}")
    out = f"{stem}-trace{args.trace}.json"
    spans = f"{stem}-trace1.spans.json"
    workdir = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        status = run_driver(args, workdir, out, spans)
        meta = fingerprint(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if status != 0:
        fail(f"{args.workload} driver exited with {status}")

    with open(out) as f:
        doc = json.load(f)
    doc["fingerprint"] = meta
    e2e = pick(doc["end_to_end"], spec, "end_to_end")
    if args.trace:
        metrics = pick(doc["per_layer"], spec, "per_layer")
        try:
            with open(f"{stem}-trace0.json") as f:
                untraced = json.load(f)["end_to_end"]
            doc["tracing_overhead"] = {
                name: e2e[name]["value"] - untraced[name]["value"]
                for name in e2e if name in untraced}
        except (OSError, ValueError, KeyError):
            pass
    else:
        metrics = e2e
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)

    for name, m in sorted(e2e.items()):
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for failure in doc["failures"]:
        print(f"{args.workload} check failed: {failure}")
    if "tracing_overhead" in doc:
        print("tracing_overhead " + json.dumps(doc["tracing_overhead"]))
    print("fingerprint " + json.dumps(meta))
    print(json.dumps({
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
