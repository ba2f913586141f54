#!/usr/bin/env python3
"""The repo benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload fleet|fleet-proc|train \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench_meter and the
repo's libraries from the checkout's sources (CMake, RelWithDebInfo)
under $CARGO_TARGET_DIR (default .bench_build), in a directory of the
checkout's own, trains the fleet model bundle once per source digest,
runs the meter, checks its outputs and prints one JSON object as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. Every result is also appended, with the host
fingerprint it was measured on, to results.jsonl in that directory.
The exit code is 0 when every check passed, 1 when a check failed, and
2 or more when no result could be produced. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Input size of each workload (see README.md, "Workloads").
WORKLOADS = {
    "fleet": {"devices": 56, "chunk_devices": 4},
    "fleet-proc": {"devices": 56, "chunk_devices": 4},
    "train": {},
}
# Tiny sizes for the benchmark's own smoke tests (--smoke).
SMOKE = {
    "fleet": {"devices": 2, "chunk_devices": 1},
    "fleet-proc": {"devices": 2, "chunk_devices": 1},
    "train": {"train_workloads": 4},
}
METER_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def die(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny input sizes (the benchmark's own tests)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def build_root(root):
    """The checkout's own directory under $CARGO_TARGET_DIR, so that two
    checkouts sharing one target directory never build or measure each
    other's sources."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    key = hashlib.sha256(str(root.resolve()).encode()).hexdigest()[:16]
    return (target if target.is_absolute() else root / target) / \
        "perfbench" / key


def run_logged(cmd, what):
    """Run a build step with its output on stderr; die on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die(3, f"{what} failed (exit {proc.returncode})")


def build(out):
    """Configure once, then (re)build the meter; returns its path."""
    build_dir = out / "build"
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       "cmake configure")
        run_logged(["cmake", "--build", str(build_dir), "-j", "2"],
                   "cmake build")
    return build_dir / "perfbench_meter"


def bundle_cache(out, digest):
    """The trained bundle's directory, keyed by the source digest: a
    change to the training or model code trains afresh. Caches of other
    sources are removed."""
    caches = out / "cache"
    for stale in caches.glob("*"):
        if stale.name != digest:
            shutil.rmtree(stale, ignore_errors=True)
    return caches / digest


def read_cmake_cache(build_dir):
    values = {}
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
            if m:
                values[m.group(1)] = m.group(2)
    return values


def source_digest(root):
    """sha256 over the program's sources, so results from two trees that
    differ only outside src/ and perfbench/ stay comparable."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_rev(root):
    if not (root / ".git").exists():
        return "none"
    try:
        return subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def host_fingerprint(root, build_dir, digest, args):
    """What a result may only be compared within (README.md)."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            caches.append(f"L{level}{kind[0].lower()}={size}")
        except OSError:
            continue
    cmake = read_cmake_cache(build_dir)
    compiler = cmake.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    build_type = cmake.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cmake.get("CMAKE_CXX_FLAGS", ""),
        cmake.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
        "-std=c++20 -Wall -Wextra -Werror"]))
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "caches": " ".join(caches),
        "compiler": version,
        "flags": flags,
        "build_type": build_type,
        "git_rev": git_rev(root),
        "src_digest": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_meter_output(text):
    metrics, checks, counts = {}, [], {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "metric" and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
        elif parts[0] in ("check", "finding") and len(parts) == 4:
            checks.append((parts[0], parts[1], parts[2] == "1", parts[3]))
        elif parts[0] in ("attempted", "failed") and len(parts) == 2:
            counts[parts[0]] = int(parts[1])
    return metrics, checks, counts


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "CMakeLists.txt").exists():
        die(2, f"{root} holds no program sources (src/); run from the "
               "root of a checkout")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        die(2, f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    layers = json.loads((BENCH_DIR / "layers.json").read_text())

    out = build_root(root)
    meter = build(out)
    digest = source_digest(root)
    cache = bundle_cache(out, digest)
    if args.workload != "train":
        run_logged([str(meter), "prepare", "--cache", str(cache)],
                   "bundle preparation")

    sizes = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    work = out / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(meter), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cache", str(cache),
           "--work", str(work)]
    for key, value in sizes.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=METER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(4, f"meter exceeded {METER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        die(4, f"meter failed (exit {proc.returncode})")

    metrics, checks, counts = parse_meter_output(proc.stdout)
    problems = []
    # A layer the workload does not run did no work: it reports 0.
    for name, unit in expected.items():
        if (args.trace and name not in metrics
                and args.workload not in layers[name]["runs_on"]):
            metrics[name] = (0.0, unit)
    if set(metrics) != set(expected):
        problems.append("metric set differs from BENCHMARK.json: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, (value, unit) in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name}")
        if name in expected and unit != expected[name]:
            problems.append(f"{name}: unit {unit} != {expected[name]}")
        if not math.isfinite(value):
            problems.append(f"{name}: non-finite value")
    if "attempted" not in counts or "failed" not in counts:
        problems.append("meter printed no attempted/failed counts")
    attempted = max(1, counts.get("attempted", 0))
    failed = counts.get("failed", attempted)
    failed_checks = [c for c in checks if c[0] == "check" and not c[2]]
    correct = not problems and not failed_checks and failed == 0

    fingerprint = host_fingerprint(root, meter.parent, digest, args)
    for kind, name, ok, detail in checks:
        print(f"# {kind} {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for problem in problems:
        print(f"# problem: {problem}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name][0]:.6g} {metrics[name][1]}")
    print("# fingerprint " + json.dumps(fingerprint, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    with open(out / "results.jsonl", "a") as log:
        log.write(json.dumps({"fingerprint": fingerprint,
                              "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
