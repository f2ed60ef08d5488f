#!/usr/bin/env python3
"""Repository benchmark: build the casbus library and the benchmark program
from source, run one workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload floor-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Workloads and metrics are declared in BENCHMARK.json at the repository
root; perfbench/README.md explains each. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Each run also writes a record with its metadata, every measured value and
the run details to <build dir>/runs/<workload>-seed<N>-trace<T>/.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the repository root. The first run builds (about a minute on four
cores); later runs only check that the build is current.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The default seed, and the held-out seed on which a claimed gain must
# also hold (it is not used while a change is being written).
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
# A run must end within this many seconds once the build is current.
RUN_DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(directory):
    """Configures (once) and builds the benchmark program and its tests; build output
    goes to stderr so the result stays the last line of stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (directory / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(directory), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return directory


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, so a record names the
    code it measured even where no git metadata is available."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def select_metrics(benchmark, measured, trace):
    """The declared metric set for this mode, with the declared units."""
    declared = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured:
            fail(f"benchmark program did not report metric {name!r}")
        value = measured[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name!r} is not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def self_test(directory):
    done = subprocess.run(["ctest", "--test-dir", str(directory),
                           "--output-on-failure"], check=False)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build, then run the benchmark's own tests")
    args = parser.parse_args()

    benchmark_path = ROOT / "BENCHMARK.json"
    if not benchmark_path.is_file():
        fail(f"{benchmark_path} not found")
    benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]

    directory = build(build_dir())
    if args.self_test:
        return self_test(directory)
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")
    seconds = args.seconds if args.seconds else benchmark["run_seconds"]

    started = time.monotonic()
    out_dir = directory / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    command = [str(directory / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--out", str(out_dir)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_DEADLINE_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program did not finish within {RUN_DEADLINE_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark program exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark program printed nothing")
    doc = json.loads(lines[-1])

    metadata["build_type"] = doc["detail"].get("build_type")
    metadata["wall_s"] = time.monotonic() - started
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": select_metrics(benchmark, doc["metrics"], args.trace),
    }
    if result["attempted"] < 1:
        fail("benchmark program attempted no operations")
    record = {"metadata": metadata, "result": result,
              "measured": doc["metrics"], "detail": doc["detail"],
              "checks": doc["checks"]}
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")

    print(json.dumps({"metadata": metadata}))
    for check in doc["checks"]:
        print(f"check failed: {check}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
