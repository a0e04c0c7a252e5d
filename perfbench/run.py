#!/usr/bin/env python3
"""Host-speed benchmark of the split-memory simulator.

Builds the harness (perfbench/CMakeLists.txt, optimised, into .bench_build/)
from the repository's sources, runs one workload, checks the simulated
outputs, prints a report of every metric with its unit, and ends with one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. `--workload all` runs the three
workloads one after another and prefixes each metric with the workload.

    python3 perfbench/run.py --workload server --seed 1 --seconds 10 --trace 0

Every run also plays one warm-up round at the reference seed and compares
its gated simulated outputs with perfbench/references/; a mismatch fails
every op of the run. `--record-reference` rewrites the references (only
after a deliberate change to the simulated model).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("server", "pipe_ctxsw", "fork_server")
REFERENCE_SEED = 1

# Units of the metrics the harness reports beyond those BENCHMARK.json
# declares. Names not listed: "s" suffix -> s, otherwise count.
EXTRA_UNITS = {
    "error_rate": "ratio",
    "arch.block_instr_frac": "ratio",
    "arch.block_hit_rate": "ratio",
    "arch.decode_hit_rate": "ratio",
    "arch.host_ns_per_instr": "ns",
    "kernel.host_us_per_ctxsw": "us",
    "snapshot.host_us_per_mib": "us/MiB",
    "snapshot.restore_us_p50": "us",
    "snapshot.restore_us_p99": "us",
    "snapshot.bytes": "bytes",
    "trace.overhead": "ratio",
    "unattributed_frac": "ratio",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds the harness; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build directory copied along with the checkout still points at
        # the sources it was configured from.
        with open(cache) as fh:
            configured_for_here = (
                f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" in fh.read())
        if not configured_for_here:
            shutil.rmtree(BUILD_DIR)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def environment():
    return {
        "commit": source_identity(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_harness(workload, seed, seconds, trace):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--guest-dir", os.path.join(HERE, "guests")]
    if trace:
        cmd += ["--spans-out", spans]
    # A round can overrun the time budget; a stuck simulation must not.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + 120)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out on {workload}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness failed on {workload} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    build_info = result["build"]
    if not build_info["optimized"] or build_info["asserts"]:
        fail("refusing numbers from an unoptimised or assert-enabled build")
    return result


def reference_path(workload):
    return os.path.join(HERE, "references", workload + ".json")


def gate_reference(result):
    """The reference-seed round's simulated outputs must equal the record."""
    with open(reference_path(result["workload"])) as fh:
        want = json.load(fh)["outputs"]
    got = result["reference_outputs"]
    diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    if diff:
        result["failed"] = result["attempted"]
        result["errors"].append(
            "simulated outputs differ from the reference: " +
            ", ".join(f"{k}={got.get(k)} (reference {want.get(k)})"
                      for k in diff[:8]))


def unit_of(name, declared):
    if name in declared:
        return declared[name]
    if name in EXTRA_UNITS:
        return EXTRA_UNITS[name]
    if name.startswith("trace.sim_cycles.") or name == "sim_cycles":
        return "cycles"
    return "s" if name.endswith("_s") else "count"


def correct(result):
    c = result["checks"]
    return (result["failed"] == 0 and c["deterministic"] and
            c["trace_identical"] and c["trace_sums"])


def report(result, env, declared):
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  trace {result['trace']}  "
          f"rounds {result['rounds']}  {result['passes_per_round']} x "
          f"{result['ops_per_pass']} ops per round  "
          f"{result['slices_per_pass']} timed slices per pass")
    print(f"   commit {env['commit']}  nproc {env['nproc']}  "
          f"usable cpus {env['cpus_usable']}  loadavg {env['loadavg']}  "
          f"{result['build']['compiler']} {result['build']['build_type']}")
    print("   end-to-end (untraced rounds: wall_s sums each slice's fastest "
          "time, setup_s the median):")
    for name, v in sorted(result["end_to_end"].items()):
        print(f"     {name:34s} {v:>16.6g} {unit_of(name, declared)}")
    print("   per-layer:")
    for name, v in sorted(result["per_layer"].items()):
        print(f"     {name:34s} {v:>16.6g} {unit_of(name, declared)}")
    print("   host-side counters (reported, not gated): " +
          ", ".join(f"{k}={v}" for k, v in result["host_counters"].items()))
    if result["spans"]:
        print("   span self time per round (traced, median):")
        for name, t in sorted(result["spans"].items()):
            print(f"     {name:34s} total {t['total_s']:.6f} s  "
                  f"self {t['self_s']:.6f} s  calls {t['calls']}")
    if result["checks"]["coverage_flagged"]:
        print(f"   WARNING: top-level spans leave "
              f"{result['per_layer']['unattributed_frac']:.1%} of the timed "
              f"phase unexplained")
    for e in result["errors"]:
        print("   ERROR: " + e)
    print(f"   checks {result['checks']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {correct(result)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite the default-seed references from this run")
    args = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found at the repository root")
    with open(bench_json) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}

    build()
    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        r = run_harness(w, args.seed, args.seconds, args.trace == 1)
        if args.record_reference:
            os.makedirs(os.path.dirname(reference_path(w)), exist_ok=True)
            with open(reference_path(w), "w") as fh:
                json.dump({"seed": r["reference_seed"],
                           "outputs": r["reference_outputs"]},
                          fh, indent=1, sort_keys=True)
                fh.write("\n")
        gate_reference(r)
        r["environment"] = env
        with open(os.path.join(OUT_DIR, f"result-{w}-seed{args.seed}-"
                               f"trace{args.trace}.json"), "w") as fh:
            json.dump(r, fh, indent=1, sort_keys=True)
        report(r, env, declared)
        results.append(r)

    metrics = {}
    for r in results:
        values = {**r["end_to_end"], **r["per_layer"]}
        prefix = r["workload"] + "." if len(results) > 1 else ""
        for name in wanted:
            if name not in values:
                fail(f"{r['workload']} did not report {name}")
            metrics[prefix + name] = {"value": values[name],
                                      "unit": declared[name]}
    ok = all(correct(r) for r in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
