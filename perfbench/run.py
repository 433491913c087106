#!/usr/bin/env python3
"""Repository benchmark entry point (see BENCHMARK.json and README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark binary (and the xconv
library, from source) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload:

  --trace 0  end-to-end metrics. setup_s is the median over several fresh
             processes that only build the workload (cold JIT each time) and
             the measuring process itself.
  --trace 1  per-layer metrics from a traced run; the spans are written as
             Chrome trace-event JSON to <build>/traces/. Per-layer metrics of
             a layer the workload does not run are reported as 0.

Prints one line per metric, then as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Fresh processes timed for setup_s in addition to the measuring one; the
# median of these samples keeps a cold first process from skewing it.
SETUP_PROCESSES = 3
RUN_LIMIT_S = 170  # the whole run, build excluded (which may take 850 s)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_proc(cmd, timeout, env=None, capture=False):
    """Runs cmd in its own process group; kills the group on timeout."""
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                         stdout=subprocess.PIPE if capture else sys.stderr,
                         stderr=None, text=True)
    try:
        out, _ = p.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise SystemExit(f"perfbench: {' '.join(cmd[:3])} timed out")
    return p.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: xconv sources (src/) not found; run from a "
                         "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_proc(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], 300)
        if rc != 0:
            raise SystemExit("perfbench: cmake configure failed")
    rc, _ = run_proc(["cmake", "--build", build_dir, "-j", jobs], 550)
    if rc != 0:
        raise SystemExit("perfbench: build failed")
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        raise SystemExit("perfbench: binary missing after build")
    return exe


def child_env():
    # The library reads XCONV_* (ISA, backend, plan cache, autotune) and
    # OpenMP reads OMP_*; the benchmark fixes its own configuration.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("XCONV_", "OMP_", "GOMP_", "KMP_"))}
    return env


def run_child(exe, args, deadline):
    rc, out = run_proc([exe] + args, deadline - time.monotonic(),
                       env=child_env(), capture=True)
    lines = [ln for ln in (out or "").splitlines() if ln.strip()]
    if rc != 0 or not lines:
        raise SystemExit(f"perfbench: {' '.join(args)} exited with {rc}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seed < 0 or a.seed > 0xFFFFFFFF or not 0 < a.seconds <= 60:
        raise SystemExit("perfbench: --seed must fit 32 bits, --seconds in (0, 60]")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {a.workload}")
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    exe = build(build_dir)

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setup = []
    if not a.trace:
        for _ in range(SETUP_PROCESSES):
            setup.append(run_child(exe, common + ["--setup-only"], deadline)["setup_s"])
    args = common + ["--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(trace_dir, f"{a.workload}-seed{a.seed}.json")]
    res = run_child(exe, args, deadline)
    metrics = res["metrics"]

    if not a.trace:
        setup.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        log("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
    names = {m["name"] for m in wanted}
    unknown = sorted(set(metrics) - names)
    if unknown:
        raise SystemExit(f"perfbench: metrics not in BENCHMARK.json: {unknown}")
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not a.trace:
                raise SystemExit(f"perfbench: end-to-end metric {m['name']} missing")
            got = {"value": 0, "unit": m["unit"]}  # layer not run by this workload
        if got["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} unit {got['unit']} != {m['unit']}")
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    attempted, failed = int(res["attempted"]), int(res["failed"])
    for name, m in out.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed / max(attempted, 1):.6g} share "
          f"({failed} of {attempted} checked operations)")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
