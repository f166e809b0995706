#!/usr/bin/env python3
"""The repo benchmark: M/S/F training time on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload gmm-2way-cached --seed 1 \
        --seconds 20 --trace 0

Builds perfbench_measure (and the factormld shard worker) from source into
.bench_build/perfbench, runs the workload in a work directory under
.bench_build, and prints one JSON object as the last line of stdout:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: registry counters and probe timings from the untraced
rounds plus per-span self times from one extra traced round. Everything
else (build log, failures, a summary) goes to stderr. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
MEASURE_TIMEOUT_S = 170

STRATEGIES = ("M", "S", "F")

# Spans whose per-strategy self time is reported by name.
SELF_SPANS = ("demand_read", "decode_strip", "delta_extract", "delta_apply",
              "worker_wait")
# Trace categories summed into one self time per layer. "bench" is the
# benchmark's own span around each training call: its self time is the
# part of the call no program span covers (e.g. M writing T).
SELF_LAYERS = {
    "storage": ("storage",),
    "exec": ("exec", "morsel"),
    "pipeline": ("pipeline",),
    "net": ("rpc",),
    "model": ("phase",),
    "other": ("bench",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark package; returns the measuring
    program."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench_measure")


def run_measure(program, argv, timeout_s):
    """Runs the measuring program in its own process group (it spawns shard workers)
    and returns its last stdout line parsed as JSON; the whole group is
    killed and reaped if it overruns."""
    proc = subprocess.Popen([program] + argv, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("measuring program timed out after %ds" % timeout_s)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray shard workers
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("measuring program exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    direct children on the same thread cover. `spans` are dicts with
    tid, ts and dur (one clock, any unit); returns one value per span, in
    input order. Children that overhang their parent are clipped to it."""
    result = [0.0] * len(spans)
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["tid"], spans[i]["ts"],
                                  -spans[i]["dur"]))
    stack = []  # open spans of the current thread: [index, end, covered]
    tid = None
    for i in order:
        s = spans[i]
        if s["tid"] != tid:
            for j, _, covered in stack:
                result[j] = spans[j]["dur"] - covered
            stack, tid = [], s["tid"]
        begin, end = s["ts"], s["ts"] + s["dur"]
        while stack and stack[-1][1] <= begin:
            j, _, covered = stack.pop()
            result[j] = spans[j]["dur"] - covered
        if stack:
            parent = stack[-1]
            parent[2] += min(end, parent[1]) - begin
        stack.append([i, end, 0.0])
    for j, _, covered in stack:
        result[j] = spans[j]["dur"] - covered
    return [max(0.0, v) for v in result]


def trace_metrics(trace_path):
    """Per-strategy self times of the traced round, by span name and by
    layer. Spans starting inside the benchmark's own train.<M|S|F> span
    count for that strategy."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    selfs = self_times(spans)
    windows = {}
    for s in spans:
        if s["cat"] == "bench" and s["name"].startswith("train."):
            windows[s["name"][len("train."):]] = (s["ts"], s["ts"] + s["dur"])
    metrics = {}
    for tag in STRATEGIES:
        begin, end = windows[tag]
        by_name, by_cat = {}, {}
        for s, own in zip(spans, selfs):
            if not begin <= s["ts"] < end:
                continue
            by_name[s["name"]] = by_name.get(s["name"], 0.0) + own
            by_cat[s["cat"]] = by_cat.get(s["cat"], 0.0) + own
        for name in SELF_SPANS:
            metrics["self.%s_s.%s" % (name, tag)] = by_name.get(name, 0.0) * 1e-6
        for layer, cats in SELF_LAYERS.items():
            metrics["self.%s_s.%s" % (layer, tag)] = sum(
                by_cat.get(c, 0.0) for c in cats) * 1e-6
    return metrics


def result_line(spec, trace, correct, attempted, failed, values):
    """The benchmark result: exactly the metrics BENCHMARK.json lists for
    this --trace mode, with their units."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError("metrics not measured: " + ", ".join(missing))
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="table-size factor (the self-tests use 0.01)")
    parser.add_argument("--trace-file",
                        help="keep the traced round's Chrome trace JSON here")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    program = build()

    work = os.path.join(BUILD_ROOT, "perfbench-work", "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        trace_path = None
        if args.trace:
            trace_path = os.path.abspath(
                args.trace_file or os.path.join(work, "trace.json"))
        measure_args = ["--workload=" + args.workload,
                        "--seed=%d" % args.seed,
                        "--seconds=%g" % args.seconds,
                        "--scale=%g" % args.scale,
                        "--work-dir=" + work]
        if trace_path:
            measure_args.append("--trace-file=" + trace_path)
        start = time.monotonic()
        out = run_measure(program, measure_args, MEASURE_TIMEOUT_S)
        values = dict(out["metrics"])
        if trace_path:
            values.update(trace_metrics(trace_path))
        log("%s seed=%d: %d/%d operations failed in %.1fs; train_s M/S/F = "
            "%.4f/%.4f/%.4f over %d rounds" % (
                args.workload, args.seed, out["failed"], out["attempted"],
                time.monotonic() - start, values["train_s.M"],
                values["train_s.S"], values["train_s.F"],
                values["bench.train_samples"]))
        print(result_line(spec, args.trace, out["failed"] == 0,
                          out["attempted"], out["failed"], values))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
