#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one
workload for a fixed time, and print its metrics as one JSON line.

    python3 perfbench/run.py --workload dyn-stream --seed 7 \
        --seconds 20 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory; so do the run
cache of sweep-small and, with --trace 1, the trace file.  The last
line of stdout is
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1.  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dyn-stream", "dense-tiled", "sweep-small")
CONFIGS = ("static", "delta", "spatial")
PRESETS = ("static", "dyn", "work", "work-steal", "pipe", "delta",
           "spatial")
KERNELS = ("spmv", "join", "msort", "msort-dyn", "cholesky", "lu",
           "tricount", "centroid")
CLASSES = ("busy", "memWait", "nocWait", "idle")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build the benchmark driver."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no simulator sources beside perfbench/; run "
            "from a full checkout of the repository")
        sys.exit(2)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def geomean(xs):
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def ratio(a, b):
    """a / b, or 0 when nothing ran (every run of the pass failed)."""
    return a / b if b else 0.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Linear-interpolation quantile of a sample."""
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ok_runs(p):
    return [r for r in p["runs"] if r["ok"]]


def by_config(runs, config):
    return [r for r in runs if r["config"] == config]


def stat_sum(runs, key):
    return sum(r["stats"].get(key, 0.0) for r in runs)


def time_sum(runs, key):
    return sum(r["t"][key] for r in runs)


def cycles_by_config(runs, config):
    return geomean([r["stats"]["delta.cycles"]
                    for r in by_config(runs, config)])


def paired_speedup(runs, config):
    """Geomean of static/config cycles, paired per kernel and seed."""
    base = {(r["kernel"], r["seed"]): r["stats"]["delta.cycles"]
            for r in by_config(runs, "static")}
    return geomean([base[(r["kernel"], r["seed"])] /
                    r["stats"]["delta.cycles"]
                    for r in by_config(runs, config)
                    if (r["kernel"], r["seed"]) in base])


def cells(p, sweep):
    """Simulations completed per second of the pass (sweep-small: of
    its cold sweep)."""
    return len(p["runs"]) / (p["cold_wall"] if sweep else p["wall"])


def end_to_end(raw, passes):
    ref = ok_runs(passes[0])  # modeled values repeat in every pass
    m = {}
    for c in CONFIGS:
        m["model.cycles." + c] = (cycles_by_config(ref, c), "cycles")
    for c in CONFIGS[1:]:
        m["model.speedup." + c] = (paired_speedup(ref, c), "x")
    m["setup_s"] = (median([p["setup"] for p in passes]), "s")
    m["peak_rss_mb"] = (raw["peak_rss_mb"], "MiB")
    return m


def host_throughput(passes, sweep):
    """Host-speed metrics of the untraced passes.  Too noisy on a
    shared machine to gate (see README.md), so they are reported with
    the per-layer metrics."""
    # Host time inside Delta::run: the simulator's own run-loop wall
    # time on sweep-small (cells run on worker threads), the calling
    # thread's CPU time around Delta::run otherwise.
    run_key = "run" if sweep else "run_cpu"
    m = {}
    m["host.sim_cycles_per_s"] = (median(
        [ratio(stat_sum(ok_runs(p), "delta.cycles"),
               time_sum(ok_runs(p), run_key)) for p in passes]),
        "cycles/s")
    m["wall_s"] = (median([p["wall"] for p in passes]), "s")
    m["cells_per_s"] = (median([cells(p, sweep) for p in passes]),
                        "cells/s")
    cell_s = [r["t"]["cell"] for p in passes for r in ok_runs(p)]
    m["cell_s.p50"] = (quantile(cell_s, 0.50), "s")
    m["cell_s.p95"] = (quantile(cell_s, 0.95), "s")
    return m


def per_pass_layer(p, sweep):
    """Per-layer values of one traced pass."""
    runs = ok_runs(p)
    m = {}

    def prof(bucket):
        return stat_sum(runs, "sim.host.profile." + bucket + "Ns") * 1e-9

    run_s = time_sum(runs, "run")
    m["workloads.build_s"] = (time_sum(p["runs"], "build"), "s")
    m["workloads.check_s"] = (time_sum(runs, "check"), "s")
    m["workloads.tasks"] = (stat_sum(runs, "dispatcher.tasksCompleted"),
                            "count")
    m["accel.construct_s"] = (time_sum(p["runs"], "construct"), "s")
    m["accel.run_s"] = (run_s, "s")
    for c in CONFIGS:
        rc = by_config(runs, c)
        lane_cycles = sum(r["stats"]["delta.cycles"] *
                          r["stats"]["delta.lanes"] for r in rc)
        for k in CLASSES:
            v = stat_sum(rc, "delta.accounting." + k)
            m["accel.frac.%s.%s" % (k, c)] = (ratio(v, lane_cycles),
                                               "ratio")
        m["accel.imbalance." + c] = (geomean(
            [r["stats"]["delta.imbalance"] for r in rc]), "ratio")
    m["accel.host_lane_s"] = (prof("tickLane"), "s")
    firings = stat_sum(runs, "lane.fabric.firings")
    m["cgra.firings"] = (firings, "count")
    m["cgra.reconfigs"] = (stat_sum(runs, "lane.fabric.reconfigs"),
                           "count")
    m["cgra.firings_per_host_s"] = (ratio(firings, run_s), "1/s")
    for name, key in (("read_tokens", "lane.rd.tokens"),
                      ("read_lines", "lane.rd.lines"),
                      ("spm_reads", "lane.rd.spmReads"),
                      ("write_lines", "lane.wr.lines"),
                      ("pipe_tokens", "lane.pipeTokens")):
        m["stream." + name] = (stat_sum(runs, key), "count")
    m["task.ready_wait.p99"] = (max([r["stats"]["dispatcher.readyWait.p99"]
                                     for r in runs], default=0.0),
                                "cycles")
    m["task.spawned"] = (stat_sum(runs, "dispatcher.tasksSpawned"),
                         "count")
    m["task.pipes_activated"] = (stat_sum(runs,
                                          "dispatcher.pipesActivated"),
                                 "count")
    m["task.critpath.utilization"] = (geomean(
        [r["stats"]["delta.critpath.utilization"] for r in runs]),
        "ratio")
    m["task.steal.tasks_stolen"] = (stat_sum(
        runs, "dispatcher.attrib.steal.tasksStolen"), "count")
    for c in PRESETS:
        m["task.ladder.%s.speedup" % c] = (paired_speedup(runs, c), "x")
    m["task.host_dispatcher_s"] = (prof("tickDispatcher"), "s")
    m["spatial.map_s"] = (time_sum(p["runs"], "map"), "s")
    for name, key in (("forwards", "delta.spatial.forwards"),
                      ("spills", "delta.spatial.spills"),
                      ("remaps", "delta.spatial.remaps"),
                      ("dram_lines_saved",
                       "delta.attrib.spatial.dramLinesSaved")):
        m["spatial." + name] = (stat_sum(runs, key), "count")
    m["noc.pkt_latency.p50"] = (max([r["stats"]["noc.pktLatency.p50"]
                                     for r in runs], default=0.0),
                                "cycles")
    m["noc.pkt_latency.p99"] = (max([r["stats"]["noc.pktLatency.p99"]
                                     for r in runs], default=0.0),
                                "cycles")
    m["noc.word_hops"] = (stat_sum(runs, "noc.wordHops"), "count")
    m["noc.mcast.packets"] = (stat_sum(runs, "noc.mcast.packets"),
                              "count")
    m["noc.mcast_lines_saved"] = (stat_sum(
        runs, "delta.attrib.multicast.dramLinesSaved"), "count")
    m["noc.host_s"] = (prof("tickNoc"), "s")
    m["mem.lines_read"] = (stat_sum(runs, "mem.linesRead"), "count")
    m["mem.lines_written"] = (stat_sum(runs, "mem.linesWritten"),
                              "count")
    m["mem.bank_conflict_stalls"] = (stat_sum(runs,
                                              "mem.bankConflictStalls"),
                                     "count")
    m["mem.queue_wait.p99"] = (max([r["stats"]["dram.queueWait.p99"]
                                    for r in runs], default=0.0),
                               "cycles")
    m["mem.spm_port_stalls"] = (stat_sum(runs, "lane.spm.portStalls"),
                                "count")
    m["mem.host_s"] = (prof("tickDram"), "s")
    ticks = stat_sum(runs, "sim.host.ticksExecuted")
    wall_ns = stat_sum(runs, "sim.host.wallNs")
    m["sim.ticks_executed"] = (ticks, "count")
    m["sim.ff_frac"] = (ratio(stat_sum(runs, "sim.host.cyclesFastForwarded"),
                              stat_sum(runs, "delta.cycles")), "ratio")
    m["sim.avg_active"] = (ratio(
        sum(r["stats"]["sim.host.avgActiveComponents"] *
            r["stats"]["sim.host.ticksExecuted"] for r in runs), ticks),
        "count")
    m["sim.host_ns_per_tick"] = (ratio(wall_ns, ticks), "ns")
    for name, bucket in (("commit", "commit"), ("events", "events"),
                         ("fast_forward", "fastForward"),
                         ("quiescence", "quiescence")):
        m["sim.host.%s_s" % name] = (prof(bucket), "s")
    profiled = sum(v for r in runs for k, v in r["stats"].items()
                   if k.startswith("sim.host.profile."))
    m["sim.host.unattributed_frac"] = (1.0 - ratio(profiled, wall_ns),
                                       "ratio")
    cell_s = time_sum(runs, "cell")
    m["driver.cold_s"] = (p["cold_wall"], "s")
    m["driver.warm_s"] = (p["warm_wall"], "s")
    m["driver.fork_restore_s"] = (time_sum(p["runs"], "restore"), "s")
    m["driver.worker_busy_frac"] = (ratio(cell_s, 2 * p["cold_wall"]),
                                    "ratio")
    m["cache.hits"] = (p["hits"], "count")
    m["cache.misses"] = (p["misses"], "count")
    m["cache.warm_hit_ratio"] = (
        ratio(p["warm_hits"], len(p["runs"])) if sweep else 0.0, "ratio")
    m["cache.bytes"] = (p["cache_bytes"], "bytes")
    m["analysis.dump_json_s"] = (time_sum(p["runs"], "dump"), "s")
    m["analysis.report_write_s"] = (p["report_write"], "s")
    m["sweep.warm_cells_per_s"] = (ratio(len(p["runs"]), p["warm_wall"]),
                                   "cells/s")
    for k in KERNELS:
        for c in CONFIGS:
            m["kernel.%s.cycles.%s" % (k, c)] = (geomean(
                [r["stats"]["delta.cycles"] for r in runs
                 if r["kernel"] == k and r["config"] == c]), "cycles")
    return m


def per_layer(untraced, traced, failed, attempted, sweep):
    # Counts repeat exactly between passes; host times are medians
    # over the traced passes.
    layers = [per_pass_layer(p, sweep) for p in traced]
    m = {k: (median([l[k][0] for l in layers]), unit)
         for k, (_, unit) in layers[0].items()}
    m.update(host_throughput(untraced, sweep))
    overhead = (median([p["wall"] for p in traced]) /
                median([p["wall"] for p in untraced]) - 1.0)
    m["bench.trace_overhead_frac"] = (overhead, "ratio")
    m["failed_frac"] = (failed / attempted, "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0,
                    help="problem-size override (tests only)")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace-%s-%d.json" %
                              (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--traced", str(args.trace),
           "--tmp", out_dir, "--trace-out", trace_path]
    if args.scale > 0:
        cmd += ["--scale", str(args.scale)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log("perfbench: driver exited with", proc.returncode)
        sys.exit(proc.returncode or 1)
    raw = json.loads(proc.stdout)

    sweep = args.workload == "sweep-small"
    passes = raw["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["runs"]) + p["checks"] for p in passes)
    failed = sum(len(p["runs"]) - len(ok_runs(p)) + p["checks_failed"]
                 for p in passes)
    for p in passes:
        for r in p["runs"]:
            if not r["ok"]:
                log("FAILED %s/%s seed %d: %s" % (r["kernel"], r["config"],
                                                 r["seed"], r["error"]))

    if args.trace:
        metrics = per_layer(untraced, traced, failed, attempted, sweep)
        log("trace written to", trace_path)
    else:
        metrics = end_to_end(raw, untraced)
        metrics["pass_frac"] = (1.0 - failed / attempted, "ratio")
    for k, (v, unit) in sorted(metrics.items()):
        log("%-36s %16.6g %s" % (k, v, unit))
    log("passes: %d untraced, %d traced; runs per pass: %d" %
        (len(untraced), len(traced), len(passes[0]["runs"])))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
