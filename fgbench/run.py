#!/usr/bin/env python3
"""The FG sort benchmark: one workload per run.

    python3 fgbench/run.py --workload native-16b --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Builds fgbench and fgnode from
the checkout's sources into .bench_build/ (a no-op once built), runs the
workload's dsort, csort and ssort, checks every output, and prints the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) by
name with their units.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Everything the run writes
stays under .bench_build/.  See fgbench/README.md for the workloads and
what each metric should move.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "cmake")
FGBENCH = os.path.join(BUILD, "fgbench")
FGNODE = os.path.join(BUILD, "fg_tools", "fgnode")

PROGRAMS = ("dsort", "csort", "ssort")
PHASES = {
    "dsort": ("sampling", "pass1", "pass2"),
    "csort": ("pass1", "pass2", "pass3"),
    "ssort": ("sampling", "pass1", "pass2"),
}
STAGES = {
    "dsort": ("read", "permute", "send", "receive", "sort", "write",
              "read-run", "merge"),
    "csort": ("read", "sort", "permute", "communicate", "write"),
}

# Keys are uniform in every workload.  ring_capacity sizes each traced
# thread's span ring so that none drops a span.
WORKLOADS = {
    "native-16b": dict(nodes=4, records=16 << 20, record_bytes=16,
                       disk="native", latency="none", fabric="sim",
                       ring_capacity=1 << 14),
    "paper-fig8": dict(nodes=16, records=2 << 20, record_bytes=16,
                       disk="stdio", latency="paper", fabric="sim",
                       ring_capacity=1 << 12),
    "shm-64b": dict(nodes=4, records=4 << 20, record_bytes=64,
                    disk="native", latency="none", fabric="shm",
                    ring_capacity=1 << 14),
}
PAPER_FIG8_BAND = (0.7426, 0.8506)

# Every run must end within this many seconds of starting (after the
# build): subprocess timeouts count down from it.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 1:
            raise BenchError("out of time")
        return left


def run_checked(cmd, timeout, env, what):
    """Run cmd with its stdout and stderr on our stderr; fail on nonzero."""
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=timeout, env=env, cwd=REPO)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out after {timeout:.0f} s")
    if res.returncode != 0:
        raise BenchError(f"{what} exited {res.returncode}")


def build(env):
    for d in ("src", "tools"):
        if not os.path.isdir(os.path.join(REPO, d)):
            raise BenchError(f"no {d}/ next to fgbench/: run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                    + gen, 600, env, "cmake configure")
    run_checked(["cmake", "--build", BUILD, "-j", "4"], 900, env, "build")


# ---------------------------------------------------------------------------
# Statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def describe(xs):
    q1, q3 = quartiles(xs)
    return f"median of {len(xs)}, IQR {q3 - q1:.4f}"


# ---------------------------------------------------------------------------
# Workload runners.  Runs are dicts with program, warmup, traced, ok,
# sampling_s, passes_s, total_s, disk, net and spans.


def workload_flags(wl, seed):
    return ["--seed", str(seed), "--nodes", str(wl["nodes"]),
            "--records", str(wl["records"]),
            "--record-bytes", str(wl["record_bytes"]),
            "--disk", wl["disk"], "--latency", wl["latency"],
            "--ring-capacity", str(wl["ring_capacity"])]


def normalize(r, verified):
    r = dict(r)
    r.setdefault("spans", None)
    r["ok"] = r["error"] == "" and verified
    return r


def in_process(wl, seed, seconds, trace, work, env, deadline):
    out = os.path.join(work, "programs.json")
    run_checked([FGBENCH, "programs", "--out", out, "--root", work,
                 "--seconds", str(seconds), "--trace", str(int(trace))]
                + workload_flags(wl, seed), deadline.left(), env,
                "fgbench programs")
    with open(out) as f:
        doc = json.load(f)
    runs = [normalize(r, r["verified"] is True) for r in doc["runs"]]
    return runs, {"setup_s": doc["setup_s"],
                  "peak_rss_mib": doc["peak_rss_kib"] / 1024.0}


def fgnode(rank_cmd, env, deadline, what):
    """Run rank_cmd on every rank of an shm rank set."""
    timeout = int(deadline.left())
    cmd = [FGNODE, "--nodes", "4", "--fabric", "shm", "--timeout-secs",
           str(max(timeout - 5, 1)), "--"] + rank_cmd
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=subprocess.PIPE,
                             text=True, timeout=timeout, env=env, cwd=REPO)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out")
    sys.stderr.write(res.stderr)
    if "using the tcp fabric instead" in res.stderr:
        raise BenchError("shared-memory segments are unavailable here")
    return res.returncode


def merge_ranks(docs):
    """One run list from every rank's: phase times and verdict from rank 0,
    counters and span totals summed over ranks."""
    runs = []
    for per_rank in zip(*(d["runs"] for d in docs)):
        r0 = per_rank[0]
        run = {k: r0[k] for k in ("program", "warmup", "traced", "sampling_s",
                                  "passes_s", "total_s")}
        run["error"] = "; ".join(r["error"] for r in per_rank if r["error"])
        run["disk"] = {k: sum(r["disk"][k] for r in per_rank) for k in r0["disk"]}
        run["net"] = {k: sum(r["net"][k] for r in per_rank) for k in r0["net"]}
        run["spans"] = None
        if "spans" in r0:
            spans = {"stages": {}, "recv_s": 0.0, "collective_s": 0.0,
                     "dropped": 0, "count": 0}
            for r in per_rank:
                s = r["spans"]
                for k in ("recv_s", "collective_s", "dropped", "count"):
                    spans[k] += s[k]
                for label, st in s["stages"].items():
                    acc = spans["stages"].setdefault(label, {"self_s": 0.0, "wait_s": 0.0})
                    acc["self_s"] += st["self_s"]
                    acc["wait_s"] += st["wait_s"]
            run["spans"] = spans
        runs.append(normalize(run, r0["verified"] is True))
    return runs


def shm_programs(wl, seed, seconds, trace, work, env, deadline):
    """The programs on an fgnode rank set: runs, plus set-up times and peak
    RSS summed over ranks.  The ranks bring up their stripes in turns, so
    a rank set's bring-up is the sum of its ranks' times."""
    root = os.path.join(work, "shm")
    rc = fgnode([FGBENCH, "programs", "--out", os.path.join(work, "rank{rank}.json"),
                 "--root", root, "--seconds", str(seconds), "--trace", str(int(trace))]
                + workload_flags(wl, seed), env, deadline, "fgbench programs")
    shutil.rmtree(root, ignore_errors=True)
    if rc != 0:
        raise BenchError(f"rank set exited {rc}")
    docs = []
    for r in range(wl["nodes"]):
        with open(os.path.join(work, f"rank{r}.json")) as f:
            docs.append(json.load(f))
    setup_s = [sum(per_rank) for per_rank in zip(*(d["setup_s"] for d in docs))]
    return merge_ranks(docs), {"setup_s": setup_s,
                               "peak_rss_mib": sum(d["peak_rss_kib"] for d in docs) / 1024.0}


def layers(wl, seed, work, env, deadline):
    out = os.path.join(work, "layers.json")
    run_checked([FGBENCH, "layers", "--out", out, "--root", os.path.join(work, "layers"),
                 "--fabric", wl["fabric"]] + workload_flags(wl, seed),
                deadline.left(), env, "fgbench layers")
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Checks and metrics


EXACT_COUNTS = (("disk", "bytes_read"), ("disk", "bytes_written"),
                ("net", "bytes_sent"), ("net", "messages_sent"))


def check_counts(runs):
    """Counts must repeat exactly across runs of one program and seed.
    Returns the problems found."""
    problems = []
    for program in PROGRAMS:
        counted = [r for r in runs if r["program"] == program and r["ok"]]
        for part, key in EXACT_COUNTS:
            seen = sorted({r[part][key] for r in counted})
            if len(seen) > 1:
                problems.append(f"{program} {part}.{key} differs across runs: {seen}")
    return problems


def measured(runs, program, traced=False):
    return [r for r in runs if r["program"] == program and r["ok"]
            and not r["warmup"] and r["traced"] == traced]


def end_to_end(name, wl, runs, setup_s, peak_rss_mib):
    metrics, lines = {}, []

    def put(key, value, unit, note):
        metrics[key] = {"value": value, "unit": unit}
        lines.append(f"  {key:<14} {value:12.4f} {unit:<4} {note}")

    totals = {}
    for program in PROGRAMS:
        totals[program] = [r["total_s"] for r in measured(runs, program)]
        put(f"{program}_s", median(totals[program]), "s", describe(totals[program]))
    # A mean, not a median: single bring-ups fall in or out of the host's
    # slow spells (README), so their median jumps between the two modes
    # while the mean moves with the share of slow ones.
    q1, q3 = quartiles(setup_s)
    put("setup_s", statistics.fmean(setup_s), "s",
        f"mean of {len(setup_s)}, IQR {q3 - q1:.4f}")
    put("peak_rss_mib", peak_rss_mib, "MiB",
        "summed over ranks" if wl["fabric"] == "shm" else "one process")
    attempted = len(runs)
    failed = sum(1 for r in runs if not r["ok"])
    lines.append(f"  {'fail_frac':<14} {failed / attempted:12.4f} {'':<4} "
                 f"{failed} of {attempted} program runs failed")
    ratio = median(totals["dsort"]) / median(totals["csort"]) if totals["csort"] else 0
    band = f"paper: {PAPER_FIG8_BAND[0]:.2%}-{PAPER_FIG8_BAND[1]:.2%}"
    label = "fig8_ratio" if name == "paper-fig8" else "dsort/csort"
    lines.append(f"  {label:<14} {ratio:12.4f} {'':<4} dsort_s / csort_s"
                 + (f" ({band}; information only)" if name == "paper-fig8" else ""))
    return metrics, lines


def unit_of(name):
    """Unit from the last name component with a known suffix."""
    for part in reversed(name.split(".")):
        for suffix, unit in (("_mib_s", "MiB/s"), ("_frac", "ratio"),
                             ("_ns", "ns"), ("_s", "s"),
                             ("bytes_per_input_byte", "B/B"),
                             ("overlap", "ratio")):
            if part.endswith(suffix):
                return unit
    return "count"


def per_layer(wl, runs, probe):
    """Every per-layer metric, with notes where one does not apply."""
    m, notes = {}, []
    input_bytes = wl["records"] * wl["record_bytes"]

    for program in PROGRAMS:
        plain = measured(runs, program)
        for phase in PHASES[program]:
            if phase == "sampling":
                vals = [r["sampling_s"] for r in plain]
            else:
                idx = int(phase[-1]) - 1
                vals = [r["passes_s"][idx] for r in plain]
            m[f"sort.{program}.{phase}_s"] = median(vals)
    m["sort.sort_records_mib_s"] = probe["sort_records_mib_s"]
    m["sort.sort_records_frac"] = probe["sort_records_mib_s"] / probe["std_sort_mib_s"]
    for k in ("partition_records", "merge_records"):
        m[f"sort.{k}_mib_s"] = probe[f"{k}_mib_s"]
        m[f"sort.{k}_frac"] = probe[f"{k}_mib_s"] / probe["memcpy_small_mib_s"]

    for program, stages in STAGES.items():
        traced = measured(runs, program, traced=True)
        for stage in stages:
            for kind in ("self_s", "wait_s"):
                m[f"core.{program}.{stage}.{kind}"] = median(
                    [r["spans"]["stages"].get(stage, {}).get(kind, 0.0) for r in traced])
        m[f"core.{program}.overlap"] = median(
            [sum(r["spans"]["stages"].get(s, {}).get("self_s", 0.0) for s in stages)
             / (wl["nodes"] * sum(r["passes_s"])) for r in traced])
    m["core.channel_hop_ns.spsc"] = probe["spsc_hop_ns"]
    m["core.channel_hop_ns.mpmc"] = probe["mpmc_hop_ns"]

    m["pdm.write_mib_s"] = probe["disk_write_mib_s"]
    m["pdm.read_mib_s"] = probe["disk_read_mib_s"]
    m["pdm.write_frac"] = probe["disk_write_mib_s"] / probe["pwrite_mib_s"]
    m["pdm.read_frac"] = probe["disk_read_mib_s"] / probe["pread_mib_s"]
    for program in PROGRAMS:
        counted = [r for r in runs if r["program"] == program and r["ok"]]
        disk = [r["disk"] for r in counted]
        net = [r["net"] for r in counted]
        ops = [d["read_ops"] + d["write_ops"] for d in disk]
        if len(set(ops)) > 1:
            notes.append(f"pdm.{program}.ops does not repeat: {sorted(set(ops))} "
                         "(median reported)")
        m[f"pdm.{program}.bytes_per_input_byte"] = median(
            [(d["bytes_read"] + d["bytes_written"]) / input_bytes for d in disk])
        m[f"pdm.{program}.ops"] = median(ops)
        m[f"pdm.{program}.modeled_busy_s"] = median([d["busy_s"] for d in disk])
        m[f"comm.{program}.bytes_per_input_byte"] = median(
            [n["bytes_sent"] / input_bytes for n in net])
        m[f"comm.{program}.messages"] = median([n["messages_sent"] for n in net])
        traced = measured(runs, program, traced=True)
        m[f"comm.{program}.recv_s"] = median([r["spans"]["recv_s"] for r in traced])
        m[f"comm.{program}.collective_s"] = median(
            [r["spans"]["collective_s"] for r in traced])
    if wl["latency"] == "none":
        notes.append("pdm.*.modeled_busy_s does not apply: no latency model, "
                     "so IoStats::busy is 0")
    m["comm.p2p_mib_s"] = probe["p2p_mib_s"]
    m["comm.p2p_frac"] = probe["p2p_mib_s"] / probe["memcpy_small_mib_s"]

    plain = [r["total_s"] for r in measured(runs, "dsort")]
    traced = [r["total_s"] for r in measured(runs, "dsort", traced=True)]
    m["obs.trace_overhead_frac"] = (median(traced) / median(plain) - 1
                                    if plain and traced else 0.0)
    m["obs.spans_dropped"] = max(
        (r["spans"]["dropped"] for r in runs if r["spans"]), default=0)

    m["ceiling.memcpy_256k_mib_s"] = probe["memcpy_small_mib_s"]
    m["ceiling.memcpy_large_mib_s"] = probe["memcpy_large_mib_s"]
    m["ceiling.std_sort_mib_s"] = probe["std_sort_mib_s"]
    m["ceiling.pwrite_mib_s"] = probe["pwrite_mib_s"]
    m["ceiling.pread_mib_s"] = probe["pread_mib_s"]
    notes.append(f"memcpy ceilings: {probe['memcpy_small_bytes']} B buffer, and "
                 f"{probe['memcpy_large_bytes']} B arrays (4x the "
                 f"{probe['llc_bytes']} B last-level cache)")
    notes.append("core.*.self_s of read, write and read-run includes waits on "
                 "IoHandles: async-I/O threads own no span ring")
    return m, notes


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    work_root = os.path.join(REPO, ".bench_build", "work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    env = dict(os.environ, TMPDIR=work_root)
    # Pin the configuration the workloads define: no executor, channel or
    # fabric overrides from the caller's environment.
    for var in ("FG_EXECUTOR", "FG_CHANNELS", "FG_TASK_WORKERS", "FG_TASK_SPANS",
                "FG_NO_SHM", "FG_NO_URING"):
        env.pop(var, None)
    try:
        os.makedirs(work, exist_ok=True)
        build(env)
        deadline = Deadline(RUN_BUDGET_S)
        if wl["fabric"] == "shm":
            runs, extra = shm_programs(wl, args.seed, args.seconds, args.trace,
                                       work, env, deadline)
        else:
            runs, extra = in_process(wl, args.seed, args.seconds, args.trace,
                                     work, env, deadline)
        problems = check_counts(runs)
        if args.trace:
            probe = layers(wl, args.seed, work, env, deadline)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runs if not r["ok"])
    for r in runs:
        if not r["ok"]:
            problems.append(f"{r['program']} run failed: {r['error'] or 'wrong output'}")
    n_measured = len(measured(runs, "dsort"))
    print(f"{args.workload} seed {args.seed}: {n_measured} measured round(s) "
          f"after one warm-up round, trace {args.trace}")
    if args.trace:
        metrics_raw, notes = per_layer(wl, runs, probe)
        if metrics_raw["obs.spans_dropped"] != 0:
            problems.append("span rings dropped spans")
        metrics = {}
        for k, v in metrics_raw.items():
            unit = unit_of(k)
            metrics[k] = {"value": v, "unit": unit}
            print(f"  {k:<40} {v:14.6g} {unit}")
        for n in notes:
            print(f"  note: {n}")
    else:
        metrics, lines = end_to_end(args.workload, wl, runs, extra["setup_s"],
                                    extra["peak_rss_mib"])
        print("\n".join(lines))
    for p in problems:
        print(f"  PROBLEM: {p}")
    print(json.dumps({"correct": not problems and n_measured > 0,
                      "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
