#!/usr/bin/env python3
"""Host benchmark driver: builds hostbench from source, runs one workload
and prints its metrics; the last stdout line is one JSON object.

    python3 hostbench/run.py --workload clover2d-dram --seed 1 --seconds 40 --trace 0
    python3 hostbench/run.py --smoke

Run from the root of a source tree. README.md (next to this file) gives
the workloads, the metrics and how to read the trace.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "hostbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "hostbench"
STUDY_REF = BENCH_DIR / "study_reference.tsv"

WORKLOADS = ["clover2d-dram", "clover2d-nd-launch", "mgcfd-indirect", "study-sweep"]
APP_WORKLOADS = {"clover2d-dram", "clover2d-nd-launch", "mgcfd-indirect"}

# Units agree with the Serial reference when their checksums are this
# close (relative); bit-equality is counted separately.
CHECKSUM_RTOL = 1e-9

# The sentinel Triad counts as noisy when the quartiles of its passes
# lie further apart than this share of their median; a noisy host gets
# more set-up samples (samples are never rescaled or dropped).
NOISY_TRIAD_SPREAD = 0.10
SETUP_PROCESSES = 2
SETUP_PROCESSES_NOISY = 4

# Wall-clock budget for the whole run, build excluded; a run must end
# within 180 s.
DEADLINE_S = 170.0

END_TO_END = [
    ("run_s_p50", "s"),
    ("run_s_tail", "s"),
    ("eff_bw_gbs", "GB/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

STUDY_APPS = ["cloverleaf2d", "cloverleaf3d", "opensbli_sa", "opensbli_sn",
              "rtm", "acoustic", "mg_cfd"]

PER_LAYER = (
    [("runtime.empty_launch_us", "us"),
     ("sycl.nd_launch_us", "us"),
     ("sycl.flat_launch_us", "us"),
     ("sycl.ooo_dep_launch_us", "us"),
     ("ops.par_loop_tiny_us", "us"),
     ("ops.launches_per_run", "count"),
     ("ops.triad_gbs", "GB/s"),
     ("ops.dot_gbs", "GB/s"),
     ("ops.dot_over_triad", "ratio"),
     ("ops.fusion_eliminated_gb", "GB"),
     ("core.checksum_exact_ratio", "ratio"),
     ("mem.alloc_free_us", "us"),
     ("mem.first_touch_gbs", "GB/s"),
     ("mem.pool_hit_rate", "ratio"),
     ("mem.arch_eff", "ratio")]
    + [(f"op2.flux_ms.{s}", "ms")
       for s in ("atomics", "global", "hierarchical", "staged")]
    + [("op2.plan_build_ms.global", "ms"),
       ("op2.plan_build_ms.hierarchical", "ms"),
       ("op2.gather_ms", "ms"),
       ("apps.mgcfd_mesh_build_s", "s")]
    + [(f"study.schedule_s.{a}", "s") for a in STUDY_APPS]
    + [("study.schedules_built", "count"),
       ("hwmodel.aggregate_cell_us", "us"),
       ("host.triad_gbs", "GB/s"),
       ("trace.overhead_ratio", "ratio")]
)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def llc_bytes():
    """Sum of the distinct last-level caches (sysfs), 32 MiB if unknown."""
    caches = {}
    for idx in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index*"):
        try:
            level = int((idx / "level").read_text())
            shared = (idx / "shared_cpu_list").read_text().strip()
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG")) * mult
        caches.setdefault(level, {})[shared] = value
    if not caches:
        return 32 << 20
    return sum(caches[max(caches)].values())


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat; (0, 0) where unavailable."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def build():
    if not (ROOT / "src" / "apps" / "apps.hpp").is_file():
        raise BenchError(f"no syclport sources under {ROOT / 'src'}")
    # Compiler temporaries stay inside the build tree.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env, timeout=600)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())],
                   check=True, stdout=sys.stderr, env=env, timeout=1200)


def bench_env():
    """The process environment minus every SYCLPORT_* knob, plus the
    thread count; returns (env, knobs seen)."""
    seen = {k: v for k, v in os.environ.items() if k.startswith("SYCLPORT_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYCLPORT_")}
    env["SYCLPORT_THREADS"] = str(nproc())
    return env, seen


class Runner:
    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline

    def __call__(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        proc = subprocess.run([str(BINARY), *map(str, args)], cwd=ROOT,
                              env=self.env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=left)
        if proc.returncode != 0:
            raise BenchError(f"hostbench {args[0]} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"hostbench {args[0]} printed nothing")
        return json.loads(lines[-1])


def triad(run, array_bytes):
    return run("triad", "--bytes", 3 * array_bytes, "--threads", nproc())


def tail(samples):
    """Highest percentile with at least ten samples beyond it (nearest
    rank), but not below the median: under 21 samples that percentile
    would fall under the median, and the median is reported."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(n - 10, -(-n // 2))
    return xs[rank - 1], f"p{100 * rank // n} of n={n}, {n - rank} beyond"


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "hostbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and p.suffix in {".cpp", ".hpp", ".txt", ".py", ".tsv"}:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def check_units(workload, units, reference):
    """Marks each unit ok/exact; returns (failed, exact, lines)."""
    failed = exact = 0
    lines = []
    for u in units:
        good = u["ok"]
        if workload in APP_WORKLOADS and good:
            got = float(u["checksum"])
            want = float(reference["checksum"])
            good = abs(got - want) <= CHECKSUM_RTOL * abs(want)
            u["exact"] = u["hex"] == reference["hex"]
        elif workload == "study-sweep":
            good = good and u["mismatches"] == 0
            u["exact"] = good
        u["passed"] = good
        failed += not good
        exact += bool(u.get("exact"))
        if not u["ok"]:
            lines.append(f"  unit failed: {u.get('error', '')}")
    if workload in APP_WORKLOADS:
        lines.append(f"  reference (Serial) checksum {reference['checksum']} "
                     f"{reference['hex']}")
        seen = sorted({(u["checksum"], u["hex"]) for u in units if u["ok"]})
        for text, bits in seen[:3]:
            count = sum(1 for u in units if u.get("hex") == bits)
            lines.append(f"  unit checksum {text} {bits} x{count}")
        if seen:
            want = float(reference["checksum"])
            worst = max(abs(float(t) - want) / abs(want) for t, _ in seen)
            lines.append(f"  {len(seen)} distinct unit checksums, largest "
                         f"relative difference from the reference {worst:.3g}")
        lines.append(f"  check: |unit - reference| <= {CHECKSUM_RTOL:g} x |reference|")
    else:
        lines.append("  check: every cell's status, runtime and efficiency "
                     f"bit-equal to {STUDY_REF.name}")
    lines.append(f"  {len(units) - failed}/{len(units)} units passed, "
                 f"{exact} bit-exact")
    return failed, exact, lines


def run_workload(workload, seed, seconds, trace, smoke=False, trace_file=None):
    """Runs one workload; returns (result JSON, report lines, record)."""
    start = time.monotonic()
    env, seen = bench_env()
    run = Runner(env, start + DEADLINE_S)
    llc = llc_bytes()
    array_bytes = -(-4 * llc // 3)  # three arrays, together >= 4x the LLC
    common = ["--workload", workload, "--seed", seed,
              "--study-ref", STUDY_REF] + (["--smoke"] if smoke else [])

    before = triad(run, array_bytes)
    q1, _, q3 = statistics.quantiles(before["passes_gbs"], n=4)
    spread = (q3 - q1) / before["triad_gbs"]
    n_setup = SETUP_PROCESSES_NOISY if spread > NOISY_TRIAD_SPREAD else SETUP_PROCESSES
    setups = [run("setup", *common) for _ in range(n_setup)]
    mode = "trace" if trace else "run"
    main_args = [mode, *common, "--seconds", seconds]
    if trace:
        main_args += ["--trace-file", trace_file]
    steal0, total0 = cpu_ticks()
    main = run(*main_args)
    steal1, total1 = cpu_ticks()
    after = triad(run, array_bytes)

    units = [s["units"][0] for s in setups] + main["units"]
    failed, exact, check_lines = check_units(workload, units, main.get("reference"))
    measured = main["units"][1:]
    untraced = [u["s"] for u in measured if not u["traced"]]
    traced = [u["s"] for u in measured if u["traced"]]
    p50 = statistics.median(untraced)
    tail_value, tail_note = tail(untraced)
    host_triad = statistics.median([before["triad_gbs"], after["triad_gbs"]])

    e2e = {
        "run_s_p50": p50,
        "run_s_tail": tail_value,
        "eff_bw_gbs": main["useful_bytes"] / p50 / 1e9,
        "setup_s": statistics.median([main["setup_s"]] + [s["setup_s"] for s in setups]),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"run_s_tail": tail_note,
             "setup_s": f"median of {n_setup + 1} cold processes"}

    metrics = {}
    if trace:
        layers = dict(main["layers"])
        layers["ops.launches_per_run"] = statistics.median(u["loops"] for u in measured)
        layers["ops.fusion_eliminated_gb"] = (
            statistics.median(main["fusion_eliminated_bytes"]) / 1e9)
        layers["core.checksum_exact_ratio"] = exact / len(units)
        layers["mem.arch_eff"] = e2e["eff_bw_gbs"] / host_triad
        layers["host.triad_gbs"] = host_triad
        layers["trace.overhead_ratio"] = statistics.median(traced) / p50
        missing = [n for n, _ in PER_LAYER if n not in layers]
        if missing:
            raise BenchError(f"per-layer metrics not produced: {missing}")
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}

    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": main["size"], "nproc": nproc(), "llc_bytes": llc,
        "working_set_bytes": main["working_set_bytes"],
        "working_set_over_llc": main["working_set_bytes"] / llc,
        "triad_array_bytes": before["array_bytes"],
        "triad_total_over_llc": 3 * before["array_bytes"] / llc,
        "host_triad_gbs_before": before["triad_gbs"],
        "host_triad_gbs_after": after["triad_gbs"],
        "host_triad_spread_before": spread, "setup_processes": n_setup,
        "host_steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "compiler": main["compiler"], "build_type": main["build_type"],
        "commit": commit(), "source_digest": source_digest(),
        "pool_threads": main["pool_threads"], "threads_seen": main["threads"],
        "syclport_env_seen": seen, "syclport_env_set": {"SYCLPORT_THREADS": str(nproc())},
        "units_measured": len(untraced), "units_traced": len(traced),
    }

    report = [f"hostbench {workload} seed={seed} seconds={seconds} trace={int(trace)}",
              "  provenance " + json.dumps(provenance, sort_keys=True)]
    report += check_lines
    for name, m in metrics.items():
        note = notes.get(name, "")
        report.append(f"  {name:32s} {m['value']:.6g} {m['unit']}"
                      + (f"  ({note})" if note else ""))
    bad = [n for n, m in metrics.items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        raise BenchError(f"metrics without a finite value: {bad}")
    result = {"correct": failed == 0, "attempted": len(units), "failed": failed,
              "metrics": metrics}
    record = {"provenance": provenance, "result": result,
              "units": units, "setups": [s["setup_s"] for s in setups],
              "end_to_end": e2e, "layers": main["layers"]}
    return result, report, record


def smoke():
    """Every workload at a tiny size, untraced and traced: all named
    metrics present, output checks passing, trace file parsing; and
    BENCHMARK.json, where present, naming the same metrics and units."""
    problems = []
    contract = ROOT / "BENCHMARK.json"
    if contract.is_file():
        spec = json.loads(contract.read_text())
        for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            if [(m["name"], m["unit"]) for m in spec[key]] != ours:
                problems.append(f"BENCHMARK.json {key} differs from run.py")
        if any(w["name"] not in WORKLOADS for w in spec["workloads"]):
            problems.append("BENCHMARK.json names an unknown workload")
    for workload in WORKLOADS:
        for trace in (0, 1):
            tf = BUILD_DIR / "traces" / f"smoke-{workload}.json"
            result, report, _ = run_workload(workload, 1, 0.2, trace, smoke=True,
                                             trace_file=tf)
            log("\n".join(report))
            names = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
            if sorted(result["metrics"]) != sorted(names):
                problems.append(f"{workload} trace={trace}: metric names differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: output check failed")
            if trace:
                events = json.loads(tf.read_text())["traceEvents"]
                if not any(e["cat"] == "bench" and e["name"] == "unit" for e in events):
                    problems.append(f"{workload}: trace has no unit spans")
    for p in problems:
        log("smoke: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at a tiny size and check the output")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        (BUILD_DIR / "traces").mkdir(parents=True, exist_ok=True)
        (BUILD_DIR / "results").mkdir(parents=True, exist_ok=True)
        if args.smoke:
            return smoke()
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        trace_file = BUILD_DIR / "traces" / f"{tag}.json"
        result, report, record = run_workload(args.workload, args.seed, args.seconds,
                                              args.trace, trace_file=trace_file)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError, json.JSONDecodeError, statistics.StatisticsError) as e:
        log(f"hostbench: {e}")
        return 2
    (BUILD_DIR / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(report))
    if args.trace:
        print(f"  trace file: {trace_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
