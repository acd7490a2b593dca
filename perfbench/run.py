"""fdbf benchmark: three CLI workloads, timed end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is figure_nt, cancel_dense, certify, or all (each workload in its own
process, then a summary table). Each workload is one in-process
`fdbf.cli.main(argv)` call, repeated back to back for S seconds by one
client in one thread (a closed loop). N reaches the program only as its
`--seed` flag. Every call's outputs are checked (see checks.py).

--trace 0 reports the end-to-end metrics BENCHMARK.json names: the median
wall time of one call, items per second over all untraced calls, set-up time
(median over fresh interpreters of `import fdbf` plus `kernels.warmup()`) and
peak resident memory. --trace 1 alternates untraced calls with calls traced by spans.py
and reports the per-layer metrics, per workload call, plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trials and --instances shrink the workloads for quick tests; --work-dir
moves the scratch directory for CSV outputs (default: .perfbench_work at
the root of the checkout, removed afterwards).
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # fdbf arguments without size, seed and output dir
    size_flag: str       # the flag that sets how much work one call does
    size: int            # full size of the workload
    items_per_size: int  # items (solves or certified instances) per unit of size
    grid_points: int     # rows of each CSV a sweep writes; 0 for verify


WORKLOADS = {w.name: w for w in (
    # The paper's headline figure. 5 n_t values x 10k trials, each trial its
    # own channel draw, so drawing channels dominates; only 5 batched solves.
    Workload("figure_nt", ("sweep", "--nt", "2..10", "--rho-db", "-10..20"),
             "--trials", 10000, 5, 5 * 4),
    # The cancellation figure at n_t = 64 on a dense cap grid: one draw of
    # 10k trials reused for 51 caps, so the batched solve and aggregation
    # dominate, and the share of active caps varies along the grid.
    Workload("cancel_dense", ("sweep", "--nt", "64", "--c-db", "-130..-80:1",
                              "--rho-db", "-10..20"),
             "--trials", 10000, 51, 51 * 4),
    # Per-instance certification: scalar closed form, grid oracle and
    # sampling oracle; no batched draw and no batched solve.
    Workload("certify", ("verify", "--samples", "10000", "--grid-points", "10000"),
             "--instances", 1000, 1, 0),
)}

# Set-up is sampled half before and half after the measured loop, so its
# median spans the same stretch of machine time as the loop does.
SETUP_REPEATS = 8
SETUP_SCRIPT = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import fdbf
from fdbf import kernels
kernels.warmup()
print(time.perf_counter() - t0)
"""


def load_program():
    """Put the checkout's src/ first on sys.path; False if it has no fdbf."""
    if not (SRC / "fdbf" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fdbf.cli  # noqa: F401
    return True


def call(workload, size, seed, out_dir, extra=()):
    """One checked workload call: (wall seconds, list of problems)."""
    from fdbf import cli
    argv = [*workload.argv, workload.size_flag, str(size), "--seed", str(seed),
            *extra]
    if workload.grid_points:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv += ["--out-dir", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:  # a crash of the program is a failed call, not a crashed benchmark
        return time.perf_counter() - t0, [traceback.format_exc()]
    wall = time.perf_counter() - t0
    if workload.grid_points:
        problems = checks.check_sweep(workload, code, out_dir, size, seed,
                                      size == workload.size)
    else:
        problems = checks.check_verify(code, stdout.getvalue())
    if problems and stderr.getvalue():
        problems.append("stderr: " + " | ".join(stderr.getvalue().splitlines()[:3]))
    return wall, problems


@dataclass
class LoopResult:
    plain: list       # wall seconds of untraced calls
    traced: list      # wall seconds of traced calls
    attempted: int
    failed: int
    problems: list


def run_loop(workload, size, seed, seconds, work_dir, tracer=None, extra=()):
    """Calls back to back until the next round would end after `seconds`.

    A round is one untraced call or, with a tracer, one untraced and one
    traced call; spans are installed only around the traced call.
    """
    res = LoopResult([], [], 0, 0, [])
    out_dir = Path(work_dir) / "out"
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for traced in (False, True) if tracer else (False,):
            with spans.installed(tracer) if traced else contextlib.nullcontext():
                wall, problems = call(workload, size, seed, out_dir, extra)
            (res.traced if traced else res.plain).append(wall)
            round_s += wall
            res.attempted += 1
            if problems:
                res.failed += 1
                res.problems.append(problems)
        if time.perf_counter() - start + round_s > seconds:
            return res


def measure_setup(repeats):
    """Seconds each of `repeats` fresh interpreters takes to import fdbf and
    run kernels.warmup()."""
    values = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT.format(src=str(SRC))],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.split()[-1]))
    return values


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, res):
    """Per-layer values per workload call, from the traced calls."""
    n = len(res.traced)
    values = {}
    for name, st in tracer.stats.items():
        values[f"{name}.calls"] = st.calls / n
        values[f"{name}.ms"] = st.ns / n / 1e6
        values[f"{name}.self_ms"] = st.self_ns / n / 1e6
        values[f"{name}.us_per_call"] = _ratio(st.ns / 1e3, st.calls)
    sb = tracer.stats["kernels.solve_batch"]
    values["kernels.solve_batch.ns_per_trial"] = _ratio(sb.ns, sb.items)
    # bytes per nanosecond is GB/s
    values["kernels.solve_batch.gbps_computed"] = _ratio(
        sb.arg_bytes + sb.result_bytes, sb.ns)
    gs = tracer.stats["kernels.grid_scan"]
    values["kernels.grid_scan.ns_per_point"] = _ratio(gs.ns, gs.items)
    ss = tracer.stats["kernels.sample_scan"]
    values["kernels.sample_scan.ns_per_sample"] = _ratio(ss.ns, ss.items)
    values["trace_overhead_s"] = (statistics.median(res.traced)
                                  - statistics.median(res.plain))
    values["error_rate"] = res.failed / res.attempted
    return values


def _git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _last_level_cache():
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else "unknown"


def run_facts():
    import numpy
    from fdbf import kernels
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "backend": kernels.BACKEND,
            "git_revision": _git_revision(),
            "last_level_cache": _last_level_cache()}


def _number(x):
    return int(x) if isinstance(x, float) and x.is_integer() else x


def run_workload(args, spec):
    workload = WORKLOADS[args.workload]
    size = args.instances if workload.size_flag == "--instances" else args.trials
    size = size or workload.size
    facts = run_facts()
    facts.update(workload=workload.name, seed=args.seed, size=size,
                 client="closed loop, 1 client, 1 thread")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup = [] if args.trace else measure_setup(SETUP_REPEATS // 2)

    base = Path(args.work_dir) if args.work_dir else ROOT / ".perfbench_work"
    base.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=base))
    try:
        # untimed warm-up call at a small size, so lazy set-up is not timed
        call(workload, max(1, size // 100), args.seed, work_dir / "warmup")
        tracer = spans.Tracer() if args.trace else None
        res = run_loop(workload, size, args.seed, args.seconds, work_dir, tracer)
        if not args.trace:
            setup += measure_setup(SETUP_REPEATS - len(setup))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not args.work_dir:
            with contextlib.suppress(OSError):
                base.rmdir()

    items = size * workload.items_per_size
    if args.trace:
        values = layer_metrics(tracer, res)
        sb = tracer.stats["kernels.solve_batch"]
        facts["solve_batch_args_mb_per_call_computed"] = sb.max_arg_bytes / 1e6
        facts["traced_calls"] = len(res.traced)
    else:
        values = {"wall_s": statistics.median(res.plain),
                  "items_per_s": items * len(res.plain) / sum(res.plain),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        facts["error_rate"] = res.failed / res.attempted
    facts.update(items_per_call=items, untraced_calls=len(res.plain),
                 wall_s_min=min(res.plain), wall_s_max=max(res.plain))
    print("facts " + json.dumps(facts))
    for problems in res.problems:
        print("FAILED CHECK: " + "; ".join(problems))
    metrics = {m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"  {workload.name:13s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": res.failed == 0, "attempted": res.attempted,
            "failed": res.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process; then one table of every metric."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    for flag in ("trials", "instances", "work_dir"):
        if getattr(args, flag) is not None:
            common += ["--" + flag.replace("_", "-"), str(getattr(args, flag))]
    results = {}
    for name in WORKLOADS:
        child = [sys.executable, str(Path(__file__).resolve()), *common,
                 "--workload", name]
        done = subprocess.run(child, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        for line in done.stdout.splitlines():
            if line.startswith(("facts ", "FAILED CHECK")):
                print(line)
        if done.returncode != 0:
            return None
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(f"{'workload':13s} {'metric':42s} {'value':>16s} unit")
    for name, result in results.items():
        rows = dict(result["metrics"],
                    error_rate={"value": result["failed"] / result["attempted"],
                                "unit": "fraction"})
        for metric, m in rows.items():
            print(f"{name:13s} {metric:42s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trials", type=int, help="trials per sweep (default: full size)")
    ap.add_argument("--instances", type=int, help="instances to certify (default: full size)")
    ap.add_argument("--work-dir", help="scratch directory for CSV outputs")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    for size in (args.trials, args.instances):
        if size is not None and size < 1:
            ap.error("--trials and --instances must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not SPEC.is_file() or not load_program():
        print(f"error: {ROOT} has no BENCHMARK.json or no src/fdbf to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args, spec)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
