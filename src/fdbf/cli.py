"""Command-line front end: sweep, verify and bench subcommands.

  fdbf sweep   Monte Carlo sweep; writes tg.csv and ps.csv plus a manifest.
  fdbf verify  brute-force certification of the closed form; exit 1 on any
               violated invariant. Instances are certified on one forked
               worker per usable CPU (the affinity mask, so `taskset -c 0`
               runs serially); the output does not depend on their number.
  fdbf bench   closed-form vs grid-search timing; writes bench.csv plus a
               manifest.

Axis flags accept a scalar, a comma list, or a range lo..hi[:step] (step
defaults: 2 for --nt, 10 for --rho-db and --c-db). A config file of flat
`key = value` lines (keys are the flag names with underscores) supplies
defaults; explicit flags override it. Every output file is written next to
a manifest.txt that is itself a valid config file, so

  fdbf sweep --config <out>/manifest.txt --out-dir <elsewhere>

reproduces the CSV byte-for-byte (timing CSVs reproduce in shape, not in
measured nanoseconds). `main` sets two process-wide policies once: freed
memory stays in the C heap, and OpenBLAS runs on one thread. Exit codes: 0
success, 1 invariant failure, 2 usage error, 3 I/O error.
"""

import argparse
import ctypes
import itertools
import math
import os
import platform
import re
import sys
import threading
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import __version__, kernels
from .beamform import dl_rate, family, optimal, DegenerateParallelError
from .channel import SystemConfig, db_to_linear, si_threshold
from .experiment import SweepAxes, draw_realizations, run_sweep
from .numerics import RngState
from .oracle import feasible, grid_search, random_feasible_search, timing_bench

# RNG stream ids: channel draws use the instance index, oracle sampling a
# disjoint block so the certifier never reuses channel randomness.
_ORACLE_STREAM_BASE = 1_000_000

# instances a verify worker takes per task: enough to hide the pipe's cost,
# few enough that the workers finish within a chunk of each other
_VERIFY_CHUNK = 16

# largest count flag: the largest array dimension numpy can represent
_MAX_COUNT = 2 ** 63 - 1

# Python objects around one stored realization's arrays, in bytes (about
# 0.7-1.1 KiB measured with tracemalloc)
_REALIZATION_OVERHEAD = 1024


def _physical_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# "kept" or "default" once _keep_freed_memory has run. The allocator's
# settings belong to the whole process, so this does too.
_heap = None


def _keep_freed_memory():
    """Make the C allocator keep the memory this process frees; once.

    glibc returns freed numpy temporaries to the kernel and faults them in
    again for the next verify instance: about 370k minor page faults per
    1000 instances. A fixed trim and mmap threshold keep them in the heap.
    Setting either turns off glibc's dynamic thresholds, so both are set.
    A no-op where the C library has no mallopt, or rejects a value.
    """
    global _heap
    if _heap is not None:
        return
    _heap = "default"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        # no C library to open (Windows has no dlopen(NULL)), or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # serve blocks below 32 MiB (the largest threshold glibc accepts on
    # 64-bit) from the heap, not mmap, and keep up to 1 GiB of it when freed
    if (mallopt(_M_MMAP_THRESHOLD, 32 << 20)
            and mallopt(_M_TRIM_THRESHOLD, 1 << 30)):
        _heap = "kept"


# "one thread" or "default" once _hold_blas_to_one_thread has run. The
# BLAS thread count belongs to the whole process, so this does too.
_blas = None

# the (set, get) thread-count functions of each OpenBLAS build numpy may
# load: numpy's own wheels bundle scipy-openblas with 64- or 32-bit integers,
# other builds link a system OpenBLAS
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


class _PhdrInfo(ctypes.Structure):
    # the leading fields of struct dl_phdr_info (link.h)
    _fields_ = (("addr", ctypes.c_void_p), ("name", ctypes.c_char_p))


_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo),
                                  ctypes.c_size_t, ctypes.c_void_p)


def _loaded_libraries():
    """Paths of the shared objects loaded into this process."""
    names = []

    @_PHDR_CALLBACK
    def collect(info, size, data):
        names.append(info.contents.name)
        return 0

    iterate = ctypes.CDLL(None).dl_iterate_phdr
    iterate.argtypes = (_PHDR_CALLBACK, ctypes.c_void_p)
    iterate.restype = ctypes.c_int
    iterate(collect, None)
    return [os.fsdecode(name) for name in names if name]


def _hold_blas_to_one_thread():
    """Set every OpenBLAS loaded into this process to one thread; once.

    OpenBLAS runs numpy's matrix products on one thread per CPU. On the
    grid oracle's products that doubles the CPU time for about 6% less wall
    time, and under `verify`'s worker processes each worker's threads fight
    the others' for the same CPUs: on 2 vCPUs, two workers took 5.7-5.8 s
    for a 1000-instance run that one process took 2.7-3.5 s for. The
    result is "one thread" only if an OpenBLAS was found and reports one
    thread afterwards; anywhere else (no dl_iterate_phdr, a BLAS other than
    OpenBLAS) it is "default", and `verify` runs serially.
    """
    global _blas
    if _blas is not None:
        return
    _blas = "default"
    try:
        paths = _loaded_libraries()
    except (OSError, TypeError, AttributeError):
        # no C library to open, or no dl_iterate_phdr in it
        return
    capped = []
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREADS:
            set_threads = getattr(lib, set_name, None)
            get_threads = getattr(lib, get_name, None)
            if set_threads is None or get_threads is None:
                continue
            set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
            get_threads.argtypes, get_threads.restype = (), ctypes.c_int
            set_threads(1)
            capped.append(get_threads() == 1)
            break
    if capped and all(capped):
        _blas = "one thread"


def _verify_workers(instances):
    """Processes `fdbf verify` certifies its instances on.

    One per CPU this process may run on (its affinity mask, so `taskset -c
    0` makes the run serial), and at most one per instance. One, so the run
    is serial, where the BLAS is not held to one thread (see
    _hold_blas_to_one_thread), where there is no fork or affinity mask, or
    where another thread runs: a forked child gets copies of the locks that
    thread holds, and nobody to release them.
    """
    if (_blas != "one thread" or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(instances, len(os.sched_getaffinity(0)))


class UsageError(Exception):
    """Invalid flags or config; mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let axis values like -10, -116.4, -10..20:10 or -10,0,10 pass as
        # flag arguments instead of being mistaken for option strings
        self._negative_number_matcher = re.compile(
            r"^-\d+(\.\d+)?([eE][+-]?\d+)?(\.\..*|,.*)?$")

    def error(self, message):
        raise UsageError(message)


def _number(text, name):
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{name}: expected a number, got {text!r}") from None


def parse_axis(text, name, default_step, integer=False):
    """Parse a scalar, comma list, or lo..hi[:step] range into a value list."""
    text = text.strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        lo_text, sep, hi_text = span.partition("..")
        if not sep or ".." in hi_text or not lo_text or not hi_text:
            raise UsageError(f"{name}: malformed range {text!r}")
        lo = _number(lo_text, name)
        hi = _number(hi_text, name)
        step = _number(step_text, name) if step_text else float(default_step)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise UsageError(f"{name}: range bounds and step must be finite")
        if step <= 0:
            raise UsageError(f"{name}: step must be positive")
        if hi < lo:
            raise UsageError(f"{name}: range must be ascending")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        values = [lo + k * step for k in range(count)]
    elif "," in text:
        values = [_number(t, name) for t in text.split(",")]
    else:
        values = [_number(text, name)]
    if not values:
        raise UsageError(f"{name}: empty axis")
    if integer:
        out = []
        for v in values:
            if not math.isfinite(v) or v != int(v):
                raise UsageError(f"{name}: expected integers, got {v}")
            out.append(int(v))
        return out
    return values


def _parse_int(text, name):
    """Exact integer from decimal text ("5", "-1", "1e3"); never via float."""
    try:
        d = Decimal(text.strip())
    except InvalidOperation:
        d = None
    # the digit bound keeps int() from expanding an exponent like 1e999999999
    if (d is None or not d.is_finite() or d.adjusted() > 40
            or d != d.to_integral_value()):
        raise UsageError(f"{name}: expected an integer, got {text!r}")
    return int(d)


# every key a config file may carry, across all subcommands
_CONFIG_KEYS = {
    "nt", "nr", "rho_db", "c_db", "k_db", "omega_db", "pd_dbm", "rn_dbm",
    "trials", "seed", "grid_points", "threads", "repeats", "instances",
    "samples", "perturb_alpha",
}


def parse_config(path):
    """Read a flat `key = value` config file into a dict of raw strings."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected `key = value`")
        key = key.strip().lower().replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = value.strip()
    return settings


class Settings:
    """Flag/config/default resolution for one invocation."""

    def __init__(self, ns):
        conf = parse_config(ns.config) if ns.config else {}

        def raw(key):
            flag = getattr(ns, key, None)
            return flag if flag is not None else conf.get(key)

        def axis(key, name, step, integer, default):
            text = raw(key)
            return parse_axis(text, name, step, integer) if text is not None else default

        def scalar(key, name, default, integer=False):
            text = raw(key)
            if text is None:
                return default
            return _parse_int(text, name) if integer else _number(text, name)

        self.nt = axis("nt", "--nt", 2, True, [2])
        self.rho_db = axis("rho_db", "--rho-db", 10, False, [0.0])
        self.c_db = axis("c_db", "--c-db", 10, False, [-110.0])
        self.nr = scalar("nr", "--nr", 2, integer=True)
        self.k_db = scalar("k_db", "--k-db", 10.0)
        self.omega_db = scalar("omega_db", "--omega-db", -30.0)
        self.pd_dbm = scalar("pd_dbm", "--pd-dbm", 30.0)
        self.rn_dbm = scalar("rn_dbm", "--rn-dbm", -116.4)
        self.trials = scalar("trials", "--trials", 10000, integer=True)
        self.threads = scalar("threads", "--threads", 1, integer=True)
        self.grid_points = scalar("grid_points", "--grid-points",
                                  getattr(ns, "default_grid_points", 100000),
                                  integer=True)
        self.repeats = scalar("repeats", "--repeats", 200, integer=True)
        self.instances = scalar("instances", "--instances", 100, integer=True)
        self.samples = scalar("samples", "--samples", 10000, integer=True)
        self.perturb_alpha = scalar("perturb_alpha", "--perturb-alpha", 0.0)

        seed_text = raw("seed")
        if seed_text is None:
            seed_text = os.environ.get("FDBF_SEED")
        self.seed = _parse_int(seed_text, "seed") if seed_text is not None else 0

        self.out_dir = Path(getattr(ns, "out_dir", None) or ".")
        for field in ("nr", "trials", "threads", "repeats", "instances", "samples"):
            if getattr(self, field) < 1:
                raise UsageError(f"{field} must be >= 1")
        if self.grid_points < 2:
            raise UsageError("grid_points must be >= 2")
        for field in ("trials", "repeats", "instances", "samples", "grid_points"):
            if getattr(self, field) > _MAX_COUNT:
                raise UsageError(f"{field} must be <= 2**63 - 1")
        # past 2**53 + 1 points the grid g/(grid_points - 1) repeats float64
        # alphas, so a finer grid certifies nothing more
        if self.grid_points > 2 ** 53 + 1:
            raise UsageError("grid_points must be <= 2**53 + 1")
        self.workers = _verify_workers(self.instances)
        # what each count sizes: the gains a sweep keeps (one float64 per
        # cap, gain_zf and a flag, per trial and n_t; channels are drawn in
        # chunks and dropped), the sampling oracle's candidates, which each
        # verify worker holds at once, the timed realizations
        n_t, n_r = max(self.nt), self.nr
        sized = {"trials": len(set(self.nt)) * (8 * len(self.c_db) + 9),
                 "samples": 16 * n_t * self.workers,
                 "repeats": (16 * (2 * n_r + n_t + n_r * n_t)
                             + _REALIZATION_OVERHEAD)}
        memory = _physical_bytes()
        for field, item_bytes in sized.items():
            count = getattr(self, field)
            if count * item_bytes > memory:
                raise UsageError(f"{field} = {count} needs about "
                                 f"{count * item_bytes} bytes, more than the "
                                 f"{memory} bytes of physical memory")
        if not 0 <= self.seed < 2 ** 64:
            raise UsageError(f"seed must lie in [0, 2**64), got {self.seed}")
        # every model point the run will build, so a bad value is a usage
        # error here and never an uncaught ValueError mid-run
        for n_t, c_db, rho_db in itertools.product(self.nt, self.c_db, self.rho_db):
            try:
                si_threshold(self.base_config().replace(
                    n_t=n_t, c_db=c_db, rho_db=rho_db))
            except ValueError as exc:
                raise UsageError(str(exc)) from None

    def base_config(self):
        return SystemConfig(n_t=self.nt[0], n_r=self.nr, p_d_dbm=self.pd_dbm,
                            r_n_dbm=self.rn_dbm, c_db=self.c_db[0],
                            omega_db=self.omega_db, k_factor_db=self.k_db,
                            rho_db=self.rho_db[0], trials=self.trials,
                            seed=self.seed)


def _fmt(x):
    """CSV cell: bare token, numbers at 10 significant digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    return format(float(x), ".10g")


def _config_value(v):
    if isinstance(v, list):
        return ", ".join(_config_value(x) for x in v)
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_manifest(out_dir, command, settings, keys, outputs):
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines = ["# fdbf manifest (a valid config file: rerun with --config)",
             f"# version = {__version__}",
             f"# command = {command}",
             f"# backend = {kernels.BACKEND}",
             f"# python = {platform.python_version()}",
             f"# numpy = {np.__version__}",
             f"# heap = {_heap or 'default'}",
             f"# blas = {_blas or 'default'}",
             f"# created_utc = {stamp}"]
    lines += [f"# output = {name}" for name in outputs]
    lines += [f"{key} = {_config_value(getattr(settings, key))}" for key in keys]
    path = out_dir / "manifest.txt"
    _write_text(path, "\n".join(lines) + "\n")
    return path


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def cmd_sweep(settings):
    if len(settings.nt) > 1 and len(settings.c_db) > 1:
        raise UsageError("sweep supports one swept axis besides --rho-db; "
                         "--nt and --c-db cannot both be ranges")
    axes = SweepAxes(tuple(settings.nt), tuple(settings.rho_db),
                     tuple(settings.c_db))
    result = run_sweep(settings.base_config(), axes)
    c_axis_swept = len(settings.c_db) > 1
    tg_rows = []
    ps_rows = []
    for pt in result.points:
        axis1 = pt.c_db if c_axis_swept else pt.n_t
        tg_rows.append((axis1, pt.rho_db, pt.tg_mean, pt.tg_ci,
                        result.trials, result.seed))
        ps_rows.append((axis1, pt.rho_db, pt.ps_mean, pt.ps_ci,
                        result.trials, result.seed))
    out = settings.out_dir
    out.mkdir(parents=True, exist_ok=True)
    header = ("axis1", "axis2", "metric", "ci_halfwidth", "trials", "seed")
    _write_csv(out / "tg.csv", header, tg_rows)
    _write_csv(out / "ps.csv", header, ps_rows)
    keys = ("nt", "nr", "rho_db", "c_db", "k_db", "omega_db", "pd_dbm",
            "rn_dbm", "trials", "seed", "threads")
    _write_manifest(out, "sweep", settings, keys, ("tg.csv", "ps.csv"))
    excluded = sum(pt.n_excluded for pt in result.points)
    note = "" if excluded == 0 else f", {excluded} degenerate trials excluded"
    print(f"sweep: wrote {out / 'tg.csv'} and {out / 'ps.csv'} "
          f"({len(result.points)} grid points, {result.trials} trials, "
          f"seed {result.seed}, backend {kernels.BACKEND}{note})")
    return 0


def cmd_bench(settings):
    rows = []
    for n_t in settings.nt:
        cfg = settings.base_config().replace(n_t=n_t)
        realizations = list(draw_realizations(cfg, settings.repeats))
        closed_ns, grid_ns, speedup = timing_bench(realizations,
                                                   settings.grid_points)
        rows.append((n_t, "closed_form", closed_ns, speedup))
        rows.append((n_t, "grid", grid_ns, speedup))
    out = settings.out_dir
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "bench.csv",
               ("n_t", "method", "ns_per_solve_median", "speedup"), rows)
    keys = ("nt", "nr", "k_db", "omega_db", "pd_dbm", "rn_dbm", "seed",
            "grid_points", "repeats")
    _write_manifest(out, "bench", settings, keys, ("bench.csv",))
    print(f"bench: wrote {out / 'bench.csv'} ({len(settings.nt)} sizes, "
          f"{settings.repeats} solves each, grid {settings.grid_points} points, "
          f"backend {kernels.BACKEND})")
    return 0


class _Verdict(NamedTuple):
    """What certifying one instance found."""

    reasons: tuple                # failure messages, in the order checked
    grid_slack: Optional[float]   # None where the grid was degenerate
    sample_slack: float
    activity: float               # relative SI activity error; 0 if inactive


def _certify(task, *, seed, grid_points, samples, perturb_alpha, rho):
    """Certify instance i = task[0], realization task[1], against both
    oracles; prints nothing, so it can run in a worker process."""
    i, r = task
    reasons = []
    sol = optimal(r.h_d, r.H, r.v, r.epsilon)
    cand = sol
    if perturb_alpha != 0.0 and not sol.degenerate:
        alpha = min(1.0, max(0.0, sol.alpha + perturb_alpha))
        try:
            cand = family(alpha, r.h_d, r.effective_si_vector())
        except DegenerateParallelError:
            cand = sol
    rate_c = dl_rate(cand.w, r.h_d, rho)

    if not feasible(cand.w, r, tol=1e-9):
        reasons.append(f"candidate infeasible: si={cand.si_power!r} "
                       f"norm={cand.norm_w!r} eps={r.epsilon!r}")
    activity = 0.0
    if cand.alpha is not None and cand.alpha > 0.0 and cand.si_power is not None:
        activity = abs(cand.si_power - r.epsilon) / r.epsilon
        if activity > 1e-6:
            reasons.append(f"SI constraint not active at alpha={cand.alpha}: "
                           f"relative error {activity:.3e}")

    grid = grid_search(r, grid_points, rho=rho)
    if grid.max_violation > 1e-9:
        reasons.append(f"grid oracle accepted SI overshoot {grid.max_violation:.3e}")
    grid_slack = None
    if not grid.degenerate:
        grid_slack = rate_c - grid.best_rate
        if grid_slack < -1e-6:
            reasons.append(f"grid oracle beats candidate by {-grid_slack:.3e} "
                           f"bits/s/Hz (alpha={cand.alpha} vs grid {grid.best_alpha})")

    rand = random_feasible_search(
        r, samples, RngState(seed, _ORACLE_STREAM_BASE + i), rho=rho)
    if rand.max_violation > 1e-9:
        reasons.append(f"sampling oracle accepted SI overshoot {rand.max_violation:.3e}")
    sample_slack = rate_c - rand.best_rate
    if sample_slack < -1e-9:
        reasons.append(f"random feasible candidate beats closed form by "
                       f"{-sample_slack:.3e}")
    return _Verdict(tuple(reasons), grid_slack, sample_slack, activity)


def cmd_verify(settings):
    cfg = settings.base_config()
    check = partial(_certify, seed=settings.seed,
                    grid_points=settings.grid_points, samples=settings.samples,
                    perturb_alpha=settings.perturb_alpha,
                    rho=db_to_linear(cfg.rho_db))
    tasks = enumerate(draw_realizations(cfg, settings.instances))
    n_failures = 0
    worst_grid_slack = math.inf
    worst_sample_slack = math.inf
    worst_activity = 0.0
    n_degenerate = 0
    pool = None
    if settings.workers > 1:
        # fork, not spawn: a spawned worker imports numpy afresh on every
        # call, and would not inherit the heap and BLAS policies
        import multiprocessing
        pool = multiprocessing.get_context("fork").Pool(settings.workers)
    try:
        verdicts = (pool.imap(check, tasks, _VERIFY_CHUNK) if pool is not None
                    else map(check, tasks))
        for i, verdict in enumerate(verdicts):
            for reason in verdict.reasons:
                n_failures += 1
                print(f"FAIL instance {i} (replay: seed {settings.seed}, "
                      f"stream {i}): {reason}", file=sys.stderr)
            worst_activity = max(worst_activity, verdict.activity)
            if verdict.grid_slack is None:
                n_degenerate += 1
            else:
                worst_grid_slack = min(worst_grid_slack, verdict.grid_slack)
            worst_sample_slack = min(worst_sample_slack, verdict.sample_slack)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()

    print(f"verify: {settings.instances} instances, n_t={cfg.n_t}, "
          f"n_r={cfg.n_r}, grid {settings.grid_points} points, "
          f"{settings.samples} samples, seed {settings.seed}")
    if math.isfinite(worst_grid_slack):
        print(f"  worst grid slack     : {worst_grid_slack:.6e} bits/s/Hz "
              f"(must be >= -1e-06)")
    if math.isfinite(worst_sample_slack):
        print(f"  worst sampling slack : {worst_sample_slack:.6e} bits/s/Hz "
              f"(must be >= -1e-09)")
    print(f"  worst SI activity err: {worst_activity:.6e} (must be <= 1e-06)")
    print(f"  degenerate instances : {n_degenerate}")
    if n_failures:
        print(f"verify: {n_failures} violation(s) across "
              f"{settings.instances} instances", file=sys.stderr)
        return 1
    print("verify: all dominance and activity invariants hold")
    return 0


def build_parser():
    parser = _Parser(prog="fdbf",
                     description="Self-interference-constrained transmit "
                                 "beamforming: sweeps, certification, timing.")
    parser.add_argument("--version", action="version",
                        version=f"fdbf {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--nt", help="transmit antennas: scalar, list, or lo..hi[:step] (step 2)")
    common.add_argument("--nr", help="receive antennas (scalar)")
    common.add_argument("--rho-db", dest="rho_db",
                        help="downlink SNR axis in dB (step 10)")
    common.add_argument("--c-db", dest="c_db",
                        help="SI cancellation axis in dB (step 10)")
    common.add_argument("--k-db", dest="k_db", help="Ricean K-factor in dB")
    common.add_argument("--omega-db", dest="omega_db",
                        help="SI channel mean power in dB")
    common.add_argument("--pd-dbm", dest="pd_dbm", help="transmit power in dBm")
    common.add_argument("--rn-dbm", dest="rn_dbm", help="noise floor in dBm")
    common.add_argument("--trials", help="Monte Carlo trials per grid point")
    common.add_argument("--seed", help="RNG seed (fallback: FDBF_SEED, then 0)")
    common.add_argument("--grid-points", dest="grid_points",
                        help="alpha grid resolution for oracle searches")
    common.add_argument("--threads", help="accepted for old manifests; "
                        "ignored (verify uses every CPU it may run on)")
    common.add_argument("--out-dir", dest="out_dir", help="output directory")
    common.add_argument("--config", help="flat key = value config file")

    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="Monte Carlo sweep writing tg.csv / ps.csv")
    p_sweep.set_defaults(func=cmd_sweep, default_grid_points=100000)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="brute-force certification of the closed form")
    p_verify.add_argument("--instances", help="realizations to certify")
    p_verify.add_argument("--samples", help="random candidates per realization")
    p_verify.add_argument("--perturb-alpha", dest="perturb_alpha",
                          help="negative control: offset added to alpha*")
    p_verify.set_defaults(func=cmd_verify, default_grid_points=10000)
    p_bench = sub.add_parser("bench", parents=[common],
                             help="closed form vs grid search timing")
    p_bench.add_argument("--repeats", help="realizations timed per size")
    p_bench.set_defaults(func=cmd_bench, default_grid_points=1000)
    return parser


def main(argv=None):
    _keep_freed_memory()
    _hold_blas_to_one_thread()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        settings = Settings(ns)
        return ns.func(settings)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
