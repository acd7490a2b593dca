"""Command-line front end: sweep, verify and bench subcommands.

  fdbf sweep   Monte Carlo sweep; writes tg.csv and ps.csv plus a manifest.
  fdbf verify  oracle.certify on each drawn instance; exit 1 on any
               violated invariant.
  fdbf bench   closed-form vs grid-search timing; writes bench.csv plus a
               manifest.

FLAGS states each flag once and COMMANDS the flags each subcommand reads;
the parser, config keys, bounds and manifest keys come from them. A flag
its command does not read is a usage error, and so is a second value of an
axis it reads once.

sweep and verify run on one process per usable CPU (the affinity mask, so
`taskset -c 0` runs serially) through procs.fork_stages; their output does
not depend on that number. bench runs in one process.

Axis flags accept a scalar, a comma list, or a range lo..hi[:step]. A config
file of flat `key = value` lines (keys are the flag names with underscores)
supplies defaults; explicit flags override it, and a command ignores keys
it does not read. Every output file is written next to a manifest.txt, a
config file of every flag its command reads, so

  fdbf sweep --config <out>/manifest.txt --out-dir <elsewhere>

reproduces the CSV byte-for-byte (timing CSVs reproduce in shape, not in
measured nanoseconds). `main` sets two process-wide policies once (see
procs): freed memory stays in the C heap, and OpenBLAS runs on one thread.
Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 I/O error;
`main` is the one place an exception becomes one.
"""

import argparse
import itertools
import math
import os
import platform
import re
import sys
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__, procs
from .beamform import SubnormalLeakageError
from .channel import SystemConfig, db_to_linear, si_threshold
from .experiment import SweepAxes, ZeroRateError, draw_realizations, run_sweep
from .numerics import RngState, prepare_stream_drawer
from .oracle import (ACTIVITY_TOL, GRID_SLACK_TOL, SAMPLE_SLACK_TOL, certify,
                     timing_bench)

# RNG stream ids: channel draws use the instance index, oracle sampling a
# disjoint block so the certifier never reuses channel randomness. It is
# also the most instances verify takes, which keeps the two blocks apart.
_ORACLE_STREAM_BASE = 1_000_000

# largest count flag: the largest array dimension numpy can represent
_MAX_COUNT = 2 ** 63 - 1
# largest grid: past 2**53 + 1 points the grid g/(grid_points - 1) repeats
# float64 alphas, so a finer grid certifies nothing more
_MAX_GRID = 2 ** 53 + 1
_BOUND_TEXT = {_MAX_COUNT: "2**63 - 1", _MAX_GRID: "2**53 + 1",
               _ORACLE_STREAM_BASE: "1000000"}

# Python objects around one stored realization's arrays, in bytes (about
# 0.7-1.1 KiB measured with tracemalloc)
_REALIZATION_OVERHEAD = 1024


def _physical_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class UsageError(Exception):
    """Invalid flags or config; mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let every value a flag's parser may take pass as its argument
        # instead of being mistaken for an option string: a minus sign and
        # what may start a float, as in -10, -.5..3, -1., -inf or -Infinity
        self._negative_number_matcher = re.compile(
            r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _number(text, name):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # no flag has a use for NaN
        raise UsageError(f"{name}: expected a number, got {text!r}")
    return value


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
        span = (hi - lo) / step + 1e-9  # may be huge or inf: bound it first
        # a list pointer and a float object per value
        size, memory = 32 * (span + 1.0), _physical_bytes()
        if size > memory:
            raise UsageError(f"{name} = {text} needs about {size:.0f} bytes, "
                             f"more than the {memory} bytes of physical memory")
        values = [lo + k * step for k in range(int(math.floor(span)) + 1)]
    elif "," in text:
        values = [_number(t, name) for t in text.split(",")]
    else:
        values = [_number(text, name)]
    if integer:
        for v in values:
            if not math.isfinite(v) or v != int(v):
                raise UsageError(f"{name}: expected integers, got {v}")
        return [int(v) for v in values]
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


class Flag(NamedTuple):
    """One flag: how its text parses, its default and its help."""

    parse: str                # "axis", "count", "number", "seed" or "path"
    default: object
    help: str
    step: int = 0             # axis: the step a lo..hi range defaults to
    least: int = 1            # count: the smallest value accepted
    most: int = _MAX_COUNT    # count: the largest value accepted


_AXIS_HELP = "scalar, list, or lo..hi[:step] (step {step})"
FLAGS = {
    "nt": Flag("axis", [2], "transmit antennas: " + _AXIS_HELP, step=2),
    "nr": Flag("count", 2, "receive antennas"),
    "rho_db": Flag("axis", [0.0], "downlink SNR in dB: " + _AXIS_HELP, step=10),
    "c_db": Flag("axis", [-110.0], "SI cancellation in dB: " + _AXIS_HELP, step=10),
    "k_db": Flag("number", 10.0, "Ricean K-factor in dB"),
    "omega_db": Flag("number", -30.0, "SI channel mean power in dB"),
    "pd_dbm": Flag("number", 30.0, "transmit power in dBm"),
    "rn_dbm": Flag("number", -116.4, "noise floor in dBm"),
    "trials": Flag("count", 10000, "Monte Carlo trials per grid point"),
    "seed": Flag("seed", 0, "RNG seed (fallback: FDBF_SEED, then 0)"),
    "grid_points": Flag("count", None, "oracle alpha grid points", least=2, most=_MAX_GRID),
    "instances": Flag("count", 100, "realizations to certify", most=_ORACLE_STREAM_BASE),
    "samples": Flag("count", 10000, "random candidates per realization"),
    "perturb_alpha": Flag("number", 0.0, "negative control: offset added to alpha*"),
    "repeats": Flag("count", 200, "realizations timed per size"),
    "threads": Flag("count", 1, "ignored; kept for old manifests"),
    "out_dir": Flag("path", Path("."), "output directory"),
}

# config and manifest keys: every flag but the output directory
_RECORDED = frozenset(key for key, flag in FLAGS.items() if flag.parse != "path")


def _option(key):
    return "--" + key.replace("_", "-")


def _parse(key, text):
    """The value of flag `key` from its text, checked against its bounds."""
    flag = FLAGS[key]
    name = _option(key)
    if flag.parse == "axis":  # integers only where the default holds them
        return parse_axis(text, name, flag.step, isinstance(flag.default[0], int))
    if flag.parse == "number":
        return _number(text, name)
    if flag.parse == "path":
        return Path(text)
    value = _parse_int(text, name)
    if flag.parse == "seed":  # SystemConfig states its bound
        return value
    if value < flag.least:
        raise UsageError(f"{key} must be >= {flag.least}")
    if value > flag.most:
        raise UsageError(f"{key} must be <= {_BOUND_TEXT[flag.most]}")
    return value


class Command(NamedTuple):
    """One subcommand: what it runs and exactly the flags it reads."""

    run: Callable             # Settings -> exit code
    help: str
    flags: tuple              # the flags it reads, in manifest order
    once: tuple = ()          # the axes it reads one value of
    defaults: dict = {}       # its own defaults, over the flag table's
    tasks: Optional[str] = None  # the count its workers share; None: one process


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
        if key not in _RECORDED:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = value.strip()
    return settings


class Settings:
    """Every flag's value: flag > config > FDBF_SEED (seed) > default for the
    flags the command reads, the table's default for the rest."""

    def __init__(self, ns):
        self.command = ns.command
        command = COMMANDS[ns.command]
        conf = parse_config(ns.config) if ns.config else {}
        for key, flag in FLAGS.items():
            text = getattr(ns, key, None)  # ns holds the command's flags only
            if text is None and key in command.flags:
                text = conf.get(key, os.environ.get("FDBF_SEED")
                                if key == "seed" else None)
            value = (command.defaults.get(key, flag.default) if text is None
                     else _parse(key, text))
            if key in command.once and len(value) > 1:
                raise UsageError(f"{ns.command} reads one value of "
                                 f"{_option(key)}, got {len(value)}")
            setattr(self, key, value)
        self.workers = procs.worker_count(
            getattr(self, command.tasks) if command.tasks else 1)
        # bytes each count sizes: the gains a sweep keeps (a float64 per cap,
        # gain_zf and a flag per trial and n_t), each verify worker's sampling
        # candidates, the realizations verify certifies and bench times, and
        # one trial's stream of 2 (n_r + n_t + n_r n_t) words per sweep worker
        n_t, n_r = max(self.nt), self.nr
        realization = 16 * (2 * n_r + n_t + n_r * n_t) + _REALIZATION_OVERHEAD
        needs = {"trials": self.trials * len(set(self.nt)) * (8 * len(self.c_db) + 9),
                 "samples": self.samples * 16 * n_t * self.workers,
                 "repeats": self.repeats * realization,
                 "instances": self.instances * realization,
                 "nr": self.workers * 16 * (n_r + n_t + n_r * n_t)}
        memory = _physical_bytes()
        for key, size in needs.items():
            if key in command.flags and size > memory:
                raise UsageError(f"{key} = {getattr(self, key)} needs about "
                                 f"{size} bytes, more than the {memory} bytes "
                                 f"of physical memory")
        # every model point the run will build, so a bad value is a usage
        # error here and never an uncaught ValueError mid-run
        try:
            base = self.base_config()
            for n_t, c_db, rho_db in itertools.product(self.nt, self.c_db,
                                                       self.rho_db):
                si_threshold(base.replace(n_t=n_t, c_db=c_db, rho_db=rho_db))
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


def _write_manifest(settings, outputs):
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    lines = ["# fdbf manifest (a valid config file: rerun with --config)",
             f"# version = {__version__}",
             f"# command = {settings.command}",
             f"# python = {platform.python_version()}",
             f"# numpy = {np.__version__}",
             f"# heap = {procs.heap or 'default'}",
             f"# blas = {procs.blas or 'default'}",
             f"# workers = {settings.workers}",
             f"# created_utc = {stamp}"]
    lines += [f"# output = {name}" for name in outputs]
    lines += [f"{key} = {_config_value(getattr(settings, key))}"
              for key in COMMANDS[settings.command].flags if key in _RECORDED]
    _write_text(settings.out_dir / "manifest.txt", "\n".join(lines) + "\n")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def cmd_sweep(settings):
    if len(settings.nt) > 1 and len(settings.c_db) > 1:
        raise UsageError("sweep supports one swept axis besides --rho-db; "
                         "--nt and --c-db cannot both be ranges")
    if min(settings.nt) < 2:
        raise UsageError("sweep needs --nt >= 2: zero-forcing, the baseline "
                         "of both ratios, is undefined at one antenna")
    axes = SweepAxes(tuple(settings.nt), tuple(settings.rho_db),
                     tuple(settings.c_db))
    result = run_sweep(settings.base_config(), axes, settings.workers)
    c_axis_swept = len(settings.c_db) > 1
    out = settings.out_dir
    out.mkdir(parents=True, exist_ok=True)
    header = ("axis1", "axis2", "metric", "ci_halfwidth", "trials", "seed")
    for name, metric in (("tg.csv", lambda pt: (pt.tg_mean, pt.tg_ci)),
                         ("ps.csv", lambda pt: (pt.ps_mean, pt.ps_ci))):
        _write_csv(out / name, header, [
            (pt.c_db if c_axis_swept else pt.n_t, pt.rho_db, *metric(pt),
             result.trials, result.seed) for pt in result.points])
    _write_manifest(settings, ("tg.csv", "ps.csv"))
    excluded = sum(pt.n_excluded for pt in result.points)
    note = "" if excluded == 0 else f", {excluded} degenerate trials excluded"
    print(f"sweep: wrote {out / 'tg.csv'} and {out / 'ps.csv'} "
          f"({len(result.points)} grid points, {result.trials} trials, "
          f"seed {result.seed}{note})")
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
    _write_manifest(settings, ("bench.csv",))
    print(f"bench: wrote {out / 'bench.csv'} ({len(settings.nt)} sizes, "
          f"{settings.repeats} solves each, grid {settings.grid_points} points)")
    return 0


def cmd_verify(settings):
    cfg = settings.base_config()
    rho = db_to_linear(cfg.rho_db)

    def check(task):
        i, realization = task
        return certify(realization, RngState(settings.seed, _ORACLE_STREAM_BASE + i),
                       grid_points=settings.grid_points, samples=settings.samples,
                       perturb_alpha=settings.perturb_alpha, rho=rho)

    tasks = enumerate(draw_realizations(cfg, settings.instances))
    prepare_stream_drawer()  # the sampling oracle's: workers inherit it
    verdicts = procs.fork_stages([(check, tasks)], settings.workers)[0]
    n_failures = 0
    worst_grid_slack = math.inf
    worst_sample_slack = math.inf
    worst_activity = 0.0
    n_degenerate = 0
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

    print(f"verify: {settings.instances} instances, n_t={cfg.n_t}, "
          f"n_r={cfg.n_r}, grid {settings.grid_points} points, "
          f"{settings.samples} samples, seed {settings.seed}")
    if math.isfinite(worst_grid_slack):
        print(f"  worst grid slack     : {worst_grid_slack:.6e} bits/s/Hz "
              f"(must be >= {-GRID_SLACK_TOL:g})")
    if math.isfinite(worst_sample_slack):
        print(f"  worst sampling slack : {worst_sample_slack:.6e} bits/s/Hz "
              f"(must be >= {-SAMPLE_SLACK_TOL:g})")
    print(f"  worst SI activity err: {worst_activity:.6e} (must be <= {ACTIVITY_TOL:g})")
    print(f"  degenerate instances : {n_degenerate}")
    if n_failures:
        print(f"verify: {n_failures} violation(s) across "
              f"{settings.instances} instances", file=sys.stderr)
        return 1
    print("verify: all dominance and activity invariants hold")
    return 0


COMMANDS = {
    "sweep": Command(cmd_sweep, "Monte Carlo sweep writing tg.csv / ps.csv", (
        "nt", "nr", "rho_db", "c_db", "k_db", "omega_db", "pd_dbm", "rn_dbm",
        "trials", "seed", "threads", "out_dir"), tasks="trials"),
    "verify": Command(cmd_verify, "brute-force certification of the closed form", (
        "nt", "nr", "rho_db", "c_db", "k_db", "omega_db", "pd_dbm", "rn_dbm",
        "seed", "grid_points", "instances", "samples", "perturb_alpha"),
        once=("nt", "rho_db", "c_db"), defaults={"grid_points": 10000}, tasks="instances"),
    "bench": Command(cmd_bench, "closed form vs grid search timing", (
        "nt", "nr", "c_db", "k_db", "omega_db", "pd_dbm", "rn_dbm", "seed",
        "grid_points", "repeats", "out_dir"), once=("c_db",), defaults={"grid_points": 1000}),
}


@cache  # built once per process: adding the arguments is its slow part
def build_parser():
    parser = _Parser(prog="fdbf",
                     description="Self-interference-constrained transmit "
                                 "beamforming: sweeps, certification, timing.")
    parser.add_argument("--version", action="version",
                        version=f"fdbf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key in command.flags:
            p.add_argument(_option(key), help=FLAGS[key].help.format(step=FLAGS[key].step))
        p.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv=None):
    procs.keep_freed_memory()
    procs.hold_blas_to_one_thread()
    try:
        ns = build_parser().parse_args(argv)
        settings = Settings(ns)
        try:
            return COMMANDS[ns.command].run(settings)
        except SubnormalLeakageError:  # ||H^H v||^2 too small to split h_d by
            raise UsageError(f"omega_db = {settings.omega_db!r} makes ||a||^2 "
                             f"subnormal in some draw, too small to solve "
                             f"with; raise --omega-db") from None
        except ZeroRateError as exc:
            raise UsageError(f"{exc}; raise --rho-db") from None
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
