"""Output checks for one workload call. Each returns a list of problems.

A sweep's tg.csv and ps.csv must match the SHA-256 digests pinned in
digests.json when the run uses the workload's full size and a pinned seed.
At any size and seed every grid point must be present, every metric and CI
cell finite and >= 0, and ps.csv bitwise constant along the rho axis (power
saving has no SNR term). A certification must exit 0 and print its
all-invariants-hold line.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())

HEADER = ["axis1", "axis2", "metric", "ci_halfwidth", "trials", "seed"]
VERIFY_OK_LINE = "verify: all dominance and activity invariants hold"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path, grid_points, trials, seed):
    """(problems, data rows) of one sweep CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != HEADER:
        return [f"{path.name}: header is {rows[:1]}"], []
    rows = rows[1:]
    problems = []
    if len(rows) != grid_points:
        problems.append(f"{path.name}: {len(rows)} rows, expected {grid_points}")
    for row in rows:
        if len(row) != len(HEADER):
            problems.append(f"{path.name}: malformed row {row}")
            continue
        for cell in row[2:4]:
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"{path.name}: cell {cell} in row {row}")
        if row[4:6] != [str(trials), str(seed)]:
            problems.append(f"{path.name}: trials/seed {row[4:6]} in row {row}")
    return problems, rows


def check_sweep(workload, exit_code, out_dir, trials, seed, full_size):
    if exit_code != 0:
        return [f"sweep exited {exit_code}"]
    out_dir = Path(out_dir)
    problems = []
    rows = {}
    for name in ("tg.csv", "ps.csv"):
        if not (out_dir / name).is_file():
            return [f"{name} was not written"]
        found, rows[name] = _read_csv(out_dir / name, workload.grid_points,
                                      trials, seed)
        problems += found
    ps_by_axis1 = {}
    for row in rows["ps.csv"]:
        if len(row) != len(HEADER):
            continue
        ps_by_axis1.setdefault(row[0], set()).add((row[2], row[3]))
    for axis1, cells in ps_by_axis1.items():
        if len(cells) != 1:
            problems.append(f"ps.csv: axis1 {axis1} varies along rho: {sorted(cells)}")
    pinned = DIGESTS.get(workload.name, {}).get(str(seed))
    if full_size and pinned:
        for name, digest in pinned.items():
            if _sha256(out_dir / name) != digest:
                problems.append(f"{name}: SHA-256 differs from the digest "
                                f"pinned for seed {seed}")
    return problems


def check_verify(exit_code, stdout):
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    if VERIFY_OK_LINE not in stdout.splitlines():
        problems.append(f"verify did not print {VERIFY_OK_LINE!r}")
    return problems
