"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans

SPEC = json.loads(run.SPEC.read_text())
TINY = ["--seed", "7", "--seconds", "0", "--trials", "200", "--instances", "5"]


@pytest.fixture(scope="module", autouse=True)
def _program():
    assert run.load_program()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_every_metric_with_unit(tmp_path, trace, section):
    work = tmp_path / "work"
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "all",
         "--trace", str(trace), "--work-dir", str(work), *TINY],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 + trace) * len(run.WORKLOADS)
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in run.WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert not any(work.iterdir()), "scratch outputs were left behind"
    assert not (run.ROOT / ".perfbench_work").exists()


def test_negative_control_counts_as_failed(tmp_path):
    res = run.run_loop(run.WORKLOADS["certify"], 5, 1, 0, tmp_path,
                       extra=("--perturb-alpha", "0.05"))
    assert res.attempted == 1 and res.failed == 1


def test_sweep_check_flags_ps_varying_along_rho(tmp_path):
    workload = run.WORKLOADS["figure_nt"]
    _, problems = run.call(workload, 50, 7, tmp_path)
    assert problems == []
    ps = tmp_path / "ps.csv"
    lines = ps.read_text().splitlines()
    lines[2] = lines[2].replace(",50,7", "1,50,7")  # nudge the CI of one rho row
    ps.write_text("\n".join(lines) + "\n")
    problems = checks.check_sweep(workload, 0, tmp_path, 50, 7, False)
    assert any("varies along rho" in p for p in problems)


def test_traced_call_matches_direct_cli_bytes(tmp_path):
    workload = run.WORKLOADS["cancel_dense"]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        _, problems = run.call(workload, 100, 3, tmp_path / "bench")
    assert problems == []
    assert tracer.stats["kernels.solve_batch"].calls == 51
    direct = tmp_path / "direct"
    subprocess.run([sys.executable, "-m", "fdbf.cli", *workload.argv,
                    "--trials", "100", "--seed", "3", "--out-dir", str(direct)],
                   check=True, capture_output=True, timeout=300,
                   env={"PYTHONPATH": str(run.SRC)}, cwd=tmp_path)
    for name in ("tg.csv", "ps.csv"):
        assert (tmp_path / "bench" / name).read_bytes() == (direct / name).read_bytes()


def test_missing_entry_points_report_zero_and_wrappers_are_restored(
        tmp_path, monkeypatch):
    import fdbf.cli
    import fdbf.experiment
    originals = (fdbf.cli.run_sweep, fdbf.experiment.draw_realization,
                 fdbf.numerics.RngState.generator)
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + (
        "kernels.deleted_kernel", "experiment.Gone.method", "nosuchmodule.f"))
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert fdbf.cli.run_sweep is not originals[0]
        _, problems = run.call(run.WORKLOADS["figure_nt"], 20, 7, tmp_path)
    assert problems == []
    stats = tracer.stats
    for name in ("kernels.deleted_kernel", "experiment.Gone.method",
                 "nosuchmodule.f", "kernels.solve_one"):
        assert stats[name].calls == 0
    assert stats["channel.draw_realization"].calls == 5 * 20
    assert stats["numerics.RngState.generator"].calls == 5 * 20
    assert stats["experiment.draw_batch"].calls == 5
    cli = stats["cli.main"]
    assert 0 < cli.self_ns < cli.ns
    assert (fdbf.cli.run_sweep, fdbf.experiment.draw_realization,
            fdbf.numerics.RngState.generator) == originals
