import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fdbf.channel
import fdbf.cli
import fdbf.experiment
import fdbf.procs
from conftest import assert_no_children, child_env, count_forks
from fdbf.channel import SystemConfig, draw_realization
from fdbf.cli import (Settings, UsageError, build_parser, main, parse_axis,
                      parse_config)
from fdbf.numerics import _LONG_STREAM, RngState
from fdbf.oracle import grid_search, random_feasible_search

BENCHMARK_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def settings_for(argv):
    return Settings(build_parser().parse_args(argv))


def refused_before_allocating(argv, capsys):
    """Run argv, check it is a usage error raised before any array was
    allocated, and return its stderr."""
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of memory" not in err
    assert peak < 1 << 20
    return err


class TestParseAxis:
    def test_scalar(self):
        assert parse_axis("5", "x", 2) == [5.0]
        assert parse_axis("-116.4", "x", 2) == [-116.4]

    def test_comma_list(self):
        assert parse_axis("2,4,6", "x", 2, integer=True) == [2, 4, 6]
        assert parse_axis("-10,0,20", "x", 10) == [-10.0, 0.0, 20.0]

    def test_range_with_default_step(self):
        assert parse_axis("2..10", "x", 2, integer=True) == [2, 4, 6, 8, 10]
        assert parse_axis("-10..20", "x", 10) == [-10.0, 0.0, 10.0, 20.0]

    def test_range_with_explicit_step(self):
        assert parse_axis("1..7:3", "x", 2, integer=True) == [1, 4, 7]
        assert parse_axis("-120..-90:10", "x", 10) == [-120.0, -110.0, -100.0, -90.0]

    def test_range_endpoint_not_on_step_is_dropped(self):
        assert parse_axis("2..9", "x", 2, integer=True) == [2, 4, 6, 8]

    def test_integer_validation(self):
        with pytest.raises(UsageError):
            parse_axis("2.5", "x", 2, integer=True)
        with pytest.raises(UsageError):
            parse_axis("2..3:0.5", "x", 2, integer=True)
        for bad in ("inf", "nan", "2..inf"):
            with pytest.raises(UsageError):
                parse_axis(bad, "x", 2, integer=True)

    def test_integers_parse_exactly(self):
        # as counts do (_parse_int), never through a float: 2**53 + 1 has
        # no double, 2.0000000000000001 rounds to 2.0, and a float quotient
        # of the range rounds up past hi
        big = 2 ** 53 + 1
        assert parse_axis(str(big), "x", 2, integer=True) == [big]
        assert parse_axis(f"{big}..{big + 2}", "x", 2, integer=True) == [big, big + 2]
        assert parse_axis(f"1,{big}", "x", 2, integer=True) == [1, big]
        assert parse_axis("0..299999999999999999999:100000000000000000000", "x", 2,
                          integer=True) == [0, 10 ** 20, 2 * 10 ** 20]
        for bad in ("2.0000000000000001", "2..4:1.0000000000000001"):
            with pytest.raises(UsageError, match="x: expected an integer"):
                parse_axis(bad, "x", 2, integer=True)

    @pytest.mark.parametrize("bad", ["10..2", "2..", "..4", "2..4:0",
                                     "2..4:-1", "1..2..3", "abc", "1,,2"])
    def test_malformed(self, bad):
        with pytest.raises(UsageError):
            parse_axis(bad, "x", 2)


class TestParseConfig:
    def test_reads_flat_keys(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("# comment\n\nnt = 2..6\ntrials = 500\nC-DB = -100\n")
        assert parse_config(f) == {"nt": "2..6", "trials": "500",
                                   "c_db": "-100"}

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("bogus = 1\n")
        with pytest.raises(UsageError, match="unknown key"):
            parse_config(f)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("trials 500\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            parse_config(tmp_path / "absent.txt")


class TestSettings:
    def test_defaults(self):
        s = settings_for(["sweep"])
        assert s.nt == [2] and s.rho_db == [0.0] and s.c_db == [-110.0]
        assert s.trials == 10000 and s.seed == 0 and s.threads == 1

    def test_grid_points_default_depends_on_subcommand(self):
        assert settings_for(["verify"]).grid_points == 10000
        assert settings_for(["bench"]).grid_points == 1000

    def test_flag_overrides_config(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("trials = 123\nseed = 9\n")
        s = settings_for(["sweep", "--config", str(f), "--trials", "456"])
        assert s.trials == 456
        assert s.seed == 9

    def test_seed_env_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FDBF_SEED", "77")
        assert settings_for(["sweep"]).seed == 77
        f = tmp_path / "c.txt"
        f.write_text("seed = 9\n")
        assert settings_for(["sweep", "--config", str(f)]).seed == 9
        assert settings_for(["sweep", "--seed", "5"]).seed == 5
        monkeypatch.delenv("FDBF_SEED")
        assert settings_for(["sweep"]).seed == 0

    def test_validation(self):
        with pytest.raises(UsageError):
            settings_for(["sweep", "--trials", "0"])
        for command in ("verify", "bench"):
            with pytest.raises(UsageError, match="grid_points must be >= 2"):
                settings_for([command, "--grid-points", "1"])
        with pytest.raises(UsageError):
            settings_for(["sweep", "--nt", "0.5"])

    def test_integers_parse_exactly(self, monkeypatch, tmp_path):
        big = 2 ** 53 + 1  # the nearest double is 2**53
        assert settings_for(["sweep", "--seed", str(big)]).seed == big
        monkeypatch.setenv("FDBF_SEED", str(big))
        assert settings_for(["sweep"]).seed == big
        monkeypatch.delenv("FDBF_SEED")
        f = tmp_path / "c.txt"
        f.write_text(f"seed = {big}\n")
        assert settings_for(["sweep", "--config", str(f)]).seed == big
        assert settings_for(["sweep", "--trials", "1e3"]).trials == 1000
        for bad in ("2.5", "nan", "inf", "1e999999999", "0x10", ""):
            with pytest.raises(UsageError, match="expected an integer"):
                settings_for(["sweep", "--seed", bad])

    def test_seed_range(self, tmp_path, capsys):
        rc = main(["sweep", "--trials", "5", "--seed", str(2 ** 64 - 1),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        for bad in (-1, 2 ** 64):
            assert main(["sweep", "--trials", "5", f"--seed={bad}",
                         "--out-dir", str(tmp_path)]) == 2
            assert "error: seed must lie in [0, 2**64)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, env", [
        (["--seed", "-1"], None), (["--seed", "18446744073709551616"], None),
        ([], "-1")], ids=["flag -1", "flag 2**64", "FDBF_SEED -1"])
    def test_the_seed_bound_is_systemconfigs(self, monkeypatch, capsys,
                                             argv, env):
        # the CLI states no bound of its own: SystemConfig's refusal is the
        # usage error, for every command
        bad = argv[1] if argv else env
        if env is not None:
            monkeypatch.setenv("FDBF_SEED", env)
        with pytest.raises(ValueError) as exc:
            SystemConfig(seed=int(bad))
        for command in ("sweep", "verify", "bench"):
            assert main([command, *argv]) == 2
            assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--trials"), ("verify", "--instances"),
        ("verify", "--samples"), ("bench", "--repeats"),
        ("verify", "--grid-points")])
    def test_count_bound(self, command, flag, monkeypatch):
        # memory large enough for any count: this tests the 2**63 - 1 limit,
        # for the grid the 2**53 + 1 points past which alphas repeat, and
        # for instances the first sampling-oracle stream
        monkeypatch.setattr(fdbf.cli, "_physical_bytes", lambda: 2 ** 200)
        if flag == "--grid-points":
            top, limit = 2 ** 53 + 1, r"<= 2\*\*53 \+ 1"
        elif flag == "--instances":
            top, limit = 1_000_000, "<= 1000000"
        else:
            top, limit = 2 ** 63 - 1, r"<= 2\*\*63 - 1"
        settings_for([command, flag, str(top)])
        with pytest.raises(UsageError, match=limit):
            settings_for([command, flag, str(top + 1)])
        if flag == "--grid-points":  # this once scanned without end
            with pytest.raises(UsageError, match=limit):
                settings_for(["bench", flag, "1e18"])

    def test_instances_stop_where_the_oracle_streams_start(self, monkeypatch,
                                                            capsys):
        # instance i draws its channel from stream i and its sampling
        # candidates from stream 1000000 + i: instance 1000000 would draw
        # its channel from instance 0's candidates
        monkeypatch.setattr(fdbf.cli, "_physical_bytes", lambda: 2 ** 200)
        with pytest.raises(UsageError):
            settings_for(["verify", "--instances", "1000001"])
        settings_for(["verify", "--instances", "1000000"])
        argv = ["verify", "--instances", "1000001"]
        err = refused_before_allocating(argv, capsys)
        assert err == "error: instances must be <= 1000000\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "1e30"], ["verify", "--samples", "1e30"],
        ["verify", "--instances", "1e30"], ["sweep", "--trials", "1e18"],
        ["verify", "--samples", "1e18", "--instances", "1"],
        ["bench", "--repeats", "1e18"]])
    def test_huge_counts_are_usage_errors(self, argv, tmp_path, capsys):
        if "out_dir" in fdbf.cli.COMMANDS[argv[0]].flags:
            argv = argv + ["--out-dir", str(tmp_path)]
        err = refused_before_allocating(argv, capsys)
        assert err.startswith(f"error: {argv[1][2:]} ")  # names its count

    @pytest.mark.parametrize("value", ["0..1e5:1", "-1e308..1e308"])
    def test_huge_axis_range_is_refused_before_it_is_built(
            self, value, monkeypatch, tmp_path, capsys):
        # 100001 values take about 3.2 MB as a list, more than this memory;
        # the second range once ended in an OverflowError traceback
        monkeypatch.setattr(fdbf.cli, "_physical_bytes", lambda: 1 << 20)
        err = refused_before_allocating(
            ["sweep", f"--rho-db={value}", "--trials", "1",
             "--out-dir", str(tmp_path)], capsys)
        assert err.startswith(f"error: --rho-db = {value} needs about ")
        assert err.endswith(" more than the 1048576 bytes of physical memory\n")

    def test_huge_receive_array_is_refused_before_allocating(self, monkeypatch,
                                                              tmp_path, capsys):
        # one trial's stream at n_r = 10**8 is 4.8 GB, in each worker: more
        # than 4 GiB even on one CPU
        monkeypatch.setattr(fdbf.cli, "_physical_bytes", lambda: 1 << 32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        err = refused_before_allocating(
            ["sweep", "--nr", "100000000", "--trials", "10",
             "--out-dir", str(tmp_path)], capsys)
        assert err.startswith("error: nr = 100000000 and nt = 2 need about "
                              "4800000032 bytes")
        assert "repeats" not in err

    def test_huge_transmit_array_is_refused_before_allocating(self, monkeypatch,
                                                               tmp_path, capsys):
        # the stream grows with n_t as much as with n_r: the bound names both
        # and counts channel.stream_words float64 words per worker
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        n_t = 2 ** 53 + 1
        err = refused_before_allocating(
            ["sweep", "--nt", str(n_t), "--trials", "10",
             "--out-dir", str(tmp_path)], capsys)
        size = 8 * fdbf.channel.stream_words(2, n_t)
        assert err.startswith(f"error: nr = 2 and nt = {n_t} need about {size} bytes")

    @pytest.mark.parametrize("flag", ["--nt", "--nr"])
    def test_integer_flags_share_one_parser(self, flag, capsys):
        # an axis of integers and a count refuse the same text alike
        assert main(["sweep", flag, "2.0000000000000001", "--trials", "10"]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag}: expected an integer, got '2.0000000000000001'\n")

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("flag, value", [
        ("--nt", "0"), ("--c-db", "nan"), ("--rho-db", "inf"),
        ("--k-db", "nan"), ("--pd-dbm", "1e308"), ("--nt", "2,0"),
        ("--c-db", "-120,nan"), ("--c-db", "-4000"), ("--omega-db", "4000"),
        ("--rho-db", "4000"), ("--rho-db", "3080"),
    ])
    def test_invalid_model_values_are_usage_errors(self, command, flag, value,
                                                   tmp_path, capsys):
        small = {"sweep": ["--trials", "5", "--out-dir", str(tmp_path)],
                 "verify": ["--instances", "5"]}[command]
        rc = main([command, flag, value, *small])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if command == "verify" and value == "2,0":
            # verify reads one model point: the second value is refused
            assert err == f"error: verify reads one value of {flag}, got 2\n"
        else:
            assert "unrecognized arguments" not in err
            assert "reads one value" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--k-db", "-inf"), ("--k-db", "-Infinity"), ("--rho-db", "-.5"),
        ("--c-db", "-1."), ("--rho-db", "-.5..3"), ("--c-db", "-1e2,-.5"),
        ("--pd-dbm", "-.5E1")])
    def test_negative_values_pass_as_separate_arguments(self, flag, value):
        key = flag[2:].replace("-", "_")
        apart = getattr(settings_for(["sweep", flag, value]), key)
        assert apart == getattr(settings_for(["sweep", f"{flag}={value}"]), key)

    def test_rayleigh_si_channel_from_a_separate_minus_inf(self, tmp_path):
        # K = -inf dB is pure Rayleigh; both spellings write the same bytes
        for argv in (["--k-db", "-inf"], ["--k-db=-inf"]):
            assert main(["sweep", *argv, "--trials", "50", "--seed", "3",
                         "--out-dir", str(tmp_path / argv[-1])]) == 0
        for name in ("tg.csv", "ps.csv"):
            assert (tmp_path / "-inf" / name).read_bytes() == \
                   (tmp_path / "--k-db=-inf" / name).read_bytes()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "10000"],
        ["verify", "--instances", "100", "--samples", "100",
         "--grid-points", "100"]])
    def test_si_power_that_can_overflow_is_a_usage_error(self, argv, tmp_path,
                                                          capsys):
        if "out_dir" in fdbf.cli.COMMANDS[argv[0]].flags:
            argv = argv + ["--out-dir", str(tmp_path)]
        assert main([*argv, "--omega-db", "3070"]) == 2
        assert capsys.readouterr().err.startswith("error: omega_db = 3070.0 ")
        settings_for([argv[0], "--omega-db", "3048"])
        with pytest.raises(UsageError, match="omega_db = 3048.0 .* n_t = 4,"):
            settings_for([argv[0], "--omega-db", "3048", "--nt", "4"])

    def test_large_finite_k_factor_is_line_of_sight(self, tmp_path):
        # a K-factor whose ratio overflows is K = inf: the same bytes
        for k_db in ("4000", "inf"):
            assert main(["sweep", "--k-db", k_db, "--trials", "50", "--seed", "3",
                         "--out-dir", str(tmp_path / k_db)]) == 0
        for name in ("tg.csv", "ps.csv"):
            assert (tmp_path / "4000" / name).read_bytes() == \
                   (tmp_path / "inf" / name).read_bytes()


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSweepCommand:
    def test_writes_csvs_and_manifest(self, tmp_path, capsys):
        rc = main(["sweep", "--nt", "2", "--trials", "50", "--seed", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "tg.csv")
        assert header == ["axis1", "axis2", "metric", "ci_halfwidth",
                          "trials", "seed"]
        assert len(rows) == 1
        assert rows[0][0] == "2" and rows[0][4] == "50" and rows[0][5] == "3"
        float(rows[0][2]), float(rows[0][3])
        assert (tmp_path / "ps.csv").exists()
        manifest = parse_config(tmp_path / "manifest.txt")
        assert manifest["nt"] == "2" and manifest["trials"] == "50"
        assert "sweep: wrote" in capsys.readouterr().out

    def test_antenna_axis_rows(self, tmp_path):
        rc = main(["sweep", "--nt", "2..6", "--rho-db", "0,10", "--trials",
                   "30", "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "tg.csv")
        assert [(r[0], r[1]) for r in rows] == [
            ("2", "0"), ("2", "10"), ("4", "0"), ("4", "10"), ("6", "0"),
            ("6", "10")]

    def test_cancellation_axis_rows(self, tmp_path):
        rc = main(["sweep", "--c-db", "-120..-100", "--trials", "30",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        _, rows = read_csv(tmp_path / "tg.csv")
        assert [r[0] for r in rows] == ["-120", "-110", "-100"]

    def test_both_axes_swept_is_a_usage_error(self, tmp_path, capsys):
        rc = main(["sweep", "--nt", "2..4", "--c-db", "-120..-100",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "cannot both" in capsys.readouterr().err

    def test_deterministic_output_bytes(self, tmp_path):
        args = ["sweep", "--nt", "2,4", "--trials", "40", "--seed", "11"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        for name in ("tg.csv", "ps.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_manifest_reproduces_run(self, tmp_path):
        main(["sweep", "--nt", "2..4", "--rho-db", "-10..10", "--trials",
              "40", "--seed", "5", "--out-dir", str(tmp_path / "a")])
        rc = main(["sweep", "--config", str(tmp_path / "a" / "manifest.txt"),
                   "--out-dir", str(tmp_path / "b")])
        assert rc == 0
        for name in ("tg.csv", "ps.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_manifest_records_python_numpy_and_heap(self, tmp_path):
        assert main(["sweep", "--trials", "20", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert f"# python = {platform.python_version()}" in lines
        assert f"# numpy = {np.__version__}" in lines
        assert fdbf.procs.heap in ("kept", "default")
        assert f"# heap = {fdbf.procs.heap}" in lines
        assert fdbf.procs.blas in ("one thread", "default")
        assert f"# blas = {fdbf.procs.blas}" in lines

    def test_threads_do_not_change_bytes(self, tmp_path):
        args = ["sweep", "--nt", "3", "--trials", "60", "--seed", "2"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--threads", "4", "--out-dir", str(tmp_path / "b")])
        assert (tmp_path / "a" / "tg.csv").read_bytes() == \
               (tmp_path / "b" / "tg.csv").read_bytes()

    @pytest.mark.parametrize("axes, digests", [
        (["--nt", "64", "--c-db", "-130..-80:5"],  # six row blocks
         {"tg.csv": "2c1470ce2f7613e2710d0fb9f96f1737c46f3f63f8a0971771d3d34dd87ed3c3",
          "ps.csv": "a97b834eb9d1ff56cf2c07ff10c6fc83bc8c507fcdf91a504ed65633d5d1275c"}),
        # from n_t = 3: a sweep at n_t = 1 is a usage error
        (["--nt", "3..9:2", "--c-db", "-120"],
         {"tg.csv": "02ac7dbbbc18f01caad0a97c163e090a21a7dc6f3d25a09d625671b16d192d1d",
          "ps.csv": "f28520b9cdae8ea2c6d7027b7de32ebbad846b22b9ccb6197583f6965c0c2cec"}),
    ], ids=["c_axis", "nt_axis"])
    def test_output_bytes_are_pinned(self, tmp_path, axes, digests):
        rc = main(["sweep", *axes, "--rho-db", "-10..20", "--trials", "1500",
                   "--seed", "7", "--out-dir", str(tmp_path)])
        assert rc == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
                == digest, name

    # the two sweep workloads of perfbench/run.py, at their full 10 000
    # trials: the benchmark gates these bytes, pinned in digests.json. Their
    # streams take the two drawer paths, 64 words and 388, and the test
    # fails if a change to the threshold puts both on one path. The first
    # run is serial, so the stream lengths are drawn in this process; the
    # second runs on every CPU this process may use
    @pytest.mark.parametrize("workload, axes", [
        ("figure_nt", ["--nt", "2..10"]),
        ("cancel_dense", ["--nt", "64", "--c-db", "-130..-80:1"]),
    ])
    def test_benchmark_size_bytes_match_the_benchmark_digests(
            self, tmp_path, monkeypatch, workload, axes):
        seed = "3"
        pinned = json.loads(BENCHMARK_DIGESTS.read_text())[workload][seed]
        lengths = set()
        real_uniforms = fdbf.channel.stream_uniforms

        def recording_uniforms(seed_, streams, m):
            lengths.add(m)
            return real_uniforms(seed_, streams, m)

        monkeypatch.setattr(fdbf.channel, "stream_uniforms",
                            recording_uniforms)
        usable = os.sched_getaffinity(0)
        for cpus in ({0}, usable):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            rc = main(["sweep", *axes, "--rho-db", "-10..20", "--trials",
                       "10000", "--seed", seed, "--out-dir", str(tmp_path)])
            assert rc == 0
            assert {m >= _LONG_STREAM for m in lengths} == {
                workload == "cancel_dense"}
            for name, digest in pinned.items():
                assert hashlib.sha256(
                    (tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys,
                                            monkeypatch):
        def no_memory(cfg, axes=None, workers=1):
            raise MemoryError("Unable to allocate 8.00 EiB")

        monkeypatch.setattr(fdbf.cli, "run_sweep", no_memory)
        assert main(["sweep", "--trials", "5", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            "error: out of memory: Unable to allocate 8.00 EiB\n"

    def test_out_dir_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = main(["sweep", "--trials", "10", "--out-dir", str(blocker)])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_certifies_default_model(self, capsys):
        rc = main(["verify", "--instances", "5", "--samples", "500",
                   "--grid-points", "2001", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all dominance and activity invariants hold" in out

    def test_handles_degenerate_instances(self, capsys):
        rc = main(["verify", "--nt", "1", "--instances", "5", "--samples",
                   "200", "--grid-points", "501", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degenerate instances : 5" in out

    # stdout of `fdbf verify --instances 50 --samples 2000 --grid-points 2000
    # --seed 7`, byte for byte: its slacks carry the last bits of the closed
    # form and both oracles, so a refactor that moves one shows here
    @pytest.mark.parametrize("nt, expected", [
        ("2", "verify: 50 instances, n_t=2, n_r=2, grid 2000 points, 2000 samples, seed 7\n"
              "  worst grid slack     : -8.881784e-16 bits/s/Hz (must be >= -1e-06)\n"
              "  worst sampling slack : 1.937781e-04 bits/s/Hz (must be >= -1e-09)\n"
              "  worst SI activity err: 2.248039e-15 (must be <= 1e-06)\n"
              "  degenerate instances : 0\n"
              "verify: all dominance and activity invariants hold\n"),
        ("8", "verify: 50 instances, n_t=8, n_r=2, grid 2000 points, 2000 samples, seed 7\n"
              "  worst grid slack     : -4.440892e-16 bits/s/Hz (must be >= -1e-06)\n"
              "  worst sampling slack : 2.801306e-01 bits/s/Hz (must be >= -1e-09)\n"
              "  worst SI activity err: 2.602993e-15 (must be <= 1e-06)\n"
              "  degenerate instances : 0\n"
              "verify: all dominance and activity invariants hold\n"),
    ])
    def test_stdout_is_pinned(self, capsys, nt, expected):
        rc = main(["verify", "--instances", "50", "--samples", "2000",
                   "--grid-points", "2000", "--seed", "7", "--nt", nt])
        assert rc == 0
        assert capsys.readouterr().out == expected

    # `fdbf verify --instances 300 --samples 10000 --grid-points 10000` at
    # the evidence seeds, with and without the negative control: exit code
    # and SHA-256 of stdout and stderr, whose slacks and FAIL lines carry the
    # last bits of the channel draws, the closed form and both oracles
    @pytest.mark.parametrize("seed, extra, rc, out_sha, err_sha", [
        ("1", (), 0,
         "294dc0f13a6009d8350f5142982786f625af3c3fea2c6f10dc0385ae78ca97e3",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("1", ("--perturb-alpha", "0.05"), 1,
         "be64cbae4ff7bf55a46fedfc6d907fb9fcf88e9af7cb5213c3a0e39f679278eb",
         "498ce942c52e243c9c85c8ca4bfd483ccda206f7eb2c288858bb8d07d31d2aba"),
        ("5", (), 0,
         "d48c9d2de6134acc111fbeeaa5a1915be2a4f1840b0b554ce8e54bf0a690e2ea",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("5", ("--perturb-alpha", "0.05"), 1,
         "ad4404166203cd781b44c79b5b27872a55b8f862d864306c47599cb3aacaec21",
         "f12ff72f2aa2857297188111ec048374bcd0bb303cf6a2faa53f8a06eaf27f6d"),
        ("7", (), 0,
         "7139db564945b281207f8aaa4ffa01578979f68d99483e6b96a9d96cb588400f",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("7", ("--perturb-alpha", "0.05"), 1,
         "71a37efa9b1e8fc82b59ee4afe86a515cade05dd49f1d36677aea6c6395cb22d",
         "cd5b0c7085a950ceb9280125327091aa40b9e438f8113d141f7e9758a035685d"),
    ])
    def test_evidence_seeds_are_pinned(self, capsys, seed, extra, rc,
                                       out_sha, err_sha):
        assert main(["verify", "--instances", "300", "--samples", "10000",
                     "--grid-points", "10000", "--seed", seed, *extra]) == rc
        out, err = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(err.encode()).hexdigest() == err_sha

    def test_negative_control_fails(self, capsys):
        rc = main(["verify", "--instances", "5", "--samples", "500",
                   "--grid-points", "2001", "--seed", "1",
                   "--perturb-alpha", "0.2"])
        assert rc == 1
        assert "FAIL instance" in capsys.readouterr().err


@pytest.fixture
def cpus(monkeypatch):
    """use(n) runs commands as if this process could use n CPUs, with the
    BLAS held to one thread; returns the list os.fork adds an entry to."""
    monkeypatch.setattr(fdbf.procs, "blas", "one thread")
    forks = count_forks(monkeypatch)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return forks

    return use


def _raise_in_worker(*args, **kwargs):
    raise ValueError(f"raised in process {os.getpid()}")


class TestVerifyWorkers:
    ARGV = ["verify", "--instances", "40", "--samples", "500",
            "--grid-points", "500", "--seed", "5"]

    @pytest.mark.parametrize("extra", [[], ["--perturb-alpha", "0.05"]],
                             ids=["passing", "negative control"])
    def test_workers_print_the_serial_bytes(self, cpus, capsys, extra):
        runs = []
        for n in (2, 1, 2):
            forks = cpus(n)
            rc = main(self.ARGV + extra)
            runs.append((rc, *capsys.readouterr()))
            assert_no_children()
        assert len(forks) == 2 + 2  # two workers for each two-CPU run
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == (1 if extra else 0)
        if extra:
            assert runs[0][2].count("FAIL instance") > 1

    def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(
            self, cpus, monkeypatch, capsys):
        forks = cpus(2)
        monkeypatch.setattr(fdbf.oracle, "grid_search", _raise_in_worker)
        with pytest.raises(ValueError, match="raised in process") as exc:
            main(self.ARGV)
        assert len(forks) == 2
        assert str(exc.value) != f"raised in process {os.getpid()}"
        assert_no_children()

    def test_runs_serially_without_the_blas_cap(self, cpus, monkeypatch, capsys):
        forks = cpus(2)
        monkeypatch.setattr(fdbf.procs, "blas", "default")
        assert main(self.ARGV) == 0
        assert forks == []

    def test_worker_count(self, cpus, monkeypatch):
        cpus(2)
        assert fdbf.procs.worker_count(10) == 2
        assert fdbf.procs.worker_count(1) == 1  # at most one per task
        assert settings_for(["sweep"]).workers == 2
        assert settings_for(["verify", "--instances", "1"]).workers == 1
        assert settings_for(["verify"]).workers == 2
        assert settings_for(["bench"]).workers == 1  # bench times one process
        cpus(1)  # the affinity mask, as `taskset -c 0` sets it
        assert fdbf.procs.worker_count(10) == 1
        assert settings_for(["sweep"]).workers == 1
        cpus(2)
        monkeypatch.setattr(fdbf.procs.threading, "active_count", lambda: 2)
        assert fdbf.procs.worker_count(10) == 1  # fork would copy held locks

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_si_channel_is_a_usage_error(self, cpus, capsys, n):
        # ||a||^2 of some instance is subnormal; with two CPUs a worker
        # raises it, and the caller reports it as a usage error
        forks = cpus(n)
        assert main(["verify", "--omega-db=-3080", "--instances", "20",
                     "--samples", "100", "--grid-points", "100"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: omega_db = -3080.0 makes ||a||^2 subnormal in "
                       "some draw, too small to solve with; raise --omega-db\n")
        assert len(forks) == (2 if n == 2 else 0)
        assert_no_children()

    def test_samples_bound_counts_every_worker(self, cpus, monkeypatch, capsys):
        # 10**6 samples at n_t = 2 need 32 MB per process: 48 MB holds one
        # worker's candidates but not two
        monkeypatch.setattr(fdbf.cli, "_physical_bytes", lambda: 48 << 20)
        argv = ["verify", "--samples", "1000000", "--instances", "2"]
        cpus(1)
        assert settings_for(argv).workers == 1
        cpus(2)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: samples = 1000000 needs")


class TestSweepWorkers:
    # passes of 1024 words: 16 trials a chunk at n_t = 10, 10 at n_t = 16
    AXES = {"n_t sweep": ["--nt", "2..10", "--rho-db", "-10..20"],
            "c sweep": ["--nt", "16", "--c-db", "-130..-90:10",
                        "--rho-db", "0,10"]}

    @pytest.fixture(autouse=True)
    def small_passes(self, monkeypatch):
        monkeypatch.setattr(fdbf.experiment, "_WORDS_PER_PASS", 1024)

    def run(self, axes, out_dir):
        argv = ["sweep", *self.AXES[axes], "--trials", "200", "--seed", "3"]
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        assert_no_children()
        return [(out_dir / name).read_bytes() for name in ("tg.csv", "ps.csv")]

    @pytest.mark.parametrize("axes", AXES)
    def test_workers_write_the_serial_bytes(self, cpus, tmp_path, axes):
        runs = []
        for n in (2, 1):
            forks = cpus(n)
            runs.append(self.run(axes, tmp_path / str(n)))
            manifest = (tmp_path / str(n) / "manifest.txt").read_text()
            assert f"\n# workers = {n}\n" in manifest
            assert len(forks) == 2  # the two-CPU run's workers draw, then aggregate
        assert runs[0] == runs[1]
        # the manifest replays, whatever the worker count
        assert main(["sweep", "--config", str(tmp_path / "2" / "manifest.txt"),
                     "--out-dir", str(tmp_path / "replay")]) == 0
        assert runs[0][0] == (tmp_path / "replay" / "tg.csv").read_bytes()

    def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(
            self, cpus, monkeypatch, tmp_path):
        forks = cpus(2)
        monkeypatch.setattr(fdbf.experiment.kernels, "solve_batch",
                            _raise_in_worker)
        with pytest.raises(ValueError, match="raised in process") as exc:
            self.run("c sweep", tmp_path)
        assert len(forks) == 2
        assert str(exc.value) != f"raised in process {os.getpid()}"
        assert_no_children()

    def test_runs_serially_without_the_blas_cap(self, cpus, monkeypatch,
                                                tmp_path):
        forks = cpus(2)
        monkeypatch.setattr(fdbf.procs, "blas", "default")
        self.run("n_t sweep", tmp_path)
        assert forks == []
        assert "\n# workers = 1\n" in (tmp_path / "manifest.txt").read_text()

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_si_channel_is_a_usage_error(self, cpus, capsys, tmp_path, n):
        forks = cpus(n)
        assert main(["sweep", "--omega-db=-3080", "--trials", "100",
                     "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: omega_db = -3080.0 makes ||a||^2 subnormal in some draw, "
            "too small to solve with; raise --omega-db\n")
        assert len(forks) == (2 if n == 2 else 0)
        assert not (tmp_path / "tg.csv").exists()
        assert_no_children()


# Runs one command on two workers in a fresh interpreter, as the cpus fixture
# would, and prints what the workers imported: the names in each worker's
# sys.modules that its parent lacked when it forked, and the worker pids.
_WORKER_IMPORTS = """
import json, os, sys
import fdbf.cli, fdbf.procs as procs
procs.blas = "one thread"
os.sched_getaffinity = lambda pid: {0, 1}
real = procs.fork_stages
new, pids = set(), set()

def spying(stages, workers=1):
    before = set(sys.modules)

    def report(fn):
        return lambda x: (fn(x), os.getpid(), sorted(set(sys.modules) - before))

    out = real([(report(fn), items) for fn, items in stages], workers)
    for stage in out:
        for _, pid, names in stage:
            pids.add(pid)
            new.update(names)
    return [[result for result, _, _ in stage] for stage in out]

procs.fork_stages = spying
rc = fdbf.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "new": sorted(new), "parent": os.getpid(),
                  "pids": sorted(pids),
                  "parent_random": "numpy.random" in sys.modules}))
"""


class TestWorkerImports:
    # a worker that imports a module its parent did not (numpy.random, with
    # secrets, hashlib and OpenSSL behind it) pays for it on every call; a
    # fresh interpreter shows it, where this one has imported them already
    @pytest.mark.parametrize("argv", [
        ["verify", "--instances", "20", "--samples", "100",
         "--grid-points", "100"],
        # 2 samples n_t = 80 words: a short stream, drawn by the same drawer
        ["verify", "--instances", "20", "--samples", "20",
         "--grid-points", "100"],
        # 2 (2 + 16 + 32) = 100 words a trial: the long-stream drawer
        ["sweep", "--nt", "16", "--trials", "300", "--c-db", "-120,-110"],
        # 64-word streams in chunks of 1024 trials: the last chunk is one
        # trial, a lone stream, which the drawer reads
        ["sweep", "--nt", "2..10", "--trials", "1025"],
    ], ids=["verify", "short-samples verify", "long-stream sweep",
            "one-trial chunk sweep"])
    def test_workers_import_nothing_new(self, tmp_path, argv):
        if argv[0] == "sweep":
            argv = argv + ["--out-dir", str(tmp_path)]
        report = self.run_reporting(argv)
        assert report["pids"] and report["parent"] not in report["pids"]
        assert report["new"] == []

    # figure_nt's sizes: every chunk holds several short streams, which
    # philox_raw draws, so the parent never loads numpy.random (5.5 MB of
    # a fresh interpreter's peak memory after one 100-trial sweep)
    @pytest.mark.parametrize("trials", ["100", "10000"])
    def test_a_short_stream_sweep_leaves_numpy_random_unloaded(self, tmp_path,
                                                               trials):
        report = self.run_reporting(["sweep", "--nt", "2..10", "--trials",
                                     trials, "--out-dir", str(tmp_path)])
        assert report["parent_random"] is False

    @staticmethod
    def run_reporting(argv):
        done = subprocess.run([sys.executable, "-c", _WORKER_IMPORTS, *argv],
                              env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["rc"] == 0
        return report


class TestBenchCommand:
    def test_writes_paired_rows(self, tmp_path):
        rc = main(["bench", "--nt", "2,4", "--repeats", "5",
                   "--grid-points", "201", "--out-dir", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "bench.csv")
        assert header == ["n_t", "method", "ns_per_solve_median", "speedup"]
        assert [(r[0], r[1]) for r in rows] == [
            ("2", "closed_form"), ("2", "grid"),
            ("4", "closed_form"), ("4", "grid")]
        for closed, grid in (rows[0:2], rows[2:4]):
            assert closed[3] == grid[3]  # shared speedup column
            assert float(grid[2]) > float(closed[2])
        manifest = parse_config(tmp_path / "manifest.txt")
        assert manifest["grid_points"] == "201"
        # bench times one process, whatever CPUs it may use
        assert "# workers = 1" in (tmp_path / "manifest.txt").read_text()


# a value other than the default for every flag a command reads, and one
# value for the axes a command reads once
NON_DEFAULT = {"nt": "3,5", "nr": "3", "rho_db": "-10,10", "c_db": "-100",
               "k_db": "4", "omega_db": "-25", "pd_dbm": "27", "rn_dbm": "-112",
               "trials": "30", "seed": "11", "threads": "3", "grid_points": "301",
               "instances": "3", "samples": "40", "perturb_alpha": "0.01",
               "repeats": "7"}
ONE_VALUE = {"nt": "3", "rho_db": "10", "c_db": "-100"}

# manifests as the version before the flag table wrote them
OLD_SWEEP_MANIFEST = """# fdbf manifest (a valid config file: rerun with --config)
# version = 0.1.0
# command = sweep
# backend = numpy
# workers = 2
# output = tg.csv
# output = ps.csv
nt = 2, 4, 6
nr = 3
rho_db = -10.0, 0.0, 10.0
c_db = -100.0
k_db = 5.0
omega_db = -20.0
pd_dbm = 25.0
rn_dbm = -110.0
trials = 300
seed = 9
threads = 3
"""
OLD_BENCH_MANIFEST = """# fdbf manifest (a valid config file: rerun with --config)
# version = 0.1.0
# command = bench
# backend = numpy
# workers = 1
# output = bench.csv
nt = 2, 4
nr = 3
k_db = 5.0
omega_db = -20.0
pd_dbm = 25.0
rn_dbm = -110.0
seed = 9
grid_points = 301
repeats = 7
"""


class TestFlagTable:
    @pytest.mark.parametrize("command", ["sweep", "verify", "bench"])
    def test_manifest_round_trip_restores_every_flag(self, command, tmp_path):
        spec = fdbf.cli.COMMANDS[command]
        keys = [key for key in spec.flags if key != "out_dir"]
        argv = [command]
        for key in keys:
            table = ONE_VALUE if key in spec.once else NON_DEFAULT
            argv += ["--" + key.replace("_", "-"), table[key]]
        ran = settings_for(argv)
        for key in keys:
            default = spec.defaults.get(key, fdbf.cli.FLAGS[key].default)
            assert getattr(ran, key) != default, key
        if "out_dir" in spec.flags:
            assert main(argv + ["--out-dir", str(tmp_path)]) == 0
        else:  # verify writes no manifest: record one as the others do
            ran.out_dir = tmp_path
            fdbf.cli._write_manifest(ran, ())
        manifest = parse_config(tmp_path / "manifest.txt")
        assert list(manifest) == keys
        replayed = settings_for([command, "--config",
                                 str(tmp_path / "manifest.txt")])
        for key in keys:
            assert getattr(replayed, key) == getattr(ran, key), key

    def test_manifest_keys(self, tmp_path):
        # sweep's key lines are those of every earlier version; bench's
        # gained its cap
        assert [key for key in fdbf.cli.COMMANDS["sweep"].flags
                if key != "out_dir"] == [
            "nt", "nr", "rho_db", "c_db", "k_db", "omega_db", "pd_dbm",
            "rn_dbm", "trials", "seed", "threads"]
        assert main(["bench", "--c-db", "-90", "--repeats", "3",
                     "--grid-points", "11", "--out-dir", str(tmp_path)]) == 0
        assert list(parse_config(tmp_path / "manifest.txt")) == [
            "nt", "nr", "c_db", "k_db", "omega_db", "pd_dbm", "rn_dbm", "seed",
            "grid_points", "repeats"]
        assert parse_config(tmp_path / "manifest.txt")["c_db"] == "-90.0"

    @pytest.mark.parametrize("argv", [
        ["verify", "--nt", "2,8"], ["verify", "--c-db", "-130,-90"],
        ["verify", "--nt", "2,8", "--c-db", "-130..-90"],
        ["verify", "--rho-db", "0..10"], ["bench", "--c-db", "-130,-90"],
        ["bench", "--rho-db", "0"], ["bench", "--trials", "5"],
        ["verify", "--out-dir", "x"], ["verify", "--trials", "5"],
        ["verify", "--threads", "2"], ["sweep", "--grid-points", "10"],
        ["sweep", "--repeats", "10"], ["sweep", "--instances", "10"]])
    def test_flags_a_command_does_not_read_are_refused(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and argv[1] in err

    def test_config_keys_a_command_does_not_read_are_ignored(self, tmp_path):
        config = tmp_path / "c.txt"
        config.write_text("trials = 5\nthreads = 2\nrepeats = 3\n"
                          "grid_points = 21\nseed = 4\n")
        s = settings_for(["verify", "--config", str(config)])
        assert (s.trials, s.threads, s.repeats) == (10000, 1, 200)
        assert (s.grid_points, s.seed) == (21, 4)
        s = settings_for(["sweep", "--config", str(config)])
        assert (s.trials, s.threads, s.repeats, s.seed) == (5, 2, 200, 4)

    def test_old_manifests_replay(self, tmp_path):
        old = tmp_path / "old.txt"
        old.write_text(OLD_SWEEP_MANIFEST)
        assert main(["sweep", "--config", str(old),
                     "--out-dir", str(tmp_path / "replay")]) == 0
        assert main(["sweep", "--nt", "2..6", "--nr", "3", "--rho-db",
                     "-10..10", "--c-db", "-100", "--k-db", "5", "--omega-db",
                     "-20", "--pd-dbm", "25", "--rn-dbm", "-110", "--trials",
                     "300", "--seed", "9", "--out-dir", str(tmp_path / "flags")]) == 0
        for name in ("tg.csv", "ps.csv"):
            assert (tmp_path / "replay" / name).read_bytes() == \
                   (tmp_path / "flags" / name).read_bytes()
        old.write_text(OLD_BENCH_MANIFEST)
        replayed = settings_for(["bench", "--config", str(old)])
        flags = settings_for(["bench", "--nt", "2,4", "--nr", "3", "--k-db", "5",
                              "--omega-db", "-20", "--pd-dbm", "25", "--rn-dbm",
                              "-110", "--seed", "9", "--grid-points", "301",
                              "--repeats", "7"])
        assert vars(replayed) == vars(flags)


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "fdbf" in capsys.readouterr().out

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["sweep", "--bogus", "1"]) == 2

    def test_bad_axis_value(self, capsys):
        assert main(["sweep", "--nt", "10..2"]) == 2
        assert "ascending" in capsys.readouterr().err

    def test_negative_axis_values_accepted_by_argparse(self):
        s = settings_for(["sweep", "--rho-db", "-10..20", "--c-db",
                          "-120,-110", "--nt", "2"])
        assert s.rho_db == [-10.0, 0.0, 10.0, 20.0]
        assert s.c_db == [-120.0, -110.0]

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--omega-db=-3080", "--trials", "100"], "--omega-db"),
        (["verify", "--omega-db=-3080", "--instances", "20", "--samples",
          "100", "--grid-points", "100"], "--omega-db"),
        (["bench", "--omega-db=-3080", "--repeats", "5", "--grid-points",
          "10"], "--omega-db"),
        (["sweep", "--rho-db=-140", "--trials", "1000"], "--rho-db"),
        (["sweep", "--nt", "1", "--trials", "5"], "--nt"),
        # a NaN offset once clamped alpha to 0, as -inf does
        (["verify", "--perturb-alpha", "nan", "--instances", "20",
          "--samples", "100", "--grid-points", "100"], "--perturb-alpha"),
    ], ids=["sweep_omega", "verify_omega", "bench_omega", "sweep_rho",
            "sweep_nt1", "verify_nan_offset"])
    def test_unsolvable_runs_end_in_one_error_line(self, tmp_path, capsys,
                                                   argv, flag):
        # values no draw can be solved, perturbed or averaged at: main
        # reports each as a usage error naming its flag, and nothing is written
        out_dir = [] if argv[0] == "verify" else ["--out-dir", str(tmp_path)]
        assert main(argv + out_dir) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "fdbf.cli", "sweep", "--nt", "2",
             "--trials", "20", "--seed", "1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert (tmp_path / "tg.csv").exists()
        assert "sweep: wrote" in out.stdout


class TestHeapPolicy:
    @pytest.fixture(autouse=True)
    def fresh_policy(self, monkeypatch):
        # the policy runs once per process; let each test run it again,
        # and keep the BLAS policy away from the faked C library
        monkeypatch.setattr(fdbf.procs, "heap", None)
        monkeypatch.setattr(fdbf.procs, "blas", "default")

    @staticmethod
    def fake_libc(monkeypatch, result=1):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: SimpleNamespace(mallopt=mallopt))
        return calls

    def test_two_main_calls_apply_the_policy_once(self, monkeypatch, capsys):
        calls = self.fake_libc(monkeypatch)
        assert main(["sweep", "--trials", "0"]) == 2
        assert main(["sweep", "--trials", "0"]) == 2
        # M_MMAP_THRESHOLD to 32 MiB, then M_TRIM_THRESHOLD to 1 GiB
        assert calls == [(-3, 32 << 20), (-1, 1 << 30)]
        assert fdbf.procs.heap == "kept"

    def test_a_rejected_value_leaves_the_default_heap(self, monkeypatch):
        calls = self.fake_libc(monkeypatch, result=0)
        fdbf.procs.keep_freed_memory()
        assert calls == [(-3, 32 << 20)]
        assert fdbf.procs.heap == "default"

    @pytest.mark.parametrize("libc", [None, SimpleNamespace()],
                             ids=["no C library", "no mallopt"])
    def test_no_mallopt_is_a_no_op(self, monkeypatch, capsys, libc):
        def cdll(name):
            if libc is None:
                raise OSError("cannot open the C library")
            return libc

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(["sweep", "--trials", "0"]) == 2
        assert fdbf.procs.heap == "default"

    def test_kept_heap_stops_refaulting_the_oracles(self):
        resource = pytest.importorskip("resource")
        fdbf.procs.keep_freed_memory()
        if fdbf.procs.heap != "kept":
            pytest.skip("the C library has no mallopt")
        r = draw_realization(SystemConfig(n_t=2), RngState(7, 0))

        def pairs(n):
            for i in range(n):
                grid_search(r, 10000)
                random_feasible_search(r, 10000, RngState(7, 1 + i))

        pairs(1)  # first touch of the heap the later pairs reuse
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pairs(20)
        # about 8 500 faults when glibc trims and re-faults the temporaries
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestBlasPolicy:
    @pytest.fixture(autouse=True)
    def fresh_policy(self, monkeypatch):
        monkeypatch.setattr(fdbf.procs, "blas", None)

    @staticmethod
    def fake_libraries(monkeypatch, libraries, threads_after=1):
        """Load `libraries` (path: exported names), each of whose thread
        setters records its argument; getters report threads_after."""
        calls = []

        def cdll(path):
            def setter(name):
                return lambda n: calls.append((path, name, n))

            return SimpleNamespace(**{
                name: setter(name) if "_set_" in name else lambda: threads_after
                for name in libraries[path]})

        monkeypatch.setattr(fdbf.procs, "loaded_libraries", lambda: list(libraries))
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        return calls

    def test_holds_numpys_openblas_to_one_thread(self, monkeypatch):
        numpy_blas = "/site/numpy.libs/libscipy_openblas64_-32a4b2a6.so"
        calls = self.fake_libraries(monkeypatch, {
            "/lib/libc.so.6": ["openblas_set_num_threads"],
            numpy_blas: ["scipy_openblas_set_num_threads64_",
                         "scipy_openblas_get_num_threads64_"]})
        fdbf.procs.hold_blas_to_one_thread()
        fdbf.procs.hold_blas_to_one_thread()  # once per process
        assert calls == [(numpy_blas, "scipy_openblas_set_num_threads64_", 1)]
        assert fdbf.procs.blas == "one thread"

    @pytest.mark.parametrize("libraries, threads_after", [
        ({"/lib/libopenblas.so.0": ["openblas_set_num_threads",
                                    "openblas_get_num_threads"]}, 2),
        ({"/lib/libopenblas.so.0": ["openblas_set_num_threads"]}, 1),
        ({"/lib/libmkl_rt.so": ["MKL_Set_Num_Threads"]}, 1),
    ], ids=["cap not taken", "no getter", "no OpenBLAS"])
    def test_anything_else_keeps_the_default(self, monkeypatch, libraries,
                                             threads_after):
        self.fake_libraries(monkeypatch, libraries, threads_after)
        fdbf.procs.hold_blas_to_one_thread()
        assert fdbf.procs.blas == "default"

    def test_no_library_list_keeps_the_default(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        fdbf.procs.hold_blas_to_one_thread()
        assert fdbf.procs.blas == "default"

    def test_finds_the_openblas_numpy_loaded(self):
        blas = getattr(np, "__config__", None)
        blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        if "openblas" not in blas.get("name", ""):
            pytest.skip("numpy was not built with OpenBLAS")
        fdbf.procs.hold_blas_to_one_thread()
        assert fdbf.procs.blas == "one thread"
