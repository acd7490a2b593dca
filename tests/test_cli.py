import hashlib
import subprocess
import sys
import tracemalloc

import pytest

import fdbf.cli
from conftest import child_env
from fdbf.cli import (Settings, UsageError, build_parser, main, parse_axis,
                      parse_config)


def settings_for(argv):
    return Settings(build_parser().parse_args(argv))


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
        assert settings_for(["sweep"]).grid_points == 100000
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
        with pytest.raises(UsageError):
            settings_for(["sweep", "--grid-points", "1"])
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

    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--trials"), ("verify", "--instances"),
        ("verify", "--samples"), ("bench", "--repeats"),
        ("sweep", "--grid-points")])
    def test_count_bound(self, command, flag, monkeypatch):
        # memory large enough for any count: this tests the 2**63 - 1 limit,
        # and for the grid the 2**53 + 1 points past which alphas repeat
        monkeypatch.setattr(fdbf.cli, "_physical_bytes", lambda: 2 ** 200)
        if flag == "--grid-points":
            top, limit = 2 ** 53 + 1, r"<= 2\*\*53 \+ 1"
        else:
            top, limit = 2 ** 63 - 1, r"<= 2\*\*63 - 1"
        settings_for([command, flag, str(top)])
        with pytest.raises(UsageError, match=limit):
            settings_for([command, flag, str(top + 1)])
        if flag == "--grid-points":  # this once scanned without end
            with pytest.raises(UsageError, match=limit):
                settings_for(["verify", flag, "1e18"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--trials", "1e30"], ["verify", "--samples", "1e30"],
        ["verify", "--instances", "1e30"], ["sweep", "--trials", "1e18"],
        ["verify", "--samples", "1e18", "--instances", "1"],
        ["bench", "--repeats", "1e18"]])
    def test_huge_counts_are_usage_errors(self, argv, tmp_path, capsys):
        tracemalloc.start()
        try:
            rc = main(argv + ["--out-dir", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of memory" not in err
        assert peak < 1 << 20  # refused before any array is allocated

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    @pytest.mark.parametrize("flag, value", [
        ("--nt", "0"), ("--c-db", "nan"), ("--rho-db", "inf"),
        ("--k-db", "nan"), ("--pd-dbm", "1e308"), ("--nt", "2,0"),
        ("--c-db", "-120,nan"),
    ])
    def test_invalid_model_values_are_usage_errors(self, command, flag, value,
                                                   tmp_path, capsys):
        rc = main([command, flag, value, "--trials", "5",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


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
        (["--nt", "1..9:2", "--c-db", "-120"],
         {"tg.csv": "60864a35bb716542391684b3dc941d077ffff4fe2ba7d9c3e1cd2b0be67b9004",
          "ps.csv": "01310da7d51b694c7b8174e7558070189126800dedb63aaede42954a55de3043"}),
    ], ids=["c_axis", "nt_axis"])
    def test_output_bytes_are_pinned(self, tmp_path, axes, digests):
        rc = main(["sweep", *axes, "--rho-db", "-10..20", "--trials", "1500",
                   "--seed", "7", "--out-dir", str(tmp_path)])
        assert rc == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
                == digest, name

    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys,
                                            monkeypatch):
        def no_memory(cfg, axes=None):
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

    def test_negative_control_fails(self, capsys):
        rc = main(["verify", "--instances", "5", "--samples", "500",
                   "--grid-points", "2001", "--seed", "1",
                   "--perturb-alpha", "0.2"])
        assert rc == 1
        assert "FAIL instance" in capsys.readouterr().err


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

    def test_module_entry_point(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "fdbf.cli", "sweep", "--nt", "2",
             "--trials", "20", "--seed", "1", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert (tmp_path / "tg.csv").exists()
        assert "sweep: wrote" in out.stdout
