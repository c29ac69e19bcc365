"""Front end: file parsing, subcommands, reports, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from resum import ParseError, borel_sum, cli
from resum.cli import main, parse_series_file
from stieltjes_helpers import atoms, stieltjes_coeffs

SRC = str(Path(__file__).resolve().parent.parent / "src")

ALT_GEOMETRIC = """\
# four terms of the alternating geometric series
name: alt-geometric
variable: g
coefficients: 1, -1, 1, -1
"""

D0_FILE = """\
name: quartic-partition
variable: g
generator: d0
order: 24
large_order_A: 1.5
"""


def write(tmp_path, text, name="series.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSeriesFileParsing:
    def test_inline_coefficients(self, tmp_path):
        spec = parse_series_file(write(tmp_path, ALT_GEOMETRIC))
        assert spec.name == "alt-geometric"
        assert spec.coefficients == ["1", "-1", "1", "-1"]
        series = spec.build()
        assert series.order == 3

    def test_block_coefficients(self, tmp_path):
        text = "coefficients:\n  1\n  -1/8\n  35/384\n"
        spec = parse_series_file(write(tmp_path, text))
        assert spec.coefficients == ["1", "-1/8", "35/384"]
        assert spec.build().coeffs[2] == mpf(35) / 384

    def test_generator_form(self, tmp_path):
        spec = parse_series_file(write(tmp_path, D0_FILE))
        assert spec.generator == "d0"
        assert spec.build().order == 24

    def test_both_forms_rejected(self, tmp_path):
        text = "coefficients: 1, 2\ngenerator: d0\norder: 4\n"
        with pytest.raises(ParseError):
            parse_series_file(write(tmp_path, text))

    def test_neither_form_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_series_file(write(tmp_path, "name: empty\n"))

    def test_unknown_field_carries_line_number(self, tmp_path):
        for field in ("bogus", "large_order_b"):
            text = "name: x\n%s: 1\ncoefficients: 1\n" % field
            with pytest.raises(ParseError) as err:
                parse_series_file(write(tmp_path, text))
            assert "line 2" in str(err.value)
            assert "unknown field" in str(err.value)

    def test_bad_coefficient_reported(self, tmp_path):
        with pytest.raises(ParseError) as err:
            parse_series_file(write(tmp_path, "coefficients: 1, fish\n"))
        assert "fish" in str(err.value)

    def test_large_order_A_must_be_finite_and_nonzero(self, tmp_path, capsys):
        for value in ("0", "0/7", "inf", "nan"):
            path = write(tmp_path, D0_FILE.replace("large_order_A: 1.5",
                                                   "large_order_A: %s" % value))
            with pytest.raises(ParseError) as err:
                parse_series_file(path)
            assert "line 5" in str(err.value) and "large_order_A" in str(err.value)
            # borel-map would otherwise divide by it for its default --a.
            assert main(["sum", path, "--method", "borel-map", "--g", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "large_order_A" in err
            assert "Traceback" not in err

    def test_order_belongs_to_the_generator_form(self, tmp_path):
        # A coefficients file summed every coefficient whatever its order said.
        for order in ("abc", "1"):
            path = write(tmp_path, "coefficients: 1, -1, 2\norder: %s\n" % order)
            with pytest.raises(ParseError) as err:
                parse_series_file(path)
            assert str(err.value) == "line 2: 'order' belongs to the generator form"

    def test_unknown_generator(self, tmp_path):
        with pytest.raises(ParseError):
            parse_series_file(write(tmp_path, "generator: nope\norder: 3\n"))

    def test_missing_order(self, tmp_path):
        with pytest.raises(ParseError):
            parse_series_file(write(tmp_path, "generator: d0\n"))

    def test_undecodable_file_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["sum", str(path), "--method", "pade", "--g", "0.5",
                     "--L", "0", "--M", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read %s: " % path) and err.count("\n") == 1
        assert "Traceback" not in err


class TestSumCommand:
    def test_pade_trivial(self, tmp_path, capsys):
        path = write(tmp_path, ALT_GEOMETRIC)
        code = main(["sum", path, "--method", "pade", "--L", "0", "--M", "1",
                     "--g", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("value: 0.5")

    def test_odm_strong_coupling(self, tmp_path, capsys):
        path = write(tmp_path, D0_FILE)
        code = main(["sum", path, "--method", "odm", "--alpha", "2",
                     "--prefactor-p", "0.5", "--g", "inf", "--order", "12"])
        assert code == 0
        out = capsys.readouterr().out
        value = mpf(out.splitlines()[0].split()[1])
        assert abs(value - mpf("1.6007147824")) < mpf("1e-4")

    def test_strong_coupling_builds_prefix_rows_only_through_the_order(self, tmp_path,
                                                                         monkeypatch):
        tables, build = [], cli.build_rho_table
        monkeypatch.setattr(cli, "build_rho_table",
                            lambda *args: tables.append(build(*args)) or tables[-1])
        path = write(tmp_path, D0_FILE)
        assert main(["sum", path, "--method", "odm", "--alpha", "2", "--prefactor-p", "0.5",
                     "--g", "inf", "--order", "12"], stdout=io.StringIO()) == 0
        assert [len(table._prefix) for table in tables] == [13]  # Q_0 .. Q_12 of 0..24

    def test_an_order_with_no_zero_in_either_set_names_both(self, tmp_path, capsys):
        # P_11's only real root is 0 and P_11' has none: the mixed criterion
        # tried both sets, and the error used to name the last one alone.
        path = write(tmp_path, "generator: anharmonic\norder: 12\n")
        assert main(["sum", path, "--method", "odm", "--order", "11", "--alpha", "1.5",
                     "--g", "2"]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "no admissible root or stationary point at order 11" in err, err

    def test_borel_map_uses_file_growth_constant(self, tmp_path, capsys):
        path = write(tmp_path, D0_FILE)
        code = main(["sum", path, "--method", "borel-map", "--sigma", "0",
                     "--g", "0.5", "--order", "20"])
        assert code == 0
        value = mpf(capsys.readouterr().out.splitlines()[0].split()[1])
        from resum import d0_partition_value

        assert abs(value - d0_partition_value("0.5")) < mpf("1e-6")

    def test_borel_map_order_sums_the_truncated_series(self, tmp_path, capsys):
        path = write(tmp_path, D0_FILE)
        assert main(["sum", path, "--method", "borel-map", "--order", "6", "--g", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        series, a = parse_series_file(path).build(), 1 / mpf("1.5")
        value, error = borel_sum(series.truncate(6), a, 0, 1)
        assert lines[:2] == ["value: %s" % cli.nstr(value, cli.DIGITS),
                             "error_estimate: %s" % cli.nstr(error, cli.DIGITS)]
        assert borel_sum(series, a, 0, 1)[0] != value

    def test_negative_large_order_A_is_named_by_borel_map_alone(self, tmp_path, capsys):
        # borel-map blamed "a", a flag never typed, for its default 1/large_order_A.
        negative = write(tmp_path, "coefficients: 1, -1, 2, -6, 24\nlarge_order_A: -1\n")
        assert main(["sum", negative, "--method", "borel-map", "--g", "1"]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: large_order_A must be positive, got -1.0\n"), err
        # The methods that never read large_order_A still sum that file.
        for flags in (["--method", "odm", "--order", "4"],
                      ["--method", "pade", "--L", "2", "--M", "2"],
                      ["--method", "borel-pade", "--L", "1", "--M", "1"]):
            assert main(["sum", negative, "--g", "1"] + flags) == 0, flags
            assert capsys.readouterr().out.startswith("value: ")

    def test_missing_flags_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, ALT_GEOMETRIC)
        d0_path = write(tmp_path, D0_FILE, "d0.txt")
        zero_tail = write(tmp_path, "coefficients: 1, 1, 1, 1, 0, 0\n", "zero_tail.txt")
        with_order = write(tmp_path, "coefficients: 1, -1, 2\norder: 1\n", "with_order.txt")
        pade = ["--method", "pade", "--L", "0", "--M", "1"]
        odm = ["sum", d0_path, "--method", "odm", "--order", "4", "--g", "1"]
        borel_map = ["sum", d0_path, "--method", "borel-map", "--g", "1"]
        borel_pade = ["sum", d0_path, "--method", "borel-pade", "--L", "2", "--M", "2",
                      "--g", "1"]
        pade_d0 = ["sum", d0_path, "--method", "pade", "--L", "2", "--M", "2", "--g", "1"]
        # Each exited 0: a method did not read the flags of the others.
        stray = [
            (pade_d0 + ["--order", "100"], "--order"),
            (borel_pade + ["--order", "100"], "--order"),
            (odm + ["--L", "3"], "--L"),
            (borel_map + ["--M", "1"], "--M"),
            (borel_pade + ["--a", "5"], "--a"),
        ]
        cases = [argv for argv, _ in stray] + [
            pade_d0 + ["--alpha", "-inf"],
            pade_d0 + ["--tau", "nan"],
            pade_d0 + ["--prefactor-p", "abc"],
            pade_d0 + ["--family", "shifted-power", "--alpha", "0"],
            borel_map + ["--criterion", "root", "--tau", "-1"],
            ["sum", with_order] + pade + ["--g", "1"],
            odm + ["--alpha", "abc"],
            odm + ["--alpha", "1/0"],
            odm + ["--prefactor-p", "zz"],
            odm + ["--tau", "xyz"],
            odm + ["--tau", "nan"],
            borel_map + ["--sigma", "q"],
            borel_pade + ["--sigma", "q"],
            pade_d0 + ["--sigma", "q"],
            odm + ["--sigma", "nan"],
            pade_d0 + ["--tau", "0"],
            borel_map + ["--a", "abc"],
            borel_map + ["--a", "1/0"],
            ["sum", path, "--method", "pade", "--g", "1"],
            ["sum", path] + pade + ["--g", "abc"],
            ["sum", path] + pade + ["--g", "nan"],
            ["sum", d0_path, "--method", "pade", "--L", "4", "--M", "4", "--g", "inf"],
            ["sum", zero_tail, "--method", "pade", "--L", "1", "--M", "3", "--g", "2"],
        ]
        for argv in cases:
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
            assert "Traceback" not in err
        for argv, flag in stray:
            assert main(argv) == 1
            assert capsys.readouterr().err == "error: %s is not read by --method %s\n" % (
                flag, argv[3])

    @pytest.mark.parametrize("method", ["odm", "borel-map"])
    @pytest.mark.parametrize("order", ["0", "9", "100"])
    def test_order_beyond_the_series_names_the_flag(self, tmp_path, capsys, method, order):
        # Order 9 was reported as "k", order 0 as "truncation", and order 100
        # of borel-map silently ran at the series order 8.
        path = write(tmp_path, D0_FILE.replace("order: 24", "order: 8"))
        assert main(["sum", path, "--method", method, "--g", "1", "--order", order]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: --order must be a whole number in 1..8"), err

    def test_negative_rational_and_exponent_values_are_values(self, tmp_path, capsys):
        # argparse took -1/2 and -1e-3 for option names and exited with
        # "expected one argument"; -0.5 and --prefactor-p=-1/2 always worked.
        odm = ["sum", write(tmp_path, D0_FILE), "--method", "odm", "--order", "7"]
        assert main(odm + ["--g", "2", "--prefactor-p", "-1/2"]) == 0
        out = capsys.readouterr().out
        assert main(odm + ["--g", "2", "--prefactor-p", "-0.5"]) == 0
        assert capsys.readouterr().out == out
        assert main(odm + ["--g", "-1e-3"]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert err.startswith("error: inversion implemented on the real branch g >= 0 only, "
                              "got -0.001"), err
        # -inf, -nan and -oo were option names too, and ended in the same way.
        pade = ["sum", write(tmp_path, D0_FILE), "--method", "pade", "--L", "1", "--M", "1"]
        for argv, message in ((pade + ["--g", "-inf"], "--g must be a finite number or inf"),
                              (pade + ["--g", "-nan"], "--g must be a finite number or inf"),
                              (pade + ["--g", "-Infinity"], "--g must be a finite number or inf"),
                              (pade + ["--g", "-oo"], "--g must be a finite number or inf"),
                              (odm + ["--g", "1", "--alpha", "-inf"], "--alpha must be finite"),
                              (pade + ["--g", "1", "--alpha", "-inf"], "--alpha must be finite"),
                              # Every method reads --sigma; the ODM flags and
                              # --precision are named as typed.
                              (pade + ["--g", "1", "--sigma", "q"],
                               "--sigma must be a real number, got 'q'\n"),
                              (odm + ["--g", "1", "--sigma", "nan"],
                               "--sigma must be finite, got nan\n"),
                              (pade + ["--g", "1", "--tau", "0"],
                               "--tau must be positive, got 0.0\n"),
                              (pade + ["--g", "1", "--prefactor-p", "abc"],
                               "--prefactor-p must be a real number, got 'abc'\n"),
                              (["sum", write(tmp_path, D0_FILE), "--method", "borel-map",
                                "--g", "1", "--a", "abc"],
                               "--a must be a real number, got 'abc'\n"),
                              (["--precision", "5"] + pade + ["--g", "1"],
                               "--precision must be a whole number >= 30, got 5\n"),
                              (["--precision", "5", "reproduce", "saddle-table"],
                               "--precision must be a whole number >= 30, got 5\n")):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert err.startswith("error: " + message), err

    def test_borel_at_infinite_coupling_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, D0_FILE)
        for flags in (["--method", "borel-map"],
                      ["--method", "borel-pade", "--L", "2", "--M", "2"]):
            assert main(["sum", path, "--g", "inf"] + flags) == 1
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1 and "g must be finite" in errors[0], errors

    def test_huge_leroy_sigma_exits_one(self, tmp_path, capsys):
        # Above the bound the Laplace quadrature ran for minutes or overflowed.
        path = write(tmp_path, D0_FILE)
        for flags in (["--method", "borel-map", "--a", "1"],
                      ["--method", "borel-pade", "--L", "0", "--M", "1"]):
            assert main(["sum", path, "--g", "1", "--sigma", "1e30"] + flags) == 1
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert "sigma" in err and "Traceback" not in err

    def test_sum_has_no_beta_covariant_flag(self, tmp_path, capsys):
        # The flag printed the mapped flow as the sum, at exit 0.
        path = write(tmp_path, "generator: rg_beta\norder: 7\n")
        argv = ["sum", path, "--method", "odm", "--order", "5", "--g", "1",
                "--family", "shifted-power", "--alpha", "1.5",
                "--criterion", "stationary-first", "--tau", "1"]
        assert main(argv + ["--beta-covariant"]) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "--beta-covariant" in err
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("value: -0.26021430996649162\n")

    def test_rg_generator_refuses_orders_it_does_not_hold(self, tmp_path, capsys):
        # The rg series stop at order 7; a larger order was clamped to 7 and
        # summed at exit 0, as if the file had asked for it.
        argv = ["--method", "pade", "--L", "2", "--M", "2", "--g", "1"]
        for generator in ("rg_beta", "rg_gamma_inv", "rg_eta"):
            path = write(tmp_path, "generator: %s\norder: 30\n" % generator)
            assert main(["sum", path] + argv) == 1
            err = capsys.readouterr().err
            assert_one_error_line(err)
            assert "order must be a whole number in 0..7, got 30" in err
            assert main(["sum", write(tmp_path, "generator: %s\norder: 7\n" % generator)]
                        + argv) == 0

    def test_borel_pade_agrees_with_borel_map_on_flow_series(self, tmp_path, capsys):
        # [4/2] keeps the rational transform free of positive-axis poles for
        # this series at every tabulated Leroy parameter.
        text = "generator: rg_beta\norder: 7\nvariable: gtilde\n"
        path = write(tmp_path, text)
        assert main(["-p", "40", "sum", path, "--method", "borel-pade",
                     "--sigma", "2", "--L", "4", "--M", "2", "--g", "1.4"]) == 0
        pade_value = mpf(capsys.readouterr().out.splitlines()[0].split()[1])
        assert main(["-p", "40", "sum", path, "--method", "borel-map",
                     "--sigma", "2", "--a", "0.147774232", "--g", "1.4"]) == 0
        map_value = mpf(capsys.readouterr().out.splitlines()[0].split()[1])
        assert abs(pade_value - map_value) < mpf("1e-2")

    def test_json_report_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, ALT_GEOMETRIC)
        out_path = tmp_path / "report.json"
        argv = ["sum", path, "--method", "pade", "--L", "0", "--M", "1",
                "--g", "1", "--out", str(out_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["schema"] == 1
        assert report["command"] == "sum"
        assert report["config"]["method"] == "pade"
        assert report["config"]["precision"] == 64
        # Re-running the echoed config reproduces the output bit for bit.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unwritable_out_path_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, ALT_GEOMETRIC)
        out_path = tmp_path / "missing" / "report.json"
        assert main(["sum", path, "--method", "pade", "--L", "0", "--M", "1",
                     "--g", "1", "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s: " % out_path)
        assert "Traceback" not in err

    def test_precision_comes_from_the_flag_alone(self, tmp_path, monkeypatch):
        # The environment sets no working digits; --precision alone does.
        monkeypatch.setenv("RESUM_PRECISION", "40")
        path = write(tmp_path, ALT_GEOMETRIC)
        out_path = tmp_path / "report.json"
        assert main(["sum", path, "--method", "pade", "--L", "0", "--M", "1",
                     "--g", "1", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["config"]["precision"] == 64

    def test_closed_stdout_exits_one_without_a_traceback(self):
        # As in "resum reproduce ... | head": the reader is gone before the CSV.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen([sys.executable, "-m", "resum.cli", "reproduce", "saddle-table"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert "Traceback" not in err and "Exception ignored" not in err, err


class TestReproduceCommand:
    def test_saddle_table_passes_and_is_deterministic(self, tmp_path, capsys):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        assert main(["reproduce", "saddle-table", "--csv", str(csv_a)]) == 0
        first = capsys.readouterr().out
        assert "PASS" in first and "FAIL" not in first
        assert main(["reproduce", "saddle-table", "--csv", str(csv_b)]) == 0
        assert csv_a.read_bytes() == csv_b.read_bytes()
        header = csv_a.read_text().splitlines()[0]
        assert header.startswith("alpha,mu,mu_ref")

    def test_unwritable_csv_path_exits_one(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "table.csv"
        assert main(["reproduce", "saddle-table", "--csv", str(csv_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write %s: " % csv_path)
        assert "Traceback" not in err

    def test_unknown_table_id(self, capsys):
        assert main(["reproduce", "no-such-table"]) == 1

    def test_tolerance_violation_exits_two(self, monkeypatch, capsys):
        from resum import benchmarks

        result = benchmarks.run_benchmark("saddle-table")
        result.checks.append(benchmarks.Check("forced", False, "x", "y"))
        monkeypatch.setitem(benchmarks.RUNNERS, "saddle-table",
                            lambda: (result.rows, result.checks, result.config))
        assert main(["reproduce", "saddle-table"]) == 2

    def test_digits_flag_is_gone(self, capsys):
        assert main(["reproduce", "saddle-table", "--digits", "50"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unrecognized arguments"), err

    def _echo(self, tmp_path, argv):
        out_path = tmp_path / "report.json"
        assert main(argv + ["--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        return report["config"]["precision"], report["report"]["config"]["digits"]

    def test_precision_flag_sets_and_echoes_table_digits(self, tmp_path):
        argv = ["--precision", "40", "reproduce", "saddle-table"]
        assert self._echo(tmp_path, argv) == (40, 40)
        assert mp.dps == 64

    def test_each_table_runs_at_its_own_digits_by_default(self, tmp_path, monkeypatch):
        from resum import benchmarks

        seen = []

        def borel_stub():
            seen.append(mp.dps)
            return [{"k": "7"}], [], {}

        monkeypatch.setitem(benchmarks.RUNNERS, "borel-map-exponents", borel_stub)
        assert self._echo(tmp_path, ["reproduce", "borel-map-exponents"]) == (30, 30)
        assert seen == [30]
        assert self._echo(tmp_path, ["reproduce", "saddle-table"]) == (64, 64)
        assert mp.dps == 64

    def test_run_benchmark_unknown_id_names_the_choices(self):
        from resum import UsageError, benchmarks

        with pytest.raises(UsageError) as info:
            benchmarks.run_benchmark("no-such-table")
        message = str(info.value)
        assert "'no-such-table'" in message
        assert all(table_id in message for table_id in benchmarks.TABLE_IDS)


# The header of each CSV: its column order is part of the output.
CSV_HEADERS = {
    "saddle-table": "alpha,mu,mu_ref,delta_mu,neg_lambda,neg_lambda_ref,delta_lambda",
    "odm-d0-strong": "k,inv_rho,inv_rho_ref,delta_inv_rho,ln_delta,ln_delta_ref,delta_ln_delta",
    "odm-d0-g5": "k,inv_rho,inv_rho_ref,delta_inv_rho,ln_delta,ln_delta_ref,delta_ln_delta",
    "odm-oscillator": "k,rho_k_times_k,ln_rel_error",
    "phi4-fixed-point": "k,g_star,g_star_ref,delta_g_star,omega,omega_ref,delta_omega,complex_pair",
    "phi4-exponents": "k,gamma,gamma_ref,nu,nu_ref,eta,eta_ref,nu_scaling",
    "borel-map-exponents": "k,g_star,g_star_ref,nu,nu_ref,gamma,gamma_ref",
    "study": "k,rho,inv_rho,value,delta,error_estimate,lambda,flagged",
}


@pytest.mark.parametrize("command", CSV_HEADERS)
def test_csv_header_order(command, tmp_path, capsys, table_result):
    # The CSV columns are the keys of the first row, in order, so the shared
    # table results stand in for the slow reproduce runs.
    if command in ("study", "saddle-table"):
        argv = (["study", write(tmp_path, D0_FILE), "--max-order", "12"]
                if command == "study" else ["reproduce", command])
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0]
    else:
        header = ",".join(table_result(command).rows[0])
    assert header == CSV_HEADERS[command]


class TestStudyCommand:
    def test_convergent_series_scale_settles(self, tmp_path, capsys):
        # Alternating geometric series (pole at g = -1): the tuned scale
        # approaches the nonzero constant set by the singularity, here 4.
        coeffs = ", ".join("1" if k % 2 == 0 else "-1" for k in range(26))
        path = write(tmp_path, "name: alt-geometric\ncoefficients: %s\n" % coeffs)
        csv_path = tmp_path / "study.csv"
        code = main(["study", path, "--max-order", "24", "--g", "0.2",
                     "--alpha", "2", "--csv", str(csv_path)])
        assert code == 0
        rows = csv_path.read_text().splitlines()[1:]
        rhos = [mpf(line.split(",")[1]) for line in rows]
        assert abs(rhos[-1] - 4) < 1
        assert abs(rhos[-1] - rhos[-3]) / rhos[-1] < mpf("0.2")

    def test_d0_quadrature_oracle(self, tmp_path, capsys):
        path = write(tmp_path, D0_FILE)
        code = main(["study", path, "--max-order", "20", "--g", "inf",
                     "--alpha", "2", "--prefactor-p", "0.5",
                     "--oracle", "quadrature"])
        assert code == 0
        captured = capsys.readouterr()
        assert "r_estimate" in captured.err
        lines = captured.out.splitlines()
        assert lines[0].startswith("k,rho,inv_rho")
        assert len(lines) == 21  # header plus every order through 20

    def test_out_echoes_the_series_file(self, tmp_path):
        # The report echoes the file's own keys: coefficients as written and
        # large_order_A for the inline form, generator and order otherwise.
        coeffs = ["1", "-1"] * 6 + ["1", "-1/2"]
        inline = write(tmp_path, "name: alt\nvariable: x\ncoefficients: %s\nlarge_order_A: 2\n"
                       % ", ".join(coeffs), "inline.txt")
        generated = write(tmp_path, "name: quartic\ngenerator: d0\norder: 24\n", "d0.txt")
        for path, argv, want in (
                (inline, ["--g", "0.2"], {"name": "alt", "variable": "x",
                                          "coefficients": coeffs, "large_order_A": "2"}),
                (generated, ["--alpha", "2", "--prefactor-p", "0.5"],
                 {"name": "quartic", "variable": "g", "generator": "d0", "order": 24})):
            out = tmp_path / "study.json"
            assert main(["study", path, "--max-order", "12", "--csv", str(tmp_path / "s.csv"),
                         "--out", str(out)] + argv) == 0
            assert json.loads(out.read_text())["report"]["series"] == want

    def test_oracle_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, ALT_GEOMETRIC)
        assert main(["study", path, "--max-order", "2", "--g", "1",
                     "--oracle", "quadrature"]) == 1

    def test_max_order_budget(self, tmp_path, capsys):
        path = write(tmp_path, ALT_GEOMETRIC)
        for max_order in ("0", "-1", "3"):
            assert main(["study", path, "--max-order", max_order, "--g", "1"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: --max-order must be a whole number in 1..2, "
                                  "got %s\n" % max_order), err
        # A series of order 0 or 1 left the empty range 1..0 or 1..-1.
        for coeffs, order in (("1, -1", 1), ("1", 0)):
            path = write(tmp_path, "coefficients: %s\n" % coeffs, "short.txt")
            assert main(["study", path, "--max-order", "1", "--g", "1"]) == 1
            assert capsys.readouterr().err == \
                "error: study needs a series of order >= 2, got order %d\n" % order


COEFFICIENT = st.one_of(
    st.integers(-50, 50).map(str),
    st.tuples(st.integers(-50, 50), st.integers(1, 50)).map(lambda t: "%d/%d" % t),
    st.sampled_from(["0.5", "-1.25", "1e3", "-2e-4"]))
COUPLINGS = st.sampled_from(["inf", "0", "0.5", "5", "-1", "1e20", "2/3"])


@st.composite
def sum_requests(draw):
    """A series file of 1-9 explicit coefficients and the argv of one ``sum``."""
    text = "coefficients: %s\n" % ", ".join(draw(st.lists(COEFFICIENT, min_size=1,
                                                           max_size=9)))
    if draw(st.booleans()):
        text += "large_order_A: %s\n" % draw(st.sampled_from(["1.5", "0.25", "-2", "0"]))
    method = draw(st.sampled_from(["odm", "borel-map", "borel-pade", "pade"]))
    argv = ["--method", method, "--g", draw(COUPLINGS)]

    def option(flag, values):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv.extend([flag, value])

    if method == "odm":
        option("--order", ["0", "1", "2", "5", "8", "12"])
        option("--family", ["power-cut", "shifted-power"])
        option("--alpha", ["1", "1.5", "2", "3", "-1"])
        option("--prefactor-p", ["0", "0.5", "-0.5"])
        option("--criterion", ["root", "stationary", "mixed", "stationary-first"])
        option("--tau", ["0.5", "1e6"])
    elif method == "borel-map":
        option("--order", ["0", "2", "5", "8", "12"])
        option("--sigma", ["0", "1.5", "-0.5"])
        option("--a", ["1", "0.25", "-1", "0"])
    else:
        option("--L", ["0", "1", "2", "4"])
        option("--M", ["0", "1", "2", "3", "4"])
        if method == "borel-pade":
            option("--sigma", ["0", "1.5", "-0.5"])
    return text, argv


def run_on_file(text, argv):
    """``main(argv)`` with ``FILE`` in ``argv`` replaced by a series file
    holding ``text``: exit code, stdout and stderr.  Asserts that no
    exception escapes, that the exit code is 0, 1 or 2 and that ``mp.dps``
    is left as it was."""
    dps = mp.dps
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "series.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stderr(err):
            code = main([path if arg == "FILE" else arg for arg in argv], stdout=out)
    assert mp.dps == dps
    assert code in (0, 1, 2)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@settings(derandomize=True, max_examples=100)
@given(sum_requests())
def test_sum_fuzz_ends_in_a_finite_value_or_one_error_line(case):
    text, argv = case
    code, out, err = run_on_file(text, ["sum", "FILE"] + argv)
    if code == 0:
        value = [line for line in out.splitlines() if line.startswith("value: ")]
        assert len(value) == 1 and mp.isfinite(mpf(value[0].split()[1]))
        assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    else:
        assert_one_error_line(err)


@st.composite
def odm_sum_requests(draw):
    """A d0 or anharmonic series file of order 8-24 and the argv of one
    valid ODM ``sum`` at an order within it."""
    order = draw(st.integers(8, 24))
    text = "generator: %s\norder: %d\n" % (draw(st.sampled_from(["d0", "anharmonic"])), order)
    return text, ["--method", "odm", "--order", str(draw(st.integers(1, order))),
                  "--alpha", draw(st.sampled_from(["1.5", "2", "4"])),
                  "--g", draw(st.sampled_from(["0.5", "2", "inf"]))]


def test_odm_sum_fuzz_reaches_the_scale_selection(monkeypatch):
    # Valid ODM requests reach odm_value, where the positive-root scan picks
    # the order's scale: at least half of the draws, and a third exit 0 (of
    # 100 here, all reach it and 76 exit 0; the other 24 find neither an
    # admissible root nor an admissible stationary point).
    reached, codes, odm_value = [], [], cli.odm_value
    monkeypatch.setattr(cli, "odm_value", lambda *args: reached.append(1) or odm_value(*args))

    @settings(derandomize=True, max_examples=100)
    @given(odm_sum_requests())
    def check(case):
        text, argv = case
        code, out, err = run_on_file(text, ["sum", "FILE"] + argv)
        codes.append(code)
        if code == 0:
            value = [line for line in out.splitlines() if line.startswith("value: ")]
            assert len(value) == 1 and mp.isfinite(mpf(value[0].split()[1]))
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
        else:
            assert code == 1
            assert_one_error_line(err)

    check()
    assert 2 * len(reached) >= len(codes)
    assert 3 * codes.count(0) >= len(codes)


GROWTH = {"d0": "1.5", "anharmonic": "8"}  # each generator's large_order_A


@st.composite
def other_sum_requests(draw, method):
    """A d0 or anharmonic series file of order 4-24 with its large_order_A
    and the argv of one valid ``borel-map``, ``borel-pade`` or ``pade``
    ``sum``: ``--order`` within the series, ``L + M`` at most its order."""
    generator, order = draw(st.sampled_from(sorted(GROWTH))), draw(st.integers(4, 24))
    text = "generator: %s\norder: %d\nlarge_order_A: %s\n" % (generator, order,
                                                              GROWTH[generator])
    argv = ["--method", method, "--g", draw(st.sampled_from(["0.5", "2", "5"]))]
    if method == "borel-map":
        argv += ["--order", str(draw(st.integers(1, order)))]
    else:
        L = draw(st.integers(0, order))
        argv += ["--L", str(L), "--M", str(draw(st.integers(0, order - L)))]
    if method != "pade":
        argv += ["--sigma", draw(st.sampled_from(["0", "1.5"]))]
    return text, argv


@pytest.mark.parametrize("method, call", [("borel-map", "borel_sum"),
                                          ("borel-pade", "borel_pade_sum"),
                                          ("pade", "pade_fit")])
def test_sum_fuzz_reaches_each_other_method(monkeypatch, method, call):
    # Valid requests of each non-ODM method reach its library call: at least
    # half of the draws, and a third exit 0 with a finite value (of 100 here,
    # all reach it; 100 borel-map, 93 borel-pade and 96 pade draws exit 0,
    # the rest on a positive-axis Borel pole or a near-singular Pade fit).
    reached, codes, library_call = [], [], getattr(cli, call)
    monkeypatch.setattr(cli, call, lambda *args: reached.append(1) or library_call(*args))

    @settings(derandomize=True, max_examples=100)
    @given(other_sum_requests(method))
    def check(case):
        text, argv = case
        code, out, err = run_on_file(text, ["sum", "FILE"] + argv)
        codes.append(code)
        if code == 0:
            value = [line for line in out.splitlines() if line.startswith("value: ")]
            assert len(value) == 1 and mp.isfinite(mpf(value[0].split()[1]))
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
        else:
            assert code == 1
            assert_one_error_line(err)

    check()
    assert 2 * len(reached) >= len(codes)
    assert 3 * codes.count(0) >= len(codes)


LIBRARY_CALLS = {"odm": "odm_value", "borel-map": "borel_sum",
                 "borel-pade": "borel_pade_sum", "pade": "pade_fit"}


@st.composite
def stieltjes_sum_requests(draw, method):
    """A ``coefficients:`` file of a Stieltjes series (``stieltjes_helpers``)
    of order 4-24 with ``large_order_A: 1/max t``, and the argv of one valid
    ``sum`` by ``method``: ``--order`` within the series, ``L + M`` at most
    its order, ODM's optional flags drawn or left out."""
    weights, ts = draw(atoms())
    order = draw(st.integers(4, 24))
    text = "coefficients: %s\nlarge_order_A: %s\n" % (
        ", ".join(stieltjes_coeffs(weights, ts, order)), 1 / max(ts))
    argv = ["--method", method, "--g", draw(st.sampled_from(["0.5", "2", "5"]))]
    if method in ("odm", "borel-map"):
        argv += ["--order", str(draw(st.integers(1, order)))]
    else:
        L = draw(st.integers(0, order))
        argv += ["--L", str(L), "--M", str(draw(st.integers(0, order - L)))]
    if method in ("borel-map", "borel-pade"):
        argv += ["--sigma", draw(st.sampled_from(["0", "1.5"]))]
    if method == "odm":
        argv += ["--alpha", draw(st.sampled_from(["1.5", "2", "4"]))]
        for flag, values in (("--prefactor-p", ["0", "0.5", "1"]),
                             ("--criterion", ["root", "stationary", "mixed",
                                              "stationary-first"]),
                             ("--tau", ["0.5", "2"])):
            value = draw(st.none() | st.sampled_from(values))
            if value is not None:
                argv += [flag, value]
    return text, argv


@pytest.mark.parametrize("method", sorted(LIBRARY_CALLS))
def test_stieltjes_coefficient_fuzz_reaches_each_method(monkeypatch, method):
    # Explicit coefficients: valid requests of each method reach its library
    # call on at least half of the draws, and a third exit 0 with a finite
    # value; the others end in one error line (of 30 here, all reach it;
    # 30 borel-map, 25 borel-pade, 15 odm and 30 pade draws exit 0).
    reached, codes, call = [], [], LIBRARY_CALLS[method]
    library_call = getattr(cli, call)
    monkeypatch.setattr(cli, call, lambda *args: reached.append(1) or library_call(*args))

    @settings(derandomize=True, max_examples=30)
    @given(stieltjes_sum_requests(method))
    def check(case):
        text, argv = case
        code, out, err = run_on_file(text, ["sum", "FILE"] + argv)
        codes.append(code)
        if code == 0:
            value = [line for line in out.splitlines() if line.startswith("value: ")]
            assert len(value) == 1 and mp.isfinite(mpf(value[0].split()[1]))
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
        else:
            assert code == 1
            assert_one_error_line(err)

    check()
    assert 2 * len(reached) >= len(codes)
    assert 3 * codes.count(0) >= len(codes)


@st.composite
def study_or_reproduce_requests(draw):
    """The series file text and argv of one ``study`` (1-12 explicit
    coefficients, or a d0 or anharmonic generator of order up to 14) or one
    ``reproduce`` (a bad table id, or the fast saddle table)."""
    if draw(st.booleans()):
        table = draw(st.sampled_from(["saddle-table", "odm-d0", "Saddle-Table", ""]))
        digits = draw(st.none() | st.sampled_from(["10", "29"]))
        return "", (["--precision", digits] if digits else []) + ["reproduce", table]
    if draw(st.booleans()):
        size = draw(st.integers(1, 12) | st.just(12))
        coeffs = draw(st.lists(COEFFICIENT, min_size=size, max_size=size))
        text, order = "coefficients: %s\n" % ", ".join(coeffs), len(coeffs) - 1
    else:
        order = draw(st.integers(0, 14) | st.integers(11, 14))
        text = "generator: %s\norder: %d\n" % (draw(st.sampled_from(["d0", "anharmonic"])),
                                               order)
    # A convergence fit needs six orders from 5 up: long files, high orders.
    max_order = draw(st.integers(-1, 14) | st.just(order - 1))
    argv = ["study", "FILE", "--max-order", str(max_order), "--g", draw(COUPLINGS),
            "--oracle", draw(st.sampled_from(["quadrature", "diagonalization", "none"]))]
    for flag, values in (("--family", ["power-cut", "shifted-power"]),
                         ("--alpha", ["1", "1.5", "2", "3", "-1"]),
                         ("--criterion", ["root", "stationary", "mixed", "stationary-first"])):
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv.extend([flag, value])
    return text, argv


@settings(derandomize=True, max_examples=100)
@given(study_or_reproduce_requests())
def test_study_and_reproduce_fuzz_end_in_finite_output_or_one_error_line(case):
    text, argv = case
    code, out, err = run_on_file(text, argv)
    if code == 0:
        assert out and not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    else:
        assert_one_error_line(err)
