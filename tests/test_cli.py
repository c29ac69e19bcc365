"""Front end: file parsing, subcommands, reports, exit codes, determinism."""

import io
import json

import pytest
from mpmath import mpf

from resum import ParseError
from resum.cli import main, parse_series_file

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

    def test_unknown_generator(self, tmp_path):
        with pytest.raises(ParseError):
            parse_series_file(write(tmp_path, "generator: nope\norder: 3\n"))

    def test_missing_order(self, tmp_path):
        with pytest.raises(ParseError):
            parse_series_file(write(tmp_path, "generator: d0\n"))


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

    def test_borel_map_uses_file_growth_constant(self, tmp_path, capsys):
        path = write(tmp_path, D0_FILE)
        code = main(["sum", path, "--method", "borel-map", "--sigma", "0",
                     "--g", "0.5", "--order", "20"])
        assert code == 0
        value = mpf(capsys.readouterr().out.splitlines()[0].split()[1])
        from resum import d0_partition_value

        assert abs(value - d0_partition_value("0.5")) < mpf("1e-6")

    def test_missing_flags_exit_one(self, tmp_path, monkeypatch, capsys):
        path = write(tmp_path, ALT_GEOMETRIC)
        d0_path = write(tmp_path, D0_FILE, "d0.txt")
        pade = ["--method", "pade", "--L", "0", "--M", "1"]
        cases = [
            ({}, ["sum", path, "--method", "pade", "--g", "1"]),
            ({}, ["sum", path] + pade + ["--g", "abc"]),
            ({}, ["sum", path] + pade + ["--g", "nan"]),
            ({"RESUM_PRECISION": "abc"}, ["sum", path] + pade + ["--g", "1"]),
            ({}, ["sum", d0_path, "--method", "pade", "--L", "4", "--M", "4", "--g", "inf"]),
        ]
        for env, argv in cases:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
            assert "Traceback" not in err
            for key in env:
                monkeypatch.delenv(key)

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

    def test_env_precision(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RESUM_PRECISION", "40")
        path = write(tmp_path, ALT_GEOMETRIC)
        out_path = tmp_path / "report.json"
        assert main(["sum", path, "--method", "pade", "--L", "0", "--M", "1",
                     "--g", "1", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        assert report["config"]["precision"] == 40


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

    def test_unknown_table_id(self, capsys):
        assert main(["reproduce", "no-such-table"]) == 1

    def test_tolerance_violation_exits_two(self, monkeypatch, capsys):
        from resum import benchmarks

        def failing(digits=None):
            result = benchmarks.run_saddle_table(digits=32)
            result.checks.append(benchmarks.Check("forced", False, "x", "y"))
            return result

        monkeypatch.setitem(benchmarks.RUNNERS, "saddle-table", failing)
        assert main(["reproduce", "saddle-table"]) == 2


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

    def test_oracle_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, ALT_GEOMETRIC)
        assert main(["study", path, "--max-order", "2", "--g", "1",
                     "--oracle", "quadrature"]) == 1

    def test_max_order_budget(self, tmp_path):
        path = write(tmp_path, ALT_GEOMETRIC)
        assert main(["study", path, "--max-order", "3", "--g", "1"]) == 1
