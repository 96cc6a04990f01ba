import os

import numpy as np
import pytest

from bpcheb.cli import emit_csv, emit_text_table, main

PROBLEMS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "problems")
POLY = os.path.join(PROBLEMS_DIR, "polynomial_ivp.prob")
EXPDECAY = os.path.join(PROBLEMS_DIR, "exp_decay_ivp.prob")
GOLDENS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "goldens")

SINGULAR = """
[system]
n = 1
r = 1
t0 = 0
tf = 1
x0 = [1]
A = [["2"]]

[solve]
K = 1
M = 1
"""


class TestEmitters:
    def test_csv_header_without_exact(self):
        ts = [0.0, 1.0]
        values = np.array([[0.0, 0.0], [1.0, 2.0]])
        text = emit_csv(ts, values)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,x2"
        assert lines[1] == "0,0,0"

    def test_csv_with_exact_adds_error_column(self):
        ts = [0.5]
        values = np.array([[0.25]])
        exact = np.array([[0.375]])
        text = emit_csv(ts, values, exact)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,exact1,err_max"
        assert lines[1] == "0.5,0.25,0.375,0.125"

    def test_text_table_aligns(self):
        ts = [0.0, 0.5]
        values = np.array([[1.0], [12345.0]])
        text = emit_text_table(ts, values, meta="# meta")
        lines = text.strip().split("\n")
        assert lines[0] == "# meta"
        assert all(len(line) == len(lines[1]) for line in lines[1:])


class TestSolveCommand:
    def test_polynomial_benchmark(self, capsys):
        assert main(["solve", "--config", POLY]) == 0
        out = capsys.readouterr()
        lines = out.out.strip().split("\n")
        assert lines[0].startswith("# n=2 r=1 K=3 M=4")
        assert lines[1] == "t,x1,x2,exact1,exact2,err_max"
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "0"
        # reported max error against the exact expressions
        assert "max error vs exact" in out.err
        err = float(out.err.strip().split()[-1])
        assert err <= 1e-10

    @pytest.mark.parametrize("path", [POLY, EXPDECAY])
    @pytest.mark.parametrize("suffix, extra", [("", []), (".K8M12", ["--K", "8", "--M", "12"])])
    def test_matches_benchmark_golden_byte_for_byte(self, tmp_path, capsys, path, suffix, extra):
        out = tmp_path / "out.csv"
        assert main(["solve", "--config", path, "--out", str(out)] + extra) == 0
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(os.path.join(GOLDENS_DIR, f"{stem}{suffix}.csv"), "rb") as golden:
            assert out.read_bytes() == golden.read()

    def test_deterministic_output(self, capsys):
        main(["solve", "--config", POLY])
        run1 = capsys.readouterr().out
        main(["solve", "--config", POLY])
        run2 = capsys.readouterr().out
        assert run1 == run2

    def test_flag_overrides_reflected_in_metadata(self, capsys):
        assert main(["solve", "--config", EXPDECAY, "--M", "9"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("# n=2 r=1 K=4 M=9")
        row = next(line for line in out.splitlines() if line.startswith("0.3,"))
        assert row.split(",")[1] == "0.74081822068172"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "solution.csv"
        assert main(["solve", "--config", POLY, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().splitlines()[1] == "t,x1,x2,exact1,exact2,err_max"

    def test_table_format(self, capsys):
        assert main(["solve", "--config", POLY, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "," not in out.splitlines()[1]

    def test_missing_config_exits_1_without_output(self, tmp_path, capsys):
        target = tmp_path / "nothing.csv"
        code = main(["solve", "--config", str(tmp_path / "missing.prob"),
                     "--out", str(target)])
        assert code == 1
        assert not target.exists()
        assert "input error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "singular.prob"
        cfgfile.write_text(SINGULAR)
        assert main(["solve", "--config", str(cfgfile)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_non_uniform_breakpoints_config(self, tmp_path, capsys):
        text = open(POLY).read().replace(
            "breakpoints = uniform", "breakpoints = [0, 0.2, 0.5, 1.0]"
        )
        cfgfile = tmp_path / "uneven.prob"
        cfgfile.write_text(text)
        assert main(["solve", "--config", str(cfgfile)]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[0].endswith("breakpoints=explicit")
        assert float(out.err.strip().split()[-1]) <= 1e-10

    @pytest.mark.parametrize("old,new,where", [
        ('A = [["2"]]', 'A = [["2"]]\nB = [["1"]]\nu = ["ln(t-0.5)"]',
         "vector function failed at t="),
        ('A = [["2"]]', 'A = [["2"]]\nN = [["sqrt(s-0.5)"]]', "kernel failed at (t="),
    ])
    def test_data_evaluation_failure_exits_1(self, tmp_path, capsys, old, new, where):
        cfgfile = tmp_path / "domain.prob"
        cfgfile.write_text(SINGULAR.replace(old, new).replace("M = 1", "M = 3"))
        assert main(["solve", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bpcheb: input error: ")
        assert where in err

    def test_failing_exact_column_names_the_first_failing_point(self, tmp_path, capsys):
        # both columns fail; the first point that fails, t=0, is named, in column 2
        text = open(POLY).read().replace('exact = ["t^2", "t^3"]', 'exact = ["1/(t-1)", "1/t"]')
        cfgfile = tmp_path / "exact.prob"
        cfgfile.write_text(text)
        assert main(["solve", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bpcheb: input error: ")
        assert "division by zero in '1.0/t' at t=0.0" in err

    def test_non_finite_x0_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "nan.prob"
        cfgfile.write_text(SINGULAR.replace("x0 = [1]", "x0 = [NaN]"))
        assert main(["solve", "--config", str(cfgfile)]) == 1
        assert "[system].x0" in capsys.readouterr().err

    @pytest.mark.parametrize("key,line,named", [
        ("u", 'u = ["1e308*1e308"]', "u is inf at t="),
        ("A", 'A = [["1", "t*1e308*1e308 - t*1e308*1e308"], ["t", "t^2+1"]]', "A is nan at t="),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_data_exits_1_naming_the_datum(self, tmp_path, capsys, key, line, named):
        text = open(EXPDECAY).read()
        old = next(row for row in text.splitlines() if row.startswith(f"{key} = "))
        cfgfile = tmp_path / "nonfinite.prob"
        cfgfile.write_text(text.replace(old, line))
        assert main(["solve", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bpcheb: input error: {named}") and "(block 1)" in err

    def test_bad_expression_exits_1(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.prob"
        cfgfile.write_text(SINGULAR.replace('A = [["2"]]', 'A = [["3t"]]'))
        assert main(["solve", "--config", str(cfgfile)]) == 1
        err = capsys.readouterr().err
        assert "[system].A[0][0]" in err


class TestTableCommand:
    def test_analytic_column_reference_digits(self, capsys):
        assert main(["table", "--config", EXPDECAY, "--M-list", "5,7,9"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        header = lines[1].split(",")
        assert header == [
            "t",
            "x1_exact", "x1_M5", "x1_M7", "x1_M9",
            "x2_exact", "x2_M5", "x2_M7", "x2_M9",
        ]
        rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        # 14-digit analytic values at a few grid points
        assert rows["0.1"][1] == "0.90483741803596"
        assert rows["0.5"][1] == "0.60653065971263"
        assert rows["1"][1] == "0.36787944117144"
        assert rows["0.5"][5] == "1.8195919791379"
        # the M=9 column agrees with the analytic one at printed precision
        assert abs(float(rows["0.5"][4]) - float(rows["0.5"][1])) < 1e-11

    def test_invalid_m_list(self, capsys):
        assert main(["table", "--config", EXPDECAY, "--M-list", "5,x"]) == 1
        assert "M-list" in capsys.readouterr().err

    def test_empty_m_list(self, capsys):
        assert main(["table", "--config", EXPDECAY, "--M-list", ","]) == 1
        capsys.readouterr()
