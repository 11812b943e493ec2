import json
import math
import pytest

from weylcalc import cli
from weylcalc.cli import main
from weylcalc.fsring import canonical, sharp
from weylcalc.quant import quantize_poly
from weylcalc.symalg import Registry
from weylcalc.textio import dump_operator, dump_series, dump_symexpr, load_series


@pytest.fixture
def osc_symbol_file(tmp_path):
    reg = Registry(1)
    reg.register_base("a", reg.parse("1 + x1^2 + xi1^2"))
    path = tmp_path / "osc.sym"
    path.write_text(dump_symexpr(reg.base("a")))
    return path


@pytest.fixture
def resolvent_symbol_file(tmp_path):
    reg = Registry(1)
    reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
    reg.register_base("alam", reg.parse("1 + x1^2 + xi1^2 + lam"))
    path = tmp_path / "a0.sym"
    path.write_text(dump_symexpr(reg.base("a0")))
    return path


@pytest.fixture
def heat_symbol_file(tmp_path):
    from fractions import Fraction

    reg = Registry(1)
    reg.register_base("a0", reg.parse("1 + x1^2 + xi1^2"))
    reg.designate_exp("a0", Fraction(1, 2))
    path = tmp_path / "b.sym"
    path.write_text(dump_symexpr(reg.base("a0", Fraction(1, 2))))
    return path


@pytest.fixture
def points_file(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("x,xi\n1.0,0.0\n0.5,-0.5\n2.0,1.0\n")
    return path


class TestCheckWeights:
    def test_gevrey_report(self, tmp_path, capsys):
        rc = main(["check-weights", "--gevrey", "2", "--pmax", "60"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["holds_M1"] and rep["holds_M2"] and rep["holds_M4"]

    def test_output_dir(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["check-weights", "--gevrey", "2", "--pmax", "40", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "conditions.json").read_text())
        assert rep["truncation_index"] == 40
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "check-weights"


class TestSeriesCommands:
    def test_sharp_command(self, tmp_path):
        reg = Registry(1)
        A = canonical(reg.var("x1"), 3)
        B = canonical(reg.var("xi1"), 3)
        fa = tmp_path / "a.series"
        fb = tmp_path / "b.series"
        fa.write_text(dump_series(A))
        fb.write_text(dump_series(B))
        out = tmp_path / "out"
        rc = main(
            ["sharp", "--series-a", str(fa), "--series-b", str(fb), "--order", "3", "--out", str(out)]
        )
        assert rc == 0
        C = load_series((out / "product.series").read_text())
        ref = sharp(A, B, 3)
        for j in range(3):
            assert C[j].items_sorted() == ref[j].items_sorted()

    def test_requantize_round_trip(self, tmp_path):
        reg = Registry(1)
        A = canonical(reg.parse("x1 * xi1"), 2)
        f = tmp_path / "a.series"
        f.write_text(dump_series(A))
        out1 = tmp_path / "o1"
        rc = main(
            ["requantize", "--series", str(f), "--tau", "0", "--tau1", "1/2", "--order", "2", "--out", str(out1)]
        )
        assert rc == 0
        P = load_series((out1 / "requantized.series").read_text())
        assert not P[1].is_zero()

    def test_parametrix_command(self, tmp_path, osc_symbol_file):
        out = tmp_path / "par"
        rc = main(
            ["parametrix", "--symbol", str(osc_symbol_file), "--order", "3", "--out", str(out)]
        )
        assert rc == 0
        q = load_series((out / "parametrix.series").read_text())
        assert q.order == 3
        assert q[1].is_zero()


class TestNumericCommands:
    def test_complex_power(self, tmp_path, resolvent_symbol_file, points_file):
        out = tmp_path / "pow"
        rc = main(
            [
                "complex-power",
                "--symbol",
                str(resolvent_symbol_file),
                "--z",
                "0.5,0",
                "--order",
                "2",
                "--points",
                str(points_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = (out / "power.csv").read_text().splitlines()
        assert rows[0] == "point,coords,j,re_p,im_p,err"
        first = rows[1].split(",")
        # p_{1/2,0} at (1, 0) is sqrt(2)
        assert abs(float(first[4]) - math.sqrt(2.0)) <= 1e-8

    def test_heat_command(self, tmp_path, heat_symbol_file, points_file):
        out = tmp_path / "heat"
        rc = main(
            [
                "heat",
                "--symbol",
                str(heat_symbol_file),
                "--order",
                "3",
                "--t-grid",
                "0,0.5",
                "--points",
                str(points_file),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = (out / "heat.csv").read_text().splitlines()
        vals = [float(r.split(",")[4]) for r in rows[1:]]
        # t = 0 rows evaluate to 1
        assert abs(vals[0] - 1.0) <= 1e-12

    def test_quantize_and_compare(self, tmp_path):
        reg = Registry(1)
        f = tmp_path / "osc.sym"
        f.write_text(dump_symexpr(reg.parse("x1^2 + xi1^2")))
        out1 = tmp_path / "q1"
        rc = main(["quantize", "--symbol", str(f), "--basis", "16", "--out", str(out1)])
        assert rc == 0
        out2 = tmp_path / "q2"
        rc = main(
            ["quantize", "--symbol", str(f), "--basis", "16", "--general", "--out", str(out2)]
        )
        assert rc == 0
        out3 = tmp_path / "cmp"
        rc = main(
            [
                "spectral-compare",
                "--a",
                str(out1 / "operator.wcop"),
                "--b",
                str(out2 / "operator.wcop"),
                "--range",
                "0,11",
                "--out",
                str(out3),
            ]
        )
        assert rc == 0
        rep = json.loads((out3 / "compare.json").read_text())
        assert max(rep["per_state"]) <= 1e-8

    def test_determinism(self, tmp_path, resolvent_symbol_file, points_file):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(
                [
                    "complex-power",
                    "--symbol",
                    str(resolvent_symbol_file),
                    "--z",
                    "0.5,0.25",
                    "--order",
                    "2",
                    "--points",
                    str(points_file),
                    "--out",
                    str(out),
                ]
            )
            outs.append((out / "power.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_validate_pipelines_smoke(self, tmp_path):
        # small basis keeps this quick; acceptance runs the real sizes
        out1 = tmp_path / "vp"
        rc = main(["validate-power", "--basis", "16", "--order", "2", "--out", str(out1)])
        assert rc == 0
        rep = json.loads((out1 / "validate_power.json").read_text())
        assert rep["convention_pin_error"] <= 1e-12
        out2 = tmp_path / "vs"
        rc = main(
            ["validate-sqrt", "--basis", "16", "--order", "2", "--t", "0.5", "--out", str(out2)]
        )
        assert rc == 0
        rep = json.loads((out2 / "validate_sqrt.json").read_text())
        assert rep["identity_at_t0_error"] <= 1e-8

    def test_validate_power_reuses_vanishing_term(self, monkeypatch):
        # p_{z,1} = 0 for a function of a0 alone: N = 2 repeats N = 1
        quantize = cli.quantize_general
        calls = []

        def counted(sym, *args, **kwargs):
            out = quantize(lambda X, XI: sym(X, XI), *args, **kwargs)
            calls.append(out)
            return out

        monkeypatch.setattr(cli, "quantize_general", counted)
        rep = cli.run_validate_power(24, 3, 0.5)
        # one stacked call quantizes the N = 1 and N = 3 symbols
        assert len(calls) == 1 and len(calls[0]) == 2
        assert rep["per_state_errors"]["2"] == rep["per_state_errors"]["1"]
        assert rep["per_state_errors"]["3"] != rep["per_state_errors"]["1"]

    def test_validation_error_exit_code(self, tmp_path, points_file):
        bogus = tmp_path / "bogus.sym"
        bogus.write_text("not a symbol file\n")
        rc = main(
            [
                "complex-power",
                "--symbol",
                str(bogus),
                "--z",
                "0.5,0",
                "--order",
                "2",
                "--points",
                str(points_file),
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 1


class TestConfig:
    def run_power(self, tmp_path, config_text, *flags):
        cfg = tmp_path / "config.json"
        if config_text is not None:
            cfg.write_text(config_text)
        out = tmp_path / "vp"
        rc = main(["--config", str(cfg), "validate-power", *flags, "--out", str(out)])
        return rc, out

    def test_keys_with_argparse_defaults_apply(self, tmp_path):
        rc, out = self.run_power(tmp_path, '{"basis": 8, "order": 1, "cutoff-r": 2.0, "seed": 3}')
        assert rc == 0
        rep = json.loads((out / "validate_power.json").read_text())
        assert (rep["basis"], rep["order"], rep["cutoff_r"]) == (8, 1, 2.0)
        assert json.loads((out / "meta.json").read_text())["config"]["seed"] == 3

    def test_flags_win_over_config(self, tmp_path):
        rc, out = self.run_power(tmp_path, '{"basis": 8, "order": 2}', "--order", "1")
        assert rc == 0
        rep = json.loads((out / "validate_power.json").read_text())
        assert (rep["basis"], rep["order"]) == (8, 1)

    @pytest.mark.parametrize(
        "config_text",
        [
            None,  # missing file
            '{"basis": 8',  # malformed JSON
            "[8]",  # not an object
            '{"basis": 8, "t": "0.5"}',  # key of another subcommand
            '{"basis": "eight"}',  # value the flag's type rejects
            '{"basis": [8]}',  # not a scalar
        ],
    )
    def test_bad_config_exits_1_with_typed_error(self, tmp_path, capsys, config_text):
        rc, _ = self.run_power(tmp_path, config_text)
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: InvalidInput:")


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param("check-weights --weights {missing}", "InvalidInput", id="check-weights-missing-file"),
            pytest.param("check-weights --gevrey 2 --pmax 40 --out {series}", "InvalidInput", id="check-weights-out-is-a-file"),
            pytest.param("sharp --series-a {missing} --series-b {series}", "InvalidInput", id="sharp-missing-file"),
            pytest.param("requantize --series {series} --tau x --tau1 1/2", "InvalidInput", id="requantize-tau-not-a-number"),
            pytest.param("requantize --series {series} --tau 1/0 --tau1 1/2", "InvalidInput", id="requantize-tau-zero-denominator"),
            pytest.param("parametrix --symbol {missing}", "InvalidInput", id="parametrix-missing-file"),
            pytest.param("parametrix --symbol {osc} --profile-points {bad_points}", "InvalidInput", id="parametrix-bad-points-cell"),
            pytest.param("complex-power --symbol {a0} --z half --order 2 --points {points}", "InvalidInput", id="complex-power-z-not-a-number"),
            pytest.param("complex-power --symbol {a0} --z 0.5 --order 2 --points {bad_points}", "InvalidInput", id="complex-power-bad-points-cell"),
            pytest.param("heat --symbol {b} --order 2 --t-grid 0,x --points {points}", "InvalidInput", id="heat-t-grid-not-a-number"),
            pytest.param("quantize --symbol {osc} --basis -3 --general", "InvalidParameter", id="quantize-negative-basis"),
            pytest.param("spectral-compare --a {op} --b {missing} --range 0,3", "InvalidInput", id="spectral-compare-missing-file"),
            pytest.param("spectral-compare --a {op} --b {op} --range 0,x", "InvalidInput", id="spectral-compare-range-not-a-number"),
            pytest.param("validate-power --basis 4", "InvalidParameter", id="validate-power-basis-too-small"),
            pytest.param("validate-sqrt --basis 8 --t x", "InvalidInput", id="validate-sqrt-t-not-a-number"),
        ],
    )
    def test_exits_1_with_one_typed_error_line(
        self, tmp_path, capsys, osc_symbol_file, resolvent_symbol_file, heat_symbol_file, points_file, argv, error
    ):
        reg = Registry(1)
        series = tmp_path / "a.series"
        series.write_text(dump_series(canonical(reg.var("x1"), 2)))
        bad_points = tmp_path / "bad.csv"
        bad_points.write_text("x,xi\n1.0,abc\n")
        op = tmp_path / "osc.wcop"
        op.write_bytes(dump_operator(quantize_poly(reg.parse("x1^2 + xi1^2"), 4)))
        files = {
            "missing": tmp_path / "missing.txt",
            "series": series,
            "osc": osc_symbol_file,
            "a0": resolvent_symbol_file,
            "b": heat_symbol_file,
            "points": points_file,
            "bad_points": bad_points,
            "op": op,
        }
        argv = [a.format(**files) for a in argv.split()]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {error}: ")
