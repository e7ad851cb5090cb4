"""Tests for the command-line interface: formats, exit codes, round-trips."""

import csv
import io
import json
import math

import pytest

from mlebounds import cli
from mlebounds.cli import build_parser, main
from test_bounds import count_refusal

HP = 3.0 * math.sqrt(6.0) / 32.0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_exp_noncanonical_human(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--formula", "exp-noncanonical", "--n", "10")
        assert code == 0
        assert "0.320578" in out

    def test_gg_value(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--formula", "gg", "--d", "1",
                               "--p", "1", "--n", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = HP / 10.0 * (2.0 + 9.0**0.75)
        assert payload["total"] == pytest.approx(expected, rel=1e-12)
        assert payload["total"] == pytest.approx(0.1653, abs=5e-4)

    def test_exp_canonical_guard(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--formula", "exp-canonical", "--n", "2")
        assert code == 2
        assert "n must be" in err
        assert out == ""

    def test_expfam_requires_model(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--formula", "expfam", "--n", "10")
        assert code == 2
        assert "--model" in err

    def test_theorem_equals_expfam(self, capsys):
        args = ["--model", "exp-canonical", "--theta0", "1.0", "--n", "50",
                "--format", "json"]
        _, out_a, _ = run_cli(capsys, "bound", "--formula", "theorem", *args)
        _, out_b, _ = run_cli(capsys, "bound", "--formula", "expfam", *args)
        a, b = json.loads(out_a), json.loads(out_b)
        assert a["total"] == b["total"]
        assert a["formula"] == "theorem" and b["formula"] == "expfam"

    def test_ar_noncanonical_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--formula", "ar-exp-noncanonical",
                               "--n", "10", "--format", "json")
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(11.8885187, abs=1e-6)

    def test_ar_canonical_guard(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--formula", "ar-canonical",
                               "--model", "exp-noncanonical", "--theta0", "2.0",
                               "--n", "10")
        assert code == 2
        assert "canonical" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--formula", "exp-noncanonical",
                               "--n", "100", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert float(rows[0]["total"]) == pytest.approx(0.101375653, abs=1e-8)

    def test_scalar_formula_human(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--formula", "ar-exp-noncanonical",
                               "--n", "10")
        assert code == 0
        assert out == "formula      ar-exp-noncanonical\nn            10\ntotal        11.8885\n"

    @pytest.mark.parametrize("theta0", ["0", "-0", "5e-324"])
    @pytest.mark.parametrize("formula", ["expfam", "theorem", "ar-canonical"])
    def test_theta0_zero_uses_the_simulation_epsilon(self, capsys, formula, theta0):
        # Only identity-D models admit theta0 = 0, and epsilon is inert for
        # them; bound and simulate both take epsilon = 1 there, and where
        # 0.5 |theta0| underflows to 0.
        code, out, err = run_cli(capsys, "bound", "--formula", formula, "--model",
                                 "normal-mean", "--theta0", theta0, "--n", "10",
                                 "--format", "json")
        assert (code, err) == (0, "")
        _, sim, _ = run_cli(capsys, "simulate", "--model", "normal-mean", "--theta0", theta0,
                            "--n", "10", "--trials", "1000", "--format", "json")
        assert json.loads(out)["total"] == json.loads(sim)[0]["new_bound"]
        assert json.loads(out)["total"] == 0.26111913608973497

    def test_zero_epsilon_fraction_rejected(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--formula", "expfam", "--model",
                                 "exp-canonical", "--theta0", "1", "--n", "10",
                                 "--epsilon-frac", "0")
        assert code == 2
        assert out == ""
        assert "epsilon" in err


# theta0 inside the parameter space at which a closed form fails in floating
# point; each exited 3 ("runtime failure") with a bare arithmetic error, or
# exits 2 since the Fisher information is stated by the model.
UNEVALUABLE = [
    # (theta0 - epsilon)^3 underflows to 0 in exp-canonical's sup|D''|.
    "bound --formula expfam --model exp-canonical --theta0 1e-110 --n 10",
    # theta0^2 overflows in the exp-noncanonical MSE.
    "bound --formula expfam --model exp-noncanonical --theta0 1e200 --n 10",
    # The normal-variance Fisher information 1/(2 theta0^2) overflows.
    "bound --formula expfam --model normal-variance --theta0 1e-300 --n 10",
    # theta^{3p} overflows in the gg Holder moment (at 1e150 k' underflows
    # to a zero divisor of D', which the bound evaluates first).
    "bound --formula theorem --model gg --d 2 --p 1.5 --theta0 1e100 --n 10",
    # The Fisher information 1/theta0^2 overflows.
    "simulate --model exp-canonical --theta0 1e-200 --n 10 --trials 100",
    "bound --formula expfam --model exp-noncanonical --theta0 1e-160 --n 10",
    # theta0^3 is subnormal, so the exp-canonical third moment divides to inf
    # without raising; this exited 2 naming third_moment, not theta0.
    "bound --formula expfam --model exp-canonical --theta0 1e-103 --n 10",
]


@pytest.mark.parametrize("argv", UNEVALUABLE)
def test_theta0_where_the_closed_forms_fail_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    theta0 = argv.split("--theta0 ")[1].split()[0]
    model = argv.split("--model ")[1].split()[0]
    assert (code, out) == (2, "")
    assert err.startswith(f"error: theta0={float(theta0)!r} is inside the parameter space")
    assert model in err


# theta0 at which the Fisher information derived from k', k'', A' and A''
# lost its digits, so each exited 2.  The stated i is exact there, and the
# identity-D families' bound is scale-free: each prints what it prints at
# theta0 = 1.
@pytest.mark.parametrize("argv", [
    "bound --formula expfam --model exp-noncanonical --theta0 1e-80 --n 10 --format json",
    "simulate --model laplace --theta0 1e-90 --n 10 --trials 1000 --format json",
    "bound --formula expfam --model normal-variance --theta0 1e79 --n 10 --format json",
])
def test_theta0_where_the_derived_fisher_failed_is_evaluated(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, err) == (0, "")
    theta0 = argv.split("--theta0 ")[1].split()[0]
    _, at_one, _ = run_cli(capsys, *argv.replace(f"--theta0 {theta0}", "--theta0 1").split())
    if argv.startswith("bound"):
        assert json.loads(out) == json.loads(at_one)
    else:
        assert json.loads(out)[0]["new_bound"] == json.loads(at_one)[0]["new_bound"]
    if "exp-noncanonical" in argv:
        assert json.loads(out)["total"] == 0.3205779635405446


# An n beyond the float range, about 1.8e308.
BIG_N = "1" + "0" * 400

# Closed-form bounds with no value in floating point, each refused naming
# n, and the formula where its arithmetic fails.  All but the first exited
# 0 printing an infinite total, or exited 3 with a bare ArithmeticError.
NOT_FINITE_CLOSED_FORMS = [
    # 1/(n d/p) overflows in the gg MSE factor.
    ("bound --formula gg --d 1e-320 --p 1 --n 10",
     "the generalized gamma MSE factor is not finite at n=10, n*d/p = 1e-319"),
    # The gg Stein term's 6p/d overflows: this printed "total": Infinity.
    ("bound --formula gg --d 1e-308 --p 1 --n 10 --format json",
     "n=10: the gg bound is not finite in floating point (its terms are inf, "),
    # (3/2)^(p - 2) overflows in the gg Taylor term.
    ("bound --formula gg --d 2 --p 1e300 --n 10",
     "n=10: the gg bound is not finite in floating point (OverflowError: "),
    # An n beyond the float range is refused by the one check of every count.
    *[(f"bound --formula {formula} --n {BIG_N}", count_refusal(BIG_N, minimum, context) + "\n")
      for formula, minimum, context in (
          ("gg --d 2 --p 1.5", 1, ""), ("exp-canonical", 3, " for the exp-canonical bound"),
          ("exp-noncanonical", 1, ""), ("ar-exp-noncanonical", 1, ""))],
]


@pytest.mark.parametrize("argv, message", NOT_FINITE_CLOSED_FORMS,
                         ids=["gg-factor", "gg-stein", "gg-taylor", "gg-n", "exp-canonical-n",
                              "exp-noncanonical-n", "ar-exp-noncanonical-n"])
def test_closed_form_bound_that_is_not_finite_is_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


# A count beyond the float range is refused by the count check for every
# command.  simulate exited 3 with a bare OverflowError; table1 sampled
# chunk after chunk without end.
@pytest.mark.parametrize("argv, name", [
    (f"bound --formula expfam --model exp-noncanonical --theta0 1 --n {BIG_N}", "n"),
    (f"bound --formula theorem --model gg --d 2 --p 1.5 --theta0 1 --n {BIG_N}", "n"),
    (f"simulate --model exp-noncanonical --theta0 1 --trials 1000 --n {BIG_N}", "n"),
    (f"simulate --model exp-noncanonical --theta0 1 --n 10 --trials {BIG_N}", "trials"),
    (f"table1 --trials {BIG_N}", "trials"),
], ids=["expfam-n", "theorem-n", "simulate-n", "simulate-trials", "table1-trials"])
def test_count_beyond_the_float_range_is_refused(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} must be an integer >= ")
    assert err.endswith(f"that a float can hold (at most 1.7976931348623157e+308), got {BIG_N}\n")


# Shapes from which a constructor cannot compute the model's constants
# exited 3 with a bare error; the constructor now refuses them naming the
# shapes.
@pytest.mark.parametrize("shapes, named", [
    ("--model gg --d 5e-324 --p 10", "generalized gamma shapes d=5e-324, p=10.0"),
    ("--model gg --d 1e308 --p 1", "generalized gamma shapes d=1e+308, p=1.0"),
    ("--model normal-mean --sigma 1e200", "normal-mean shape sigma=1e+200"),
    ("--model normal-mean --sigma 1e-200", "normal-mean shape sigma=1e-200"),
    # sigma^3 underflows to 0, or to a subnormal: every bound blamed theta0.
    ("--model normal-mean --sigma 1e-110", "normal-mean shape sigma=1e-110"),
    ("--model normal-mean --sigma 2e-103", "normal-mean shape sigma=2e-103"),
], ids=["gg-d-over-p-underflows", "gg-lgamma-overflows", "sigma-squared-overflows",
        "sigma-squared-underflows", "sigma-cubed-underflows", "sigma-cubed-subnormal"])
@pytest.mark.parametrize("command", ["bound --formula expfam", "simulate --trials 1000"])
def test_shapes_whose_constants_fail_are_refused(capsys, command, shapes, named):
    code, out, err = run_cli(capsys, *f"{command} {shapes} --theta0 1 --n 10".split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}: the model's constants fail in floating point (")


def test_mse_that_fails_at_a_large_n_names_it(capsys):
    # (n - 1)(n - 2) leaves the float range in exp-canonical's MSE, at an
    # ordinary theta0; the refusal blamed theta0 alone.
    n = 10**200
    code, out, err = run_cli(capsys, "bound", "--formula", "expfam", "--model",
                             "exp-canonical", "--theta0", "1", "--n", str(n))
    assert (code, out) == (2, "")
    assert err == (f"error: theta0=1.0, n={n}: the MSE of model 'exp-canonical' is not finite "
                   "in floating point (OverflowError: int too large to convert to float)\n")


def test_gg_theorem_where_the_stein_term_is_nan_is_refused(capsys):
    # i^{3/2}/|D'|^3 overflows and the Holder moment underflows to 0, so the
    # Stein term is NaN, and the theorem refuses it naming theta0 and n.
    argv = "bound --formula theorem --model gg --d 2 --p 1.5 --theta0 1e-75 --n 10"
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: theta0=1e-75, n=10: the theorem bound is not finite")


@pytest.mark.parametrize("formula", ["expfam", "theorem", "ar-canonical"])
def test_theta0_where_the_stein_term_overflows_is_refused(capsys, formula):
    # |D'| = 1/theta0^2 = 1e104 for exp-canonical, so |D'|^3 overflows: this
    # exited 3 with a bare "(34, 'Numerical result out of range')".
    code, out, err = run_cli(capsys, "bound", "--formula", formula, "--model", "exp-canonical",
                             "--theta0", "1e-52", "--n", "10")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: theta0=1e-52, n=10: the {formula} bound is not finite")


class TestSimulateCommand:
    def test_row_values(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "exp-noncanonical",
                               "--theta0", "2", "--n", "100", "--trials", "2000",
                               "--seed", "42", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert round(float(rows[0]["new_bound"]), 3) == 0.101
        assert rows[0]["seed"] == "42"
        assert rows[0]["trials"] == "2000"

    def test_determinism_byte_identical(self, capsys):
        argv = ("simulate", "--model", "exp-noncanonical", "--theta0", "2",
                "--n", "50", "--trials", "2000", "--seed", "9", "--format", "json")
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_trials_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "exp-noncanonical",
                               "--theta0", "2", "--n", "10", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_an_mle_on_the_edge_of_the_space_exits_2(self, capsys):
        # 425 of chunk 0's Gamma(0.003) sums underflow to 0, whose MLE 0 is
        # outside (0, inf); this exited 3 as an identity violation, NaN.
        code, out, err = run_cli(capsys, "simulate", "--model", "gg", "--d", "0.001", "--p", "1",
                                 "--theta0", "1", "--n", "3", "--trials", "1000")
        assert (code, out) == (2, "")
        assert err == (
            "error: trial 18: mean T = 0.0 has no MLE inside the parameter space (0.0, inf) "
            "of model 'gg(d=0.001, p=1.0)'\n"
        )

    def test_a_float_grid_coarser_than_the_noise_exits_2(self, capsys):
        # The standardized MLE moves in steps of 20 at theta0 = 1e16: this
        # printed an empirical distance of 0.121 with a standard error of 0.0.
        code, out, err = run_cli(capsys, "simulate", "--model", "normal-mean", "--sigma", "1",
                                 "--theta0", "1e16", "--n", "100", "--trials", "10000")
        assert (code, out) == (2, "")
        assert err.startswith("error: theta0=1e+16, n=100: the standardized MLE's float grid "
                              "step 20.0 exceeds 0.1/sqrt(trials) = 0.001, ")

    def test_runtime_failure_exit_code(self, capsys, monkeypatch):
        import mlebounds.cli as cli_mod
        from mlebounds.errors import QuadratureError

        def boom(config):
            raise QuadratureError("synthetic failure")

        monkeypatch.setattr(cli_mod, "run_simulation", boom)
        code, _, err = run_cli(capsys, "simulate", "--model", "exp-noncanonical",
                               "--theta0", "2", "--n", "10", "--trials", "1000")
        assert code == 3
        assert "synthetic failure" in err

    def test_model_shape_params(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "gg", "--d", "2",
                               "--p", "1.5", "--theta0", "1.0", "--n", "30",
                               "--trials", "1500", "--seed", "4", "--format", "json")
        assert code == 0
        row = json.loads(out)[0]
        assert row["ar_bound"] is None
        assert row["new_bound"] > 0.0


class TestTableCommand:
    def test_bound_columns_default_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--trials", "1000", "--seed", "31")
        assert code == 0
        assert "3 d.p. view" in out
        for token in ("new=0.321", "new=0.101", "new=0.032", "new=0.010", "new=0.003"):
            assert token in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--trials", "1000", "--seed", "31",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        expected_keys = ["n", "empirical_distance", "standard_error", "new_bound",
                         "ar_bound", "seed", "trials"]
        for row in payload:
            assert list(row.keys()) == expected_keys

    def test_bounds_independent_of_trials(self, capsys):
        _, out_a, _ = run_cli(capsys, "table1", "--trials", "1000", "--seed", "31",
                              "--format", "json")
        _, out_b, _ = run_cli(capsys, "table1", "--trials", "2000", "--seed", "31",
                              "--format", "json")
        rows_a, rows_b = json.loads(out_a), json.loads(out_b)
        for a, b in zip(rows_a, rows_b):
            assert a["new_bound"] == b["new_bound"]
            assert a["ar_bound"] == b["ar_bound"]
            assert a["empirical_distance"] != b["empirical_distance"]

    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--trials", "1000", "--seed", "31",
                               "--format", "csv")
        assert code == 0
        from mlebounds import table1

        rows = table1(trials=1000, seed=31)
        parsed = list(csv.DictReader(io.StringIO(out)))
        for mem, row in zip(rows, parsed):
            assert float(row["empirical_distance"]) == mem.empirical_distance
            assert float(row["standard_error"]) == mem.standard_error
            assert float(row["new_bound"]) == mem.bound_new
            assert float(row["ar_bound"]) == mem.bound_ar
            assert int(row["n"]) == mem.config.n

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--trials", "1000", "--seed", "31",
                               "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("n,empirical_distance")


class TestModelParameters:
    def test_unknown_parameter_names_the_accepted_ones(self, capsys):
        code, out, err = run_cli(capsys, "bound", "--formula", "expfam", "--model",
                                 "normal-variance", "--sigma", "1", "--theta0", "2",
                                 "--n", "20")
        assert code == 2 and out == ""
        assert "'mu'" in err and "'sigma'" in err
        assert "normal_variance_model" not in err


class TestArgumentParsing:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_formula_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--formula", "bogus", "--n", "10"])
        assert exc.value.code == 2

    def test_chunk_size_is_not_a_flag(self):
        # The chunk layout is fixed, so the stream depends on --seed alone.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "exp-noncanonical", "--theta0", "2", "--n", "10",
                  "--chunk-size", "8"])
        assert exc.value.code == 2

    def test_h_is_not_a_flag(self):
        # The CLI always uses the reference h; custom ones are library-only.
        for argv in (
            ["bound", "--formula", "exp-noncanonical", "--n", "10"],
            ["simulate", "--model", "exp-noncanonical", "--theta0", "2", "--n", "10"],
            ["table1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--h", "paper"])
            assert exc.value.code == 2, argv

    def test_shared_parser_does_not_leak_between_calls(self, capsys, tmp_path):
        # The parser is built once; flags given to one call must not be
        # visible to the next, whatever its subcommand.
        assert build_parser() is build_parser()
        target = tmp_path / "gg.json"
        code, out, _ = run_cli(capsys, "bound", "--formula", "gg", "--d", "2", "--p", "1.5",
                               "--n", "100", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["formula"] == "gg"
        code, out, err = run_cli(capsys, "bound", "--formula", "gg", "--n", "100")
        assert code == 2 and "--d is required" in err
        code, out, _ = run_cli(capsys, "simulate", "--model", "exp-noncanonical",
                               "--theta0", "2", "--n", "10", "--trials", "1000",
                               "--format", "csv")
        assert code == 0 and out.startswith("n,empirical_distance")
        code, out, _ = run_cli(capsys, "bound", "--formula", "exp-noncanonical", "--n", "10")
        assert code == 0 and out.startswith("formula      exp-noncanonical")
