"""The seven subcommands run through cli.main(argv), plus the oracle suite."""

import json
import math
import os
import subprocess
import sys

import pytest

from anyongas import cli, oracle, thermo
from anyongas.distributions import b_occupation, classical_limit_rows
from anyongas.errors import ConvergenceError, DomainError
from anyongas.qfunctions import bose_g, fermi_f
from anyongas.thermo import solve_fugacity, thermal_wavelength


def _run(tmp_path, argv):
    """Run one subcommand with JSON output at round-trip precision."""
    path = tmp_path / "out.json"
    status = cli.main([*argv, "--format", "json", "--precision", "17",
                       "--output", str(path)])
    payload = json.loads(path.read_text())
    rows = [dict(zip(payload["columns"], row)) for row in payload["rows"]]
    return status, payload, rows


def test_oracle_suite_passes():
    report = oracle.run_verification()
    assert report.all_passed, [c for c in report.checks if not c.passed]


def test_trace_matrices_span_the_n_max_states():
    # 64 states meet the tail bound at this eta, so both sums are the same one
    eta = math.log(2.0) + 2.0
    spec = ("b", 0.5, eta, "basic_N", 64)
    assert oracle.trace_average_matrix(*spec) == pytest.approx(
        oracle.trace_average(*spec), abs=1e-12)
    with pytest.raises(DomainError, match="n_max"):
        oracle.trace_average_matrix("b", 0.5, eta, "basic_N")


class TestOccupation:
    def test_b_family_values(self, tmp_path):
        status, payload, rows = _run(tmp_path, [
            "occupation", "--family", "b", "--q", "0.5", "--eta-min",
            repr(math.log(4.0)), "--eta-max", "6", "--steps", "5"])
        assert status == 0
        assert payload["columns"] == ["eta", "n_exact", "n_jd", "n_lower", "n_upper"]
        assert len(rows) == 5
        # ln(2/3.5) / (2 ln 0.5), from a 30-digit evaluation
        assert rows[0]["n_exact"] == pytest.approx(0.403677461028802054, rel=1e-15, abs=0.0)
        for row in rows:
            assert row["n_exact"] == b_occupation(0.5, row["eta"])
            assert row["n_lower"] < row["n_exact"] < row["n_upper"]

    def test_b_family_at_a_subnormal_q(self, tmp_path):
        # 1/q is inf below q of about 5.6e-309, and the pole is at eta = 713.8
        status, _, rows = _run(tmp_path, [
            "occupation", "--family", "b", "--q", "1e-310", "--eta-min", "714",
            "--eta-max", "800", "--steps", "2"])
        assert status == 0
        for row in rows:
            assert row["n_exact"] == b_occupation(1e-310, row["eta"]) > 0.0
            assert row["n_lower"] <= row["n_exact"] <= row["n_upper"] < math.inf

    def test_f_family_values(self, tmp_path):
        status, _, rows = _run(tmp_path, [
            "occupation", "--family", "f", "--q", "0.25", "--eta-min", "-3",
            "--eta-max", "3", "--steps", "7"])
        assert status == 0
        for row in rows:
            assert row["n_exact"] == pytest.approx(
                1.0 / (0.25 * math.exp(row["eta"]) + 1.0), rel=1e-15, abs=0.0)
            assert row["n_arcsin"] == pytest.approx(
                2.0 / math.pi * math.asin(math.sqrt(row["n_exact"])), rel=1e-15, abs=0.0)

    def test_same_configuration_writes_the_same_bytes(self, tmp_path):
        argv = ["occupation", "--family", "b", "--q", "0.5", "--eta-min", "1",
                "--steps", "9"]
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        for path in paths:
            assert cli.main([*argv, "--output", str(path)]) == 0
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        assert b"jobs" not in first

    def test_negative_value_in_exponent_form_is_a_number(self, tmp_path):
        # argparse alone reads "-1e1" after a flag as an unknown option
        paths = {}
        for eta_min in ("-1e1", "-10"):
            paths[eta_min] = tmp_path / f"{eta_min}.csv"
            assert cli.main(["occupation", "--family", "f", "--eta-min", eta_min,
                             "--eta-max", "1", "--steps", "2",
                             "--output", str(paths[eta_min])]) == 0
        assert paths["-1e1"].read_bytes() == paths["-10"].read_bytes()

    def test_grid_below_pole_is_domain_error(self, tmp_path, capsys):
        status = cli.main(["occupation", "--family", "b", "--q", "0.5",
                           "--eta-min", "0.5", "--output", str(tmp_path / "x.csv")])
        assert status == 3
        assert "Raise --eta-min" in capsys.readouterr().err


# e^eta - q rounds to 1/q - q at this eta, so y rounds to 1, although eta
# lies above ln(1/q)
ROUNDED_POLE = ["--q", "0.5533102249755101", "--eta-min", "0.59183644926417",
                "--eta-max", "2", "--steps", "3"]


@pytest.mark.parametrize("command", [["occupation", "--family", "b"], ["bounds"]],
                         ids=["occupation", "bounds"])
def test_grid_where_y_rounds_to_one_is_domain_error(tmp_path, capsys, command):
    path = tmp_path / "out.csv"
    assert cli.main([*command, *ROUNDED_POLE, "--output", str(path)]) == 3
    assert "Raise --eta-min" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("command", [["occupation", "--family", "b"], ["bounds"]],
                         ids=["occupation", "bounds"])
def test_bose_grid_where_the_occupation_overflows_is_domain_error(tmp_path, capsys,
                                                                 command):
    # 1/(e^eta - 1) overflows a double for eta below 5.56e-309
    path = tmp_path / "out.csv"
    assert cli.main([*command, "--q", "1", "--eta-min", "1e-320", "--eta-max",
                     "1e-300", "--steps", "3", "--output", str(path)]) == 3
    assert "Raise --eta-min" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("command", [["occupation", "--family", "b"], ["bounds"]],
                         ids=["occupation", "bounds"])
def test_bose_grid_at_q_1_names_only_eta_min(tmp_path, capsys, command):
    # no q above 1 exists to raise q to
    path = tmp_path / "out.csv"
    assert cli.main([*command, "--q", "1", "--eta-min", "0", "--eta-max", "2",
                     "--steps", "3", "--output", str(path)]) == 3
    assert capsys.readouterr().err.endswith(
        "Bose occupation requires eta > 0, got 0.0. Raise --eta-min.\n")
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["bounds", "--q", "1", "--eta-min", "nan", "--eta-max", "2"],
                 id="bounds-nan"),
    pytest.param(["occupation", "--family", "b", "--q", "1", "--eta-min", "1",
                  "--eta-max", "inf"], id="occupation-inf"),
    pytest.param(["occupation", "--family", "f", "--q", "0.5", "--eta-min=-inf",
                  "--eta-max", "1"], id="occupation-f-minus-inf"),
    pytest.param(["occupation", "--family", "f", "--q", "0.5", "--eta-min", "-inf",
                  "--eta-max", "1"], id="occupation-f-minus-inf-token"),
    pytest.param(["occupation", "--family", "b", "--q", "0.5",
                  "--eta-min=-1.7e308", "--eta-max", "1.7e308"],
                 id="occupation-span-overflows"),
])
def test_eta_grid_bounds_must_be_finite(tmp_path, capsys, argv):
    # the grid steps by (max - min)/(steps - 1), which is NaN or inf here
    path = tmp_path / "out.csv"
    assert cli.main([*argv, "--steps", "3", "--output", str(path)]) == 3
    err = capsys.readouterr().err
    assert "--eta-max" in err and "must be finite" in err
    assert not path.exists()


def test_bounds(tmp_path):
    status, payload, rows = _run(tmp_path, [
        "bounds", "--q", "0.5", "--eta-min", "1", "--eta-max", "4", "--steps", "4"])
    assert status == 0
    assert payload["config"]["upper_shift"] == 2.0
    assert "convergent-bracketing" in payload["metadata"]["errata"]
    for row in rows:
        assert row["n_lower"] < row["n_second"] < row["n_exact"] < row["n_upper"]
        assert row["width"] == pytest.approx(row["n_upper"] - row["n_lower"], rel=1e-15, abs=0.0)


class TestEos:
    def test_b_fugacity_sweep(self, tmp_path):
        status, _, rows = _run(tmp_path, [
            "eos", "--family", "b", "--q", "0.5,0.8", "--z-min", "0.1", "--z-max",
            "0.4", "--z-steps", "4"])
        assert status == 0
        assert len(rows) == 8
        for row in rows:
            # lambda = h / sqrt(2 pi m k T) with h = m = k = T = 1
            assert row["lambda3"] == pytest.approx((2.0 * math.pi) ** -1.5, rel=1e-15, abs=0.0)
            assert row["lambda3"] * row["number_density"] == pytest.approx(
                bose_g(row["q"], row["fugacity"], 1.5), rel=1e-15, abs=0.0)
            assert row["internal_energy"] == pytest.approx(
                1.5 * row["pressure"], rel=1e-15, abs=0.0)

    def test_si_units(self, tmp_path):
        # an electron gas at 300 K, with the CODATA 2018 h and k
        h, k, mass = 6.62607015e-34, 1.380649e-23, 9.1093837015e-31
        status, payload, rows = _run(tmp_path, [
            "eos", "--family", "f", "--q", "0.5", "--z", "0.3", "--temperature", "300",
            "--mass", repr(mass), "--h", repr(h), "--k", repr(k), "--volume", "1e-27"])
        assert status == 0
        assert (payload["config"]["h"], payload["config"]["k"]) == (h, k)
        (row,) = rows
        assert row["lambda3"] == thermal_wavelength(mass, 300.0, h, k) ** 3
        assert row["pressure"] == pytest.approx(
            k * 300.0 * fermi_f(0.3 / 0.5, 2.5) / row["lambda3"], rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("family", ["b", "f"])
    def test_density_is_met(self, tmp_path, family):
        status, _, rows = _run(tmp_path, [
            "eos", "--family", family, "--q", "0.5", "--density", "0.5",
            "--t-min", "0.5", "--t-max", "2", "--t-steps", "3"])
        assert status == 0
        for row in rows:
            assert row["lambda3"] * row["number_density"] == pytest.approx(
                0.5, rel=1e-12, abs=0.0)

    def test_density_solves_once_per_q_per_call(self, tmp_path, monkeypatch):
        calls = []

        def counted(family, q, density):
            calls.append(q)
            return solve_fugacity(family, q, density)

        monkeypatch.setattr(thermo, "solve_fugacity", counted)
        argv = ["eos", "--family", "f", "--q", "0.3,0.7", "--density", "50",
                "--t-min", "0.5", "--t-max", "2", "--t-steps", "4"]
        status, _, rows = _run(tmp_path, argv)
        assert status == 0 and len(rows) == 8
        assert len(calls) == 2
        # the next call solves again: nothing is kept between calls
        _run(tmp_path, argv)
        assert len(calls) == 4

    @pytest.mark.parametrize("multiplicity", ["2", "3"])
    def test_density_honours_multiplicity(self, tmp_path, multiplicity):
        status, payload, rows = _run(tmp_path, [
            "eos", "--family", "f", "--q", "0.5", "--density", "0.5",
            "--multiplicity", multiplicity])
        assert status == 0
        assert payload["config"]["multiplicity"] == int(multiplicity)
        (row,) = rows
        assert row["lambda3"] * row["number_density"] == pytest.approx(
            0.5, rel=1e-12, abs=0.0)

    def test_degenerate_f_density(self, tmp_path):
        # beta mu = ln(z/q) is about 561 here, past where z doubled from 1 stops
        status, _, rows = _run(tmp_path, [
            "eos", "--family", "f", "--q", "0.5", "--density", "1e4"])
        assert status == 0
        (row,) = rows
        assert row["lambda3"] * row["number_density"] == pytest.approx(1e4, rel=1e-12, abs=0.0)
        assert math.log(row["fugacity"] / 0.5) == pytest.approx(561.0, abs=1.0)

    def test_f_density_past_the_largest_fugacity_is_domain_error(self, tmp_path, capsys):
        status = cli.main(["eos", "--family", "f", "--q", "0.5", "--density", "2e4",
                           "--output", str(tmp_path / "x.csv")])
        assert status == 3
        assert "largest density allowed is 14225" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["--z", "0.5"], id="z-at-q"),
        pytest.param(["--z-min", "0.1", "--z-max", "0.6", "--z-steps", "6"],
                     id="z-sweep-past-q"),
    ])
    def test_b_fugacity_at_or_past_q_is_domain_error(self, tmp_path, capsys, argv):
        path = tmp_path / "x.csv"
        assert cli.main(["eos", "--family", "b", "--q", "0.5", *argv,
                         "--output", str(path)]) == 3
        assert "z < q" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(["--t-min", "0.5", "--t-max", "inf"], "--t-max", id="t-inf"),
        pytest.param(["--z-min", "nan", "--z-max", "0.2"], "--z-max", id="z-nan"),
    ])
    def test_sweep_bounds_must_be_finite(self, tmp_path, capsys, argv, flag):
        path = tmp_path / "x.csv"
        assert cli.main(["eos", "--family", "f", *argv, "--output", str(path)]) == 3
        err = capsys.readouterr().err
        assert flag in err and "must be finite" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["--q", "0.5", "--density", "7.414950228306775e-158"],
                     id="density-1e-158"),
        pytest.param(["--q", "1e-200", "--z", "5e-201"], id="q-1e-200"),
        pytest.param(["--q", "1e-200", "--density", "1e-201"], id="q-1e-200-density"),
    ])
    def test_tiny_b_density_and_q(self, tmp_path, argv):
        status, _, rows = _run(tmp_path, ["eos", "--family", "b", *argv])
        assert status == 0
        (row,) = rows
        assert 0.0 < row["fugacity"] < row["q"]

    def test_density_above_b_supremum_is_domain_error(self, tmp_path, capsys):
        status = cli.main(["eos", "--family", "b", "--q", "0.5", "--density", "5",
                           "--output", str(tmp_path / "x.csv")])
        assert status == 3
        assert "supremum" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--q", ","], "holds no value", id="empty-q"),
        pytest.param(["--q", "abc"], "could not parse q list", id="q-not-a-number"),
        pytest.param(["--z", "-1e-3"], "fugacity must be positive", id="z-negative-exponent"),
        pytest.param(["--z-min", "0.1", "--z-max", "0.2", "--t-min", "0.5", "--t-max", "2"],
                     "sweep either fugacity or temperature", id="z-and-t-sweep"),
        pytest.param(["--density", "0.1", "--z", "0.1"],
                     "give either a density or a fugacity", id="density-and-z"),
        pytest.param(["--mass", "inf"], "mass must be positive and finite", id="mass-inf"),
        pytest.param(["--temperature", "1e308"], "bring m k T / h^2 closer to 1",
                     id="lambda-underflow"),
        pytest.param(["--k", "0"], "k must be positive and finite", id="k-zero"),
        pytest.param(["--h", "-1"], "h must be positive and finite", id="h-negative"),
        pytest.param(["--z-min", "0.1", "--z-steps", "3"], "add --z-max or drop --z-min",
                     id="z-min-alone"),
        pytest.param(["--z-max", "0.2"], "add --z-min or drop --z-max", id="z-max-alone"),
        pytest.param(["--t-min", "0.5"], "add --t-max or drop --t-min", id="t-min-alone"),
        pytest.param(["--t-max", "2"], "add --t-min or drop --t-max", id="t-max-alone"),
        pytest.param(["--z", "0.1", "--z-min", "0.05", "--z-max", "0.2"],
                     "drop --z or the sweep", id="z-and-z-sweep"),
        pytest.param(["--family", "b", "--multiplicity", "3"],
                     "multiplicity 3 has no effect on the B family", id="b-multiplicity"),
        # the F density solve divides by the multiplicity
        pytest.param(["--multiplicity", "0"], "multiplicity must be an integer >= 1, got 0",
                     id="multiplicity-zero"),
        pytest.param(["--family", "f", "--multiplicity", "0", "--density", "1"],
                     "multiplicity must be an integer >= 1, got 0",
                     id="f-multiplicity-zero-density"),
        pytest.param(["--family", "f", "--multiplicity", "-2", "--density", "1"],
                     "multiplicity must be an integer >= 1, got -2",
                     id="f-multiplicity-negative-density"),
        # z/q = 2e308 is beyond the largest double, where f is not defined
        pytest.param(["--family", "f", "--q", "0.5", "--z", "1e308"],
                     "the largest fugacity allowed is 8.988465674311579e+307",
                     id="f-z-over-q-overflow"),
        # lam^3 = 0.0635 is finite here, but k T is not
        pytest.param(["--k", "1e300", "--temperature", "1e300", "--mass", "1e-300",
                      "--h", "1e150"], "k T is inf at k=1e+300, T=1e+300",
                     id="kt-overflow"),
        # lam^3 is a finite double too, but k T / lam^3 is not
        *[pytest.param(["--family", family, "--z", "0.3", "--temperature", "1e200"],
                       "pressure, internal_energy, grand_potential pass the largest "
                       "double at T=1e+200, V=1.0, m=1.0", id=f"{family}-pressure-overflow")
          for family in ("b", "f")],
    ])
    def test_invalid_input_is_domain_error(self, tmp_path, capsys, argv, message):
        path = tmp_path / "x.csv"
        assert cli.main(["eos", *argv, "--output", str(path)]) == 3
        assert message in capsys.readouterr().err
        assert not path.exists()

    def test_convergence_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def stalled(family, q, density):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(thermo, "solve_fugacity", stalled)
        path = tmp_path / "x.csv"
        assert cli.main(["eos", "--density", "0.1", "--output", str(path)]) == 1
        assert capsys.readouterr().err.startswith("convergence failure:")
        assert not path.exists()

    @pytest.mark.parametrize("sweep", [[], ["--t-min", "0.5", "--t-max", "2"]],
                             ids=["single", "t-sweep"])
    def test_default_fugacity(self, tmp_path, sweep):
        # neither --z nor --density: z = 0.25, with or without a T-sweep
        status, payload, rows = _run(tmp_path, ["eos", *sweep])
        assert status == 0
        assert payload["config"]["z"] == 0.25
        assert len(rows) == (20 if sweep else 1)
        assert all(row["fugacity"] == 0.25 for row in rows)


class TestVirial:
    def test_b_family(self, tmp_path):
        status, _, rows = _run(tmp_path, [
            "virial", "--family", "b", "--q", "0.5", "--order", "4"])
        assert status == 0
        assert [row["k"] for row in rows] == [1, 2, 3, 4]
        assert rows[0]["coefficient"] == 1.0
        # b_2 = -[2] / 2^(7/2) with [2] = q + 1/q
        assert rows[1]["coefficient"] == pytest.approx(-2.5 / 2.0 ** 3.5, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q, last", [("0.5", "60,-1349.45469629984"),
                                         ("0.9", "60,-2.17924771602382e-19")])
    def test_b_family_order_60_to_the_last_digit(self, capsys, q, last):
        # the double-precision reversion printed b_60 = -2402.9 and -1.65e-11
        assert cli.main(["virial", "--family", "b", "--q", q, "--order", "60"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last

    def test_json_reports_the_working_digits(self, tmp_path):
        _, payload, _ = _run(tmp_path, [
            "virial", "--family", "b", "--q", "0.5", "--order", "60"])
        assert payload["metadata"]["working_digits"] == 45

    def test_json_reports_each_pass(self, tmp_path):
        # the 34-digit probe holds b_2..b_16, and the line through them
        # already puts b_60 past its digits; the kept pass has no stop
        _, payload, _ = _run(tmp_path, [
            "virial", "--family", "b", "--q", "0.5", "--order", "60"])
        assert payload["metadata"]["passes"] == [[34, 16], [45, None]]

    def test_f_family_first_coefficient_exact(self, tmp_path):
        # q = 0.76 gave b_1 = 0.9999999999999999 while the series were built in z
        status, payload, rows = _run(tmp_path, [
            "virial", "--family", "f", "--q", "0.76", "--order", "60"])
        assert status == 0
        assert payload["metadata"]["q_independent"] is True
        assert rows[0]["coefficient"] == 1.0
        assert rows[1]["coefficient"] == pytest.approx(2.0 ** -2.5, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("q, order, advice", [
        ("5e-324", "2", "b_2 is beyond the largest double at q=5e-324; give a larger q\n"),
        ("1e-5", "70", "b_66 is beyond the largest double at q=1e-05; "
                       "give an order below 66 or a larger q\n")])
    def test_overflow_advice_is_possible(self, tmp_path, capsys, q, order, advice):
        # the order is at least 2, so an infinite b_2 leaves only a larger q
        path = tmp_path / "x.csv"
        assert cli.main(["virial", "--family", "b", "--q", q, "--order", order,
                         "--output", str(path)]) == 3
        assert capsys.readouterr().err.endswith(advice)
        assert not path.exists()


class TestFock:
    @pytest.mark.parametrize("family, dim", [("b", "32"), ("b", "200"), ("f", "2")])
    def test_checks_pass(self, tmp_path, family, dim):
        status, payload, rows = _run(tmp_path, [
            "fock", "--family", family, "--q", "0.5", "--dim", dim])
        assert status == 0
        assert rows and all(row["status"] == "PASS" for row in rows)

    def test_dim_help_names_the_default_and_the_f_space(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fock", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "states of the B truncation (default 32); the F space always has 2" in help_text

    def test_overflowing_dim_is_domain_error(self, tmp_path, capsys):
        status = cli.main(["fock", "--family", "b", "--q", "0.1", "--dim", "400",
                           "--output", str(tmp_path / "x.csv")])
        assert status == 3
        assert "largest usable dim is 308" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["b", "f"])
    def test_q_whose_inverse_overflows_is_domain_error(self, tmp_path, capsys, family):
        path = tmp_path / "x.csv"
        assert cli.main(["fock", "--family", family, "--q", "1e-310",
                         "--output", str(path)]) == 3
        assert "domain error" in capsys.readouterr().err
        assert not path.exists()


def test_verify(tmp_path):
    status, payload, rows = _run(tmp_path, ["verify"])
    assert status == 0
    assert payload["report"]["all_passed"] is True
    assert rows and all(row["status"] == "PASS" for row in rows)
    # the checks verify runs, in the order of their first rows
    assert list(dict.fromkeys(row["check"] for row in rows)) == [
        "b-trace-identity", "f-trace-identity", "occupation-defining-relation",
        "trace-matrix-vs-scalar", "basic-mean-geometric-reference",
        "cf-closed-form-agreement", "cf-monotone-convergents",
        "convergent-bounds-strict", "cf-bracketing-counterexample",
        "bose-limit-regression", "fermi-limit-regression",
        "commutator-number-lowering", "commutator-number-raising",
        "algebra-relation-interior", "number-eigenvalues-basic",
        "fock-state-normalization", "algebra-relation-exact",
        "number-operator-parity-form", "lowering-raising-product-form",
        "raising-squared-is-zero", "occupancy-spectrum-zero-one",
        "f-eigenvalue-recurrence-closed-form", "f-no-basic-number",
        "degenerate-bracket-first-coefficient", "jd-mode-sum-identity",
        "f-virial-q-independence", "b-virial-second-coefficient",
        "trace-truncation-stability"]
    # one check per row of the limits table, in its order
    limits = [(row["check"][0], row["residual"], row["threshold"]) for row in rows
              if row["check"].endswith("-limit-regression")]
    assert limits == [(family, error, tolerance)
                      for family, *_, error, tolerance in classical_limit_rows()]


def test_limits_csv_to_stdout(capsys):
    assert cli.main(["limits"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("family,q,eta,value,reference,error,tolerance,status")
    body = [line.split(",") for line in lines[header + 1:]]
    assert len(body) == 16
    assert all(fields[-1] == "PASS" for fields in body)


class TestWriter:
    OCCUPATION = ["occupation", "--family", "b", "--q", "0.5", "--eta-min", "1",
                  "--eta-max", "3", "--steps", "3"]

    def test_occupation_csv_text(self, capsys):
        assert cli.main([*self.OCCUPATION, "--precision", "17"]) == 0
        assert capsys.readouterr().out == (
            "# schema_version = 1\n"
            "# command = occupation\n"
            "# eta_max = 3.0\n"
            "# eta_min = 1.0\n"
            "# family = b\n"
            "# q = 0.5\n"
            "# steps = 3\n"
            "eta,n_exact,n_jd,n_lower,n_upper\n"
            "1,0.81341037294411889,0.75175080885923951,0.4877744868957255,"
            "1.506402136036241\n"
            "2,0.1771368606361223,0.16370922069755756,0.15706379293887279,"
            "0.20078122417048649\n"
            "3,0.057476124960077868,0.053119218620785426,0.055245934023166771,"
            "0.059827987704332466\n")

    @pytest.mark.parametrize("argv, line", [
        (["virial", "--q", "0.5"], "2,-0.22097086912079611"),
        (["fock", "--family", "f"], "raising-squared-is-zero,0,1e-300,PASS"),
        (["limits"], "b,1,0.5,1.5414940825367982,1.5414940825367982,0,1e-14,PASS"),
    ], ids=["virial", "fock", "limits"])
    def test_csv_rows_with_ints_and_strings(self, capsys, argv, line):
        assert cli.main([*argv, "--precision", "17"]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_json_rows_take_one_line_each(self, tmp_path):
        path = tmp_path / "out.json"
        assert cli.main(["bounds", "--steps", "4", "--format", "json",
                         "--output", str(path)]) == 0
        payload = json.loads(path.read_text())
        lines = path.read_text().splitlines()
        first = lines.index('  "rows": [') + 1
        rows = lines[first:first + 4]
        assert [json.loads(line.strip().rstrip(",")) for line in rows] == payload["rows"]
        assert lines[first + 4] == "  ],"
        assert payload["metadata"]["errata"]

    @pytest.mark.parametrize("argv", [
        ["bounds", "--steps", "5"], ["virial", "--order", "6"], ["limits"]],
        ids=["bounds", "virial", "limits"])
    def test_json_and_csv_hold_the_same_doubles(self, tmp_path, argv):
        def number(text):
            try:
                return float(text)
            except ValueError:
                return text

        _, payload, _ = _run(tmp_path, argv)
        path = tmp_path / "out.csv"
        assert cli.main([*argv, "--precision", "17", "--output", str(path)]) == 0
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0].split(",") == payload["columns"]
        csv_rows = [[number(v) for v in line.split(",")] for line in lines[1:]]
        assert csv_rows == payload["rows"]

    def test_json_below_17_digits_is_rounded(self, tmp_path):
        _, full, _ = _run(tmp_path, self.OCCUPATION)
        path = tmp_path / "short.json"
        assert cli.main([*self.OCCUPATION, "--format", "json", "--precision", "6",
                         "--output", str(path)]) == 0
        short = json.loads(path.read_text())
        assert short["rows"] == [[float(format(v, ".6g")) for v in row]
                                 for row in full["rows"]]
        assert short["rows"] != full["rows"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_file_hold_the_same_bytes(self, tmp_path, capsys, fmt):
        path = tmp_path / f"out.{fmt}"
        argv = ["bounds", "--steps", "7", "--format", fmt]
        assert cli.main([*argv, "--output", str(path)]) == 0
        assert cli.main([*argv, "--output", "-"]) == 0
        assert capsys.readouterr().out.encode() == path.read_bytes()


def _dataset(rows):
    return {"schema_version": "1", "command": "test", "config": {"x": 1},
            "columns": ["a", "b", "c"], "rows": rows}


# several times cli._CHUNK_ROWS, so that the rows span several written strings
_MANY = 3 * 1024 + 7
_WRITER_DATASETS = {
    "floats": [(0.1 * k, 1.0 / (k + 1), -3e-300 * k) for k in range(_MANY)],
    "ints-and-floats": [(k, 0.5 ** k, -k) for k in range(_MANY)],
    "ints-then-floats": [(1, 2, 3)] * 3 + [(1.5, 2.5, 1e300)] * _MANY,
    "floats-then-ints": [(1.5, 2.5, 1e300)] * _MANY + [(1, 2, 3)],
    "bools": [(True, 1.0, 2), (False, 0.0, 3)] * 3,
    "strings-and-none": [("b", 1.25, None), ("PASS", 1e-300, "x")] * 3,
    "nan-late": [(0.25, 1.0, 2.0)] * _MANY + [(math.nan, 1.0, 2.0)],
    "infinities": [(math.inf, -math.inf, 1.0)] + [(0.5, 1.0, 2.0)] * 5,
    "rounds-to-inf": [(1.7976931348623157e308, -1.7e308, 0.0)] * 3,
    "huge-int": [(10 ** 400, 1.0, 2.0)] * 3,
    "empty": [],
}


def _json_row_lines(text):
    lines = text.splitlines()
    first = lines.index('  "rows": [') + 1
    last = lines.index("  ]", first) if "  ]" in lines else lines.index("  ],", first)
    return [line[4:].rstrip(",") for line in lines[first:last]]


@pytest.mark.parametrize("precision", [1, 6, 17])
@pytest.mark.parametrize("name", sorted(_WRITER_DATASETS))
def test_json_row_text_is_json_dumps(name, precision):
    rows = _WRITER_DATASETS[name]
    text = "".join(cli._json_text(_dataset(rows), precision))
    want = [json.dumps([float(format(v, f".{precision}g"))
                        if isinstance(v, float) and precision < 17 else v
                        for v in row]) for row in rows]
    assert _json_row_lines(text) == want
    assert json.loads(text)["columns"] == ["a", "b", "c"]


# the CSV writer takes every row's format from the first row, so a dataset
# whose ints turn into floats is written as ints: no command writes one
# (test_every_command_writes_one_type_per_column)
@pytest.mark.parametrize("precision", [6, 17])
@pytest.mark.parametrize("name", sorted(set(_WRITER_DATASETS) - {"ints-then-floats"}))
def test_csv_row_text_is_the_per_value_join(name, precision):
    rows = _WRITER_DATASETS[name]
    text = "".join(cli._csv_text(_dataset(rows), precision))
    want = [",".join(format(v, f".{precision}g") if isinstance(v, float)
                     else str(v) for v in row) for row in rows]
    assert text.splitlines()[4:] == want


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    pytest.param(["occupation"], id="occupation-b"),
    pytest.param(["occupation", "--family", "f"], id="occupation-f"),
    pytest.param(["bounds"], id="bounds"),
    pytest.param(["eos", "--z-min", "0.1", "--z-max", "0.4", "--z-steps", "3"],
                 id="eos-b-z-sweep"),
    pytest.param(["eos", "--family", "f", "--q", "0.4,0.9", "--density", "3",
                  "--t-min", "0.5", "--t-max", "2", "--t-steps", "3"], id="eos-f-density"),
    pytest.param(["virial", "--family", "b"], id="virial-b"),
    pytest.param(["virial", "--family", "f"], id="virial-f"),
    pytest.param(["fock", "--family", "b"], id="fock-b"),
    pytest.param(["fock", "--family", "f"], id="fock-f"),
    pytest.param(["verify"], id="verify"),
    pytest.param(["limits"], id="limits"),
])
def test_every_command_writes_one_type_per_column(monkeypatch, argv, fmt):
    # the writer formats every row as its first: a command whose rows change
    # a column's type from row to row would change its output silently
    written = []
    monkeypatch.setattr(cli, "_write", lambda *args: written.append(args))
    assert cli.main([*argv, "--format", fmt]) == 0
    [(dataset, written_fmt, *_)] = written
    assert written_fmt == fmt
    assert dataset["rows"]
    assert len({tuple(map(type, row)) for row in dataset["rows"]}) == 1


@pytest.mark.parametrize("precision", ["-1", "0", "x"])
def test_precision_below_one_is_usage_error(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        cli.main(["virial", "--precision", precision])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["occupation", "--steps", "0"], "--steps", id="occupation"),
    pytest.param(["bounds", "--steps", "0"], "--steps", id="bounds"),
    pytest.param(["eos", "--z-min", "0.1", "--z-max", "0.2", "--z-steps", "0"],
                 "--z-steps", id="z-steps"),
    pytest.param(["eos", "--t-min", "0.5", "--t-max", "2", "--t-steps", "0"],
                 "--t-steps", id="t-steps"),
])
def test_step_count_below_one_is_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_calls_share_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert cli.main(["virial", "--precision", "5"]) == 0
    assert cli.main(["virial"]) == 0
    lines = capsys.readouterr().out.splitlines()
    second = [line for line in lines if line.startswith("2,")]
    # b_2 = -[2]/2^(7/2) at q = 0.5, at 5 and then at the default 15 digits
    assert second == ["2,-0.22097", "2,-0.220970869120796"]


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _loaded_modules(statements):
    """The modules a fresh interpreter holds after running statements.

    -S keeps the site .pth files, which may import modules of their own,
    out of the set.
    """
    code = f"import sys\n{statements}\nprint('\\n'.join(sys.modules))"
    result = subprocess.run([sys.executable, "-S", "-c", code], env=_src_env(),
                            capture_output=True, text=True, check=True, timeout=60)
    return set(result.stdout.split())


def test_import_loads_neither_scipy_nor_mpmath():
    # numpy neither: the runtime is the standard library alone.  Of the
    # package only the CLI and its errors load: each command imports the
    # modules it runs.  Nor do json, which only JSON output uses,
    # fractions, which only PowerSeries uses and no command calls, or
    # decimal and dataclasses, which no module uses
    loaded = _loaded_modules("import anyongas.cli")
    assert not {m for m in loaded if m.split(".")[0] in ("scipy", "mpmath", "numpy")}
    assert {m for m in loaded if m.split(".")[0] == "anyongas"} == {
        "anyongas", "anyongas.cli", "anyongas.errors"}
    assert not loaded & {"dataclasses", "decimal", "json", "fractions"}


@pytest.mark.parametrize("argv, loads, skips", [
    (["eos", "--format", "json"], {"anyongas.thermo", "json"},
     {"anyongas.distributions", "anyongas.report", "decimal", "dataclasses"}),
    (["occupation"], {"anyongas.distributions"},
     {"anyongas.thermo", "anyongas.qfunctions", "json", "decimal"}),
    (["virial"], {"anyongas.thermo"}, {"anyongas.distributions", "decimal"}),
    # the records of fock and verify are namedtuples, so neither loads
    # dataclasses and with it inspect
    (["fock", "--family", "b"], {"anyongas.algebra", "anyongas.report"},
     {"anyongas.thermo", "dataclasses", "inspect"}),
    (["fock", "--family", "f"], {"anyongas.algebra", "anyongas.report"},
     {"anyongas.thermo", "dataclasses", "inspect"}),
    (["verify"], {"anyongas.oracle", "anyongas.report"},
     {"dataclasses", "inspect", "decimal"}),
    # the closed-form grids and the limits table run on distributions alone
    *[(argv, {"anyongas.distributions", "anyongas.qcore", "anyongas.kernels",
              "anyongas.errors"},
       {"anyongas.thermo", "anyongas.qfunctions", "anyongas.report", "json", "decimal"})
      for argv in (["bounds"], ["limits"], ["occupation", "--family", "f"])],
], ids=["eos-json", "occupation-csv", "virial", "fock-b", "fock-f", "verify", "bounds",
        "limits", "occupation-f"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads, skips):
    argv = [*argv, "--output", str(tmp_path / "out")]
    loaded = _loaded_modules(f"import anyongas.cli\nassert anyongas.cli.main({argv!r}) == 0")
    assert loads <= loaded
    assert not loaded & skips


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["occupation", "bounds", "eos", "virial", "fock",
                                     "verify", "limits"])
def test_every_dataset_names_its_schema_and_command(tmp_path, command, fmt):
    path = tmp_path / f"out.{fmt}"
    assert cli.main([command, "--format", fmt, "--output", str(path)]) == 0
    text = path.read_text()
    if fmt == "json":
        payload = json.loads(text)
        assert (payload["schema_version"], payload["command"]) == ("1", command)
    else:
        assert text.startswith(f"# schema_version = 1\n# command = {command}\n")


@pytest.mark.parametrize("name", [
    "PowerSeries", "q_factorial", "f_occupation_series", "sommerfeld_density_factor",
    "fermi_energy", "chemical_potential_f", "f_partition_log", "UnitSystem", "SI",
    "NATURAL", "TraceSpec", "GasParams"])
def test_power_series_is_not_exported(name):
    import anyongas

    with pytest.raises(AttributeError, match=name):
        getattr(anyongas, name)


_BLOCK_NUMPY = """
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())
from anyongas.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["eos", "--family", "f", "--q", "0.5", "--density", "300",
     "--t-min", "0.5", "--t-max", "2", "--t-steps", "3"],
    ["eos", "--family", "b", "--q", "0.3,0.8", "--density", "0.2"],
    ["virial", "--family", "b", "--q", "0.5", "--order", "20"],
    ["fock", "--family", "b", "--q", "0.9", "--dim", "64"],
    ["fock", "--family", "f", "--q", "0.5"],
    ["verify"],
])
def test_runs_with_numpy_blocked(argv):
    result = subprocess.run([sys.executable, "-c", _BLOCK_NUMPY, *argv],
                            env=_src_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert "FAIL" not in result.stdout
