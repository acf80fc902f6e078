"""Tests of the benchmark itself: references, checks, one tiny workload, spans."""

import math
import random

import pytest

import checks
import references as ref
import run
import spans
from workloads import FAULTS, occupation_sweep


def test_b_supremum_at_q1_is_zeta_three_halves():
    assert ref.b_supremum(1.0) == pytest.approx(2.612375348685488, rel=1e-15)


@pytest.mark.parametrize("s, eta", [(1.5, 0.7651470246254079),
                                    (2.5, 0.8671998890121841),
                                    (2.0, math.pi ** 2 / 12)])
def test_fermi_f_at_one_is_dirichlet_eta(s, eta):
    assert ref.fermi_f(1.0, s) == pytest.approx(eta, rel=1e-15)


def test_virial_references():
    f_coeffs, _ = ref.virial("f", 1.0, 3)
    assert f_coeffs[:2] == (1.0, pytest.approx(2 ** -2.5, rel=1e-15))
    q = 0.5
    b_coeffs, _ = ref.virial("b", q, 2)
    basic2 = q + 1 / q
    assert b_coeffs[1] == pytest.approx(-basic2 / 2 ** 3.5, rel=1e-15)


@pytest.mark.parametrize("fault, problem, explained", [
    ("bose-g-term-size-stop",
     "q=0.5 T=1.0: density 0.7195 is 1.71e-12 off 0.7195", True),
    ("bose-g-term-size-stop",
     "q=0.5 T=1.0: entropy 30.698 is 1.28e-12 off 30.698", True),
    ("bose-g-term-size-stop",
     "q=0.5 T=1.0: density 0.7195 is 3.20e-09 off 0.7195", False),
    ("bose-g-term-size-stop", "q=0.5 T=1.0: lambda3 1.0 is 1.00e-12 off 1.0", False),
    ("bose-g-term-size-stop", "q=0.5: U != (3/2) P V", False),
    ("supremum-probe-cap", "exit 1: convergence failure: series for (q=0.9, "
     "z=0.8999991, order=1.5) not converged after 1000000 terms", True),
    ("supremum-probe-cap", "exit 1: TypeError: bad operand", False),
    ("bracket-doubling-cap",
     "exit 1: convergence failure: could not bracket the F-family fugacity", True),
    ("near-classical-cancellation",
     "eta=0.5: n_exact 1.54149399773744 is 5.5e-08 off 1.5414940825367982", True),
    ("near-classical-cancellation",
     "eta=0.5: n_jd 1.54149405705958 is 1.7e-08 off 1.5414940825367982", True),
    ("near-classical-cancellation",
     "eta=0.5: n_exact 1.6 is 3.8e-02 off 1.5414940825367982", False),
    ("near-classical-cancellation", "n_lower < n_exact < n_upper fails on 3 rows, "
     "first at eta=0.5", False),
    ("f-virial-q-rounding", "b_1 = 0.9999999999999999 is 1.11e-16 off 1", True),
    ("f-virial-q-rounding", "b_1 = 0.99 is 1.00e-02 off 1", False),
    ("f-virial-q-rounding", "b_2 = 0.2, reference 0.17677669529663687", False),
])
def test_fault_explains_only_its_own_problem(fault, problem, explained):
    assert FAULTS[fault].explains([problem]) is explained


def _cli_output(tmp_path, argv):
    path = tmp_path / "out.json"
    run.Runner([])  # puts src/ on sys.path and imports the CLI
    import anyongas.cli
    assert anyongas.cli.main([*argv, "--format", "json", "--precision", "17",
                              "--output", str(path)]) == 0
    return checks.parse_output(path.read_text())


def test_checker_rejects_perturbed_eos_row(tmp_path):
    density = 0.5
    columns, rows, payload = _cli_output(
        tmp_path, ["eos", "--family", "f", "--q", "0.5", "--density", str(density)])
    check = checks.eos("f", density)
    assert check(columns, rows, payload) == []
    pressure = columns.index("pressure")
    rows[0][pressure] *= 1 + 1e-9
    assert any("pressure" in p for p in check(columns, rows, payload))


def test_checker_rejects_perturbed_occupation_row(tmp_path):
    columns, rows, payload = _cli_output(
        tmp_path, ["occupation", "--family", "b", "--q", "0.5", "--eta-min", "1",
                   "--steps", "20"])
    check = checks.occupation_b(0.5)
    assert check(columns, rows, payload) == []
    rows[7][1] *= 1 + 1e-9
    assert check(columns, rows, payload)


def test_tiny_occupation_sweep_round(tmp_path):
    invocations = occupation_sweep(random.Random(0), str(tmp_path), scale=0.005)
    runner = run.Runner(invocations)
    tally = run.Tally(invocations)
    tally.add(runner.process_pass())
    tracer = spans.Tracer()
    tracer.install()
    try:
        tally.add(runner.in_process_pass())
    finally:
        tracer.uninstall()
    assert (tally.attempted, tally.failed, tally.passes) == (len(invocations), 1, 2)
    assert set(tally.failures) == {"occ-b-q1-1e-9"}
    assert tally.failures["occ-b-q1-1e-9"][0] == "near-classical-cancellation"
    assert not tally.unexpected()
    totals = tracer.totals()
    # the CLI maps the 100 rows of each B grid through its process pool:
    # one cf_bounds per row of occupation --family b and of bounds
    assert totals["distributions.cf_bounds"]["calls"] == 4 * 100
    assert totals["cli.main"]["calls"] == len(invocations)
