"""Seeded workloads: each is a list of anyongas CLI invocations with checks.

The same seed gives the same invocations.  Invocations that show a known
fault use fixed inputs, so every run fails on exactly the same ones.
None passes --jobs, so the workloads outlive that flag.
"""

import math
import re
from dataclasses import dataclass

import checks
import references as ref


@dataclass(frozen=True)
class Fault:
    """A known fault: what goes wrong, and the only problems it can cause.

    A failing invocation is put down to the fault only if every one of its
    problems matches `pattern`; where the pattern captures the size of an
    error, that size must also stay within `limit`.
    """

    description: str
    pattern: str
    limit: float = None  # bound on the pattern's `size` group

    def explains(self, problems):
        for problem in problems:
            match = re.search(self.pattern, problem)
            if match is None:
                return False
            if self.limit is not None and not float(match.group("size")) <= self.limit:
                return False
        return bool(problems)


FAULTS = {
    "supremum-probe-cap": Fault(
        "solve_fugacity probes the B supremum with bose_g at z = q(1 - 1e-6); "
        "for q >= 0.9 the series is cut at 1e6 terms and raises ConvergenceError",
        r"^exit 1: convergence failure: series for .* not converged after "
        r"1000000 terms$"),
    "bracket-doubling-cap": Fault(
        "solve_fugacity doubles z at most 200 times (ln z <= ~148), so every "
        "F density above about 1.35e3 exits with 'could not bracket'",
        r"^exit 1: convergence failure: could not bracket the F-family fugacity$"),
    "bose-g-term-size-stop": Fault(
        "bose_g stops its series on term size, so at 0.999 of the B supremum the "
        "solved density misses the stated 1e-12 residual by about 2e-12, and "
        "the pressure, number density and entropy built on it by about 1e-12",
        r"^q=\S+ T=\S+: (density|pressure|number_density|entropy) \S+ is "
        r"(?P<size>\S+) off \S+$", limit=1e-11),
    "near-classical-cancellation": Fault(
        "b_occupation and b_occupation_jd form 1/q - q by subtraction; at "
        "q = 1 - 1e-9 n_exact is 5.5e-8 and n_jd up to 1.3e-7 (relative) off "
        "the mpmath value",
        r"^eta=\S+: n_(exact|jd) \S+ is (?P<size>\S+) off \S+$", limit=1e-6),
    "f-virial-q-rounding": Fault(
        "the F-family series are built in z with coefficients q^-r, so the "
        "virial coefficients pick up q through round-off: b_1 comes out "
        "0.9999999999999999, not 1, for about one q in ten (q = 0.76 among them)",
        r"^b_1 = \S+ is (?P<size>\S+) off 1$", limit=1e-15),
}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: arguments after `anyongas`, its output file and its check."""

    name: str
    argv: tuple
    output: str
    check: object
    fault: str = None
    solves: tuple = ()  # (family, q, density) of each density solve, one per eos row


def _num(x):
    return repr(float(x))


def eos_density(rng, out, scale=1.0):
    """`eos --density` sweeps of both families.

    Nearly all the time goes to the z -> q series behind bose_g, the
    supremum probe inside solve_fugacity, the brentq solve and the Fermi
    quadrature.  Each T-sweep row solves the same density equation again.
    """
    t_steps = max(1, round(2 * scale))
    invocations = []

    def add(name, family, qs, density, steps, fault=None):
        t_lo = rng.uniform(0.5, 1.0)
        t_hi = t_lo + rng.uniform(0.5, 2.0)
        argv = ["eos", "--family", family, "--q", ",".join(map(_num, qs)),
                "--density", _num(density), "--format", "json",
                "--precision", "17", "--output", f"{out}/{name}.json"]
        if steps > 1:
            argv += ["--t-min", _num(t_lo), "--t-max", _num(t_hi),
                     "--t-steps", str(steps)]
        invocations.append(Invocation(name, tuple(argv), f"{out}/{name}.json",
                                      checks.eos(family, density), fault,
                                      solves=tuple((family, q, density)
                                                   for q in qs for _ in range(steps))))

    # B: two q below 0.9 in one dilute sweep, one sweep close to the supremum.
    # The dense draw stops at 0.995 of the supremum, where the residual is at
    # most 5.1e-13 for q <= 0.85; from about 0.9985 on, every q misses 1e-12
    # (bose-g-term-size-stop), so that regime is covered by a fixed input below
    qs = sorted(rng.uniform(0.05, 0.85) for _ in range(2))
    add("b-dilute", "b", qs, rng.uniform(0.05, 0.3) * ref.b_supremum(qs[0]), t_steps)
    q = rng.uniform(0.05, 0.85)
    add("b-dense", "b", [q], rng.uniform(0.99, 0.995) * ref.b_supremum(q), t_steps)
    # F: non-degenerate (series branch) and degenerate (quadrature branch)
    qs = sorted(rng.uniform(0.05, 1.0) for _ in range(2))
    add("f-dilute", "f", qs, math.exp(rng.uniform(math.log(1e-3), 0.0)), t_steps + 1)
    add("f-degenerate", "f", [rng.uniform(0.05, 1.0)],
        math.exp(rng.uniform(math.log(1e2), math.log(1e3))), t_steps + 1)
    # fixed inputs that fail today
    add("b-q0.5-0.999-supremum", "b", [0.5], 0.999 * ref.b_supremum(0.5), 1,
        "bose-g-term-size-stop")
    add("b-q0.9", "b", [0.9], 0.1, 1, "supremum-probe-cap")
    add("b-q1.0", "b", [1.0], 0.1, 1, "supremum-probe-cap")
    add("f-density-1e4", "f", [0.5], 1e4, 1, "bracket-doubling-cap")
    return invocations


def occupation_sweep(rng, out, scale=1.0):
    """Dense `occupation` and `bounds` grids, written with --output.

    The rows are written at 17 digits, so each eta reads back as the double
    the program used: near the pole the occupation moves by 1/offset times
    any rounding of eta, which at 15 digits reaches 5e-12.

    Every row is a microsecond closed form, so the time goes to the CLI's
    row mapping, its process pool, formatting and writing; the series
    kernels and the solvers are never called.
    """
    steps = str(max(10, round(20000 * scale)))
    invocations = []

    def add(name, command, family, q, eta_min, eta_max, fmt, check, fault=None):
        path = f"{out}/{name}.{fmt}"
        argv = [command] + (["--family", family] if family else []) + [
            "--q", _num(q), "--eta-min", _num(eta_min), "--eta-max", _num(eta_max),
            "--steps", steps, "--format", fmt, "--precision", "17", "--output", path]
        invocations.append(Invocation(name, tuple(argv), path, check, fault))

    def b_grid():
        q = rng.uniform(0.1, 0.9)
        # start just above eta = ln(1/q), where y -> 1 and n grows without bound
        lo = math.log(1.0 / q) + math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
        return q, lo, lo + rng.uniform(5.0, 8.0)

    for name, fmt in (("occ-b-csv", "csv"), ("occ-b-json", "json")):
        q, lo, hi = b_grid()
        add(name, "occupation", "b", q, lo, hi, fmt, checks.occupation_b(q))
    for name, fmt in (("occ-f-csv", "csv"), ("occ-f-json", "json")):
        q = rng.uniform(0.05, 1.0)
        add(name, "occupation", "f", q, -rng.uniform(5.0, 10.0),
            rng.uniform(5.0, 10.0), fmt, checks.occupation_f(q))
    q, lo, hi = b_grid()
    add("bounds-csv", "bounds", None, q, lo, hi, "csv", checks.bounds(q))
    q = 1.0 - 1e-9
    add("occ-b-q1-1e-9", "occupation", "b", q, 0.5, 6.0, "csv",
        checks.occupation_b(q), "near-classical-cancellation")
    return invocations


def verify_virial(rng, out, scale=1.0):
    """`verify`, `limits` and high-order `virial` runs.

    The time goes to the oracle's brute-force trace sums and quadrature
    references and to the O(K^4) PowerSeries reversion.
    """
    invocations = [
        Invocation("verify", ("verify", "--format", "json", "--output",
                              f"{out}/verify.json"), f"{out}/verify.json",
                   checks.verify),
        Invocation("limits", ("limits", "--output", f"{out}/limits.csv"),
                   f"{out}/limits.csv", checks.limits),
    ]
    # B at seeded q.  F at a fixed q: its coefficients should not depend on
    # q, but b_1 misses 1 by round-off on about one seeded q in ten, so the
    # fault is shown on a q where it occurs in every run
    runs = [("b", 60, None), ("b", 50, None), ("b", 40, None),
            ("f", 60, "f-virial-q-rounding")]
    for i, (family, order, fault) in enumerate(runs):
        order = max(4, round(order * scale))
        q = rng.uniform(0.05, 0.95) if fault is None else 0.76
        fmt = "json" if i % 2 else "csv"
        name = f"virial-{family}-{i}"
        path = f"{out}/{name}.{fmt}"
        argv = ("virial", "--family", family, "--q", _num(q), "--order", str(order),
                "--format", fmt, "--precision", "17", "--output", path)
        invocations.append(Invocation(name, argv, path,
                                      checks.virial(family, q, order), fault))
    return invocations


WORKLOADS = {
    "eos-density": eos_density,
    "occupation-sweep": occupation_sweep,
    "verify-virial": verify_virial,
}
