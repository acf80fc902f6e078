"""Checks of CLI outputs against the mpmath references or required properties.

Each check takes the parsed output (columns, rows, payload) and returns a
list of problems; an empty list means the output is correct.  Values are
compared by number, never by bytes, because the embedded config holds
the machine's CPU count.
"""

import json
import math

import references as ref

# thermo.solve_fugacity states a relative density residual of 1e-12; the
# pressure and entropy come from the same series, so they are held to it too.
DENSITY_REL_TOL = 1e-12
STATE_REL_TOL = 1e-12
# closed forms in double precision, read back from 17 significant digits,
# so eta and n are the program's own doubles; the grids keep eta at least
# 1e-3 above ln(1/q), where the program's n stays within 2e-13 of mpmath
OCCUPATION_REL_TOL = 1e-12
# b_k of the B family are checked in units of the reference scale (the
# same Lagrange sum over absolute values): round-off in the double inputs
# alone moves b_k by about 1e-16 of it
VIRIAL_B_SCALE_TOL = 1e-13
# F coefficients fall below double round-off at high order, so they are
# checked absolutely; the true b_2 is 2^(-5/2) = 0.177
VIRIAL_F_ABS_TOL = 1e-11
# rows checked against mpmath in a dense sweep; order properties cover all
OCCUPATION_SAMPLE = 300


def parse_output(text):
    """Parse the text of a CLI output file (CSV with '#' comments, or JSON)."""
    if text.startswith("{"):
        payload = json.loads(text)
        return payload["columns"], payload["rows"], payload
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    rows = [[_number(v) for v in line.split(",")] for line in lines[1:]]
    return columns, rows, None


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _rel(a, b):
    return abs(a - b) / abs(b)


def _sample(rows):
    stride = max(1, len(rows) // OCCUPATION_SAMPLE)
    return rows[::stride] + rows[-3:]


def eos(family, density, mass=1.0, volume=1.0):
    """eos --density output: residual under mpmath, state formulas, U, Omega."""
    def check(columns, rows, payload):
        problems = []
        col = {name: i for i, name in enumerate(columns)}
        for row in rows:
            q, temperature, z = row[col["q"]], row[col["temperature"]], row[col["fugacity"]]
            lam = ref.thermal_wavelength(mass, temperature)
            lam3 = lam ** 3
            if family == "b":
                if not 0.0 < z < q:
                    problems.append(f"q={q}: fugacity {z!r} outside (0, q)")
                    continue
                n32, n52 = ref.bose_g(q, z, 1.5), ref.bose_g(q, z, 2.5)
            else:
                x = z if q == 1.0 else z / q
                n32, n52 = ref.fermi_f(x, 1.5), ref.fermi_f(x, 2.5)
            pressure = temperature * n52 / lam3
            entropy_terms = volume / lam3 * abs(2.5 * n52), volume / lam3 * abs(n32 * math.log(z))
            entropy = volume / lam3 * (2.5 * n52 - n32 * math.log(z))
            got = {name: row[i] for name, i in col.items()}
            where = f"q={q} T={temperature}"
            # the density solved for, under mpmath at the returned fugacity
            if _rel(n32, density) > DENSITY_REL_TOL:
                problems.append(f"{where}: density {n32!r} is "
                                f"{_rel(n32, density):.2e} off {density!r}")
            for name, want in (("lambda3", lam3), ("pressure", pressure),
                               ("number_density", n32 / lam3)):
                if _rel(got[name], want) > STATE_REL_TOL:
                    problems.append(f"{where}: {name} {got[name]!r} is "
                                    f"{_rel(got[name], want):.2e} off {want!r}")
            # the two entropy terms cancel in the degenerate F regime, so the
            # error is measured against their size, not against S itself
            entropy_err = abs(got["entropy"] - entropy) / sum(entropy_terms)
            if entropy_err > STATE_REL_TOL:
                problems.append(f"{where}: entropy {got['entropy']!r} is "
                                f"{entropy_err:.2e} off {entropy!r}")
            if _rel(got["internal_energy"], 1.5 * got["pressure"] * volume) > 1e-15:
                problems.append(f"q={q}: U != (3/2) P V")
            if got["grand_potential"] != -got["pressure"] * volume:
                problems.append(f"q={q}: Omega != -P V")
        return problems
    return check


def occupation_b(q):
    """occupation --family b: n_exact and n_jd against mpmath, lower < exact < upper."""
    def check(columns, rows, payload):
        problems = _ordered(rows, columns, ("n_lower", "n_exact", "n_upper"))
        for eta, n_exact, n_jd, *_ in _sample(rows):
            want = ref.b_occupation(q, eta)
            if _rel(n_exact, want) > OCCUPATION_REL_TOL:
                problems.append(f"eta={eta}: n_exact {n_exact!r} is "
                                f"{_rel(n_exact, want):.1e} off {want!r}")
            want_jd = ref.b_occupation_jd(q, eta)
            if _rel(n_jd, want_jd) > OCCUPATION_REL_TOL:
                problems.append(f"eta={eta}: n_jd {n_jd!r} is "
                                f"{_rel(n_jd, want_jd):.1e} off {want_jd!r}")
        return problems
    return check


def occupation_f(q):
    """occupation --family f: n_exact = 1/(q e^eta + 1), n_arcsin its arcsine form."""
    def check(columns, rows, payload):
        problems = []
        for eta, n_exact, n_arcsin in _sample(rows):
            want, want_arcsin = ref.f_occupation(q, eta)
            if _rel(n_exact, want) > OCCUPATION_REL_TOL:
                problems.append(f"eta={eta}: n_exact {n_exact!r} != {want!r}")
            if _rel(n_arcsin, want_arcsin) > OCCUPATION_REL_TOL:
                problems.append(f"eta={eta}: n_arcsin {n_arcsin!r} != {want_arcsin!r}")
        return problems
    return check


def bounds(q):
    """bounds: lower < exact < upper, n_second < n_exact, closed forms against mpmath."""
    def check(columns, rows, payload):
        problems = _ordered(rows, columns, ("n_lower", "n_exact", "n_upper"))
        problems += _ordered(rows, columns, ("n_second", "n_exact"))
        for eta, lower, _, upper, exact, _ in _sample(rows):
            want_lower, want_upper = ref.b_occupation_bounds(q, eta)
            for name, got, want in (("n_lower", lower, want_lower),
                                    ("n_upper", upper, want_upper),
                                    ("n_exact", exact, ref.b_occupation(q, eta))):
                if _rel(got, want) > OCCUPATION_REL_TOL:
                    problems.append(f"eta={eta}: {name} {got!r} != {want!r}")
        return problems
    return check


def _ordered(rows, columns, names):
    idx = [columns.index(name) for name in names]
    bad = [row[0] for row in rows
           if not all(row[a] < row[b] for a, b in zip(idx, idx[1:]))]
    if bad:
        return [f"{' < '.join(names)} fails on {len(bad)} rows, first at eta={bad[0]}"]
    return []


def virial(family, q, order):
    """virial: b_1 = 1 and b_k against the mpmath reversion."""
    def check(columns, rows, payload):
        coeffs = [row[1] for row in rows]
        if [row[0] for row in rows] != list(range(1, order + 1)):
            return [f"expected k = 1..{order}"]
        problems = []
        if coeffs[0] != 1.0:
            problems.append(f"b_1 = {coeffs[0]!r} is {abs(coeffs[0] - 1.0):.2e} off 1")
        # F coefficients do not depend on q, so the reference is taken at q = 1
        want, scale = ref.virial(family, q if family == "b" else 1.0, order)
        for k, (got, w, s) in enumerate(zip(coeffs, want, scale), start=1):
            err = abs(got - w)
            if family == "b" and err > VIRIAL_B_SCALE_TOL * s:
                problems.append(f"b_{k} = {got!r}, reference {w!r}, scale {s:.3g}")
            if family == "f" and err > VIRIAL_F_ABS_TOL:
                problems.append(f"b_{k} = {got!r}, reference {w!r}")
        return problems
    return check


def verify(columns, rows, payload):
    """verify: the report says all_passed and every row says PASS."""
    problems = [f"{row[0]} failed" for row in rows if row[3] != "PASS"]
    if not payload["report"]["all_passed"]:
        problems.append("report.all_passed is false")
    return problems


def limits(columns, rows, payload):
    """limits: every regression row says PASS."""
    return [f"{row[0]} q={row[1]} eta={row[2]} failed" for row in rows
            if row[-1] != "PASS"]
