"""Command-line interface.

Subcommands: occupation, bounds, eos, virial, fock, verify, limits.
Outputs are CSV or JSON with the full configuration embedded
for reproducibility.  Each command's `_cmd_*` function returns its
dataset's config, columns and rows, and `main` stamps every dataset with
SCHEMA_VERSION and the command's name before writing it.  Rows are
computed in order in one process, so identical configurations produce
byte-identical files on any machine.
Occupation and bounds grids are tabulated in one pass each by the grid
kernels of `distributions`, and an eos --density run solves for the
fugacity once per q.  A grid's domain errors come from those kernels, at
the first row outside the domain; the CLI only adds which flag to raise.

Importing this module loads only `errors` from the package, and `json`
loads only for JSON output.  Each command's driver imports the modules it
runs: occupation, bounds and limits load `distributions`; eos and virial
load `thermo` and the zeta functions behind it; fock loads `algebra`
and the namedtuple records of `report`, and verify the oracle and with
it the rest.  No command imports numpy.

The writer streams: it writes the head, then the rows in strings of up to
_CHUNK_ROWS lines, then the tail, to the file or to standard output,
without building the whole text.  Every command's rows hold one value
type per column, so the first row fixes the format of every row.  A CSV
row is one %-format, %.Pg for a float and %s for anything else, which is
the text of format(v, ".Pg") and str(v).  Where the first row holds only
ints and floats, a JSON row is one "[%r, %r, ...]" format, the text
json.dumps writes for ints and finite floats; a string of rows that holds
a NaN or an infinity, and every row of any other dataset, comes from
json.dumps.  The rest of the document keeps the indent=2 layout.  Below
17 significant digits JSON floats are rounded to --precision; at 17 and
above every double reads back unchanged, so they are written as they are.
verify's errata and notes travel as the dataset's `comments`: CSV writes
them as comment lines after the config, and JSON, whose report holds
them, leaves them out.

Exit codes: 0 success, 1 internal check or convergence failure, 2 usage
error, 3 domain error.
"""

import argparse
import functools
import itertools
import math
import sys

from .errors import ConvergenceError, DomainError

SCHEMA_VERSION = "1"
# the fugacity of an eos run given neither --z, a --z sweep nor --density
_DEFAULT_FUGACITY = 0.25
# significant digits that read back as the same double for every double
_ROUND_TRIP_DIGITS = 17


# rows joined into each written string; a string of a few tens of kB keeps
# the peak memory of a 20,000-row grid where streaming one row at a time
# left it
_CHUNK_ROWS = 256


def _jsonable(value, precision):
    if isinstance(value, float):
        return float(format(value, f".{precision}g"))
    return value


def _linspace(lo, hi, steps, name):
    # the grid --NAME-min .. --NAME-max; a span that is not a finite double
    # (a NaN or infinite bound, or an overflowing difference) would put
    # NaN or inf into the grid
    if not math.isfinite(hi - lo):
        raise DomainError(
            f"--{name}-min {lo!r} and --{name}-max {hi!r} must be finite, with "
            "a difference below the largest double")
    if steps == 1:
        return [lo]
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


def _chunks(rows):
    # lists of _CHUNK_ROWS rows: the rows of a list are written as one string
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        yield chunk


def _csv_format(precision, kinds):
    # %.Pg is format(v, ".Pg") for a float, %s is str(v) for anything else
    return ",".join(f"%.{precision}g" if issubclass(kind, float) else "%s"
                    for kind in kinds) + "\n"


def _csv_text(dataset, precision):
    lines = [f"# schema_version = {dataset['schema_version']}",
             f"# command = {dataset['command']}"]
    for key in sorted(dataset["config"]):
        lines.append(f"# {key} = {dataset['config'][key]}")
    lines.extend(dataset.get("comments", ()))
    lines.append(",".join(dataset["columns"]))
    yield "\n".join(lines) + "\n"
    rows = dataset["rows"]
    if rows:
        # every row holds the value types of the first
        line = _csv_format(precision, map(type, rows[0]))
        for chunk in _chunks(rows):
            yield "".join(map(line.__mod__, chunk))


def _json_text(dataset, precision):
    import json

    head = {key: dataset[key]
            for key in ("schema_version", "command", "config", "columns")}
    tail = {key: dataset[key] for key in ("report", "metadata") if key in dataset}
    # the indent=2 layout of head and tail, with "rows" between them: the
    # head without its closing "\n}" and the tail without "{\n" and "\n}"
    yield json.dumps(head, indent=2)[:-2] + ',\n  "rows": ['
    rows = dataset["rows"]
    # json.dumps writes an int or a finite float as its repr, so a row of
    # them is one %r each (a bool is neither: its type is bool); every row
    # holds the value types of the first
    numeric = bool(rows) and {*map(type, rows[0])} <= {float, int}
    if numeric:
        line = "[" + ", ".join(["%r"] * len(rows[0])) + "]"
    if precision < _ROUND_TRIP_DIGITS:
        rows = (tuple([_jsonable(v, precision) for v in row]) for row in rows)
    sep, lead = ",\n    ", "\n    "
    for chunk in _chunks(rows):
        text = sep.join(map(line.__mod__, chunk)) if numeric else None
        # %r writes NaN and the infinities as nan and inf, where json.dumps
        # writes NaN and Infinity; no other int or float text holds an "n"
        if text is None or "n" in text:
            text = sep.join(map(json.dumps, chunk))
        yield lead + text
        lead = sep
    yield "\n  ]"
    if tail:
        yield ",\n" + json.dumps(tail, indent=2)[2:-2]
    yield "\n}\n"


def _write(dataset, fmt, out_path, precision):
    chunks = (_json_text(dataset, precision) if fmt == "json"
              else _csv_text(dataset, precision))
    if out_path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w") as fh:
            fh.writelines(chunks)


# ---------------------------------------------------------------------------
# the occupation and bounds rows come from the grid kernels of
# `distributions`


def _b_grid_rows(kernel, qp, etas):
    # the rows are built before anything is written, so a row outside the
    # domain exits 3 with no output
    try:
        return kernel(qp, etas)
    except DomainError as exc:
        # at q = 1 no larger q exists
        fix = "Raise --eta-min" if qp.q == 1.0 else "Raise --eta-min or raise q"
        raise DomainError(f"B-family grid: {exc}. {fix}.") from None


# ---------------------------------------------------------------------------
# subcommand drivers


def _cmd_occupation(args):
    from . import distributions
    from .qcore import Family, as_family, as_qparam

    family = as_family(args.family)
    etas = _linspace(args.eta_min, args.eta_max, args.steps, "eta")
    qp = as_qparam(args.q)
    if family is Family.B:
        rows = _b_grid_rows(distributions.b_occupation_rows, qp, etas)
        columns = ["eta", "n_exact", "n_jd", "n_lower", "n_upper"]
    else:
        rows = distributions.f_occupation_rows(qp, etas)
        columns = ["eta", "n_exact", "n_arcsin"]
    config = {
        "family": family.value.lower(), "q": args.q, "eta_min": etas[0],
        "eta_max": etas[-1], "steps": len(etas),
    }
    return {"config": config, "columns": columns, "rows": rows}, 0


def _cmd_bounds(args):
    from . import distributions
    from .qcore import as_qparam

    etas = _linspace(args.eta_min, args.eta_max, args.steps, "eta")
    qp = as_qparam(args.q)
    rows = _b_grid_rows(distributions.bounds_rows, qp, etas)
    config = {
        "q": args.q, "eta_min": etas[0], "eta_max": etas[-1],
        "steps": len(etas), "upper_shift": qp.q_inv,
    }
    dataset = {
        "config": config,
        "columns": ["eta", "n_lower", "n_second", "n_upper", "n_exact", "width"],
        "rows": rows,
    }
    dataset["metadata"] = {
        "errata": ["convergent-bracketing", "bounds-upper-shift"],
        "detail": "n_lower is the first convergent; n_second the second "
                  "convergent (a sharper lower bound, not an upper bound); "
                  "n_upper the rigorous bound with denominator shift 1/q",
    }
    return dataset, 0


def _parse_q_list(raw):
    try:
        qs = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"could not parse q list from {raw!r}") from None
    if not qs:
        raise DomainError(f"--q {raw!r} holds no value; give one q or a "
                          "comma list such as 0.3,0.7")
    return qs


def _is_sweep(args, name):
    # whether --NAME-min and --NAME-max are both given; one alone is an error
    has_min = getattr(args, f"{name}_min") is not None
    has_max = getattr(args, f"{name}_max") is not None
    if has_min != has_max:
        flag, other = f"--{name}-min", f"--{name}-max"
        if has_max:
            flag, other = other, flag
        raise DomainError(f"{flag} sweeps only together with {other}; "
                          f"add {other} or drop {flag}")
    return has_min


def _cmd_eos(args):
    from . import thermo
    from .qcore import Family, as_count, as_family

    family = as_family(args.family)
    qs = _parse_q_list(args.q)
    z_sweep = _is_sweep(args, "z")
    t_sweep = _is_sweep(args, "t")
    if z_sweep and t_sweep:
        raise DomainError("sweep either fugacity or temperature, not both")
    if z_sweep and args.z is not None:
        raise DomainError("--z and a --z-min/--z-max sweep both set the fugacity; "
                          "drop --z or the sweep")
    if args.density is not None and (args.z is not None or z_sweep):
        raise DomainError("give either a density or a fugacity, not both")
    if args.density is not None:
        z = None
    else:
        z = _DEFAULT_FUGACITY if args.z is None else args.z
    temperatures = (_linspace(args.t_min, args.t_max, args.t_steps, "t") if t_sweep
                    else [args.temperature])
    fugacities = (_linspace(args.z_min, args.z_max, args.z_steps, "z") if z_sweep
                  else [z])
    as_count("multiplicity", args.multiplicity, 1)
    if family is Family.B and args.multiplicity != 1:
        raise DomainError(f"multiplicity {args.multiplicity!r} has no effect on the B "
                          "family, whose state functions carry no spin factor; give "
                          "multiplicity 1")
    # the F density is gs f(z/q, 3/2), so its solve targets density / gs
    target = args.density
    gas = dict(mass=args.mass, volume=args.volume, h=args.h, k=args.k)
    if family is Family.F:
        gas["multiplicity"] = args.multiplicity
        if target is not None:
            target /= args.multiplicity
    # one row per (q, T, z), all built before anything is written, so a row
    # outside the domain, such as a B fugacity z >= q, exits 3 with no
    # output.  The fugacity of a --density solve depends on neither T nor
    # the row: each q solves once in a command call
    solved = {}
    rows = []
    for q, temperature, fugacity in itertools.product(qs, temperatures, fugacities):
        if target is not None:
            if q not in solved:
                solved[q] = thermo.solve_fugacity(family, q, target)
            fugacity = solved[q]
        state = (thermo.b_state if family is Family.B else thermo.f_state)(
            q, fugacity, temperature, **gas)
        rows.append((
            q, temperature, state.fugacity, state.thermal_wavelength ** 3,
            state.pressure, state.number_density, state.internal_energy,
            state.entropy, state.grand_potential,
        ))
    config = {
        "family": family.value.lower(), "q": ",".join(map(str, qs)),
        "temperature": args.temperature, "mass": args.mass,
        "volume": args.volume, "multiplicity": args.multiplicity,
        "h": args.h, "k": args.k,
    }
    if z_sweep:
        config.update(z_min=args.z_min, z_max=args.z_max, z_steps=args.z_steps)
    elif t_sweep:
        config.update(t_min=args.t_min, t_max=args.t_max, t_steps=args.t_steps)
    if args.density is not None:
        config["density"] = args.density
    elif not z_sweep:
        config["z"] = z
    columns = ["q", "temperature", "fugacity", "lambda3", "pressure",
               "number_density", "internal_energy", "entropy",
               "grand_potential"]
    return {"config": config, "columns": columns, "rows": rows}, 0


def _cmd_virial(args):
    from . import thermo
    from .qcore import Family, as_family

    family = as_family(args.family)
    coeffs = thermo.virial_coefficients(family, args.q, args.order)
    rows = [(k + 1, c) for k, c in enumerate(coeffs)]
    config = {"family": family.value.lower(), "q": args.q, "order": args.order}
    dataset = {
        "config": config, "columns": ["k", "coefficient"], "rows": rows,
        "metadata": {"working_digits": coeffs.working_digits,
                     "passes": coeffs.passes},
    }
    if family is Family.F:
        dataset["metadata"].update(
            q_independent=True,
            detail="F-family virial coefficients carry no q dependence; "
                   "the deformation enters only through z/q",
        )
    return dataset, 0


_CHECK_COLUMNS = ("check", "residual", "threshold", "status")


def _check_rows(checks):
    # one (check, residual, threshold, status) row per CheckResult
    return [(c.check_id, c.residual, c.threshold, "PASS" if c.passed else "FAIL")
            for c in checks]


def _cmd_fock(args):
    from .algebra import build_b_rep, build_f_rep, rep_report
    from .qcore import Family, as_family

    family = as_family(args.family)
    rep = (build_b_rep(args.q, args.dim) if family is Family.B
           else build_f_rep(args.q))
    checks = rep_report(rep)
    config = {"family": family.value.lower(), "q": args.q, "dim": rep.dim}
    dataset = {"config": config, "columns": _CHECK_COLUMNS,
               "rows": _check_rows(checks)}
    status = 0 if all(c.passed for c in checks) else 1
    return dataset, status


def _cmd_verify(args):
    from . import oracle

    report = oracle.run_verification()
    config = {"suite": "full"}
    comments = [f"# erratum {e.erratum_id}: printed [{e.printed}] "
                f"-> adopted [{e.adopted}]" for e in report.errata]
    comments += [f"# note {n.note_id}: {n.detail}" for n in report.notes]
    dataset = {
        "config": config, "columns": _CHECK_COLUMNS,
        "rows": _check_rows(report.checks),
        "report": report.to_dict(), "comments": comments,
    }
    return dataset, 0 if report.all_passed else 1


def _cmd_limits(args):
    from . import distributions

    # each row ends in its error and tolerance
    rows = [row + ("PASS" if row[-2] < row[-1] else "FAIL",)
            for row in distributions.classical_limit_rows()]
    dataset = {
        "config": {"suite": "classical-limit regression"},
        "columns": ["family", "q", "eta", "value", "reference", "error",
                    "tolerance", "status"],
        "rows": rows,
    }
    return dataset, 0 if all(row[-1] == "PASS" for row in rows) else 1


_COMMANDS = {
    "occupation": _cmd_occupation,
    "bounds": _cmd_bounds,
    "eos": _cmd_eos,
    "virial": _cmd_virial,
    "fock": _cmd_fock,
    "verify": _cmd_verify,
    "limits": _cmd_limits,
}


def _positive_int(raw):
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return value


def _add_common(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", metavar="PATH", help="default: standard output")
    sub.add_argument("--precision", type=_positive_int, default=15,
                     help="significant digits in emitted numbers (default 15)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="anyongas",
        description="Thermostatistics of q-interpolating (anyon) gases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("occupation", help="occupation curves on an eta grid")
    p.add_argument("--family", choices=("b", "f", "B", "F"), default="b")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--eta-min", dest="eta_min", type=float, default=1.0)
    p.add_argument("--eta-max", dest="eta_max", type=float, default=6.0)
    p.add_argument("--steps", type=_positive_int, default=50)
    _add_common(p)

    p = sub.add_parser("bounds", help="continued-fraction convergent bounds (B)")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--eta-min", dest="eta_min", type=float, default=1.0)
    p.add_argument("--eta-max", dest="eta_max", type=float, default=6.0)
    p.add_argument("--steps", type=_positive_int, default=50)
    _add_common(p)

    p = sub.add_parser("eos", help="equation-of-state sweep")
    p.add_argument("--family", choices=("b", "f", "B", "F"), default="b")
    p.add_argument("--q", default="0.5", help="value or comma list")
    p.add_argument("--z", type=float,
                   help=f"fugacity (default {_DEFAULT_FUGACITY} without --density)")
    p.add_argument("--z-min", dest="z_min", type=float)
    p.add_argument("--z-max", dest="z_max", type=float)
    p.add_argument("--z-steps", dest="z_steps", type=_positive_int, default=20)
    p.add_argument("--density", type=float,
                   help="lam^3 N/V as the independent variable")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--t-steps", dest="t_steps", type=_positive_int, default=20)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--volume", type=float, default=1.0)
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--h", type=float, default=1.0, help="Planck constant")
    p.add_argument("--k", type=float, default=1.0, help="Boltzmann constant")
    _add_common(p)

    p = sub.add_parser("virial", help="virial coefficients b_1..b_K")
    p.add_argument("--family", choices=("b", "f", "B", "F"), default="b")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--order", type=int, default=4)
    _add_common(p)

    p = sub.add_parser("fock", help="algebra checks on a Fock representation")
    p.add_argument("--family", choices=("b", "f", "B", "F"), default="b")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=32,
                   help="states of the B truncation (default 32); "
                        "the F space always has 2")
    _add_common(p)

    p = sub.add_parser("verify", help="full oracle suite; nonzero exit on failure")
    _add_common(p)

    p = sub.add_parser("limits", help="q -> 1 regression against Bose/Fermi")
    _add_common(p)

    return parser


def _join_negative_values(argv):
    # argparse reads a token that starts with "-" as an option unless it
    # looks like -10 or -1.5, so "--eta-min -1e1", "--z -inf" or
    # "--q -0.5,0.3" would lack a value.  Every option takes a value, so a
    # token with a single leading "-" after a --flag is joined to it as
    # --eta-min=-1e1
    joined = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if (token.startswith("-") and not token.startswith("--")
                and flag.startswith("--") and "=" not in flag):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        dataset, status = _COMMANDS[args.command](args)
        dataset.update(schema_version=SCHEMA_VERSION, command=args.command)
        _write(dataset, args.format, args.output, args.precision)
        return status
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
