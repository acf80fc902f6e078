"""Structured verification-report records.

Every numerical self-check produces a CheckResult (id, inputs, residual,
threshold, pass/fail).  Errata record places where two printed forms of
the same quantity contradict each other; the adopted resolution is part
of the record.  Notes carry side-by-side values for genuine ambiguities
that are reported rather than resolved.

Each record is a namedtuple: immutable, compared by value, and turned
into the dict of its fields by `_asdict`, which is what the JSON report
holds.
"""

import collections


class CheckResult(collections.namedtuple(
        "CheckResult", ("check_id", "inputs", "residual", "threshold", "passed",
                        "note"), defaults=("",))):
    """One self-check: its id, inputs, residual, threshold and outcome."""

    __slots__ = ()

    @classmethod
    def from_residual(cls, check_id, inputs, residual, threshold, note=""):
        return cls(check_id, inputs, float(residual), float(threshold),
                   bool(residual < threshold), note)


Erratum = collections.namedtuple(
    "Erratum", ("erratum_id", "printed", "adopted", "detail"))
Erratum.__doc__ = "A printed formula, the form adopted in its place, and why."

AmbiguityNote = collections.namedtuple("AmbiguityNote", ("note_id", "detail", "values"))
AmbiguityNote.__doc__ = "An ambiguity reported with its side-by-side values, not resolved."


class VerificationReport(collections.namedtuple(
        "VerificationReport", ("checks", "errata", "notes"))):
    """The checks of a verification run, with the errata and notes it carries."""

    __slots__ = ()

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "all_passed": self.all_passed,
            "checks": [c._asdict() for c in self.checks],
            "errata": [e._asdict() for e in self.errata],
            "notes": [n._asdict() for n in self.notes],
        }


# Catalog of internal contradictions in the source formulas, with the
# resolution the library adopts.  Stable ids; surfaced by the `verify`
# command and asserted by the acceptance suite.
KNOWN_ERRATA = (
    Erratum(
        "occupation-log-prefactor",
        printed="n = (1/ln q) ln((e^eta - 1/q)/(e^eta - q))",
        adopted="n = (1/(2 ln q)) ln((e^eta - 1/q)/(e^eta - q))",
        detail=(
            "Solving the single-mode relation e^eta = (q^-n + q [n])/[n] "
            "gives q^(2n) = (e^eta - 1/q)/(e^eta - q), i.e. the halved "
            "prefactor; only that form has the Bose limit 1/(e^eta - 1). "
            "The unhalved print limits to 2/(e^eta - 1)."
        ),
    ),
    Erratum(
        "pressure-state-function",
        printed="P/T = g(q, z, 3/2) / lambda^3",
        adopted="P = (k T / lambda^3) g(q, z, 5/2)",
        detail=(
            "Pv/kT = (v/lambda^3) g(q, z, 5/2) is required for the virial "
            "expansion and for U = (3/2) P V; the 3/2-order print "
            "contradicts both."
        ),
    ),
    Erratum(
        "convergent-bracketing",
        printed="n(1) < n(3) < ... < n < ... < n(4) < n(2): odd and even "
                "convergents interlace around the occupation",
        adopted="n(1) < n(2) < n(3) < ... < n: every convergent lies "
                "strictly below the occupation; a valid strict upper bound "
                "is (1/q - q)/(2 ln(1/q) (e^eta - 1/q))",
        detail=(
            "Consecutive convergents of y/(1 - c1 y/(2 - c2 y/(3 - ...))) "
            "differ by +y^k (prod c_j)/(B_k B_{k-1}) > 0 for y in (0, 1): "
            "the minus signs in the partial numerators cancel the "
            "alternation, so the sequence increases monotonically.  "
            "Two-sided interlacing holds for the positive-numerator "
            "continued fraction of ln(1 + x), x > 0, not for this one.  "
            "The upper bound above is -ln(1 - y) < y/(1 - y) in closed "
            "form; cf_bounds returns it."
        ),
    ),
    Erratum(
        "bounds-upper-shift",
        printed="upper bound 1/(e^eta - 2.5) at q = 1/2, while the general "
                "second-convergent form gives shift (q + 1/q)/2 = 1.25",
        adopted="the second convergent (shift 1.25 at q = 1/2) is a sharper "
                "lower bound, not an upper bound; the illustrated shift "
                "2.5 = q + 1/q happens to give a valid upper bound on the "
                "restricted domain e^eta > q + 1/q",
        detail=(
            "The two printed shifts disagree (1.25 vs 2.5 at q = 1/2) and "
            "neither matches the claim attached to it: the 1.25 form lies "
            "below the occupation everywhere, and the 2.5 form bounds it "
            "from above only where its denominator is positive.  "
            "y/(1 - y/(1 - q^2)) >= -ln(1 - y) holds for y < 1 - q^2, "
            "which is the e^eta > q + 1/q region."
        ),
    ),
    Erratum(
        "fugacity-series-cubic-term",
        printed="z = x - ([2]/2^(5/2)) x^2 + ([2]^2/2^2 - [3]/3^(5/2)) x^3",
        adopted="z = x - ([2]/2^(5/2)) x^2 + ([2]^2/2^4 - [3]/3^(5/2)) x^3",
        detail=(
            "Order-by-order reversion of the density series gives the "
            "cubic coefficient 2([2]/2^(5/2))^2 - [3]/3^(5/2) = "
            "[2]^2/2^4 - [3]/3^(5/2); only this value satisfies "
            "s(r(t)) = t, the defining property of the reverted series."
        ),
    ),
    Erratum(
        "occupation-series-leading-power",
        printed="n = g^(-1/2) + (7/6) g^(1/2) + (149/120) g^(3/2) + ...",
        adopted="n = (2/pi)(g^(1/2) + g^(3/2)/6 + 3 g^(5/2)/40 + ...)",
        detail=(
            "The expansion of (2/pi) arcsin(sqrt g) starts at sqrt(g) and "
            "is bounded by 1; the printed series diverges as g -> 0 and "
            "cannot equal an occupation in [0, 1]."
        ),
    ),
    Erratum(
        "zero-mode-volume-prefactor",
        printed="Omega_0 = -(1/(beta lambda^3)) ln(1 + z/q)",
        adopted="Omega_0 = -(1/beta) ln(1 + z/q), excluded from bulk quantities",
        detail=(
            "A single isolated state contributes no volume factor; the "
            "printed 1/lambda^3 on the zero-momentum term is dimensionally "
            "anomalous."
        ),
    ),
)
