"""Weak-sampling distributions over Irr(S_n) and their total-variation bounds.

Everything here is exact: a distribution is integer weights over the common
denominator n!, kept on its support, the class-size square-root upper bounds
are carried as SqrtSum values, and verdict thresholds use base-2 logarithms
(the base is a reporting convention; it only shifts the constant c).

Everything here works from a cycle-type census and needs no group: the
small-subgroup dichotomy `poly_subgroup_verdict`, which enumerates a
subgroup, lives in `hsplab.paper`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple

from .characters import Partition, _dimension, class_sums, partitions
from .errors import InvariantError, ParseError, PreconditionError
from .profile import ClassProfile, centralizer_order, class_size_split
from .radical import DECIMAL_DIGITS, SqrtSum, frac_text


def _check_profile(n: int, prof: ClassProfile) -> None:
    if prof.degree != n:
        raise PreconditionError(f"profile degree {prof.degree} does not match n={n}")


class IrrepDistribution(NamedTuple):
    """Exact distribution on Irr(S_n), kept on its support: P(lam) is
    weights[lam] / n! with integer weights summing to n!, and a partition
    that weights does not hold has probability 0."""

    degree: int
    weights: Mapping[Partition, int]

    def prob(self, lam: Partition) -> Fraction:
        return Fraction(self.weights.get(tuple(lam), 0), math.factorial(self.degree))

    def l1(self, other: "IrrepDistribution") -> Fraction:
        if self.degree != other.degree:
            raise PreconditionError("distributions live on different degrees")
        a, b = self.weights, other.weights
        total = sum(abs(a.get(lam, 0) - b.get(lam, 0)) for lam in a.keys() | b.keys())
        return Fraction(total, math.factorial(self.degree))

    def serialize(self) -> list:
        fact = math.factorial(self.degree)
        return [
            {"partition": list(lam), "prob": frac_text(Fraction(self.weights.get(lam, 0), fact))}
            for lam in partitions(self.degree)
        ]


def weak_distribution(n: int, prof: ClassProfile) -> IrrepDistribution:
    """P_H(lam) = d_lam / n! * sum_t count(t) chi_lam(t), exactly: the weight
    of lam is d_lam * v(lam), with v the class sums of prof.

    The one reader of class_sums here, so the one place they are checked as
    a subgroup census H: v(lam) / |H| is the multiplicity of the trivial
    irrep in the restriction of chi_lam to H, so v(lam) >= 0 and |H| divides
    v(lam), and the weights sum to n!.  Dimensions are computed on the
    support alone, and weights holds no zero.
    """
    _check_profile(n, prof)
    sums = class_sums(prof)
    order = prof.order
    for lam, v in sums.items():
        if v < 0:
            raise InvariantError(f"negative mass at {lam}: profile is not a subgroup census")
    for lam, v in sums.items():
        if v % order:
            raise InvariantError(
                f"class sum v{lam} = {v} is not a multiple of |H| = {order}: "
                "profile is not a subgroup census"
            )
    weights = {lam: _dimension(lam) * v for lam, v in sums.items() if v}
    fact = math.factorial(n)
    mass = sum(weights.values())
    if mass != fact:
        raise InvariantError(
            f"total mass {Fraction(mass, fact)} is not 1: profile is not a subgroup census"
        )
    return IrrepDistribution(n, weights)


def dh_exact(n: int, prof: ClassProfile) -> Fraction:
    """D_H = |P_H - Plancherel|_1 = 1/n! * sum_lam |w(lam) - d_lam^2|, read
    on the support of weak_distribution(n, prof): since sum_lam d_lam^2 = n!,
    the Plancherel mass off it is n! - sum_supp d_lam^2.

    `analyze` compares this with twice the mass by which P_H exceeds the
    Plancherel distribution, and refuses a report where the two differ.
    """
    fact = math.factorial(n)
    total = fact
    for lam, w in weak_distribution(n, prof).weights.items():
        square = _dimension(lam) ** 2
        total += abs(w - square) - square
    return Fraction(total, fact)


def d_between(n: int, prof_a: ClassProfile, prof_b: ClassProfile) -> Fraction:
    """|P_A - P_B|_1, exactly."""
    return weak_distribution(n, prof_a).l1(weak_distribution(n, prof_b))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


class BoundsReport(NamedTuple):
    """Lower/upper bracket for D_H from class intersection data.

    upper_sq is the exact rational square of the upper bound when one exists
    (single radical term or rational value); otherwise None and exact
    comparisons go through the SqrtSum interval machinery.
    """

    lower: Fraction
    exact_value: Fraction | None
    upper: SqrtSum
    upper_sq: Fraction | None
    upper_float: str
    float_precision: int
    sandwich_ok: bool | None

    def serialize(self) -> dict:
        out = {
            "lower": frac_text(self.lower),
            "upper": self.upper.serialize(self.float_precision),
            "upper_sq": None if self.upper_sq is None else frac_text(self.upper_sq),
            "upper_float": self.upper_float,
            "float_precision": self.float_precision,
        }
        if self.exact_value is not None:
            out["exact_value"] = frac_text(self.exact_value)
            out["sandwich_ok"] = self.sandwich_ok
        return out


def _bounds_report(lower: Fraction, upper: SqrtSum, exact: Fraction | None = None) -> BoundsReport:
    sandwich = None if exact is None else bool(lower < exact) and upper >= exact
    return BoundsReport(
        lower=lower,
        exact_value=exact,
        upper=upper,
        upper_sq=upper.square(),
        upper_float=upper.decimal(DECIMAL_DIGITS),
        float_precision=DECIMAL_DIGITS,
        sandwich_ok=sandwich,
    )


def thm1_bounds(n: int, prof: ClassProfile) -> BoundsReport:
    """sum |C∩H|^2 / (|H||C|)  <  D_H  <=  sum |C∩H| |C|^(-1/2), both exact,
    with D_H itself.  The lower bound is one integer over |H| n!.  A D_H
    outside the bracket raises InvariantError."""
    _check_profile(n, prof)
    if prof.order < 2:
        raise PreconditionError("the strict lower bound requires |H| >= 2")
    fact = math.factorial(n)
    # z_t = n!/|C_t|, cached per type, so cmin_bounds reads the same values
    items = prof.nonidentity_items()
    lower = Fraction(sum(c * c * centralizer_order(t) for t, c in items), prof.order * fact)
    upper = SqrtSum.from_terms([(c, *class_size_split(t)) for t, c in items])
    report = _bounds_report(lower, upper, dh_exact(n, prof))
    if not report.sandwich_ok:
        raise InvariantError(
            f"Theorem 1 violated: D_H = {frac_text(report.exact_value)} is not in the bracket "
            "sum |C∩H|^2/(|H||C|) < D_H <= sum |C∩H| |C|^(-1/2)"
        )
    return report


class CminBounds(NamedTuple):
    """Single-class corollary bounds, with the minimal class identified."""

    report: BoundsReport
    cmin_type: tuple
    cmin_size: int

    def serialize(self) -> dict:
        out = self.report.serialize()
        out["cmin_type"] = list(self.cmin_type)
        out["cmin_size"] = str(self.cmin_size)
        return out


def cmin_bounds(n: int, prof: ClassProfile) -> CminBounds:
    """1/(|H||C_min|) < D_H <= (|H|-1) |C_min|^(-1/2) for the smallest
    non-identity class meeting H.  D_H is not computed here; thm1_bounds
    carries it."""
    _check_profile(n, prof)
    if prof.order < 2:
        raise PreconditionError("the corollary bounds require |H| >= 2")
    order = prof.order
    # the smallest class has the largest centralizer; ties go to the least type
    minus_z, t = min((-centralizer_order(u), u) for u, _ in prof.nonidentity_items())
    size = math.factorial(n) // -minus_z
    lower = Fraction(1, order * size)
    upper = SqrtSum.from_terms([(order - 1, *class_size_split(t))])
    return CminBounds(_bounds_report(lower, upper), t, size)


# ---------------------------------------------------------------------------
# distinguishability verdicts
# ---------------------------------------------------------------------------


def log2_power(group_order: int, c: float) -> float:
    """(log2 |G|)^c as a double, 1.0 for |G| = 1: the one float power behind
    every verdict threshold.  A power beyond the range of a double is refused
    as a ParseError naming --c."""
    if group_order < 2:
        return 1.0
    try:
        return math.log2(group_order) ** c
    except OverflowError:
        raise ParseError(f"--c: (log2 {group_order})^{c} is beyond the range of a double") from None


def distinguishability_threshold(group_order: int, c: float) -> float:
    """(log2 |G|)^(-c); the base-2 convention is reported with every verdict."""
    if group_order < 2:
        raise PreconditionError("thresholds need |G| >= 2")
    return log2_power(group_order, -c)


def verdict(D: Fraction, group_order: int, c: float) -> bool:
    """True iff D >= (log2 |G|)^(-c).  A report at fixed n, not an asymptotic
    claim; the exact rational D is compared against the double-precision
    threshold."""
    if D < 0:
        raise PreconditionError("distances are non-negative")
    return bool(D >= distinguishability_threshold(group_order, c))
