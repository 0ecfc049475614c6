"""Exact arithmetic for values of the form  r + sum_i q_i * sqrt(f_i).

Class-size upper bounds involve |C|^(-1/2), irrational in general.  A SqrtSum
keeps them exact: a rational part plus rational multiples of square roots of
distinct squarefree integers.  Comparisons against rationals are decided with
certainty: rational-only sums compare exactly; sums with radical terms are
irrational (square roots of distinct squarefree integers are linearly
independent over Q), so interval arithmetic with doubling precision always
terminates with a strict verdict.  No floating point is involved anywhere.

Squarefree reduction trial-divides by primes below 1000, which fully factors
every S_n class size for n <= 1000 (their prime factors are at most n).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt
from numbers import Rational

#: Significant digits of every decimal rendering in a report.
DECIMAL_DIGITS = 40

_START_BITS = 64  # guard bits for the first interval pass
_MAX_BITS = 1 << 20


def _sieve(limit: int) -> list:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


_PRIMES = _sieve(1000)


def square_split(c: int) -> tuple:
    """c = s**2 * f with f squarefree; exact for c with prime factors < 1000."""
    if c <= 0:
        raise ValueError("radicand must be positive")
    s, f, m = 1, 1, c
    for p in _PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
    if m > 1:
        r = isqrt(m)
        if r * r == m:
            s *= r
        else:
            f *= m
    return s, f


def frac_text(x: Fraction) -> str:
    """A rational as report text: "numerator/denominator", in lowest terms."""
    return f"{x.numerator}/{x.denominator}"


def decimal_text(x: Fraction, digits: int = DECIMAL_DIGITS) -> str:
    """A rational as a decimal string with `digits` significant figures."""
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


class SqrtSum:
    """Immutable exact value  rational + sum_f radicals[f] * sqrt(f).

    Radicands are distinct squarefree integers > 1 (from_terms reduces them),
    so the form is canonical and == compares values.
    """

    __slots__ = ("rational", "radicals")

    def __init__(self, rational=0, radicals=None):
        self.rational = Fraction(rational)
        rad = {}
        if radicals:
            for f, q in radicals.items():
                q = Fraction(q)
                if f <= 1 or q == 0:
                    raise ValueError("radicands must be squarefree integers > 1")
                rad[int(f)] = q
        self.radicals = rad

    @classmethod
    def from_terms(cls, terms) -> "SqrtSum":
        """Sum of coeff / sqrt(radicand) over (coeff, radicand) pairs."""
        # 1/sqrt(s^2 f) = sqrt(f) / (s f).  The coefficients of each sqrt(f),
        # and of the rational part (f = 1), gather as one integer fraction
        # over the lcm of their denominators, reduced once at the end.
        sums: dict[int, list] = {}
        for coeff, radicand in terms:
            num, den = coeff.numerator, coeff.denominator
            if not num:
                continue
            s, f = square_split(int(radicand))
            den *= s * f
            acc = sums.get(f)
            if acc is None:
                sums[f] = [num, den]
            else:
                g = gcd(acc[1], den)
                acc[0] = acc[0] * (den // g) + num * (acc[1] // g)
                acc[1] = acc[1] // g * den
        rational = Fraction(*sums.pop(1, (0, 1)))
        return cls(rational, {f: Fraction(num, den) for f, (num, den) in sums.items() if num})

    @property
    def is_rational(self) -> bool:
        return not self.radicals

    def as_fraction(self) -> Fraction:
        if self.radicals:
            raise ValueError("value is irrational")
        return self.rational

    def square(self):
        """Exact rational square, when one exists (else None)."""
        if not self.radicals:
            return self.rational * self.rational
        if self.rational == 0 and len(self.radicals) == 1:
            ((f, q),) = self.radicals.items()
            return q * q * f
        return None

    def _interval(self, bits: int) -> tuple:
        lo = hi = self.rational
        scale = 1 << bits
        for f, q in self.radicals.items():
            t = isqrt(f << (2 * bits))
            s_lo = Fraction(t, scale)
            s_hi = Fraction(t + 1, scale)
            if q > 0:
                lo += q * s_lo
                hi += q * s_hi
            else:
                lo += q * s_hi
                hi += q * s_lo
        return lo, hi

    def compare_to(self, other) -> int:
        """-1, 0 or +1 versus a rational; never wrong, never unsure."""
        other = Fraction(other)
        if not self.radicals:
            diff = self.rational - other
            return (diff > 0) - (diff < 0)
        bits = _START_BITS
        while bits <= _MAX_BITS:
            lo, hi = self._interval(bits)
            if lo > other:
                return 1
            if hi < other:
                return -1
            bits *= 2
        raise ArithmeticError("interval refinement did not separate (impossible for irrational values)")

    def __eq__(self, other):
        if isinstance(other, SqrtSum):
            return self.rational == other.rational and self.radicals == other.radicals
        if isinstance(other, Rational):
            return self.compare_to(other) == 0
        return NotImplemented

    def __hash__(self):
        if not self.radicals:
            return hash(self.rational)  # as the equal Fraction hashes
        return hash((self.rational, frozenset(self.radicals.items())))

    def __lt__(self, other):
        return self.compare_to(other) < 0

    def __le__(self, other):
        return self.compare_to(other) <= 0

    def __gt__(self, other):
        return self.compare_to(other) > 0

    def __ge__(self, other):
        return self.compare_to(other) >= 0

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        if not isinstance(other, SqrtSum):
            return SqrtSum(self.rational + Fraction(other), dict(self.radicals))
        rad = dict(self.radicals)
        for f, q in other.radicals.items():
            q0 = rad.get(f, Fraction(0)) + q
            if q0:
                rad[f] = q0
            else:
                rad.pop(f, None)
        return SqrtSum(self.rational + other.rational, rad)

    def decimal(self, digits: int = DECIMAL_DIGITS) -> str:
        """Deterministic decimal string with `digits` significant figures."""
        if not self.radicals:
            return decimal_text(self.rational, digits)
        bits = max(_START_BITS, 4 * digits)
        while bits <= _MAX_BITS:
            lo, hi = self._interval(bits)
            s_lo = decimal_text(lo, digits)
            if s_lo == decimal_text(hi, digits):
                return s_lo
            bits *= 2
        raise ArithmeticError("decimal rendering did not converge")

    def serialize(self, digits: int = DECIMAL_DIGITS) -> dict:
        return {
            "rational": frac_text(self.rational),
            "radicals": [
                [f, frac_text(q)]
                for f, q in sorted(self.radicals.items())
            ],
            "decimal": self.decimal(digits),
            "precision": digits,
        }

    def __repr__(self) -> str:
        terms = [str(self.rational)] + [
            f"({q})*sqrt({f})" for f, q in sorted(self.radicals.items())
        ]
        return "SqrtSum(" + " + ".join(terms) + ")"
