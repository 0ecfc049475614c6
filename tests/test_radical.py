from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest

from hsplab.characters import partitions
from hsplab.profile import class_size_split, sn_class_size
from hsplab.radical import SqrtSum


def _sieve(limit: int) -> list:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


_PRIMES = _sieve(1000)


def square_split(c: int) -> tuple:
    """Oracle: c = s**2 * f with f squarefree, by trial division; exact for
    c whose prime factors are below 1000 (every S_n class size, n < 1000)."""
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


def inv_sqrt_sum(terms) -> SqrtSum:
    """Sum of coeff / sqrt(radicand) over (coeff, radicand) pairs."""
    return SqrtSum.from_terms([(coeff, *square_split(r)) for coeff, r in terms])


def decimal_sqrt_sum(terms, prec=60) -> Decimal:
    """Independent oracle via decimal square roots."""
    with localcontext() as ctx:
        ctx.prec = prec
        total = Decimal(0)
        for coeff, radicand in terms:
            c = Fraction(coeff)
            total += (
                Decimal(c.numerator) / Decimal(c.denominator) / Decimal(radicand).sqrt()
            )
        return total


def test_square_split():
    assert square_split(12) == (2, 3)
    assert square_split(49) == (7, 1)
    assert square_split(1) == (1, 1)
    assert square_split(360) == (6, 10)
    assert square_split(2**20) == (2**10, 1)


def test_from_terms_takes_split_radicands():
    # 2/(2 sqrt 3) + (1/2)/sqrt(3) = (1/2) sqrt 3, and 1/(3 sqrt 1) = 1/3
    s = SqrtSum.from_terms([(2, 2, 3), (1, 3, 1), (Fraction(1, 2), 1, 3)])
    assert s.rational == Fraction(1, 3) and s.radicals == {3: Fraction(1, 2)}


def test_class_size_split_matches_trial_division():
    # Legendre parities against the trial-division oracle, every type of
    # every n <= 40 (215,307 types)
    for n in range(1, 41):
        for t in partitions(n):
            assert class_size_split(t) == square_split(sn_class_size(t)), t


def test_perfect_squares_fold_to_rational():
    s = inv_sqrt_sum([(1, 4), (3, 9)])
    assert s.radicals == {} and s.rational == Fraction(1, 2) + 1
    assert s.compare_to(Fraction(3, 2)) == 0


def test_equivalent_radicands_merge():
    a = inv_sqrt_sum([(2, 12)])  # 2/sqrt(12) = 1/sqrt(3)
    b = inv_sqrt_sum([(1, 3)])
    assert a.radicals == b.radicals and a.rational == b.rational


def test_value_equality_and_hash():
    a = inv_sqrt_sum([(2, 12)])  # 2/sqrt(12) = 1/sqrt(3)
    b = inv_sqrt_sum([(1, 3)])
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != inv_sqrt_sum([(1, 2)]) and a != inv_sqrt_sum([(1, 3), (1, 1)])  # a + 1
    assert a != Fraction(1, 2) and a != "1/sqrt(3)"
    # a rational value equals, and hashes as, the same Fraction or int
    r = inv_sqrt_sum([(1, 4), (3, 9)])
    assert r == Fraction(3, 2) and hash(r) == hash(Fraction(3, 2))
    assert {r: "r"}[Fraction(3, 2)] == "r"
    assert SqrtSum(2) == 2 and hash(SqrtSum(2)) == hash(2)


def test_compare_to_tight_rationals():
    inv_sqrt3 = inv_sqrt_sum([(1, 3)])
    # 1/sqrt(3) = 0.57735026918962576...
    assert inv_sqrt3.compare_to(Fraction(57735026918, 10**11)) == 1
    assert inv_sqrt3.compare_to(Fraction(57735026919, 10**11)) == -1
    assert inv_sqrt3 > Fraction(0)
    assert inv_sqrt3 < Fraction(1)


def test_compare_exact_rational_case():
    one = inv_sqrt_sum([(1, 1)])
    assert one.compare_to(1) == 0
    assert inv_sqrt_sum([]).compare_to(0) == 0


def test_sum_against_decimal_oracle():
    terms = [(1, 2), (1, 8), (Fraction(5, 7), 3), (2, 5)]
    s = inv_sqrt_sum(terms)
    oracle = decimal_sqrt_sum(terms)
    got = Decimal(s.decimal(40))
    assert abs(got - oracle) < Decimal(10) ** -35


def test_decimal_known_digits():
    inv_sqrt3 = inv_sqrt_sum([(1, 3)])
    # compute far past 30 digits, then round once (a 30-digit sqrt oracle
    # would double-round the final digit)
    with localcontext() as ctx:
        ctx.prec = 60
        accurate = Decimal(1) / Decimal(3).sqrt()
    with localcontext() as ctx:
        ctx.prec = 30
        want = str(+accurate)
    assert inv_sqrt3.decimal(30) == want


def test_decimal_of_rational():
    s = inv_sqrt_sum([(Fraction(1, 3), 1)])
    assert s.decimal(10) == "0.3333333333"


def test_addition():
    # terms on one radicand add: 1/sqrt(2) + 1/sqrt(8) = 3/(2 sqrt 2) = (3/4) sqrt 2
    assert inv_sqrt_sum([(1, 2), (1, 8)]).radicals == {2: Fraction(3, 4)}
    # and cancel: 1/sqrt(2) - 1/(2 sqrt 2) - 1/sqrt(8) = 0
    cancel = inv_sqrt_sum([(1, 2), (Fraction(-1, 2), 2), (-1, 8)])
    assert cancel.radicals == {} and cancel.rational == 0


def test_square():
    assert inv_sqrt_sum([(2, 3)]).square() == Fraction(4, 3)
    assert inv_sqrt_sum([(1, 4)]).square() == Fraction(1, 4)
    assert inv_sqrt_sum([(1, 2), (1, 3)]).square() is None


def test_serialize_is_deterministic():
    s = inv_sqrt_sum([(1, 3), (2, 5), (1, 12)])
    assert s.serialize(25) == s.serialize(25)
    data = s.serialize(25)
    assert data["precision"] == 25
    assert [f for f, _ in data["radicals"]] == sorted(f for f, _ in data["radicals"])


def test_invalid_radicand():
    with pytest.raises(ValueError):
        square_split(0)
    with pytest.raises(ValueError):
        SqrtSum(0, {1: Fraction(1)})
