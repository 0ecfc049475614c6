import math
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import pytest

from hsplab.characters import (
    _class_sum_vector,
    class_sign,
    class_sums,
    clear_character_cache,
    conjugate,
    dimension,
    mn_character,
    orthogonality_check,
    partitions,
)
from hsplab.errors import PreconditionError
from hsplab.lab import block_group_profile, symmetric_profile, young_profile
from hsplab.profile import sn_class_size


@cache
def partition_count(n: int) -> int:
    """Independent oracle: Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def count_syt(shape) -> int:
    """Independent oracle for dimensions: count standard Young tableaux by
    walking down Young's lattice."""
    @cache
    def walk(lam):
        if sum(lam) <= 1:
            return 1
        total = 0
        for i in range(len(lam)):
            nxt = lam[i + 1] if i + 1 < len(lam) else 0
            if lam[i] > nxt:
                child = list(lam)
                child[i] -= 1
                if child[-1] == 0:
                    child.pop()
                total += walk(tuple(child))
        return total

    return walk(tuple(shape))


def test_partitions_examples():
    assert partitions(1) == ((1,),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions(30)) == 5604


@pytest.mark.parametrize("n", list(range(1, 26)) + [30, 40])
def test_partition_count_against_recurrence(n):
    assert len(partitions(n)) == partition_count(n)


def test_partitions_are_reverse_lexicographic():
    for n in (5, 8, 11):
        parts = partitions(n)
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == n for p in parts)


def test_dimension_examples():
    for n in (1, 3, 7, 15):
        assert dimension((n,)) == 1
    assert dimension((2, 1)) == 2
    assert dimension((3, 2)) == 5  # hooks 4,3,1,2,1


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_against_tableau_count(n):
    for lam in partitions(n):
        assert dimension(lam) == count_syt(lam)


@pytest.mark.parametrize("n", range(1, 13))
def test_dimension_squares_sum_to_factorial(n):
    assert sum(dimension(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


def test_mn_examples():
    assert mn_character((2, 1), (3,)) == -1
    assert mn_character((3, 1), (2, 2)) == -1
    assert mn_character((1, 1, 1, 1), (3, 1)) == 1


def test_mn_standard_rep_matrix_oracle():
    # 2x2 matrices of the S_3 standard representation
    m12 = ((-1, 1), (0, 1))
    m23 = ((1, 0), (1, -1))

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    three_cycle = matmul(m12, m23)
    trace = three_cycle[0][0] + three_cycle[1][1]
    assert mn_character((2, 1), (3,)) == trace == -1


@pytest.mark.parametrize("n", range(2, 13))
def test_standard_rep_is_fix_minus_one(n):
    for mu in partitions(n):
        assert mn_character((n - 1, 1), mu) == mu.count(1) - 1


@pytest.mark.parametrize("n", range(2, 11))
def test_sign_character_is_parity(n):
    for mu in partitions(n):
        assert mn_character((1,) * n, mu) == class_sign(mu)


@pytest.mark.parametrize("n", range(2, 11))
def test_conjugate_twist(n):
    for lam in partitions(n):
        lam_c = conjugate(lam)
        for mu in partitions(n):
            assert mn_character(lam_c, mu) == class_sign(mu) * mn_character(lam, mu)


@pytest.mark.parametrize("n", range(1, 13))
def test_identity_column_is_dimension(n):
    ident = (1,) * n
    for lam in partitions(n):
        assert mn_character(lam, ident) == dimension(lam)


@pytest.mark.parametrize("n", range(2, 11))
def test_character_values_bounded_by_dimension(n):
    for lam in partitions(n):
        d = dimension(lam)
        for mu in partitions(n):
            assert abs(mn_character(lam, mu)) <= d


def test_mismatched_sizes_rejected():
    with pytest.raises(PreconditionError):
        mn_character((2, 1), (2, 2))


def test_conjugate_involution():
    for n in (5, 8):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam


@pytest.mark.parametrize("n", range(1, 9))
def test_orthogonality_small(n):
    report = orthogonality_check(n)
    assert report.passed, report.failure


def test_orthogonality_row_example_n4():
    # diagonal row inner product at lambda = (2,2):
    # 4*1 + 0*6 + 4*3 + 1*8 + 0*6 = 24
    lam = (2, 2)
    total = sum(
        sn_class_size(mu) * mn_character(lam, mu) ** 2 for mu in partitions(4)
    )
    assert total == 24


def test_character_cache_thread_safety():
    clear_character_cache()
    lams = partitions(9)
    mus = partitions(9)

    def column(mu):
        return [mn_character(lam, mu) for lam in lams]

    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(column, mus))
    clear_character_cache()
    serial = [column(mu) for mu in mus]
    assert threaded == serial


# ---------------------------------------------------------------------------
# class sums: the bead-bitmask engine against the per-character MN oracle
# ---------------------------------------------------------------------------


def mn_class_sums(n, counts) -> dict:
    """Oracle: one validated mn_character value per (lam, type)."""
    return {
        lam: sum(c * mn_character(lam, t) for t, c in counts.items())
        for lam in partitions(n)
    }


def catalog_profiles(n):
    yield symmetric_profile(n)
    for parts in ((n - 2, 2), (n - 3, 2, 1), (n // 2, n - n // 2), (n - 4, 4)):
        if all(p >= 1 for p in parts):
            yield young_profile(parts)
    for m in range(2, n + 1):
        if n % m == 0:
            yield block_group_profile(m, n // m)


@pytest.mark.parametrize("n", range(1, 15))
def test_class_sums_match_mn_oracle_on_catalog_profiles(n):
    for prof in catalog_profiles(n):
        sums = class_sums(n, prof.counts)
        assert list(sums) == list(partitions(n))
        assert sums == mn_class_sums(n, prof.counts), prof.counts


def test_class_sums_accept_unsorted_types():
    n = 7
    counts = symmetric_profile(n).counts
    shuffled = {tuple(reversed(t)): c for t, c in counts.items()}
    assert class_sums(n, shuffled) == class_sums(n, counts)
    # two spellings of one type add up
    split = {(2, 1): 2, (1, 2): 1, (1, 1, 1): 1}
    assert class_sums(3, split) == class_sums(3, {(2, 1): 3, (1, 1, 1): 1})


def test_class_sums_drop_zero_counts():
    assert class_sums(4, {(4,): 0, (1, 1, 1, 1): 1}) == class_sums(4, {(1, 1, 1, 1): 1})
    assert set(class_sums(4, {(4,): 0}).values()) == {0}


def test_class_sums_reject_bad_types():
    with pytest.raises(PreconditionError):
        class_sums(3, {(2, 2): 1})
    with pytest.raises(ValueError):
        class_sums(3, {(3, 0): 1})


def test_class_sums_cache_is_cleared_and_not_shared():
    clear_character_cache()
    counts = {(3,): 2, (1, 1, 1): 1}
    first = class_sums(3, counts)
    first[(3,)] = 99  # a caller's dict is its own
    info = _class_sum_vector.cache_info()
    assert info.currsize == 1
    assert class_sums(3, counts) == {(3,): 3, (2, 1): 0, (1, 1, 1): 3}
    assert _class_sum_vector.cache_info().hits == info.hits + 1
    clear_character_cache()
    assert _class_sum_vector.cache_info().currsize == 0
