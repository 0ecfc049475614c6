import gc
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import pytest
from conftest import SIGN_MUTATION, WEIGHT_MUTATION, engine_mutant

from hsplab import characters
from hsplab.characters import (
    _class_sum_vector,
    _engine,
    class_sums,
    clear_character_cache,
    dimension,
    orthogonality_check,
    partitions,
)
from hsplab.checks import mn_character
from hsplab.errors import InvariantError, PreconditionError
from hsplab.lab import block_group_profile, product_profile, symmetric_profile, young_profile
from hsplab.profile import ClassProfile, sn_class_size


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


def conjugate(lam):
    """The transposed partition: its i-th part counts the parts of lam above i."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def class_sign(mu) -> int:
    """Sign of the S_n class with cycle type mu: (-1)^(n - #parts)."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


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


def descending_parts(n: int, max_part: int):
    """Oracle: the recursive generator partitions() used before ZS1."""
    if n == 0:
        yield ()
        return
    for first in range(min(max_part, n), 0, -1):
        for rest in descending_parts(n - first, first):
            yield (first,) + rest


def hook_dimension(lam) -> int:
    """Oracle: the hook length formula, one hook per cell."""
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return math.factorial(sum(lam)) // hooks


@pytest.mark.parametrize("n", range(1, 31))
def test_partitions_match_the_recursive_oracle(n):
    assert partitions(n) == tuple(descending_parts(n, n))


@pytest.mark.parametrize("n", range(1, 21))
def test_bead_dimension_matches_the_hook_length_oracle(n):
    for lam in partitions(n):
        assert dimension(lam) == hook_dimension(lam), lam


def test_dimension_rejects_a_non_partition():
    with pytest.raises(ValueError):
        dimension((1, 2))
    with pytest.raises(ValueError):
        dimension((2, 0))


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


def test_clear_character_cache_empties_the_oracle_cache():
    from hsplab.checks import _mn

    mn_character((2, 1), (3,))
    assert _mn.cache_info().currsize
    clear_character_cache()
    assert _mn.cache_info().currsize == 0


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

    # dimension memoizes each row's rest; threads filling it at once, from
    # the largest degree down, must agree with the hook-length oracle
    lams = [lam for n in range(24, 14, -1) for lam in partitions(n)[::7]]
    characters._dimension.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(dimension, lams))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [hook_dimension(lam) for lam in lams]


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
        oracle = mn_class_sums(n, prof.counts)
        sums = class_sums(ClassProfile(n, prof.counts))
        assert list(sums) == list(partitions(n))
        assert sums == oracle, prof.counts
        # the factored route (h_a edges for Young and symmetric profiles)
        assert class_sums(prof) == oracle, prof.factors


def compositions(n):
    """Every composition of n (one per set of cut points among n - 1),
    grouped by the partition it rearranges."""
    groups: dict = {}
    for cuts in range(1 << (n - 1)):
        comp, part = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                comp.append(part)
                part = 0
            part += 1
        comp = tuple(comp + [part])
        groups.setdefault(tuple(sorted(comp, reverse=True)), []).append(comp)
    return groups.items()


@pytest.mark.parametrize("n", range(1, 13))
def test_factored_route_equals_the_census_route_on_every_composition(n):
    for alpha, comps in compositions(n):
        prof = young_profile(alpha)
        census = _engine(n, ((n, tuple(prof.counts.items())),))
        assert class_sums(prof) == dict(zip(partitions(n), census))
        for comp in comps:  # the engine in the composition's own factor order
            assert _engine(n, comp) == census, comp
        # Young's rule: v(lam) = |S_alpha| K_{lam,alpha}, so v is supported on
        # the shapes that dominate alpha, with v(alpha) = |S_alpha|
        assert dict(zip(partitions(n), census))[alpha] == prof.order


@pytest.mark.parametrize("m, r", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1)])
@pytest.mark.parametrize("alpha", [(1,), (2,), (2, 1), (3,), (1, 1)])
def test_factored_route_on_young_times_block_products(alpha, m, r):
    prof = product_profile(young_profile(alpha), block_group_profile(m, r))
    n = prof.degree
    assert len(prof.factors) == len(alpha) + 1
    # block:mx1 is S_m itself; a block group with r > 1 is a census factor
    assert prof.factors[-1] == m if r == 1 else prof.factors[-1].factors is None
    factored = class_sums(prof)
    assert factored == class_sums(ClassProfile(n, prof.counts)) == mn_class_sums(n, prof.counts)
    # the other order: a census factor above the S_a factors
    flipped = product_profile(block_group_profile(m, r), young_profile(alpha))
    assert class_sums(flipped) == factored


def test_class_sums_reject_factors_of_the_wrong_degree():
    prof = young_profile((2, 1))
    with pytest.raises(PreconditionError):
        class_sums(ClassProfile(3, prof.counts, (2, 2)))


# The engine's recursive closures (value, and _type_dag's intern) would each
# hold themselves, and with them the memo, until the cyclic GC ran.
@pytest.mark.parametrize("make", [lambda: block_group_profile(5, 3), lambda: young_profile((6, 3))],
                         ids=["census", "young"])
def test_class_sums_leave_no_reference_cycle(make):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        prof = make()
        clear_character_cache()
        gc.collect()
        class_sums(prof)
        assert gc.collect() == 0
    finally:
        clear_character_cache()
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the certificate: column orthogonality, checked before a vector is cached
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_cache():
    clear_character_cache()
    yield
    clear_character_cache()


@pytest.mark.parametrize("mutation, prof", [
    (SIGN_MUTATION, block_group_profile(3, 2)),
    (SIGN_MUTATION, block_group_profile(5, 3)),
    (SIGN_MUTATION, ClassProfile(6, symmetric_profile(6).counts)),  # as a census
    (WEIGHT_MUTATION, young_profile((3, 2))),
    (WEIGHT_MUTATION, young_profile((4, 3, 2))),
    (WEIGHT_MUTATION, symmetric_profile(7)),
], ids=["sign-block3x2", "sign-block5x3", "sign-s6", "weight-young3+2",
        "weight-young4+3+2", "weight-s7"])
def test_certificate_catches_a_mutated_engine(mutation, prof, fresh_cache, monkeypatch):
    name = mutation[0]
    n = prof.degree
    key = (n, tuple(prof.counts.items()))
    factors = (key,) if prof.factors is None else prof.factors
    honest = _engine(n, factors)
    monkeypatch.setattr(characters, name, engine_mutant(*mutation))
    assert characters._engine(n, factors) != honest  # the mutation shows
    with pytest.raises(InvariantError, match=r"class-sum certificate \([ab]\)"):
        class_sums(prof)
    assert _class_sum_vector.cache_info().currsize == 0  # nothing wrong was kept
    monkeypatch.undo()
    assert class_sums(prof) == dict(zip(partitions(n), honest))


def test_certificate_holds_for_any_counts():
    # not subgroup censuses: column orthogonality holds all the same
    for n, counts in ((3, {(1, 1, 1): 2}), (3, {(1, 1, 1): 1, (2, 1): 5}),
                      (5, {(3, 2): 7, (5,): -2}), (4, {(2, 2): 1})):
        assert class_sums(ClassProfile(n, counts)) == mn_class_sums(n, counts)


# The profile constructor makes a census canonical; class_sums reads its
# items as they stand.


def test_class_sums_accept_unsorted_types():
    n = 7
    counts = symmetric_profile(n).counts
    shuffled = ClassProfile(n, {tuple(reversed(t)): c for t, c in reversed(counts.items())})
    assert shuffled == ClassProfile(n, counts)
    assert list(shuffled.counts) == list(partitions(n))  # types descending
    assert class_sums(shuffled) == class_sums(ClassProfile(n, counts))
    # two spellings of one type add up
    split = ClassProfile(3, {(1, 2): 1, (2, 1): 2, (1, 1, 1): 1})
    assert split.counts == {(2, 1): 3, (1, 1, 1): 1}
    assert class_sums(split) == class_sums(ClassProfile(3, {(2, 1): 3, (1, 1, 1): 1}))


def test_class_sums_drop_zero_counts():
    prof = ClassProfile(4, {(4,): 0, (1, 1, 1, 1): 1})
    identity = ClassProfile(4, {(1, 1, 1, 1): 1})
    assert prof == identity
    assert class_sums(prof) == class_sums(identity)
    # a negative count is kept, and spellings that cancel drop out
    assert ClassProfile(3, {(3,): -1, (2, 1): 1, (1, 2): -1}).counts == {(3,): -1}
    assert set(class_sums(ClassProfile(4, {(4,): 0})).values()) == {0}


def test_class_sums_reject_bad_types():
    with pytest.raises(PreconditionError):
        ClassProfile(3, {(2, 2): 1})
    with pytest.raises(ValueError):
        ClassProfile(3, {(3, 0): 1})
    with pytest.raises(ValueError):
        ClassProfile(3, {(1, 3, -1): 1})


def test_equal_censuses_build_one_profile_and_one_cache_entry():
    clear_character_cache()
    plain = block_group_profile(3, 2)
    assert plain.counts == {(3, 3): 2, (2, 2, 1, 1): 3, (1,) * 6: 1}
    # parts in another order, one type in two spellings, and a zero count
    other = ClassProfile(6, {(1,) * 6: 1, (1, 2, 1, 2): 1, (2, 1, 2, 1): 2, (5, 1): 0, (3, 3): 2})
    assert other == plain and list(other.counts.items()) == list(plain.counts.items())
    class_sums(plain)
    class_sums(other)
    info = _class_sum_vector.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_profile_replace_stays_canonical():
    prof = ClassProfile(3, {(1, 1, 1): 1})
    assert prof._replace(counts={(1, 2): 1, (1, 1, 1): 1}).counts == {(2, 1): 1, (1, 1, 1): 1}
    with pytest.raises(PreconditionError):
        prof._replace(degree=4)


def test_class_sums_cache_is_cleared_and_not_shared():
    clear_character_cache()
    prof = ClassProfile(3, {(3,): 2, (1, 1, 1): 1})
    first = class_sums(prof)
    first[(3,)] = 99  # a caller's dict is its own
    info = _class_sum_vector.cache_info()
    assert info.currsize == 1
    assert class_sums(prof) == {(3,): 3, (2, 1): 0, (1, 1, 1): 3}
    assert _class_sum_vector.cache_info().hits == info.hits + 1
    clear_character_cache()
    assert _class_sum_vector.cache_info().currsize == 0
