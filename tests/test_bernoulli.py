import math
from fractions import Fraction

import pytest

from faulhaber import bernoulli
from faulhaber.bernoulli import (
    bernoulli_egf,
    bernoulli_recursive,
    is_regular,
    vsc_denominator,
)
from faulhaber.powersum import InconsistencyError
from faulhaber.primes import is_prime


def test_sixth_value_both_routes():
    # denominator route confirms: primes with (p-1) | 6 are 2, 3, 7, product 42
    assert bernoulli_recursive(6)[6] == Fraction(1, 42)
    assert bernoulli_egf(6)[6] == Fraction(1, 42)


def test_egf_entry_8():
    assert bernoulli_egf(8)[8] == Fraction(-1, 30)


@pytest.mark.parametrize("dropped", [2, 3, 509])
def test_bernoulli_egf_raises_when_L_lacks_a_prime(monkeypatch, dropped):
    # L short of p is no common denominator once B_(p-1) needs p in its
    # denominator, so a division leaves a remainder there at the latest
    sieve = bernoulli.primes.sieve
    monkeypatch.setattr(bernoulli.primes, "sieve", lambda n: [p for p in sieve(n) if p != dropped])
    with pytest.raises(InconsistencyError, match="remainder"):
        bernoulli_egf(512)


def test_table_indexing_bounds():
    t = bernoulli_recursive(4)
    assert t.limit == 4
    with pytest.raises(IndexError):
        t[5]
    with pytest.raises(IndexError):
        t[-1]


def test_tables_of_the_same_values_are_equal_over_any_common_denominator(fresh_memo):
    # a table cut from the memo carries the memo's L, which grows with the memo
    small = bernoulli_recursive(6)
    bernoulli_recursive(300)
    again = bernoulli_recursive(6)
    assert again.lcm != small.lcm
    assert again == small
    assert hash(again) == hash(small)
    assert again != bernoulli_recursive(7)
    assert again != bernoulli_egf(6)  # another route


@pytest.mark.parametrize("steps", [[512], [6, 64, 65, 300, 512]], ids=["one-shot", "stepwise"])
def test_memo_common_denominator_is_the_lcm_of_the_denominators(fresh_memo, steps):
    # each new B_2n is reduced before L takes its denominator; without that,
    # L grows by the common factors of 2n T_n and 4^n (4^n - 1)
    for limit in steps:
        t = bernoulli_recursive(limit)
        assert bernoulli._scaled_values[0] == math.lcm(*(t[j].denominator for j in range(limit + 1)))


def test_negative_limit_rejected(stop_work):
    # and the first limit past each table's bound, before the table starts
    for limit in (-1, 2049):
        with pytest.raises(ValueError):
            bernoulli_recursive(limit)
    for limit in (-1, 1025):
        with pytest.raises(ValueError):
            bernoulli_egf(limit)


def test_each_table_bound_admits_its_edge(stop_work):
    with pytest.raises(stop_work):
        bernoulli_recursive(2048)
    with pytest.raises(stop_work):
        bernoulli_egf(1024)
    with pytest.raises(stop_work):
        is_regular(2039)  # the largest prime p <= 2048 + 3


@pytest.mark.parametrize("k,expected", [(2, 6), (4, 30), (12, 2730)])
def test_vsc_denominator_known_values(k, expected):
    assert vsc_denominator(k) == expected


def test_vsc_denominator_rejects_odd():
    with pytest.raises(ValueError):
        vsc_denominator(3)
    with pytest.raises(ValueError):
        vsc_denominator(0)


def test_regular_small_primes():
    assert is_regular(5) == (True, ())
    assert is_regular(7) == (True, ())


def test_irregular_37_with_offending_index():
    regular, offending = is_regular(37)
    assert not regular
    assert offending == (32,)
    # verify the witness directly: 37 divides that numerator
    assert bernoulli_recursive(32)[32].numerator % 37 == 0


# OEIS A000928, every irregular prime below 700
IRREGULAR_BELOW_700 = (
    37, 59, 67, 101, 103, 131, 149, 157, 233, 257, 263, 271, 283, 293, 307, 311,
    347, 353, 379, 389, 401, 409, 421, 433, 461, 463, 467, 491, 523, 541, 547,
    557, 577, 587, 593, 607, 613, 617, 619, 631, 647, 653, 659, 673, 677, 683, 691,
)


def test_irregular_primes_below_700():
    found = tuple(p for p in range(5, 700) if is_prime(p) and not is_regular(p)[0])
    assert len(IRREGULAR_BELOW_700) == 47
    assert found == IRREGULAR_BELOW_700


def test_is_regular_rejects_bad_inputs(stop_work):
    with pytest.raises(ValueError):
        is_regular(3)
    with pytest.raises(ValueError):
        is_regular(9)
    with pytest.raises(ValueError):
        is_regular(4)
    with pytest.raises(ValueError, match="p <= 2051"):
        is_regular(2053)  # the first prime past the table's bound


def test_memo_is_safe_under_concurrent_growth():
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=8) as pool:
        tables = list(pool.map(bernoulli_recursive, [150] * 8 + [80] * 8))
    reference = bernoulli_recursive(150)
    for t in tables:
        assert t.values == reference.values[: t.limit + 1]
