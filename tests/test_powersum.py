from fractions import Fraction

import pytest

from faulhaber.bernoulli import BernoulliTable, bernoulli_recursive
from faulhaber.powersum import (
    Average,
    InconsistencyError,
    PowerSumQuery,
    mu,
    s_brute,
    s_faulhaber,
    s_mod,
    s_recursive,
)


def test_brute_small_cases():
    assert s_brute(PowerSumQuery(k=2, n=4)) == 30
    assert s_brute(PowerSumQuery(k=1, n=100)) == 5050
    assert s_brute(PowerSumQuery(k=3, n=3)) == 36


def test_faulhaber_small_cases():
    assert s_faulhaber(PowerSumQuery(k=2, n=4)) == 30
    assert s_faulhaber(PowerSumQuery(k=4, n=2)) == 17
    assert s_faulhaber(PowerSumQuery(k=1, n=10)) == 55


def test_faulhaber_accepts_wider_table():
    table = bernoulli_recursive(12)
    assert s_faulhaber(PowerSumQuery(k=2, n=4), table) == 30


def test_faulhaber_rejects_short_table():
    table = bernoulli_recursive(3)
    with pytest.raises(ValueError):
        s_faulhaber(PowerSumQuery(k=5, n=2), table)


def test_recursive_route():
    assert s_recursive(1, 4) == [10]
    assert s_recursive(2, 4) == [10, 30]
    assert s_recursive(4, 1) == [1, 1, 1, 1]


def test_mod_small_cases():
    assert s_mod(PowerSumQuery(k=2, n=4), 4) == 2  # 30 mod 4
    assert s_mod(PowerSumQuery(k=3, n=6), 6) == 3  # 441 mod 6
    assert s_mod(PowerSumQuery(k=2, n=5), 5) == 0  # 55 mod 5


def test_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        s_mod(PowerSumQuery(k=2, n=4), 0)


def test_mu_small_cases():
    assert mu(PowerSumQuery(k=1, n=3)) == Average(value=Fraction(2), integral=True)
    assert mu(PowerSumQuery(k=3, n=2)) == Average(value=Fraction(9, 2), integral=False)
    assert mu(PowerSumQuery(k=2, n=5)) == Average(value=Fraction(11), integral=True)


def test_query_validation_is_shared():
    with pytest.raises(ValueError):
        PowerSumQuery(k=0, n=5)
    with pytest.raises(ValueError):
        PowerSumQuery(k=2, n=0)
    with pytest.raises(ValueError):
        s_recursive(0, 5)
    with pytest.raises(ValueError):
        s_recursive(3, -1)


def test_query_is_frozen():
    q = PowerSumQuery(k=2, n=4)
    with pytest.raises(AttributeError):
        q.k = 3


def test_faulhaber_inconsistency_is_loud():
    # a corrupted table must trip the exactness check, not return garbage
    good = bernoulli_recursive(4)
    bad = BernoulliTable(
        limit=4,
        values=good.values[:2] + (Fraction(1, 7),) + good.values[3:],
        route="recursive",
    )
    with pytest.raises(InconsistencyError):
        s_faulhaber(PowerSumQuery(k=4, n=5), bad)
