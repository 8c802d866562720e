import itertools
import math
import subprocess
import sys

import pytest

import faulhaber.primes
from faulhaber.primes import (
    DEFAULT_FACTOR_BOUND,
    FactorizationError,
    _least_factors,
    factorize,
    is_prime,
    sieve,
    vsc_primes,
)


def trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def trial_division_least_factor(n):
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


PRIMES_BELOW_2_TO_THE_10 = [d for d in range(2, 1 << 10) if trial_division_is_prime(d)]


def trial_division_factorize(n):
    # reference, no table: try the primes below 2^10, then every odd number,
    # and give up once a divisor past the bound would have to be tried
    divisors = itertools.chain(PRIMES_BELOW_2_TO_THE_10, itertools.count((1 << 10) + 1, 2))
    factors, r = [], n
    for d in divisors:
        if d * d > r:
            if r > 1:
                factors.append((r, 1))
            return tuple(factors)
        if d > DEFAULT_FACTOR_BOUND:
            raise FactorizationError(
                f"{r} has no factor up to the trial-division bound {DEFAULT_FACTOR_BOUND}"
            )
        a = 0
        while r % d == 0:
            r //= d
            a += 1
        if a:
            factors.append((d, a))


def outcome(f, n):
    try:
        return f(n)
    except FactorizationError as exc:
        return f"FactorizationError: {exc}"


def trial_division_divisors(k):
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return set(small) | {k // d for d in small}


def divisor_filter(k):
    # oracle: d + 1 over every divisor d of k, each settled by trial division
    return tuple(sorted(d + 1 for d in trial_division_divisors(k) if trial_division_is_prime(d + 1)))


def test_sieve_boundary():
    ps = sieve(2)
    assert ps == [2]
    assert 2 in ps
    assert 1 not in ps


def test_sieve_count_to_100():
    # oracle: recount by trial division
    expected = sum(1 for n in range(101) if trial_division_is_prime(n))
    assert expected == 25
    assert len(sieve(100)) == 25


def test_sieve_agrees_with_trial_division():
    ps = set(sieve(500))
    for n in range(501):
        assert (n in ps) == trial_division_is_prime(n)


def test_sieve_to_the_filter_table_edge_agrees_with_is_prime():
    # two independent routes: the sieve's own Eratosthenes loop, and trial
    # division (which reads its primes below 2^10 off the least-factor table)
    ps = set(sieve(1 << 16))
    for n in range((1 << 16) + 1):
        assert (n in ps) == is_prime(n)


def test_sieve_rejects_small_limit():
    with pytest.raises(ValueError):
        sieve(1)


def test_is_prime_standalone():
    for n in range(200):
        assert is_prime(n) == trial_division_is_prime(n)


@pytest.mark.parametrize(
    "k,expected",
    [
        (2, (2, 3)),
        (4, (2, 3, 5)),
        (12, (2, 3, 5, 7, 13)),
    ],
)
def test_vsc_primes_known_values(k, expected):
    assert vsc_primes(k) == expected


def test_vsc_primes_matches_the_divisor_filter_across_the_table_edge():
    straddling = [2 * m for m in range(2**15 - 64, 2**15 + 65)]  # candidates 2m + 1 around 2^16
    vsc_primes.cache_clear()
    for k in straddling + [2**17 - 2, 2**17, 2**17 + 2, 2**40, 10**12, 720720000]:
        assert (k, vsc_primes(k)) == (k, divisor_filter(k))


@pytest.mark.parametrize("k", [65530, 65532, 65534, 65536, 65538, 65540])
def test_vsc_primes_settles_by_table_below_2_to_the_16_and_by_is_prime_from_it(monkeypatch, k):
    # the largest candidate is k + 1: below 2^16 every candidate is a table lookup,
    # from 2^16 on the candidates there go to is_prime, largest first
    calls = []

    def recording_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(faulhaber.primes, "is_prime", recording_is_prime)
    vsc_primes.cache_clear()
    assert vsc_primes(k) == divisor_filter(k)
    divisors = trial_division_divisors(k // 2)
    large = sorted((2 * m + 1 for m in divisors if 2 * m + 1 >= 1 << 16), reverse=True)
    assert calls == large
    assert bool(calls) == (k + 1 >= 1 << 16)


def test_vsc_primes_property_up_to_10_to_the_8():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # half the draws smooth, so k/2 has many divisors and p^a runs of several steps
    smooth = st.builds(
        lambda a, b, c, d, e: 2**a * 3**b * 5**c * 7**d * e,
        *(st.integers(0, bound) for bound in (20, 10, 6, 4)),
        st.sampled_from([1, 11, 13, 11 * 13, 17 * 19, 65537]),
    ).filter(lambda m: m <= 5 * 10**7)

    @hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @hypothesis.given(st.one_of(st.integers(min_value=1, max_value=5 * 10**7), smooth))
    def check(m):
        vsc_primes.cache_clear()
        assert vsc_primes(2 * m) == divisor_filter(2 * m)

    check()


def test_import_leaves_the_filter_table_unbuilt(src_env):
    probe = "import faulhaber; print(faulhaber.primes._least_factors.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_vsc_primes_returns_the_same_tuple_on_repeat_calls():
    for _ in range(2):
        ps = vsc_primes(12)
        assert isinstance(ps, tuple)
        assert ps == (2, 3, 5, 7, 13)


def test_vsc_primes_does_not_cache_errors():
    # 2 * 10000000000037, a prime cofactor past the trial-division budget
    for _ in range(2):
        with pytest.raises(FactorizationError):
            vsc_primes(20000000000074)


def test_vsc_primes_raises_before_spending_the_small_candidates(monkeypatch):
    # k = 2^7 3^4 5^2 7^2 11 13 ... 31 has 40320 candidates 2m + 1, and k + 1
    # itself cannot be certified; settled from the bottom, the filter ran
    # is_prime over tens of thousands of candidates (most of a minute) first
    calls = []

    def is_prime_giving_up_after_50(n):
        calls.append(n)
        if len(calls) > 50:
            raise AssertionError("the filter passed more than 50 candidates to is_prime")
        return is_prime(n)

    monkeypatch.setattr(faulhaber.primes, "is_prime", is_prime_giving_up_after_50)
    with pytest.raises(FactorizationError):
        vsc_primes(12129898443062400)
    assert calls


def test_vsc_primes_candidate_bound_admits_up_to_2_to_the_17(monkeypatch):
    # k/2 = the product of the 17 primes up to 59 has 2^17 divisors, one
    # candidate each; one more prime factor doubles that past the bound
    class Settled(Exception):
        pass

    def settled(n):
        raise Settled

    monkeypatch.setattr(faulhaber.primes, "is_prime", settled)
    k = 2 * math.prod(sieve(59))
    with pytest.raises(Settled):
        vsc_primes(k)
    with pytest.raises(FactorizationError, match="262144 candidates .* bounded at 131072 candidates"):
        vsc_primes(61 * k)


def test_vsc_primes_rejects_odd_or_nonpositive():
    for k in (3, 1, 0, -2):
        with pytest.raises(ValueError):
            vsc_primes(k)


def test_factorize_known_values():
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(2730) == ((2, 1), (3, 1), (5, 1), (7, 1), (13, 1))


def test_is_prime_within_the_trial_division_bound():
    assert is_prime(999_999_999_989)  # largest prime below 10^12, under (bound + 1)^2
    with pytest.raises(FactorizationError):
        is_prime(10**13 + 37)  # prime, but past the bound's reach


def test_factorize_rejects_small_input():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_budget_exceeded_is_loud():
    # 1000003 and 1000033 are the first two primes past the bound of 10^6;
    # their product resists it
    with pytest.raises(FactorizationError, match="trial-division bound 1000000"):
        factorize(1000003 * 1000033)


def test_factorize_budget_never_wrong_on_prime_square():
    with pytest.raises(FactorizationError):
        factorize(1000003 * 1000003)


def test_factorize_certifies_large_prime_cofactor():
    # cofactor 1000003 < bound^2, so it is provably prime and reported
    assert factorize(2 * 1000003) == ((2, 1), (1000003, 1))


def test_least_factor_table_matches_trial_division():
    table = _least_factors()
    assert len(table) == 1 << 16
    for c in range(1 << 16):
        least = trial_division_least_factor(c) if c >= 2 else c
        assert (c, table[c]) == (c, least if least < c else 0)


# cofactors that cross 2^16: 2^a times a number near it, and p * q with q the
# primes just below and just above 2^16
CROSSING = sorted(
    {2**a * c for a in range(21) for c in (1, 3, 251, 255, 257, 65519, 65521, 65535, 65537, 65539)}
    | {p * q for p in (2, 3, 251, 257, 1021, 65521) for q in (65519, 65521, 65537, 65539)}
    | set(range(2, 2000))
)[1:]  # from 2 on; 1 = 2^0 * 1


def test_factorize_matches_trial_division_across_the_table_edge():
    for n in CROSSING:
        assert (n, outcome(factorize, n)) == (n, outcome(trial_division_factorize, n))


# an odd part past the budget: each call walks the divisors to 10^6 before it raises
PAST_THE_BUDGET = 1000003 * 1000033


@pytest.mark.parametrize("c", [1, 3, 5**3, 255, 65521, 65535, 65537, 1000003, PAST_THE_BUDGET])
def test_factorize_reads_powers_of_2_up_to_2_to_the_100(c):
    for a in range(101) if c != PAST_THE_BUDGET else (0, 1, 64, 100):
        n = 2**a * c
        if n >= 2:
            assert (n, outcome(factorize, n)) == (n, outcome(trial_division_factorize, n))


def test_is_prime_matches_trial_division_past_the_table_edge():
    for n in range((1 << 16) + 65):
        assert (n, is_prime(n)) == (n, n >= 2 and trial_division_factorize(n) == ((n, 1),))


def test_factorize_property_up_to_10_to_the_10():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(hypothesis.strategies.integers(min_value=2, max_value=10**10))
    def check(n):
        factors = factorize(n)
        assert math.prod(p**a for p, a in factors) == n
        assert [p for p, _ in factors] == sorted({p for p, _ in factors})
        assert all(a >= 1 and is_prime(p) for p, a in factors)

    check()
