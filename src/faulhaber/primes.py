"""The (p-1) | k prime filter, budgeted trial division, and a sieve.

For even k, the primes p with (p-1) | k are exactly the primes in the
denominator of the k-th Bernoulli number (von Staudt-Clausen), and they
drive the fast integrality test.  Besides 2 they are the odd primes
2m + 1 with m | k/2, so the filter factors k once, lists the candidates
2m + 1 over the divisors m of k/2 by one append loop per prime factor
(refusing, before it lists them, a k with more than ``_CANDIDATE_BOUND``),
and settles each one below 2^16 by lookup in a 64 KB table of least prime
factors; larger candidates go to ``is_prime``.  Each k is filtered once
per process: its result is cached as a tuple, and later calls for the
same k return that tuple.  Factoring and primality share one
trial-division walk over the odd numbers from 3, with one fixed budget,
``DEFAULT_FACTOR_BOUND``; ``is_prime`` settles 2 and the even numbers
before it, and reads nothing off the table.  ``factorize`` reads the power
of 2 off the bits of n and the factors of a cofactor below 2^16 straight
off the table.  The table is built on the first call that needs it, never
at import.  ``sieve`` lists the primes up to a limit by its own
Eratosthenes loop, independent of the table: the selftest holds the filter
against it, and the scans over small primes (Kummer regularity, the prime
block sums) take their primes from it.
"""

import math
from functools import cache, lru_cache
from itertools import compress

__all__ = [
    "FactorizationError",
    "sieve",
    "is_prime",
    "vsc_primes",
    "factorize",
    "DEFAULT_FACTOR_BOUND",
]

DEFAULT_FACTOR_BOUND = 10**6

# the filter and factorize settle numbers below this by table lookup (64 KB of least factors)
_TABLE_SIZE = 1 << 16
# every composite below _TABLE_SIZE has a prime factor below this
_TABLE_PRIMES_END = 1 << 8
# the filter holds one int per candidate (a divisor of k/2) at once, and at this
# many the list alone takes about 0.3 s and 7 MB; past it the filter raises before
# it builds the list.  No k below 10^12 has more than 6720
_CANDIDATE_BOUND = 1 << 17


class FactorizationError(Exception):
    """Raised when a cofactor survives the trial-division budget unfactored,
    or when k has more filter candidates than the filter's bound."""


@cache
def _least_factors() -> bytes:
    """Entry c is the least prime factor of a composite c < 2^16, and 0 otherwise."""
    table = bytearray(_TABLE_SIZE)
    for p in reversed(sieve(_TABLE_PRIMES_END - 1)):  # smaller primes overwrite larger ones
        table[p * p :: p] = bytes((p,)) * ((_TABLE_SIZE - 1 - p * p) // p + 1)
    return bytes(table)  # read-only: every filter and factorize call shares it


def sieve(limit: int) -> list[int]:
    """Sieve of Eratosthenes: the primes up to ``limit`` (must be >= 2), ascending.

    >>> sieve(10)
    [2, 3, 5, 7]
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    flags = bytearray([1]) * (limit + 1)  # flags[n] is 1 exactly when n is prime
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes((limit - p * p) // p + 1)
    return list(compress(range(limit + 1), flags))


def _least_factor(n: int, d: int) -> int:
    """Least divisor of odd n that is >= d (odd), given none below d.

    Walks every odd number from d.  Raises ``FactorizationError`` rather
    than try a divisor above ``DEFAULT_FACTOR_BOUND``.
    """
    while d * d <= n:
        if d > DEFAULT_FACTOR_BOUND:
            # no divisor <= the bound, so n > bound^2: composite-or-unknown
            raise FactorizationError(
                f"{n} has no factor up to the trial-division bound {DEFAULT_FACTOR_BOUND}"
            )
        if n % d == 0:
            return d
        d += 2
    return n


def is_prime(n: int) -> bool:
    """Trial-division primality check within ``DEFAULT_FACTOR_BOUND``.

    Exact for n below (bound + 1)^2 and for any n with a factor up to the
    bound; raises ``FactorizationError`` otherwise.  2 and the even numbers
    are settled first; an odd n is walked from 3, with no table.
    """
    if n % 2 == 0:
        return n == 2
    return n > 1 and _least_factor(n, 3) == n


@lru_cache(maxsize=None)
def vsc_primes(k: int) -> tuple[int, ...]:
    """All primes p with (p-1) | k, ascending, for even k >= 2.

    Always contains 2 and 3, and nothing above k + 1.  The first call for
    each k runs the filter: one ``factorize(k)`` gives the number of odd
    candidates 2m + 1 with m | k/2, and past ``_CANDIDATE_BOUND`` of them
    it raises ``FactorizationError`` before it lists any (a k up to twice
    the bound needs no count: k/2 has at most k/2 divisors).  Otherwise it
    lists them, one append loop per prime p of k/2 whose walk reaches the
    entries it appended, so p's higher powers come out of the same loop.
    They are sorted once and settled against the least-factor table (prime
    where the entry is 0).  When the largest, k + 1, is below 2^16, that
    is one forward pass of lookups.  Otherwise they are settled from the
    largest down, the ones from 2^16 on by ``is_prime``, so a candidate
    that ``is_prime`` cannot certify raises before the many small ones are
    spent.  Later calls return the cached tuple.  A k that raises is not
    cached, so it raises again.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer, got {k}")
    factors = factorize(k)
    if k > 2 * _CANDIDATE_BOUND:  # below it, k/2 has at most k/2 <= the bound divisors
        count = 1  # the divisors of k/2
        for p, a in factors:
            count *= a if p == 2 else a + 1
        if count > _CANDIDATE_BOUND:
            raise FactorizationError(
                f"k={k} has {count} candidates 2m + 1 (m | k/2), and the prime filter"
                f" is bounded at {_CANDIDATE_BOUND} candidates"
            )
    candidates = [3]  # 2m + 1 over the divisors m of k/2: factorize(k) with one 2 taken out
    append = candidates.append
    for p, a in factors:
        # one walk per prime reaches what it appends: entry i + len * j is entry i times p^j
        stop = len(candidates) * (a - 1 if p == 2 else a)
        i = 0
        while i < stop:
            append((candidates[i] - 1) * p + 1)  # m -> m * p
            i += 1
    candidates.sort()
    table = _least_factors()
    if k + 1 < _TABLE_SIZE:  # k + 1 is the largest candidate, so all are looked up
        return (2, *[c for c in candidates if not table[c]])
    found = [c for c in reversed(candidates) if (not table[c] if c < _TABLE_SIZE else is_prime(c))]
    found.reverse()
    return (2, *found)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 2 by trial division within the one budget ``DEFAULT_FACTOR_BOUND``.

    Returns the (prime, exponent) pairs, primes ascending.  The power of 2
    is read off the bits of n, and the odd cofactor is walked from 3: by
    table lookup below 2^16, by trial division above.  Raises
    ``FactorizationError`` once a cofactor cannot be certified within the
    budget -- never returns a wrong or partial answer.

    >>> factorize(12)
    ((2, 2), (3, 1))
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    a = (n & -n).bit_length() - 1  # the power of 2, off the bits
    factors: list[tuple[int, int]] = [(2, a)] if a else []
    table = _least_factors()
    r = n >> a
    d = 3
    while r > 1:
        d = (table[r] or r) if r < _TABLE_SIZE else _least_factor(r, d)
        a = 0
        while r % d == 0:
            r //= d
            a += 1
        factors.append((d, a))
    return tuple(factors)
