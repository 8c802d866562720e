"""Bernoulli numbers by two independent routes, plus their denominators.

Convention: B_1 = -1/2 throughout.  The two routes share no algorithmic
code, which lets each serve as an oracle for the other:

* ``bernoulli_recursive`` is integer-only.  It builds the tangent numbers
  T_1, T_2, ... by the O(n^2) recurrence of Brent and Harvey ("Fast
  computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286)
  and sets B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)) as an int numerator
  and denominator, reduced by one gcd.

* ``bernoulli_egf`` long-divides the power series x by (e^x - 1) in exact
  rationals and reads B_k off as k! times the k-th quotient coefficient.

A ``BernoulliTable`` keeps B_0..B_limit in one form, as integers over one
common denominator, (L, (L B_0, ..., L B_limit)); ``t[k]`` and
``t.values`` hand out ``Fraction`` values, and the closed form in
``powersum`` reads the integers, so each of its coefficients is one
product.  ``bernoulli_recursive`` cuts its tables from a per-process memo
in that form: the last tangent column, and one such pair with L the lcm of
the memo's own denominators, both grown together under one lock.
``bernoulli_egf`` is an oracle and keeps no memo; it divides its series
afresh on each call.

``vsc_denominator`` is a third, arithmetic-free route to the denominators
alone: by von Staudt-Clausen, for even k the denominator of B_k in lowest
terms is the (square-free) product of all primes p with (p-1) | k.
"""

import math
import threading
from functools import lru_cache

# fractions (and the decimal and numbers it pulls in) is imported where a
# Fraction is built: by t[k], t.values and the series route; the memo grows in
# ints, so building it and summing over it never load fractions
from . import primes

__all__ = [
    "BernoulliTable",
    "bernoulli_recursive",
    "bernoulli_egf",
    "vsc_denominator",
    "is_regular",
]


class BernoulliTable:
    """Immutable table of B_0..B_limit with the route that produced it.

    The values are kept as integers over one common denominator:
    ``scaled[k]`` is ``lcm * B_k``.  ``lcm`` is a multiple of the lcm of
    the denominators of B_0..B_limit; a table cut from a longer memo
    carries the memo's.  Tables compare and hash by limit, route and
    values, whatever their ``lcm``.
    """

    __slots__ = ("limit", "lcm", "scaled", "route")
    limit: int
    lcm: int
    scaled: tuple[int, ...]
    route: str

    def __init__(self, limit: int, lcm: int, scaled: tuple[int, ...], route: str) -> None:
        # set once here, past the guard of ``__setattr__``
        init = object.__setattr__
        init(self, "limit", limit)
        init(self, "lcm", lcm)
        init(self, "scaled", scaled)
        init(self, "route", route)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through ``__init__``, not by setting slots
        return BernoulliTable, (self.limit, self.lcm, self.scaled, self.route)

    def __repr__(self) -> str:
        return (
            f"BernoulliTable(limit={self.limit!r}, lcm={self.lcm!r},"
            f" scaled={self.scaled!r}, route={self.route!r})"
        )

    def __getitem__(self, k: int) -> "Fraction":
        if not 0 <= k <= self.limit:
            raise IndexError(f"index {k} outside table range 0..{self.limit}")
        from fractions import Fraction

        return Fraction(self.scaled[k], self.lcm)

    @property
    def values(self) -> "tuple[Fraction, ...]":
        """B_0..B_limit as ``Fraction`` values in lowest terms."""
        from fractions import Fraction

        return tuple(Fraction(a, self.lcm) for a in self.scaled)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BernoulliTable):
            return NotImplemented
        return (self.limit, self.route, self.values) == (other.limit, other.route, other.values)

    def __hash__(self) -> int:
        return hash((self.limit, self.route, self.values))


# per-process memo, grown on demand under the lock: column n of the tangent
# recurrence (entries for stages 1..n, T_n the last), and B_0..B_{2n+1} over
# their common denominator as (L, (L B_0, ..., L B_{2n+1})); each growth binds
# a new pair, so no reader sees values scaled by another L
_lock = threading.Lock()
_tangent_column: list[int] = []
_scaled_values: tuple[int, tuple[int, ...]] = (2, (2, -1))  # B_0 = 1, B_1 = -1/2


def _extend_recursive(limit: int) -> None:
    # Brent and Harvey sweep their triangle row by row; built column by column,
    #   c_n[1] = (n-1) c_{n-1}[1],  c_n[s] = (n-s) c_{n-1}[s] + (n-s+2) c_n[s-1],
    # with c_{n-1}[n] = 0 and T_n = c_n[n], growing the memo costs the new columns only
    global _tangent_column, _scaled_values
    col, added = _tangent_column, []  # each new B_2n as (numerator, denominator)
    while 2 * len(col) + 1 < limit:
        n = len(col) + 1
        new = [(n - 1) * col[0] if col else 1]
        for s, c in zip(range(2, n + 1), [*col[1:], 0]):
            new.append((n - s) * c + (n - s + 2) * new[-1])
        col = new
        four_n = 4**n
        num, den = 2 * n * new[-1], four_n * (four_n - 1)
        # in lowest terms, so the memo's L stays the lcm of the true denominators
        g = math.gcd(num, den)
        added.append(((num if n % 2 else -num) // g, den // g))
    if not added:
        return
    # L grows to the lcm of the new denominators; the old entries are rescaled
    # by the factor it grew by, and each B_2n is followed by B_2n+1 = 0
    lcm, done = _scaled_values
    grown = math.lcm(lcm, *(den for _, den in added))
    if grown != lcm:
        done = tuple(a * (grown // lcm) for a in done)
    done += tuple(x for num, den in added for x in (num * (grown // den), 0))
    _tangent_column, _scaled_values = col, (grown, done)


def bernoulli_recursive(limit: int) -> BernoulliTable:
    """Exact table B_0..B_limit from the integer tangent-number recurrence.

    >>> from fractions import Fraction
    >>> bernoulli_recursive(12)[12] == Fraction(-691, 2730)
    True
    """
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    with _lock:
        _extend_recursive(limit)
        lcm, scaled = _scaled_values
    return BernoulliTable(limit=limit, lcm=lcm, scaled=scaled[: limit + 1], route="recursive")


def bernoulli_egf(limit: int) -> BernoulliTable:
    """Exact table B_0..B_limit from series division of x by (e^x - 1)."""
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    from fractions import Fraction

    # q = x / (e^x - 1) as a truncated series; with d_i = 1/(i+1)! the
    # divisor (e^x - 1)/x has d_0 = 1, so long division reads
    #   q_i = -(d_1 q_{i-1} + ... + d_i q_0)
    d = [Fraction(1, math.factorial(j + 1)) for j in range(limit + 1)]
    q = [Fraction(1)]
    for i in range(1, limit + 1):
        q.append(-sum(d[j] * q[i - j] for j in range(1, i + 1)))
    b = [math.factorial(k) * c for k, c in enumerate(q)]
    lcm = math.lcm(*(c.denominator for c in b))
    scaled = tuple(c.numerator * (lcm // c.denominator) for c in b)
    return BernoulliTable(limit=limit, lcm=lcm, scaled=scaled, route="egf")


@lru_cache(maxsize=None)
def vsc_denominator(k: int) -> int:
    """Product of all primes p with (p-1) | k, for even k >= 2.

    Equals the denominator of B_k in lowest terms, and is square-free.
    Needs only the factorization of k, never a Bernoulli table: besides 2,
    the primes are the odd 2m + 1 with m | k/2, settled by table lookup
    below 2^16 (a table of least prime factors, which also factors k; for
    k + 1 below 2^16 every candidate is a lookup) and by trial division
    above.  k must factor within ``primes.DEFAULT_FACTOR_BOUND``.
    A miss multiplies the primes of ``primes.vsc_primes``, which filters
    each k once per process.
    """
    return math.prod(primes.vsc_primes(k))


def is_regular(p: int) -> tuple[bool, tuple[int, ...]]:
    """Kummer regularity of an odd prime p >= 5.

    Returns ``(True, ())`` when p divides none of the numerators of
    B_2, B_4, ..., B_{p-3}, else ``(False, offending_indices)``.
    """
    if p < 5 or not primes.is_prime(p):
        raise ValueError(f"regularity is defined for primes >= 5, got {p}")
    table = bernoulli_recursive(p - 3)
    offending = tuple(k for k in range(2, p - 2, 2) if table[k].numerator % p == 0)
    return (not offending, offending)
