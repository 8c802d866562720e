"""Bernoulli numbers by two independent routes, plus their denominators.

Convention: B_1 = -1/2 throughout.  The two routes share no algorithmic
code, which lets each serve as an oracle for the other:

* ``bernoulli_recursive`` is integer-only until the last step.  It builds
  the tangent numbers T_1, T_2, ... by the O(n^2) recurrence of Brent and
  Harvey ("Fast computation of Bernoulli, Tangent and Secant numbers",
  arXiv:1108.0286) and sets B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1)).

* ``bernoulli_egf`` long-divides the power series x by (e^x - 1) in exact
  rationals and reads B_k off as k! times the k-th quotient coefficient.

The tangent memo is kept in two forms: the ``Fraction`` values that
``bernoulli_recursive`` hands out, and the same values as integers over
one common denominator, (L, (L B_0, ..., L B_M)) with L the lcm of the
memo's own denominators.  The second form is private; it lets the closed
form in ``powersum`` build each coefficient with one product.

``vsc_denominator`` is a third, arithmetic-free route to the denominators
alone: by von Staudt-Clausen, for even k the denominator of B_k in lowest
terms is the (square-free) product of all primes p with (p-1) | k.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import primes

__all__ = [
    "BernoulliTable",
    "bernoulli_recursive",
    "bernoulli_egf",
    "vsc_denominator",
    "is_regular",
]


@dataclass(frozen=True)
class BernoulliTable:
    """Immutable table of B_0..B_limit with the route that produced it."""

    limit: int
    values: tuple[Fraction, ...]
    route: str

    def __getitem__(self, k: int) -> Fraction:
        if not 0 <= k <= self.limit:
            raise IndexError(f"index {k} outside table range 0..{self.limit}")
        return self.values[k]


# per-process memo, grown on demand; duplicate extension under a race is
# idempotent, the lock just keeps the growth single-threaded
_lock = threading.Lock()
_recursive_values: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
# column n of the tangent recurrence, entries for stages 1..n; T_n is the last
_tangent_column: list[int] = []
_egf_coeffs: list[Fraction] = [Fraction(1)]  # coefficients of x/(e^x - 1)
# the memo over its common denominator, (L, (L B_0, ..., L B_M)); each growth
# binds a new pair, so no reader sees values scaled by another L
_scaled_values: tuple[int, tuple[int, ...]] = (1, ())


def _extend_recursive(limit: int) -> None:
    # Brent and Harvey sweep their triangle row by row; built column by column,
    #   c_n[1] = (n-1) c_{n-1}[1],  c_n[s] = (n-s) c_{n-1}[s] + (n-s+2) c_n[s-1],
    # with c_{n-1}[n] = 0 and T_n = c_n[n], growing the memo costs the new columns only
    vals, col = _recursive_values, _tangent_column
    while len(vals) <= limit:
        n = len(col) + 1
        new = [(n - 1) * col[0] if col else 1]
        for s, c in zip(range(2, n + 1), [*col[1:], 0]):
            new.append((n - s) * c + (n - s + 2) * new[-1])
        col[:] = new
        four_n = 4**n
        b = Fraction(2 * n * new[-1], four_n * (four_n - 1))
        vals.extend((b if n % 2 else -b, Fraction(0)))  # B_2n, B_2n+1


def _over_common_denominator(
    values: Sequence[Fraction], prefix: tuple[int, tuple[int, ...]] = (1, ())
) -> tuple[int, tuple[int, ...]]:
    """(L, (L b_0, L b_1, ...)) for Fractions b_i, L the lcm of their denominators.

    ``prefix`` is that pair for the first entries of ``values``; they are
    rescaled by the factor L grew by instead of divided out again.
    """
    lcm, done = prefix
    rest = values[len(done) :]
    grown = math.lcm(lcm, *{b.denominator for b in rest})
    if grown != lcm:
        factor = grown // lcm
        done = tuple(a * factor for a in done)
    return grown, done + tuple(b.numerator * (grown // b.denominator) for b in rest)


def _scaled_recursive(limit: int) -> tuple[int, tuple[int, ...]]:
    """The memo over its common denominator, covering at least B_0..B_limit."""
    global _scaled_values
    # grow the memo through the public name, so a wrapper on it sees the call
    bernoulli_recursive(limit)
    pair = _scaled_values
    if len(pair[1]) <= limit:
        with _lock:
            if len(_scaled_values[1]) <= limit:
                _scaled_values = _over_common_denominator(_recursive_values, _scaled_values)
            pair = _scaled_values
    return pair


def _extend_egf(limit: int) -> None:
    # q = x / (e^x - 1) as a truncated series; with d_i = 1/(i+1)! the
    # divisor (e^x - 1)/x has d_0 = 1, so long division reads
    #   q_i = -(d_1 q_{i-1} + ... + d_i q_0)
    q = _egf_coeffs
    if len(q) > limit:
        return
    d = [Fraction(1, math.factorial(j + 1)) for j in range(limit + 1)]
    for i in range(len(q), limit + 1):
        q.append(-sum(d[j] * q[i - j] for j in range(1, i + 1)))


def bernoulli_recursive(limit: int) -> BernoulliTable:
    """Exact table B_0..B_limit from the integer tangent-number recurrence.

    >>> bernoulli_recursive(12)[12] == Fraction(-691, 2730)
    True
    """
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    with _lock:
        _extend_recursive(limit)
        vals = tuple(_recursive_values[: limit + 1])
    return BernoulliTable(limit=limit, values=vals, route="recursive")


def bernoulli_egf(limit: int) -> BernoulliTable:
    """Exact table B_0..B_limit from series division of x by (e^x - 1)."""
    if limit < 0:
        raise ValueError(f"table limit must be >= 0, got {limit}")
    with _lock:
        _extend_egf(limit)
        vals = tuple(math.factorial(k) * _egf_coeffs[k] for k in range(limit + 1))
    return BernoulliTable(limit=limit, values=vals, route="egf")


@lru_cache(maxsize=None)
def vsc_denominator(k: int) -> int:
    """Product of all primes p with (p-1) | k, for even k >= 2.

    Equals the denominator of B_k in lowest terms, and is square-free.
    Needs only the factorization of k, never a Bernoulli table: besides 2,
    the primes are the odd 2m + 1 with m | k/2, settled by table lookup
    below 2^16 (a table of least prime factors, which also factors k) and
    by trial division above.  k must factor within
    ``primes.DEFAULT_FACTOR_BOUND``.
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
