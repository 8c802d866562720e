"""Answer checks that share no code with the library paths being timed.

* decisions: the prime set {d+1 prime : d | k} from sympy's ``divisors`` and
  ``isprime`` (the library sieves to k+1 instead), the residue rules for odd
  k, and every witness prime checked for primality, for dividing n and for
  (p-1) | k;
* Bernoulli numbers: ``sympy.bernoulli`` (sympy >= 1.12 uses B_1 = +1/2, so
  index 1 is special-cased to the library's -1/2 convention);
* power sums: S_k(n) mod p by periodicity, since m^k mod p has period p in m.

Each ``check_*`` returns ``None`` for a correct answer and a reason otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

CHECK_PRIMES = (101, 103, 107)


@lru_cache(maxsize=None)
def vsc_prime_set(k: int) -> tuple[int, ...]:
    """Primes p with (p-1) | k, from the divisors of k."""
    return tuple(sorted(d + 1 for d in sympy.divisors(k) if sympy.isprime(d + 1)))


def expected_verdict(k: int, n: int) -> tuple[bool, str, tuple[int, ...], int | None]:
    if k == 1:
        return (n % 2 == 1, "k=1", (), None if n % 2 else 0)
    if k % 2:
        return (n % 4 != 2, "odd-k", (), 2 if n % 4 == 2 else None)
    witness = tuple(p for p in vsc_prime_set(k) if n % p == 0)
    return (not witness, "even-k", witness, None)


def check_decide(k: int, n: int, answer) -> str | None:
    integral, rule, witness, residue = answer
    for p in witness:
        if not (sympy.isprime(p) and n % p == 0 and k % (p - 1) == 0):
            return f"decide({k}, {n}): witness {p} is not a prime p | n with (p-1) | k"
    expected = expected_verdict(k, n)
    if (integral, rule, tuple(witness), residue) != expected:
        return f"decide({k}, {n}) gave {answer}, expected {list(expected)}"
    return None


@lru_cache(maxsize=None)
def bernoulli_value(k: int) -> Fraction:
    if k == 1:
        return Fraction(-1, 2)
    b = sympy.bernoulli(k)
    return Fraction(int(b.p), int(b.q))


def check_bernoulli(k: int, answer) -> str | None:
    if Fraction(answer) != bernoulli_value(k):
        return f"B_{k} gave {answer}"
    return None


@lru_cache(maxsize=None)
def _block_sum(k: int, p: int) -> int:
    return sum(pow(m, k, p) for m in range(1, p + 1)) % p


def power_sum_mod(k: int, n: int, p: int) -> int:
    """S_k(n) mod p from one period of m^k mod p."""
    head = sum(pow(m, k, p) for m in range(1, n % p + 1))
    return ((n // p) * _block_sum(k, p) + head) % p


def check_mu(k: int, n: int, answer) -> str | None:
    value, integral = Fraction(answer[0]), answer[1]
    s = value * n
    if s.denominator != 1 or integral != (value.denominator == 1):
        return f"mu({k}, {n}) gave {answer}"
    for p in CHECK_PRIMES:
        if s.numerator % p != power_sum_mod(k, n, p):
            return f"mu({k}, {n}) gave {answer}: n*mu differs from S_k(n) mod {p}"
    return None


def check_s_recursive(kmax: int, n: int, answer) -> str | None:
    if len(answer) != kmax or answer[0] != n * (n + 1) // 2:
        return f"s_recursive({kmax}, {n}) gave the wrong length or S_1"
    for k, s in enumerate(answer, start=1):
        for p in CHECK_PRIMES[:2]:
            if s % p != power_sum_mod(k, n, p):
                return f"s_recursive({kmax}, {n}): S_{k} differs mod {p}"
    return None


def check(op: list, answer) -> str | None:
    """Check one session answer; errors and unknown kinds are failures."""
    if isinstance(answer, dict):
        return f"{op[0]} raised {answer['error']}"
    kind, *args = op
    if kind == "decide":
        return check_decide(*args, answer)
    if kind in ("bern", "bern_table", "egf_table"):
        return check_bernoulli(args[0], answer)
    if kind == "mu":
        return check_mu(*args, answer)
    if kind == "s_recursive":
        return check_s_recursive(*args, answer)
    return f"no oracle for {kind}"
