"""Runnable invariant suite: every library-level property, at full ranges.

Each group raises ``InvariantViolation`` naming the first counterexample.
One line per group: the route it pins, then the oracle it is held to.

* vsc-divisors-vs-sieve    ``vsc_primes`` vs a sieve filtered by (p-1) | k, even k <= 5000;
                           two independent routes: the filter factors k and looks its
                           candidates up in the least-factor table, the sieve runs its
                           own Eratosthenes loop (the tests hold the table to trial division)
* factorize-roundtrip      ``factorize`` vs multiplying the factors back, n <= 10^4
* route-equivalence        ``bernoulli_recursive`` (tangent numbers) vs ``bernoulli_egf``, B_0..B_256,
                           and both vs zero at odd indices 3..255
* vsc-consistency          reduced denominators of B_k vs ``vsc_denominator``, even k <= 60,
                           each square-free by ``factorize``
* irregular-scan           ``is_regular`` vs the known irregular primes 37, 59, 67 below 100,
                           each with a nonempty offending tuple
* three-route-agreement    ``s_brute`` vs ``s_faulhaber`` vs ``s_recursive``, k <= 12, n <= 60;
                           ``s_faulhaber`` both over a ``bernoulli_egf`` table and over
                           the Bernoulli memo
* modular-consistency      ``s_mod`` vs ``s_brute`` reduced mod m, k <= 8, n <= 40, m <= 30
* closed-form-spot         ``mu`` vs the closed forms at k = 1, 2, 3 and 4, n <= 30
* theorem-vs-oracle        ``decide`` vs the ``s_recursive`` residue and ``mu``, k <= 30, n <= 500;
                           the witness vs the reduced denominator of ``mu``: the product
                           of the witness primes at even k, 2 for an odd-k "no", else 1
* block-sum-residues       ``prime_block_sum`` vs p-1 or 0 by (p-1) | k, p <= 47, k <= 50;
                           its lift, ``s_mod`` at n = p^a vs 0 when (p-1) does not divide k,
                           p in {3, 5}, a in {2, 3}, k <= 20
* residue-prediction       ``predict_residue`` vs the ``s_mod`` residue and ``factorize``'s
                           exponent, n <= 200, even k <= 12
"""

import math
import time
from collections.abc import Callable

from . import bernoulli, integrality, powersum, primes
from .powersum import PowerSumQuery, _Record, _tuple_new

__all__ = ["InvariantViolation", "GroupResult", "GROUPS", "run_groups"]


class InvariantViolation(Exception):
    """An invariant group failed; the message carries the counterexample."""


class GroupResult(_Record):
    """One group's outcome: its name, whether it passed, the counterexample
    when it did not, and its wall time in seconds."""

    __slots__ = ()

    def __new__(cls, name: str, passed: bool, detail: str, elapsed: float):
        return _tuple_new(cls, (name, passed, detail, elapsed))


# --- primes -----------------------------------------------------------


def _vsc_divisors_vs_sieve() -> None:
    top = 5000
    sieved = primes.sieve(top + 1)
    for k in range(2, top + 1, 2):
        want = tuple(p for p in sieved if p <= k + 1 and k % (p - 1) == 0)
        got = tuple(primes.vsc_primes(k))  # compared by value, not by sequence type
        if got != want:
            raise InvariantViolation(f"divisor filter for k={k} gives {got}, the sieve {want}")


def _factorize_roundtrip() -> None:
    top = 10**4
    for n in range(2, top + 1):
        f = primes.factorize(n)
        value = math.prod(p**a for p, a in f)
        if value != n:
            raise InvariantViolation(f"factorization of {n} reassembles to {value}")
        ps = [p for p, _ in f]
        if ps != sorted(set(ps)):
            raise InvariantViolation(f"factor list for {n} not strictly ascending: {ps}")
        if any(a < 1 for _, a in f):
            raise InvariantViolation(f"factorization of {n} carries an exponent below 1: {f}")


# --- bernoulli --------------------------------------------------------


def _route_equivalence() -> None:
    top = 256
    rec = bernoulli.bernoulli_recursive(top)
    egf = bernoulli.bernoulli_egf(top)
    if (rec.route, egf.route) != ("recursive", "egf"):
        raise InvariantViolation(f"tables labelled {rec.route!r} and {egf.route!r}, expected 'recursive' and 'egf'")
    for k in range(top + 1):
        if rec[k] != egf[k]:
            raise InvariantViolation(f"routes disagree at index {k}: {rec[k]} vs {egf[k]}")
        if k >= 3 and k % 2 and rec[k] != 0:  # the routes agree here, so one stands for both
            raise InvariantViolation(f"odd-index value B_{k} is nonzero: {rec[k]}")


def _vsc_consistency() -> None:
    top = 60
    table = bernoulli.bernoulli_recursive(top)
    for k in range(2, top + 1, 2):
        d = bernoulli.vsc_denominator(k)
        if table[k].denominator != d:
            raise InvariantViolation(f"denominator of B_{k} is {table[k].denominator}, prime product {d}")
        f = primes.factorize(d)
        if any(a != 1 for _, a in f) or math.prod(p for p, _ in f) != d:
            raise InvariantViolation(f"denominator {d} of B_{k} is not square-free: {f}")


def _irregular_scan() -> None:
    top, expected = 100, {37, 59, 67}
    found = set()
    for p in primes.sieve(top - 1):
        if p < 5:
            continue
        regular, offending = bernoulli.is_regular(p)
        if not regular:
            found.add(p)
            if not offending:
                raise InvariantViolation(f"irregular prime {p} names no offending numerator index")
    if found != expected:
        raise InvariantViolation(f"irregular primes below {top}: {sorted(found)}, expected {sorted(expected)}")


# --- power sums -------------------------------------------------------


def _three_route_agreement() -> None:
    ktop, ntop = 12, 60
    table = bernoulli.bernoulli_egf(ktop)  # the oracle's table, independent of the memo
    for n in range(1, ntop + 1):
        rec = powersum.s_recursive(ktop, n)
        for k in range(1, ktop + 1):
            q = PowerSumQuery(k=k, n=n)
            b = powersum.s_brute(q)
            f = powersum.s_faulhaber(q, table)
            m = powersum.s_faulhaber(q)  # over the memo
            if not (b == f == m == rec[k - 1]):
                raise InvariantViolation(f"routes disagree at k={k}, n={n}: {b}, {f}, {m}, {rec[k - 1]}")


def _modular_consistency() -> None:
    ktop, ntop, mtop = 8, 40, 30
    for k in range(1, ktop + 1):
        for n in range(1, ntop + 1):
            q = PowerSumQuery(k=k, n=n)
            exact = powersum.s_brute(q)
            for m in range(2, mtop + 1):
                if powersum.s_mod(q, m) != exact % m:
                    raise InvariantViolation(f"modular sum wrong at k={k}, n={n}, m={m}")


def _closed_form_spot() -> None:
    ntop = 30
    for n in range(1, ntop + 1):
        # k -> (c, c mu_k(n)), each c mu_k(n) an integer polynomial in n
        forms = {
            1: (2, n + 1),
            2: (6, (n + 1) * (2 * n + 1)),
            3: (4, n * (n + 1) ** 2),
            4: (30, (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1)),
        }
        for k, (c, want) in forms.items():
            if powersum.mu(PowerSumQuery(k=k, n=n)).value * c != want:
                raise InvariantViolation(f"closed form of the average fails at k={k}, n={n}")


# --- integrality ------------------------------------------------------


def _theorem_vs_oracle() -> None:
    ktop, ntop = 30, 500
    for n in range(1, ntop + 1):
        sums = powersum.s_recursive(ktop, n)  # every S_k(n), k <= ktop, in one pass
        for k in range(1, ktop + 1):
            verdict = integrality.decide(k, n)
            by_residue = sums[k - 1] % n == 0
            average = powersum.mu(PowerSumQuery(k=k, n=n))
            if not (verdict.integral == by_residue == average.integral):
                raise InvariantViolation(
                    f"verdict disagreement at k={k}, n={n}: "
                    f"rule={verdict.integral}, residue={by_residue}, average={average.integral}"
                )
            # the witness primes make up the whole reduced denominator of the
            # average; an odd-k "no" leaves exactly 2 there
            den = math.prod(verdict.witness_primes) if k % 2 == 0 else (1 if verdict.integral else 2)
            if average.value.denominator != den:
                raise InvariantViolation(
                    f"witness at k={k}, n={n} gives denominator {den}, "
                    f"the average has {average.value.denominator}"
                )


def _block_sum_residues() -> None:
    ptop, ktop = 47, 50
    for p in primes.sieve(ptop):
        for k in range(1, ktop + 1):
            got = integrality.prime_block_sum(p, k)
            want = p - 1 if k % (p - 1) == 0 else 0
            if got != want:
                raise InvariantViolation(f"block sum at p={p}, k={k} is {got}, expected {want}")
    # the lift to p^a; at p = 2 every k is divisible by p - 1, and a = 1 is the loop above
    for p in (3, 5):
        for pa in (p**2, p**3):
            for k in range(1, 21):
                if k % (p - 1) and powersum.s_mod(PowerSumQuery(k=k, n=pa), pa) != 0:
                    raise InvariantViolation(f"block sum of {pa} terms at k={k} is nonzero mod {pa}")


def _residue_prediction() -> None:
    ktop, ntop = 12, 200
    for n in range(2, ntop + 1):
        for p, a in primes.factorize(n):
            for k in range(2, ktop + 1, 2):
                pred = integrality.predict_residue(k, n, p)
                if pred.a != a:
                    raise InvariantViolation(f"prediction at k={k}, n={n}, p={p} takes a={pred.a}, not {a}")
                got = powersum.s_mod(PowerSumQuery(k=k, n=n), pred.modulus)
                if got != pred.predicted:
                    raise InvariantViolation(
                        f"residue prediction wrong at k={k}, n={n}, p={p}: "
                        f"predicted {pred.predicted}, got {got}"
                    )


GROUPS: list[tuple[str, Callable[[], None]]] = [
    ("vsc-divisors-vs-sieve", _vsc_divisors_vs_sieve),
    ("factorize-roundtrip", _factorize_roundtrip),
    ("route-equivalence", _route_equivalence),
    ("vsc-consistency", _vsc_consistency),
    ("irregular-scan", _irregular_scan),
    ("three-route-agreement", _three_route_agreement),
    ("modular-consistency", _modular_consistency),
    ("closed-form-spot", _closed_form_spot),
    ("theorem-vs-oracle", _theorem_vs_oracle),
    ("block-sum-residues", _block_sum_residues),
    ("residue-prediction", _residue_prediction),
]


def run_groups() -> list[GroupResult]:
    """Run every invariant group; failures are collected, not raised.

    A route's own ``InconsistencyError`` inside a group is that group's
    failure too, so the other groups still run.
    """
    results = []
    for name, check in GROUPS:
        start = time.perf_counter()
        try:
            check()
            results.append(GroupResult(name, True, "", time.perf_counter() - start))
        except (InvariantViolation, powersum.InconsistencyError) as exc:
            results.append(GroupResult(name, False, str(exc), time.perf_counter() - start))
    return results
