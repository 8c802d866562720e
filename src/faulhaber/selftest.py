"""Runnable invariant suite: every library-level property, at full ranges.

Each group raises ``InvariantViolation`` naming the first counterexample.
One line per group: the route it pins, then the oracle it is held to.

* vsc-divisors-vs-sieve    ``vsc_primes`` vs a sieve filtered by (p-1) | k, even k <= 5000;
                           two independent routes: the filter factors k and looks its
                           candidates up in the least-factor table, the sieve runs its
                           own Eratosthenes loop (the tests hold the table to trial division)
* factorize-roundtrip      ``factorize`` vs multiplying the factors back, n <= 10^4
* route-equivalence        ``bernoulli_recursive`` (tangent numbers) vs ``bernoulli_egf``, B_0..B_40
* odd-vanishing            both Bernoulli routes vs zero at odd indices 3..49
* vsc-consistency          reduced denominators of B_k vs ``vsc_denominator``, even k <= 60
* irregular-scan           ``is_regular`` vs the known irregular primes 37, 59, 67 below 100
* three-route-agreement    ``s_brute`` vs ``s_faulhaber`` vs ``s_recursive``, k <= 12, n <= 60;
                           ``s_faulhaber`` both over a ``bernoulli_egf`` table and over
                           the Bernoulli memo
* modular-consistency      ``s_mod`` vs ``s_brute`` reduced mod m, k <= 8, n <= 40, m <= 30
* closed-form-spot         ``mu`` vs the quadratic and quartic closed forms, n <= 30
* theorem-vs-oracle        ``decide`` vs the ``s_recursive`` residue and ``mu``, k <= 30, n <= 500
* block-sum-residues       ``prime_block_sum`` vs p-1 or 0 by (p-1) | k, p <= 47, k <= 50
* lemma-zero-residue       ``s_mod`` at n = p^a vs 0 when (p-1) does not divide k
* residue-prediction       ``predict_residue`` vs the ``s_mod`` residue, n <= 200, even k <= 12
* denominator-equivalence  ``decide`` vs ``decide`` at another k with the same denominator
* periodicity              ``decide`` vs ``decide`` at n + 4 * ``vsc_denominator(k)``
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


def _fail(msg: str) -> None:
    raise InvariantViolation(msg)


# --- primes -----------------------------------------------------------


def _vsc_divisors_vs_sieve() -> None:
    top = 5000
    sieved = primes.sieve(top + 1)
    for k in range(2, top + 1, 2):
        want = tuple(p for p in sieved if p <= k + 1 and k % (p - 1) == 0)
        got = tuple(primes.vsc_primes(k))  # compared by value, not by sequence type
        if got != want:
            _fail(f"divisor filter for k={k} gives {got}, the sieve {want}")


def _factorize_roundtrip() -> None:
    top = 10**4
    for n in range(2, top + 1):
        f = primes.factorize(n)
        value = math.prod(p**a for p, a in f)
        if value != n:
            _fail(f"factorization of {n} reassembles to {value}")
        ps = [p for p, _ in f]
        if ps != sorted(set(ps)):
            _fail(f"factor list for {n} not strictly ascending: {ps}")
        if any(a < 1 for _, a in f):
            _fail(f"factorization of {n} carries an exponent below 1: {f}")


# --- bernoulli --------------------------------------------------------


def _route_equivalence() -> None:
    top = 40
    rec = bernoulli.bernoulli_recursive(top)
    egf = bernoulli.bernoulli_egf(top)
    if (rec.route, egf.route) != ("recursive", "egf"):
        _fail(f"tables labelled {rec.route!r} and {egf.route!r}, expected 'recursive' and 'egf'")
    for k in range(top + 1):
        if rec[k] != egf[k]:
            _fail(f"routes disagree at index {k}: {rec[k]} vs {egf[k]}")


def _odd_vanishing() -> None:
    mtop = 24
    rec = bernoulli.bernoulli_recursive(2 * mtop + 1)
    egf = bernoulli.bernoulli_egf(2 * mtop + 1)
    for m in range(1, mtop + 1):
        if rec[2 * m + 1] != 0 or egf[2 * m + 1] != 0:
            _fail(f"odd-index value B_{2 * m + 1} is nonzero")


def _vsc_consistency() -> None:
    top = 60
    table = bernoulli.bernoulli_recursive(top)
    for k in range(2, top + 1, 2):
        d = bernoulli.vsc_denominator(k)
        if table[k].denominator != d:
            _fail(f"denominator of B_{k} is {table[k].denominator}, prime product {d}")


def _irregular_scan() -> None:
    top, expected = 100, {37, 59, 67}
    found = set()
    for p in primes.sieve(top - 1):
        if p < 5:
            continue
        regular, _ = bernoulli.is_regular(p)
        if not regular:
            found.add(p)
    if found != expected:
        _fail(f"irregular primes below {top}: {sorted(found)}, expected {sorted(expected)}")


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
                _fail(f"routes disagree at k={k}, n={n}: {b}, {f}, {m}, {rec[k - 1]}")


def _modular_consistency() -> None:
    ktop, ntop, mtop = 8, 40, 30
    for k in range(1, ktop + 1):
        for n in range(1, ntop + 1):
            q = PowerSumQuery(k=k, n=n)
            exact = powersum.s_brute(q)
            for m in range(2, mtop + 1):
                if powersum.s_mod(q, m) != exact % m:
                    _fail(f"modular sum wrong at k={k}, n={n}, m={m}")


def _closed_form_spot() -> None:
    ntop = 30
    for n in range(1, ntop + 1):
        m2 = powersum.mu(PowerSumQuery(k=2, n=n)).value
        if m2 * 6 != (n + 1) * (2 * n + 1):
            _fail(f"quadratic average closed form fails at n={n}")
        m4 = powersum.mu(PowerSumQuery(k=4, n=n)).value
        if m4 * 30 != (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1):
            _fail(f"quartic average closed form fails at n={n}")


# --- integrality ------------------------------------------------------


def _theorem_vs_oracle() -> None:
    ktop, ntop = 30, 500
    for n in range(1, ntop + 1):
        sums = powersum.s_recursive(ktop, n)  # every S_k(n), k <= ktop, in one pass
        for k in range(1, ktop + 1):
            by_rule = integrality.decide(k, n).integral
            by_residue = sums[k - 1] % n == 0
            by_average = powersum.mu(PowerSumQuery(k=k, n=n)).integral
            if not (by_rule == by_residue == by_average):
                _fail(
                    f"verdict disagreement at k={k}, n={n}: "
                    f"rule={by_rule}, residue={by_residue}, average={by_average}"
                )


def _block_sum_residues() -> None:
    ptop, ktop = 47, 50
    for p in primes.sieve(ptop):
        for k in range(1, ktop + 1):
            got = integrality.prime_block_sum(p, k)
            want = p - 1 if k % (p - 1) == 0 else 0
            if got != want:
                _fail(f"block sum at p={p}, k={k} is {got}, expected {want}")


def _lemma_zero_residue() -> None:
    ktop = 20
    for p in (2, 3, 5):
        for a in (1, 2, 3):
            for k in range(1, ktop + 1):
                if k % (p - 1) == 0:
                    continue
                pa = p**a
                if powersum.s_mod(PowerSumQuery(k=k, n=pa), pa) != 0:
                    _fail(f"prime-power block sum nonzero at p={p}, a={a}, k={k}")


def _residue_prediction() -> None:
    ktop, ntop = 12, 200
    for n in range(2, ntop + 1):
        for p, _a in primes.factorize(n):
            for k in range(2, ktop + 1, 2):
                pred = integrality.predict_residue(k, n, p)
                got = powersum.s_mod(PowerSumQuery(k=k, n=n), pred.modulus)
                if got != pred.predicted:
                    _fail(
                        f"residue prediction wrong at k={k}, n={n}, p={p}: "
                        f"predicted {pred.predicted}, got {got}"
                    )


def _denominator_equivalence() -> None:
    ktop, ntop = 40, 200
    by_den: dict[int, list[int]] = {}
    for k in range(2, ktop + 1, 2):
        by_den.setdefault(bernoulli.vsc_denominator(k), []).append(k)
    for den, ks in by_den.items():
        first = ks[0]
        for k in ks[1:]:
            for n in range(1, ntop + 1):
                if integrality.decide(first, n) != integrality.decide(k, n):
                    _fail(
                        f"k={first} and k={k} share denominator {den} "
                        f"but disagree at n={n}"
                    )


def _periodicity() -> None:
    ks = (2, 4, 6, 8, 10, 12)
    ntop = 100
    for k in ks:
        period = 4 * bernoulli.vsc_denominator(k)
        for n in range(1, ntop + 1):
            if integrality.decide(k, n) != integrality.decide(k, n + period):
                _fail(f"verdict not {period}-periodic at k={k}, n={n}")


GROUPS: list[tuple[str, Callable[[], None]]] = [
    ("vsc-divisors-vs-sieve", _vsc_divisors_vs_sieve),
    ("factorize-roundtrip", _factorize_roundtrip),
    ("route-equivalence", _route_equivalence),
    ("odd-vanishing", _odd_vanishing),
    ("vsc-consistency", _vsc_consistency),
    ("irregular-scan", _irregular_scan),
    ("three-route-agreement", _three_route_agreement),
    ("modular-consistency", _modular_consistency),
    ("closed-form-spot", _closed_form_spot),
    ("theorem-vs-oracle", _theorem_vs_oracle),
    ("block-sum-residues", _block_sum_residues),
    ("lemma-zero-residue", _lemma_zero_residue),
    ("residue-prediction", _residue_prediction),
    ("denominator-equivalence", _denominator_equivalence),
    ("periodicity", _periodicity),
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
