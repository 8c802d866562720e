"""Acceptance gate: every shipping criterion, one test each, stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit pass lines).  Every check is exact -- there are no numeric
tolerances anywhere, only wall-clock budgets.
"""

import math
import time
from fractions import Fraction

from faulhaber import bench, bernoulli, primes
from faulhaber.bernoulli import bernoulli_egf, bernoulli_recursive, vsc_denominator
from faulhaber.integrality import decide, predict_residue, prime_block_sum
from faulhaber.powersum import PowerSumQuery, mu, s_brute, s_faulhaber, s_mod, s_recursive
from faulhaber.primes import factorize, sieve


def announce(num, elapsed, budget, desc):
    print(f"criterion {num:02d} PASS ({elapsed:.3f}s <= {budget}s): {desc}")


def test_criterion_01_bernoulli_ground_truth():
    start = time.perf_counter()
    expected = (Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30))
    assert bernoulli_recursive(4).values == expected
    assert bernoulli_egf(4).values == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, elapsed, 1.0, "first five values exact on both routes")


def test_criterion_02_odd_indices_vanish():
    start = time.perf_counter()
    rec = bernoulli_recursive(49)
    egf = bernoulli_egf(49)
    for m in range(1, 25):
        assert rec[2 * m + 1] == 0
        assert egf[2 * m + 1] == 0
    announce(2, time.perf_counter() - start, float("inf"), "odd-index values are exactly zero")


def test_criterion_03_denominator_prime_product():
    start = time.perf_counter()
    table = bernoulli_recursive(60)
    for k in range(2, 61, 2):
        d = vsc_denominator(k)
        assert table[k].denominator == d
        f = factorize(d)
        assert all(a == 1 for _, a in f)  # square-free
        assert math.prod(p**a for p, a in f) == d
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(3, elapsed, 10.0, "reduced denominators equal the square-free prime product")


def test_criterion_04_decision_rule_vs_brute_force():
    start = time.perf_counter()
    mismatches = 0
    for k in range(1, 31):
        for n in range(1, 501):
            by_rule = decide(k, n).integral
            by_sum = s_mod(PowerSumQuery(k=k, n=n), n) == 0
            if by_rule != by_sum:
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    announce(4, elapsed, 60.0, "15000 verdicts agree with divisibility of the exact sum")


def test_criterion_05_block_sum_congruence_table():
    start = time.perf_counter()
    for p in sieve(47):
        for k in range(1, 51):
            expected = p - 1 if k % (p - 1) == 0 else 0
            assert prime_block_sum(p, k) == expected
    announce(5, time.perf_counter() - start, float("inf"), "block sums are -1 or 0 mod p as classified")


def test_criterion_06_residue_predictions():
    start = time.perf_counter()
    for n in range(2, 201):
        for p, a in factorize(n):
            for k in range(2, 13, 2):
                pred = predict_residue(k, n, p)
                assert pred.a == a
                assert s_mod(PowerSumQuery(k=k, n=n), pred.modulus) == pred.predicted
    announce(6, time.perf_counter() - start, float("inf"), "prime-power residues match the prediction")


def test_criterion_07_closed_forms():
    start = time.perf_counter()
    for n in range(1, 31):
        assert mu(PowerSumQuery(k=1, n=n)).value == Fraction(n + 1, 2)
        assert mu(PowerSumQuery(k=2, n=n)).value == Fraction((n + 1) * (2 * n + 1), 6)
        assert mu(PowerSumQuery(k=3, n=n)).value == Fraction(n * (n + 1) ** 2, 4)
        assert mu(PowerSumQuery(k=4, n=n)).value == Fraction(
            (n + 1) * (2 * n + 1) * (3 * n * n + 3 * n - 1), 30
        )
    announce(7, time.perf_counter() - start, float("inf"), "averages match the quartic-and-below closed forms")


def test_criterion_08_irregular_primes_below_100():
    start = time.perf_counter()
    irregular = set()
    for p in sieve(99):
        if p < 5:
            continue
        regular, offending = bernoulli.is_regular(p)
        if not regular:
            irregular.add(p)
            assert offending  # a concrete numerator index witnesses it
    elapsed = time.perf_counter() - start
    assert irregular == {37, 59, 67}
    assert elapsed < 30.0
    announce(8, elapsed, 30.0, "irregular primes below 100 are exactly 37, 59, 67")


def test_criterion_09_decision_beats_summation():
    # time the cold path, prime filter included
    bernoulli.vsc_denominator.cache_clear()
    primes.vsc_primes.cache_clear()
    start = time.perf_counter()
    verdict = decide(1000, 10**9)
    decide_s = time.perf_counter() - start
    assert decide_s < 0.1
    assert not verdict.integral
    assert verdict.witness_primes == (2, 5)

    results = bench.run_bench()
    smod = next(c for c in results if c.method == "s_mod" and (c.k, c.n) == (1000, 10**9))
    if smod.status == "ok":
        assert smod.elapsed_ms > 1000 * (decide_s * 1000)
    else:
        assert smod.est_ms > 1000 * (decide_s * 1000)
    gap = bench.speedup_estimate(results)
    assert gap[:2] == (1000, 10**9) and gap[2] > 1000
    announce(9, decide_s, 0.1, f"verdict in {decide_s * 1000:.2f} ms; summation gap ~{gap[2]:.0f}x")


def test_criterion_10_three_route_agreement():
    start = time.perf_counter()
    table = bernoulli_recursive(12)
    for n in range(1, 61):
        rec = s_recursive(12, n)
        for k in range(1, 13):
            q = PowerSumQuery(k=k, n=n)
            assert s_brute(q) == s_faulhaber(q, table) == rec[k - 1]
    announce(10, time.perf_counter() - start, float("inf"), "all three summation routes agree on the grid")
