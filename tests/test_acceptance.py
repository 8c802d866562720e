"""Acceptance gate: every shipping criterion, one test each, stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit pass lines).  Every check is exact -- there are no numeric
tolerances anywhere, only wall-clock budgets.
"""

import time
from fractions import Fraction

from faulhaber import bench, bernoulli, primes, selftest
from faulhaber.bernoulli import bernoulli_egf, bernoulli_recursive
from faulhaber.integrality import decide
from faulhaber.powersum import PowerSumQuery, s_mod


def announce(num, elapsed, budget, desc):
    print(f"criterion {num:02d} PASS ({elapsed:.3f}s <= {budget}s): {desc}")


def run_group(name):
    """Run the selftest group that states a criterion; return its wall time."""
    start = time.perf_counter()
    dict(selftest.GROUPS)[name]()  # raises InvariantViolation naming the counterexample
    return time.perf_counter() - start


def test_criterion_01_bernoulli_ground_truth():
    start = time.perf_counter()
    expected = (Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30))
    assert bernoulli_recursive(4).values == expected
    assert bernoulli_egf(4).values == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, elapsed, 1.0, "first five values exact on both routes")


def test_criterion_02_odd_indices_vanish():
    elapsed = run_group("odd-vanishing")
    announce(2, elapsed, float("inf"), "odd-index values are exactly zero")


def test_criterion_03_denominator_prime_product():
    elapsed = run_group("vsc-consistency")
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
    elapsed = run_group("block-sum-residues")
    announce(5, elapsed, float("inf"), "block sums are -1 or 0 mod p as classified")


def test_criterion_06_residue_predictions():
    elapsed = run_group("residue-prediction")
    announce(6, elapsed, float("inf"), "prime-power residues match the prediction")


def test_criterion_07_closed_forms():
    elapsed = run_group("closed-form-spot")
    announce(7, elapsed, float("inf"), "averages match the quartic-and-below closed forms")


def test_criterion_08_irregular_primes_below_100():
    elapsed = run_group("irregular-scan")
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
    elapsed = run_group("three-route-agreement")
    announce(10, elapsed, float("inf"), "all three summation routes agree on the grid")
