"""Acceptance gate: every shipping criterion, one test each, stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
explicit pass lines).  Criteria 02, 03, 05-08 and 10 are each stated by one
selftest group, so they pass on that group's one full-range run of the
session, which ``tests/test_selftest.py`` shares.  Every check is exact --
there are no numeric tolerances anywhere, only wall-clock budgets.
"""

import time
from fractions import Fraction

from faulhaber import bernoulli, primes
from faulhaber.bernoulli import bernoulli_egf, bernoulli_recursive
from faulhaber.integrality import decide
from faulhaber.powersum import PowerSumQuery, s_mod


def announce(num, elapsed, budget, desc):
    limit = "" if budget is None else f" <= {budget}s"
    print(f"criterion {num:02d} PASS ({elapsed:.3f}s{limit}): {desc}")


def group_criterion(group_results, name, num, desc, budget=None):
    """Pass a criterion that one selftest group states, on that group's one
    full-range run."""
    result = group_results[name]
    assert result.passed, result.detail
    assert budget is None or result.elapsed < budget
    announce(num, result.elapsed, budget, desc)


def test_criterion_01_bernoulli_ground_truth():
    start = time.perf_counter()
    expected = (Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30))
    assert bernoulli_recursive(4).values == expected
    assert bernoulli_egf(4).values == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(1, elapsed, 1.0, "first five values exact on both routes")


def test_criterion_02_odd_indices_vanish(group_results):
    group_criterion(group_results, "route-equivalence", 2, "odd-index values are exactly zero")


# the budgets of criteria 03 and 08 stand about 100 times above each group's
# cold run in a fresh process (3-10 ms on Python 3.10-3.13, 2 CPUs); after
# the earlier groups of one run have grown the memo, they read about 1 ms
def test_criterion_03_denominator_prime_product(group_results):
    group_criterion(group_results, "vsc-consistency", 3,
                    "reduced denominators equal the square-free prime product", budget=1.0)


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


def test_criterion_05_block_sum_congruence_table(group_results):
    group_criterion(group_results, "block-sum-residues", 5, "block sums are -1 or 0 mod p as classified")


def test_criterion_06_residue_predictions(group_results):
    group_criterion(group_results, "residue-prediction", 6, "prime-power residues match the prediction")


def test_criterion_07_closed_forms(group_results):
    group_criterion(group_results, "closed-form-spot", 7, "averages match the quartic-and-below closed forms")


def test_criterion_08_irregular_primes_below_100(group_results):
    group_criterion(group_results, "irregular-scan", 8,
                    "irregular primes below 100 are exactly 37, 59, 67", budget=1.0)


def test_criterion_09_decision_beats_summation(bench_report):
    # time the cold path, prime filter included
    bernoulli.vsc_denominator.cache_clear()
    primes.vsc_primes.cache_clear()
    start = time.perf_counter()
    verdict = decide(1000, 10**9)
    decide_s = time.perf_counter() - start
    assert decide_s < 0.1
    assert not verdict.integral
    assert verdict.witness_primes == (2, 5)

    *cells, summary = bench_report
    smod = next(r for r in cells if (r["method"], r["k"], r["n"]) == ("s_mod", "1000", str(10**9)))
    smod_ms = smod["ms"] if smod["status"] == "ok" else smod["est_ms"]
    assert smod_ms > 1000 * (decide_s * 1000)
    gap = summary["speedup"]
    assert (summary["k"], summary["n"]) == ("1000", str(10**9)) and gap > 1000
    announce(9, decide_s, 0.1, f"verdict in {decide_s * 1000:.2f} ms; summation gap ~{gap:.0f}x")


def test_criterion_10_three_route_agreement(group_results):
    group_criterion(group_results, "three-route-agreement", 10, "all three summation routes agree on the grid")
