#!/usr/bin/env python3
"""Walkthrough: what the integrality rule buys you over summation.

The rule costs one gcd after factoring k and keeping the primes d+1 with
d | k.  Summation costs n modular exponentiations (or n exact ones).  This
script times both under a small per-cell budget so it finishes quickly;
raise BUDGET_MS to let the summations run longer.

Run:  python3 demos/decision_vs_bruteforce.py
"""

from faulhaber.bench import run_bench, speedup_estimate

BUDGET_MS = 500.0

CELLS = (
    (2, 100),
    (8, 10_000),
    (20, 1_000_000),
    (1000, 1_000_000_000),
)

print(f"per-method budget: {BUDGET_MS:.0f} ms per cell\n")
results = run_bench(cells=CELLS, budget_ms=BUDGET_MS)

print(f"{'k':>5} {'n':>12} {'method':<8} {'time':>14}  verdict")
for c in results:
    if c.status == "ok":
        verdict = "integral" if c.integral else "not integral"
        print(f"{c.k:>5} {c.n:>12} {c.method:<8} {c.elapsed_ms:>11.3f} ms  {verdict}")
    else:
        print(f"{c.k:>5} {c.n:>12} {c.method:<8} {'infeasible':>14}  (~{c.est_ms:,.0f} ms estimated)")

gap = speedup_estimate(results)
if gap:
    k, n, ratio = gap
    print(f"\nAt k={k}, n={n:,}: the rule is ~{ratio:,.0f}x faster than modular summation.")
    print("The gap grows linearly in n; the rule's cost does not grow at all.")
