#!/usr/bin/env python3
"""Walkthrough: what the integrality rule buys you over summation.

The rule costs one gcd after factoring k and keeping the primes d+1 with
d | k.  Summation costs n modular exponentiations (or n exact ones).  This
script runs ``faulhaber bench`` under a small per-cell budget so it
finishes quickly; raise BUDGET_MS, up to bench's 5000 ms bound, to let
the summations run longer.

Run:  python3 demos/decision_vs_bruteforce.py
"""

from faulhaber.cli import main

BUDGET_MS = 500

print("Each cell answers one question three ways: the rule (decide), modular")
print("summation (s_mod) and the exact sum (s_brute).  A summation that runs")
print(f"past {BUDGET_MS} ms is stopped and its total time extrapolated; the last")
print("line compares the rule with modular summation at the largest n.")
print("The gap grows linearly in n; the rule's cost does not grow at all.\n")
raise SystemExit(main(["bench", "--budget-ms", str(BUDGET_MS)]))
