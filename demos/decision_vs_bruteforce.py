#!/usr/bin/env python3
"""Walkthrough: what the integrality rule buys you over summation.

The rule costs one gcd after factoring k and keeping the primes d+1 with
d | k.  Summation costs n modular exponentiations (or n exact ones).  This
script runs ``faulhaber bench``, which runs each summation route on the
longest prefix 1..n0 <= n that the route's cost bound admits, so it
finishes in a second or two; past the bound the total is extrapolated
from the prefix.

Run:  python3 demos/decision_vs_bruteforce.py
"""

from faulhaber.cli import main

print("Each cell answers one question three ways: the rule (decide), modular")
print("summation (s_mod) and the exact sum (s_brute).  A summation whose n terms")
print("pass its route's cost bound runs on the longest prefix the bound admits,")
print("and its total time is extrapolated from that prefix; the last line")
print("compares the rule with modular summation at the largest n.")
print("The gap grows linearly in n; the rule's cost does not grow at all.\n")
raise SystemExit(main(["bench"]))
