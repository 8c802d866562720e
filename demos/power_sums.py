#!/usr/bin/env python3
"""Walkthrough: the sum 1^k + 2^k + ... + n^k three different ways,
and the exact average it induces.

Run:  python3 demos/power_sums.py
"""

from faulhaber import (
    PowerSumQuery,
    bernoulli_recursive,
    mu,
    s_brute,
    s_faulhaber,
    s_mod,
    s_recursive,
)
from faulhaber.cli import format_rational

print("Three routes, one answer")
print("------------------------")
table = bernoulli_recursive(10)
for k, n in [(1, 100), (2, 4), (3, 3), (5, 20), (10, 50)]:
    q = PowerSumQuery(k=k, n=n)
    brute = s_brute(q)
    closed = s_faulhaber(q, table)
    triangular = s_recursive(k, n)[-1]
    assert brute == closed == triangular
    print(f"  S_{k}({n}) = {brute}")
print()

print("The classical closed forms drop out of the Bernoulli route")
print("-----------------------------------------------------------")
print("n(n+1)/2, n(n+1)(2n+1)/6, (n(n+1)/2)^2, ... evaluated exactly:")
n = 12
for k in (1, 2, 3):
    print(f"  S_{k}({n}) = {s_faulhaber(PowerSumQuery(k=k, n=n), table)}")
assert s_faulhaber(PowerSumQuery(k=3, n=n), table) == (n * (n + 1) // 2) ** 2
print(f"  (and S_3 is the square of S_1: {(n * (n + 1) // 2) ** 2})")
print()

print("Averages: sometimes an integer, sometimes not")
print("---------------------------------------------")
for k, n in [(1, 3), (1, 4), (2, 5), (2, 6), (3, 2), (4, 7)]:
    avg = mu(PowerSumQuery(k=k, n=n))
    note = "integer" if avg.integral else "not an integer"
    print(f"  average of first {n} {k}-th powers = {format_rational(avg.value):>6}  ({note})")
print()

print("Residues without the giant sum")
print("------------------------------")
print("S_20(10^6) mod 10^6 via modular summation, no exact sum built:")
print(" ", s_mod(PowerSumQuery(k=20, n=10**6), 10**6))
