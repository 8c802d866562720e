#!/usr/bin/env python3
"""Walkthrough: Bernoulli numbers by two routes, and what their
denominators already tell you before you compute anything.

Run:  python3 demos/bernoulli_numbers.py
"""

from faulhaber import (
    bernoulli_egf,
    bernoulli_recursive,
    is_regular,
    sieve,
    vsc_denominator,
    vsc_primes,
)

K = 16

print("Two independent routes to the same rationals")
print("--------------------------------------------")
rec = bernoulli_recursive(K)
egf = bernoulli_egf(K)
print(f"{'k':>3}  {'recurrence':>16}  {'series division':>16}")
for k in range(K + 1):
    agree = "" if rec[k] == egf[k] else "  <-- DISAGREE"
    print(f"{k:>3}  {rec[k]!s:>16}  {egf[k]!s:>16}{agree}")
print()

print("Denominators from the prime filter alone (no rational arithmetic)")
print("-----------------------------------------------------------------")
print("For even k, the reduced denominator is the product of every prime p")
print("with (p-1) dividing k -- so it is square-free and never larger than")
print("the product of primes up to k+1.")
for k in (2, 4, 6, 8, 10, 12, 30, 60):
    ps = vsc_primes(k)
    prod = " * ".join(str(p) for p in ps)
    print(f"  k={k:<3} denominator {vsc_denominator(k):>10} = {prod}")
print()

print("Regularity scan (does p divide an early numerator?)")
print("---------------------------------------------------")
irregular = []
for p in sieve(99):
    if p < 5:
        continue
    regular, offending = is_regular(p)
    if not regular:
        irregular.append((p, offending))
print("irregular primes below 100:", ", ".join(str(p) for p, _ in irregular))
for p, offending in irregular:
    k = offending[0]
    n_k = bernoulli_recursive(k)[k].numerator
    print(f"  p={p}: divides numerator of index {k} ({n_k})")
