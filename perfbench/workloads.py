"""Seeded operation lists for the two workloads.

``make_ops(workload, seed, index)`` returns session ``index`` of a run: the
same arguments always give the same operations.  Sizes are drawn stratified
(one draw per equal-width stratum, then shuffled) and the mix of kinds is
fixed by count, so two seeds give different inputs with the same shape; this
keeps the run-to-run spread of the medians and tails small.

Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import math
import random

import sympy

WORKLOADS = ("decide", "exact")


# primes above every k the workloads use: a product of them is coprime to
# every vSC denominator, so its decision is "integral"
_BIG_PRIMES = list(sympy.primerange(10**6, 10**6 + 20_000))


def _strata(rng: random.Random, count: int, lo: float, hi: float, log: bool) -> list[float]:
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _digits_n(rng: random.Random, count: int, max_digits: int) -> list[int]:
    """``count`` integers whose digit counts are spread evenly over 1..max_digits."""
    digits = _strata(rng, count, 0.5, max_digits + 0.5, False)
    return [rng.randrange(1, 10 ** max(1, round(d))) for d in digits]


def _pair(rng: random.Random, xs: list, ys: list) -> list[tuple]:
    """Pairs two stratified samples through a fixed, well-mixed permutation of
    their ranks, so the spread of joint costs (such as kmax * nmax) is the
    same for every seed; random pairing would make each session's total work
    a random variable.  The pairs come back shuffled."""
    xs, ys = sorted(xs), sorted(ys)
    n = len(xs)
    step = next(s for s in range(round(0.618 * n), n + 1) if math.gcd(s, n) == 1)
    pairs = [(xs[i], ys[i * step % n]) for i in range(n)]
    rng.shuffle(pairs)
    return pairs


def _even_pool(rng: random.Random, count: int, hi: int) -> list[int]:
    """``count`` distinct even k, log-uniform on [2, hi]."""
    pool: list[int] = []
    seen: set[int] = set()
    for x in sorted(_strata(rng, count, 2, hi, True)):
        k = max(2, 2 * round(x / 2))
        while k in seen:
            k += 2
        seen.add(k)
        pool.append(k)
    rng.shuffle(pool)
    return pool


def _odd_ks(rng: random.Random, count: int, hi: int) -> list[int]:
    return [max(3, 2 * int(x / 2) + 1) for x in _strata(rng, count, 3, hi, True)]


def _even_n(rng: random.Random, integral: bool, max_n: int = 10**40) -> int:
    """n < max_n; for even k, 2 and 3 always divide the vSC denominator."""
    if integral:
        return math.prod(rng.sample(_BIG_PRIMES, rng.randint(1, 6)))
    p = rng.choice((2, 3))
    return p * rng.randrange(1, max_n // p)


def decide_ops(rng: random.Random, count: int = 3000, kmax: int = 10**5) -> list[list]:
    """10% k = 1, 20% odd k >= 3, 70% even k from a pool of count/3 distinct
    values, so a third of all operations meet their k for the first time.
    The visits to each even k alternate between integral and non-integral n,
    so about half of the even-k operations are non-integral, spread evenly
    over the pool."""
    n_one, n_odd = count // 10, count // 5
    n_even = count - n_one - n_odd
    pool = _even_pool(rng, count // 3, kmax)
    evens = list(pool)
    while len(evens) < n_even:
        evens += rng.sample(pool, len(pool))
    parity = {k: rng.random() < 0.5 for k in pool}
    ops = [["decide", 1, n] for n in _digits_n(rng, n_one, 40)]
    ops += [["decide", k, n] for k, n in zip(_odd_ks(rng, n_odd, kmax), _digits_n(rng, n_odd, 40))]
    for k in evens[:n_even]:
        parity[k] = not parity[k]
        ops.append(["decide", k, _even_n(rng, parity[k])])
    rng.shuffle(ops)
    return ops


def exact_ops(rng: random.Random, count: int = 120, kmax: int = 512) -> list[list]:
    """B_k for even k <= kmax, mu(k, n) with n < 10^60, and a few s_recursive
    calls with kmax <= 64, in one shuffled session.  The session opens with
    its largest B_k, so one operation per session builds the Bernoulli memo
    (a shuffled order would spread the build over a varying number of
    operations and make the tail jump between seeds)."""
    n_bern, n_rec = count // 8, max(1, count // 24)
    n_mu = count - n_bern - n_rec
    bern = sorted(2 + 2 * int(x) for x in _strata(rng, n_bern, 0, kmax // 2, False))
    ops = [["bern", k] for k in bern[:-1]]
    mu_ks = [1 + int(x) for x in _strata(rng, n_mu, 0, kmax, False)]
    ops += [["mu", k, n] for k, n in _pair(rng, mu_ks, _digits_n(rng, n_mu, 60))]
    rec_ks = [1 + int(x) for x in _strata(rng, n_rec, 0, min(kmax, 64), False)]
    ops += [["s_recursive", k, n] for k, n in _pair(rng, rec_ks, _digits_n(rng, n_rec, 60))]
    rng.shuffle(ops)
    return [["bern", bern[-1]]] + ops


OPS_OF = {"decide": decide_ops, "exact": exact_ops}


def make_ops(workload: str, seed: int, index: int) -> list[list]:
    """Session ``index`` of a run with ``seed``."""
    return OPS_OF[workload](random.Random(f"{workload}:{seed}:{index}"))
