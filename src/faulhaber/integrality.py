"""Decides whether the average of the first n k-th powers is an integer.

The decision never sums anything and never factors n:

* k = 1:        integral  <=>  n is odd.
* odd k >= 3:   integral  <=>  n is not congruent to 2 mod 4.
* even k:       integral  <=>  gcd(n, D) = 1, where D is the square-free
                product of the primes p with (p-1) | k -- the denominator
                of the k-th Bernoulli number.  One gcd against a
                precomputed modulus decides any n, however large.

Every negative verdict carries a machine-checkable witness: the offending
residue for the odd rules, or the set of primes dividing both n and D for
the even rule.  Because D is square-free, that set is exactly the primes
of g = gcd(n, D), whatever k was, so an even-k "no" is fixed by g alone.
Verdicts are immutable and shared: the five fixed ones are constants, and
each even-k "no" comes from a bounded cache keyed by its g.  Only a g not
in the cache recovers the witness set, by dividing g by the primes of k
in ascending order until it reaches 1.

``prime_block_sum`` and ``predict_residue`` expose the congruences the
even rule rests on, so the theory behind the verdict can be checked
directly against modular summation:

* sum_{m=1}^{p} m^k is -1 mod p when (p-1) | k, else 0 mod p.
* for even k and p^a exactly dividing n:
      S_k(n) mod p^a  =  0             when (p-1) does not divide k,
      S_k(n) mod p^a  =  -(n/p) mod p^a  when (p-1) | k.
"""

import math
import threading

from . import bernoulli, powersum, primes
from .powersum import _Record, _tuple_new

__all__ = [
    "RULE_K1",
    "RULE_ODD",
    "RULE_EVEN",
    "Verdict",
    "ResiduePrediction",
    "decide",
    "prime_block_sum",
    "predict_residue",
    "grid",
]

RULE_K1 = "k=1"
RULE_ODD = "odd-k"
RULE_EVEN = "even-k"


class Verdict(_Record):
    """Integrality decision plus the obstruction that justifies a "no".

    ``witness_primes`` is nonempty exactly for even-k failures; for the
    odd rules ``witness_residue`` holds n mod 4 (odd k >= 3) or n mod 2
    (k = 1).  An integral verdict carries no witness.
    """

    __slots__ = ()

    def __new__(
        cls, integral: bool, rule: str, witness_primes: tuple[int, ...] = (), witness_residue: int | None = None
    ):
        return _tuple_new(cls, (integral, rule, witness_primes, witness_residue))

    def witness_text(self) -> str:
        if self.integral:
            return ""
        if self.rule == RULE_EVEN:
            return "witness primes " + ",".join(str(p) for p in self.witness_primes)
        if self.rule == RULE_ODD:
            return "n ≡ 2 (mod 4)"
        return "n even"


class ResiduePrediction(_Record):
    """Predicted S_k(n) mod p^a for a prime p with p^a exactly dividing n."""

    __slots__ = ()

    def __new__(cls, p: int, a: int, predicted: int):
        return _tuple_new(cls, (p, a, predicted))

    @property
    def modulus(self) -> int:
        return self.p**self.a


# every verdict but an even-k "no" is one of these; a "no" under the k = 1
# rule has n even (residue 0), one under the odd rule has n = 2 mod 4
_K1_YES = Verdict(integral=True, rule=RULE_K1)
_K1_NO = Verdict(integral=False, rule=RULE_K1, witness_residue=0)
_ODD_YES = Verdict(integral=True, rule=RULE_ODD)
_ODD_NO = Verdict(integral=False, rule=RULE_ODD, witness_residue=2)
_EVEN_YES = Verdict(integral=True, rule=RULE_EVEN)

# an even-k "no" is fixed by g = gcd(n, D), the product of its witness primes,
# so each distinct g gets one shared verdict; a grid(200, 2000) meets about 500
# of them.  A full cache is cleared before the next insert, and a g that
# recurs is walked once more.  Lookups take no lock; inserts take one, so the
# cache never holds more than the bound and equal g shares one verdict
_EVEN_NO_CACHE_SIZE = 1024
_even_no: dict[int, Verdict] = {}
_even_no_lock = threading.Lock()


def decide(k: int, n: int) -> Verdict:
    """Integrality of the average of the first n k-th powers, with witness.

    Cost after the per-k precomputation: one gcd, no factorization of n; a
    "no" for even k adds one lookup of the shared verdict keyed by that gcd.
    Only a gcd not seen before walks the cached primes of k, stopping once
    the gcd is divided down to 1, to find the witness primes.
    """
    if k < 1:
        raise ValueError(f"exponent k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"upper limit n must be >= 1, got {n}")
    if k == 1:
        return _K1_YES if n % 2 == 1 else _K1_NO
    if k % 2 == 1:
        return _ODD_YES if n % 4 != 2 else _ODD_NO
    g = math.gcd(n, bernoulli.vsc_denominator(k))
    if g == 1:
        return _EVEN_YES
    verdict = _even_no.get(g)
    if verdict is not None:
        return verdict
    # g divides the square-free modulus, so dividing out each prime of k that
    # divides it recovers the witness set exactly, and a rest of 1 ends the walk
    witness = []
    rest = g
    for p in primes.vsc_primes(k):
        if rest % p == 0:
            witness.append(p)
            rest //= p
            if rest == 1:
                break
    verdict = Verdict(integral=False, rule=RULE_EVEN, witness_primes=tuple(witness))
    with _even_no_lock:
        if len(_even_no) >= _EVEN_NO_CACHE_SIZE:
            _even_no.clear()
        return _even_no.setdefault(g, verdict)


def prime_block_sum(p: int, k: int) -> int:
    """sum_{m=1}^{p} m^k mod p, computed directly by ``powersum.s_mod``.

    This is the checkable side of the congruence the even rule rests on:
    the result is p - 1 when (p-1) | k and 0 otherwise.
    """
    if k < 1:
        raise ValueError(f"exponent k must be >= 1, got {k}")
    if not primes.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return powersum.s_mod(powersum.PowerSumQuery(k=k, n=p), p)


def predict_residue(k: int, n: int, p: int) -> ResiduePrediction:
    """Predicted S_k(n) mod p^a for even k and a prime p dividing n.

    The caller can cross-check the prediction against modular summation;
    together the two branches cover every prime-power divisor of n.
    """
    if k < 1 or k % 2 != 0:
        raise ValueError(f"prediction applies to even k >= 2, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not primes.is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n % p != 0:
        raise ValueError(f"{p} does not divide {n}")
    a = 0
    rest = n
    while rest % p == 0:
        rest //= p
        a += 1
    pa = p**a
    if k % (p - 1) == 0:
        predicted = (-(n // p)) % pa
    else:
        predicted = 0
    return ResiduePrediction(p=p, a=a, predicted=predicted)


def grid(kmax: int, nmax: int) -> list[list[Verdict]]:
    """Verdicts for every 1 <= k <= kmax, 1 <= n <= nmax, row-per-k."""
    if kmax < 1 or nmax < 1:
        raise ValueError("grid bounds must be >= 1")
    return [[decide(k, n) for n in range(1, nmax + 1)] for k in range(1, kmax + 1)]
