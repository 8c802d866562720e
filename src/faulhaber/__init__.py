"""Exact Bernoulli numbers, Faulhaber power sums, and a constant-time
integrality test for the average of the first n k-th powers.

Everything is computed in exact arithmetic (Python ints and
``fractions.Fraction``); no value in this package is ever a float.
Importing the package loads only int code: ``fractions`` (with the
``decimal`` and ``numbers`` it imports) loads when the first Fraction is
built.
"""

from . import bernoulli, integrality, powersum
from .bernoulli import *
from .integrality import *
from .powersum import *

# not primes.__all__: is_prime and DEFAULT_FACTOR_BOUND stay out of the package
from .primes import FactorizationError, factorize, sieve, vsc_primes

__version__ = "1.0.0"

__all__ = [
    *bernoulli.__all__,
    *integrality.__all__,
    *powersum.__all__,
    "FactorizationError",
    "factorize",
    "sieve",
    "vsc_primes",
]
