"""Exact Bernoulli numbers, Faulhaber power sums, and a constant-time
integrality test for the average of the first n k-th powers.

Everything is computed in exact arithmetic (Python ints and
``fractions.Fraction``); no value in this package is ever a float.
Importing the package loads only int code: ``fractions`` (with the
``decimal`` and ``numbers`` it imports) loads when the first Fraction is
built.
"""

from .bernoulli import (
    BernoulliTable,
    bernoulli_egf,
    bernoulli_recursive,
    is_regular,
    vsc_denominator,
)
from .integrality import (
    RULE_EVEN,
    RULE_K1,
    RULE_ODD,
    ResiduePrediction,
    Verdict,
    decide,
    grid,
    predict_residue,
    prime_block_sum,
)
from .powersum import (
    Average,
    InconsistencyError,
    PowerSumQuery,
    ROUTES,
    RouteRefused,
    mu,
    s_brute,
    s_faulhaber,
    s_mod,
    s_recursive,
    s_route,
)
from .primes import (
    FactorizationError,
    factorize,
    sieve,
    vsc_primes,
)

__version__ = "1.0.0"

__all__ = [
    "BernoulliTable",
    "bernoulli_egf",
    "bernoulli_recursive",
    "is_regular",
    "vsc_denominator",
    "RULE_EVEN",
    "RULE_K1",
    "RULE_ODD",
    "ResiduePrediction",
    "Verdict",
    "decide",
    "grid",
    "predict_residue",
    "prime_block_sum",
    "Average",
    "InconsistencyError",
    "PowerSumQuery",
    "ROUTES",
    "RouteRefused",
    "mu",
    "s_brute",
    "s_faulhaber",
    "s_mod",
    "s_recursive",
    "s_route",
    "FactorizationError",
    "factorize",
    "sieve",
    "vsc_primes",
]
