"""Power sums S_k(n) = 1^k + 2^k + ... + n^k by three independent routes.

* ``s_brute``      -- direct accumulation; the ground-truth oracle.
* ``s_faulhaber``  -- the Bernoulli closed form
                      (k+1) S_k(n) = sum_{j=0}^{k} C(k+1, j) B_j (n+1)^{k+1-j},
                      evaluated in integers over one common denominator.
* ``s_recursive``  -- the Ars-Conjectandi triangular system
                      (n+1)^{k+1} = (n+1) + sum_{j=1}^{k} C(k+1, j) S_j(n),
                      solved bottom-up with exact divisions.

``s_route`` runs one route, or all three cross-checked, after testing
each requested route's cost bound.  ``s_mod`` computes S_k(n) mod m
without ever building the exact sum, and ``mu`` forms the average
S_k(n)/n whose integrality the rest of the library is about.

Queries are validated once, in ``PowerSumQuery``: the theory here starts
at k = 1, so k = 0 is rejected rather than silently extended, and n >= 1.

Each route's cost bound lives here, next to the route, as a test on (k, n)
read by ``s_route`` (which refuses a call past it) and by ``bench`` (which
times the longest prefix 1..n0 <= n that it admits).  The routes themselves
take no bound, but the faulhaber route's is the Bernoulli table's: it lives
in ``bernoulli``, which checks it when the table is built, and ``s_route``
reads it from there.
"""

import math

# fractions is imported in mu, its one user here, as in bernoulli
from . import bernoulli

try:  # the field accessors collections.namedtuple uses, with its fallback
    from _collections import _tuplegetter
except ImportError:
    from operator import itemgetter as _itemgetter

    _tuplegetter = lambda index, doc: property(_itemgetter(index), doc=doc)

__all__ = [
    "PowerSumQuery",
    "Average",
    "InconsistencyError",
    "RouteRefused",
    "s_brute",
    "s_faulhaber",
    "s_recursive",
    "ROUTES",
    "s_route",
    "s_mod",
    "mu",
]


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, never bad input."""


class RouteRefused(ValueError):
    """A route's cost bound refuses (k, n); ``s_route`` raises it before any route runs.

    ``route`` is the refused route, ``bound`` the text of its bound, and
    ``admitting`` the routes whose bounds admit (k, n), in ``ROUTES`` order.
    """


# bound once, so building a record looks nothing up
_tuple_new = tuple.__new__


class _Record(tuple):
    """Base of the value records: an immutable tuple with named fields.

    A record writes ``__slots__ = ()`` and a ``__new__`` whose parameters,
    after ``cls``, are its fields in order, each annotated and with its
    default if it has one, and which returns
    ``_tuple_new(cls, (field, ...))``.  From that signature the base sets
    ``_fields``, ``__match_args__``, the class ``__annotations__`` and one
    accessor per field; it gives the ``Name(field=value, ...)`` repr,
    ``_replace`` (through ``__new__``, so a record's checks hold for a
    changed copy too), ``_asdict``, ``_make`` and pickling, as
    ``typing.NamedTuple`` does.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        code, annotations = cls.__new__.__code__, cls.__new__.__annotations__
        cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        cls.__annotations__ = {name: annotations[name] for name in cls._fields if name in annotations}
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))


class PowerSumQuery(_Record):
    """Validated (k, n) pair for S_k(n); the single k,n sanity gate."""

    __slots__ = ()

    def __new__(cls, k: int, n: int):
        if k < 1:
            raise ValueError(f"exponent k must be >= 1, got {k}")
        if n < 1:
            raise ValueError(f"upper limit n must be >= 1, got {n}")
        return _tuple_new(cls, (k, n))


class Average(_Record):
    """Exact value of S_k(n)/n, a ``Fraction``, together with its integrality flag."""

    __slots__ = ()

    def __new__(cls, value, integral: bool):
        return _tuple_new(cls, (value, integral))


# s_brute adds n powers one by one; past this many terms it is refused, not run
_BRUTE_TERM_BOUND = 10**6
# each power j^k has about k (bit length of j) bits, so k n (bit length of n)
# counts the bits s_brute builds; a cost per bit that grows with k (about 40 ns
# near k = 10^6) puts the slowest call this estimate admits at about 1-2 s
_BRUTE_WORK_BOUND = 4 * 10**7
# s_recursive makes about k^2/2 big-int products of numbers that grow with k and
# the bits of n + 1; past this estimate (about 1-2 s on one core) it is refused
_RECURSIVE_WORK_BOUND = 10**10
# s_mod's pow(j, k, m) makes about (bit length of k) products of m-sized numbers
# per term; terms (bit length of k) (bit length of m) within this estimate, and
# at most this many terms, took 0.1-1.2 s on one core from k = 2 to 2^1000
_MOD_TERM_BOUND = 10**6
_MOD_WORK_BOUND = 3 * 10**8


def _brute_terms(k: int, n: int) -> int:
    """The longest prefix 1..n0 <= n of S_k(n) that s_brute's bounds admit."""
    return min(n, _BRUTE_TERM_BOUND, _BRUTE_WORK_BOUND // (k * n.bit_length()))


def _mod_terms(k: int, n: int, m: int) -> int:
    """The longest prefix 1..n0 <= n of S_k(n) mod m that s_mod's bounds admit."""
    return min(n, _MOD_TERM_BOUND, _MOD_WORK_BOUND // (k.bit_length() * m.bit_length()))


def s_brute(q: PowerSumQuery) -> int:
    """Direct exact summation.

    >>> s_brute(PowerSumQuery(k=2, n=4))
    30
    """
    return sum(j**q.k for j in range(1, q.n + 1))


def s_faulhaber(q: PowerSumQuery, table: bernoulli.BernoulliTable | None = None) -> int:
    """Evaluate the Bernoulli closed form exactly and return the integer sum.

    The table (with none given, ``bernoulli.bernoulli_recursive(k)``, cut
    from the per-process memo) holds every B_j as L B_j over one common
    denominator L, which makes L (k + 1) S_k(n) an integer polynomial in
    x = n + 1 whose coefficients C(k+1, j) L B_j are one product each.
    L is a multiple of lcm(D_0..D_k): a table cut from a memo that reaches
    past B_k carries the memo's L.  The polynomial is evaluated as a
    balanced product tree (Estrin's scheme): neighbouring coefficients
    pair up as c_i + c_{i+1} x, those pairs pair up under x^2, then x^4,
    and so on, so the large products near the top are of equal size and
    take CPython's Karatsuba path instead of k schoolbook steps.
    One division by L (k + 1) ends it; a nonzero remainder means a bad
    value and is raised.  An error e in B_j moves the numerator by
    C(k+1, j) L e x^(k+1-j), so L cancels against the divisor, and a
    larger L hides no error that the lcm of B_0..B_k would show.
    """
    k, n = q.k, q.n
    if table is None:
        table = bernoulli.bernoulli_recursive(k)
    elif table.limit < k:
        raise ValueError(f"table covers 0..{table.limit}, need index {k}")
    lcm, scaled = table.lcm, table.scaled
    # c[i] is the coefficient of x^i: C(k+1, j) L B_j at i = k + 1 - j
    c = [0] * (k + 2)
    binom = 1  # C(k+1, j)
    for j, a in zip(range(k + 1), scaled):
        if a:
            c[k + 1 - j] = binom * a
        binom = binom * (k + 1 - j) // (j + 1)
    x = n + 1
    while True:
        if len(c) % 2:  # fold the top into its neighbour rather than pad
            top = c.pop()
            c[-1] += top * x
        c = [lo + hi * x for lo, hi in zip(c[::2], c[1::2])]
        if len(c) == 1:  # stop before squaring x once more for nothing
            break
        x *= x
    s, rem = divmod(c[0], lcm * (k + 1))
    if rem:
        # the value itself can pass the int-to-str digit limit; leave it out
        raise InconsistencyError(f"closed form gave a non-integer for {q}")
    return s


def s_recursive(kmax: int, n: int) -> list[int]:
    """All of S_1(n)..S_kmax(n) from the triangular recurrence.

    Each division in the back-substitution is exact; a nonzero remainder
    would mean a bug and is surfaced loudly.
    """
    PowerSumQuery(k=kmax, n=n)
    sums: list[int] = []
    for k in range(1, kmax + 1):
        acc = (n + 1) ** (k + 1) - (n + 1)
        for j in range(1, k):
            acc -= math.comb(k + 1, j) * sums[j - 1]
        s, rem = divmod(acc, k + 1)  # C(k+1, k) = k+1
        if rem:
            raise InconsistencyError(f"recurrence left remainder {rem} at k={k}, n={n}")
        sums.append(s)
    return sums


ROUTES = ("brute", "faulhaber", "recursive")


def _refusal(route: str, k: int, n: int) -> str:
    """The text of the bound that refuses S_k(n) by this route, or "" if it admits."""
    if route == "brute" and _brute_terms(k, n) < n:
        return (
            f"adds n terms one by one and is bounded at n <= {_BRUTE_TERM_BOUND}"
            f" and k n (bit length of n) <= {_BRUTE_WORK_BOUND}"
        )
    if route == "faulhaber" and k > bernoulli._TABLE_K_BOUND:
        return f"builds the Bernoulli table to B_k and is bounded at k <= {bernoulli._TABLE_K_BOUND}"
    if route == "recursive" and k * k * (k + 1) * ((n + 1).bit_length() + 32) > _RECURSIVE_WORK_BOUND:
        return f"is bounded at k^2 (k+1) (bit length of n+1, plus 32) <= {_RECURSIVE_WORK_BOUND}"
    return ""


def s_route(q: PowerSumQuery, route: str = "faulhaber") -> int:
    """S_k(n) by one of ``ROUTES``, or by all three cross-checked with "all".

    Every requested route's bound is tested before any route runs, and a
    refusal (``RouteRefused``) names the routes whose bounds admit (k, n).
    The routes are looked up as module globals at call time, so a patched
    or wrapped route is the one that runs.

    >>> s_route(PowerSumQuery(k=2, n=4), "all")
    30
    """
    if route not in (*ROUTES, "all"):
        raise ValueError(f"route must be one of {', '.join(ROUTES)} or all, got {route!r}")
    k, n = q
    names = ROUTES if route == "all" else (route,)
    for r in names:
        bound = _refusal(r, k, n)
        if bound:
            admitting = tuple(o for o in ROUTES if not _refusal(o, k, n))
            others = " or ".join(admitting)
            advice = f"use the {others} route for" if others else "no route's bound admits"
            exc = RouteRefused(f"the {r} route {bound}; {advice} k={k}, n={n}")
            exc.route, exc.bound, exc.admitting = r, bound, admitting
            raise exc
    run = {"brute": s_brute, "faulhaber": s_faulhaber, "recursive": lambda q: s_recursive(*q)[-1]}
    values = {r: run[r](q) for r in names}
    if len(set(values.values())) != 1:
        raise InconsistencyError(f"routes disagree for k={k}, n={n}: {values}")
    return values[names[0]]


def s_mod(q: PowerSumQuery, m: int) -> int:
    """S_k(n) mod m by modular summation; never builds the exact sum.

    It takes no bound itself; ``_mod_terms`` gives the longest prefix that
    the cost bound above admits.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    k = q.k
    return sum(pow(j, k, m) for j in range(1, q.n + 1)) % m


def mu(q: PowerSumQuery) -> Average:
    """The average of the first n k-th powers, exactly.

    S_k(n) comes from ``s_route`` by the faulhaber route, so a k past that
    route's bound raises ``RouteRefused`` before any table is built.

    >>> mu(PowerSumQuery(k=3, n=2)).value
    Fraction(9, 2)
    """
    from fractions import Fraction

    value = Fraction(s_route(q), q.n)
    return Average(value=value, integral=value.denominator == 1)
