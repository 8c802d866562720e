import pickle
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from copy import deepcopy
from fractions import Fraction

import pytest

from faulhaber import bernoulli, powersum
from faulhaber.bench import BenchCell
from faulhaber.bernoulli import BernoulliTable, bernoulli_recursive
from faulhaber.integrality import RULE_EVEN, ResiduePrediction, Verdict
from faulhaber.powersum import (
    Average,
    InconsistencyError,
    PowerSumQuery,
    RouteRefused,
    mu,
    s_brute,
    s_faulhaber,
    s_mod,
    s_recursive,
    s_route,
)
from faulhaber.selftest import GroupResult


def test_brute_small_cases():
    assert s_brute(PowerSumQuery(k=2, n=4)) == 30
    assert s_brute(PowerSumQuery(k=1, n=100)) == 5050
    assert s_brute(PowerSumQuery(k=3, n=3)) == 36


def test_faulhaber_small_cases():
    assert s_faulhaber(PowerSumQuery(k=2, n=4)) == 30
    assert s_faulhaber(PowerSumQuery(k=4, n=2)) == 17
    assert s_faulhaber(PowerSumQuery(k=1, n=10)) == 55


def test_faulhaber_accepts_wider_table():
    table = bernoulli_recursive(12)
    assert s_faulhaber(PowerSumQuery(k=2, n=4), table) == 30


def test_faulhaber_rejects_short_table():
    table = bernoulli_recursive(3)
    with pytest.raises(ValueError):
        s_faulhaber(PowerSumQuery(k=5, n=2), table)


def test_recursive_route():
    assert s_recursive(1, 4) == [10]
    assert s_recursive(2, 4) == [10, 30]
    assert s_recursive(4, 1) == [1, 1, 1, 1]


def test_mod_small_cases():
    assert s_mod(PowerSumQuery(k=2, n=4), 4) == 2  # 30 mod 4
    assert s_mod(PowerSumQuery(k=3, n=6), 6) == 3  # 441 mod 6
    assert s_mod(PowerSumQuery(k=2, n=5), 5) == 0  # 55 mod 5


def test_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        s_mod(PowerSumQuery(k=2, n=4), 0)


def test_mu_small_cases():
    assert mu(PowerSumQuery(k=1, n=3)) == Average(value=Fraction(2), integral=True)
    assert mu(PowerSumQuery(k=3, n=2)) == Average(value=Fraction(9, 2), integral=False)
    assert mu(PowerSumQuery(k=2, n=5)) == Average(value=Fraction(11), integral=True)


def test_exact_values_are_fractions_even_when_integral():
    # 2 == Fraction(2), so only the type tells a lazily imported Fraction
    # from an int that slipped through in its place
    values = [
        bernoulli_recursive(6)[6],
        *bernoulli_recursive(6).values,
        bernoulli.bernoulli_egf(6)[6],
        mu(PowerSumQuery(k=3, n=2)).value,
        mu(PowerSumQuery(k=1, n=3)).value,
    ]
    assert [type(v) for v in values] == [Fraction] * len(values)


def test_query_validation_is_shared():
    with pytest.raises(ValueError):
        PowerSumQuery(k=0, n=5)
    with pytest.raises(ValueError):
        PowerSumQuery(k=2, n=0)
    with pytest.raises(ValueError):
        PowerSumQuery(k=2, n=4)._replace(n=0)
    with pytest.raises(ValueError):
        s_recursive(0, 5)
    with pytest.raises(ValueError):
        s_recursive(3, -1)


# each record with one of its fields
RECORDS = [
    pytest.param(PowerSumQuery(k=2, n=4), "k", id="PowerSumQuery"),
    pytest.param(Average(value=Fraction(9, 2), integral=False), "value", id="Average"),
    pytest.param(Verdict(integral=False, rule=RULE_EVEN, witness_primes=(2, 3)), "integral", id="Verdict"),
    pytest.param(ResiduePrediction(p=3, a=1, predicted=1), "predicted", id="ResiduePrediction"),
    pytest.param(BernoulliTable(4, 30, (30, -15, 5, 0, -1), "recursive"), "lcm", id="BernoulliTable"),
    pytest.param(BenchCell(2, 100, "decide", "ok", 0.01, True, None), "status", id="BenchCell"),
    pytest.param(GroupResult("route-equivalence", True, "", 0.01), "passed", id="GroupResult"),
]


@pytest.mark.parametrize("record,field", RECORDS)
def test_every_record_is_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 3)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize("record,field", RECORDS)
def test_every_record_survives_pickle(record, field):
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


# the repr and the field types (as typing.get_type_hints reads them) of each
# value record in RECORDS, which is all of them but BernoulliTable; Average's
# types are not read, because its "Fraction" is not bound in powersum
SURFACES = {
    "PowerSumQuery": ("PowerSumQuery(k=2, n=4)", {"k": int, "n": int}),
    "Average": ("Average(value=Fraction(9, 2), integral=False)", {"value": Fraction, "integral": bool}),
    "Verdict": (
        "Verdict(integral=False, rule='even-k', witness_primes=(2, 3), witness_residue=None)",
        {"integral": bool, "rule": str, "witness_primes": tuple[int, ...], "witness_residue": int | None},
    ),
    "ResiduePrediction": ("ResiduePrediction(p=3, a=1, predicted=1)", {"p": int, "a": int, "predicted": int}),
    "BenchCell": (
        "BenchCell(k=2, n=100, method='decide', status='ok', elapsed_ms=0.01, integral=True, est_ms=None)",
        {
            "k": int,
            "n": int,
            "method": str,
            "status": str,
            "elapsed_ms": float,
            "integral": bool | None,
            "est_ms": float | None,
        },
    ),
    "GroupResult": (
        "GroupResult(name='route-equivalence', passed=True, detail='', elapsed=0.01)",
        {"name": str, "passed": bool, "detail": str, "elapsed": float},
    ),
}


@pytest.mark.parametrize(
    "record,text,hints",
    [pytest.param(p.values[0], *SURFACES[p.id], id=p.id) for p in RECORDS if p.id in SURFACES],
)
def test_every_value_record_keeps_the_named_tuple_surface(record, text, hints):
    cls = type(record)
    plain = tuple(record)
    assert repr(record) == text
    assert cls._fields == cls.__match_args__ == tuple(hints)
    if cls is not Average:
        assert typing.get_type_hints(cls) == hints
    assert record == plain and hash(record) == hash(plain)
    assert not hasattr(record, "__dict__")
    assert record._asdict() == dict(zip(hints, plain))
    made = cls._make(plain)
    assert type(made) is cls and made == record
    first = cls._fields[0]
    changed = record._replace(**{first: plain[0] * 2})
    assert type(changed) is cls and changed == (plain[0] * 2, *plain[1:])
    assert record == plain  # the original is untouched
    with pytest.raises(ValueError, match=r"^Got unexpected field names: \['nofield'\]$"):
        record._replace(nofield=1)
    deep = deepcopy(record)
    assert type(deep) is cls and deep == record
    match record:
        case cls(a, b):
            assert (a, b) == plain[:2]
        case _:
            pytest.fail(f"{cls.__name__} did not match two positional patterns")


def test_faulhaber_inconsistency_is_loud():
    # a corrupted table must trip the exactness check, not return garbage
    # B_2 = 1/7 over the common denominator 7 L
    t = bernoulli_recursive(4)
    scaled = [7 * a for a in t.scaled]
    scaled[2] = t.lcm
    bad = BernoulliTable(4, 7 * t.lcm, tuple(scaled), "recursive")
    with pytest.raises(InconsistencyError):
        s_faulhaber(PowerSumQuery(k=4, n=5), bad)


@pytest.mark.parametrize(
    "k,n,route,bound,admitting",
    [
        (2, 10**30, "brute", "n <= 1000000", ("faulhaber", "recursive")),
        (600, 10**6, "brute", "k n (bit length of n) <= 40000000", ("faulhaber",)),
        (8192, 2, "faulhaber", "k <= 2048", ("brute",)),
        (2000, 1000, "recursive", "<= 10000000000", ("brute", "faulhaber")),
    ],
)
def test_s_route_refuses_past_each_bound_before_any_route_runs(monkeypatch, k, n, route, bound, admitting):
    def never(*args):
        raise AssertionError("a route ran past its bound")

    for name in ("s_brute", "s_faulhaber", "s_recursive"):
        monkeypatch.setattr(powersum, name, never)
    monkeypatch.setattr(bernoulli, "bernoulli_recursive", never)
    for requested in (route, "all"):
        with pytest.raises(RouteRefused) as exc:
            s_route(PowerSumQuery(k=k, n=n), requested)
        assert isinstance(exc.value, ValueError)
        assert (exc.value.route, exc.value.admitting) == (route, admitting)
        assert bound in exc.value.bound
        message = str(exc.value)
        # the library names routes plainly: no CLI option in its text
        advice = f"use the {' or '.join(admitting)} route for"
        assert message == f"the {route} route {exc.value.bound}; {advice} k={k}, n={n}"
        assert "--" not in message


def test_mu_is_refused_past_the_faulhaber_bound_before_any_table_is_built(monkeypatch):
    def never(limit):
        raise AssertionError(f"a table to B_{limit} was built past the bound")

    monkeypatch.setattr(bernoulli, "bernoulli_recursive", never)
    with pytest.raises(RouteRefused) as exc:
        mu(PowerSumQuery(k=10**6, n=2))
    assert exc.value.route == "faulhaber"


def test_package_exports_the_route_api():
    import faulhaber
    from faulhaber import integrality, primes

    picked = ("FactorizationError", "factorize", "sieve", "vsc_primes")
    defined_in = {name: m for m in (bernoulli, integrality, powersum) for name in m.__all__}
    defined_in.update(dict.fromkeys(picked, primes))
    assert len(faulhaber.__all__) == len(set(faulhaber.__all__)) == len(defined_in)
    assert set(faulhaber.__all__) == set(defined_in)
    for name, module in defined_in.items():
        assert getattr(faulhaber, name) is getattr(module, name), name
    bound = {}
    exec("from faulhaber import *", bound)
    assert set(bound) - {"__builtins__"} == set(faulhaber.__all__)
    assert not {"is_prime", "DEFAULT_FACTOR_BOUND"} & set(faulhaber.__all__)
    assert faulhaber.s_route(PowerSumQuery(k=2, n=4), "all") == 30


def test_s_route_refusal_with_no_admitting_route():
    with pytest.raises(RouteRefused) as exc:
        s_route(PowerSumQuery(k=10**6, n=10**30), "all")
    assert (exc.value.route, exc.value.admitting) == ("brute", ())
    assert str(exc.value).endswith(f"; no route's bound admits k={10**6}, n={10**30}")


@pytest.mark.parametrize("route,wrong", [("s_brute", 31), ("s_faulhaber", 31), ("s_recursive", [31])])
def test_s_route_all_raises_on_a_planted_disagreement(monkeypatch, route, wrong):
    q = PowerSumQuery(k=2, n=4)
    monkeypatch.setattr(powersum, route, lambda *args: wrong)
    with pytest.raises(InconsistencyError, match="routes disagree for k=2, n=4"):
        s_route(q, "all")


def test_s_route_rejects_an_unknown_route():
    with pytest.raises(ValueError, match="route must be one of brute, faulhaber, recursive or all"):
        s_route(PowerSumQuery(k=2, n=4), "closed-form")


def test_faulhaber_matches_recursive_at_large_n():
    n = 10**40 + 12345
    table = bernoulli_recursive(64)
    rec = s_recursive(64, n)
    for k in range(1, 65):
        assert s_faulhaber(PowerSumQuery(k=k, n=n), table) == rec[k - 1], k


# the product tree over k + 2 coefficients folds an odd top at depth d when
# bit d of k + 2 is set and k + 2 >= 3 * 2^d: every k <= 300 covers d <= 6,
# k = 3 * 2^d - 2 covers d = 7, 8, 9, and k on either side of 512 and 1024
# are where the tree gains a level
FOLD_SHAPE_KS = [*range(1, 301), 382, 766, 1534, 511, 512, 513, 1023, 1024, 1025]


def test_faulhaber_matches_modular_sums_at_large_k():
    n = 10**40 + 12347
    table = bernoulli_recursive(max(FOLD_SHAPE_KS))
    for p in (997, 1009, 1013):
        blocks, rest = divmod(n, p)
        assert rest, p
        for k in FOLD_SHAPE_KS:
            # S_k(n) mod p from the period p of j^k mod p
            period, tail = s_mod(PowerSumQuery(k=k, n=p), p), s_mod(PowerSumQuery(k=k, n=rest), p)
            expected = (blocks * period + tail) % p
            assert s_faulhaber(PowerSumQuery(k=k, n=n), table) % p == expected, (k, p)


def test_faulhaber_inconsistency_is_loud_at_large_index():
    # B_256 + 1 changes L (k+1) S_511(n) by C(512, 256) L (n+1)^256; with n even,
    # (n+1)^256 is odd and C(512, 256) carries a single factor 2, so the change
    # holds 2^2 against the 2^10 in L * 512 and the division cannot come out
    # exact.  (At a k with k + 1 prime the same corruption can pass the check.)
    t = bernoulli_recursive(511)
    scaled = list(t.scaled)
    scaled[256] += t.lcm
    bad = BernoulliTable(511, t.lcm, tuple(scaled), "recursive")
    for n in (2, 10**40):
        with pytest.raises(InconsistencyError):
            s_faulhaber(PowerSumQuery(k=511, n=n), bad)


def test_faulhaber_without_a_table_reads_the_memo_through_the_module(monkeypatch):
    # one bernoulli_recursive(k) call per sum, looked up on the module at call
    # time, so a wrapper on it (a tracer, a planted fault) sees every read
    calls = []
    real = bernoulli.bernoulli_recursive
    monkeypatch.setattr(bernoulli, "bernoulli_recursive", lambda limit: calls.append(limit) or real(limit))
    for k in (1, 37, 300):
        assert s_faulhaber(PowerSumQuery(k=k, n=7)) == s_brute(PowerSumQuery(k=k, n=7))
    s_faulhaber(PowerSumQuery(k=5, n=7), real(12))
    assert calls == [1, 37, 300]


def test_faulhaber_over_the_memo_matches_a_table(fresh_memo):
    # from an empty memo, each k past the memo grows it and most steps change
    # its common denominator L, so the prefix is rescaled again and again; 511
    # and the rest come after 1534, and k = 1 comes again at the end, so small
    # k also run over the largest L.  The memo grown in steps must equal the
    # one built in a single step from another empty memo.
    n = 10**40 + 12349
    order = [*FOLD_SHAPE_KS, FOLD_SHAPE_KS[0]]
    lcms = set()
    for k in order:
        s_faulhaber(PowerSumQuery(k=k, n=n))
        lcms.add(bernoulli._scaled_values[0])
    assert len(lcms) > 60  # at least one L for each prime up to 301
    stepwise = bernoulli._scaled_values
    fresh_memo()
    one_shot = bernoulli_recursive(len(stepwise[1]) - 1)
    assert stepwise == (one_shot.lcm, one_shot.scaled)


def test_faulhaber_over_the_memo_is_loud_at_large_index(fresh_memo, monkeypatch):
    # B_256 + 1 planted in the memo over its common denominator L adds L to
    # L B_256; the argument of test_faulhaber_inconsistency_is_loud_at_large_index
    # holds as it is, because L cancels against the L in the divisor
    bernoulli_recursive(511)
    lcm, scaled = bernoulli._scaled_values
    planted = (*scaled[:256], scaled[256] + lcm, *scaled[257:])
    monkeypatch.setattr(bernoulli, "_scaled_values", (lcm, planted))
    for n in (2, 10**40):
        with pytest.raises(InconsistencyError):
            s_faulhaber(PowerSumQuery(k=511, n=n))


def test_memo_over_a_common_denominator_is_safe_under_concurrent_growth(fresh_memo):
    # threads grow the memo to different k while others read it; a reader that
    # paired values with another L would leave a remainder and raise
    ks = [*range(2, 200, 7)] * 2
    n = 10**20 + 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            sums = list(pool.map(lambda k: s_faulhaber(PowerSumQuery(k=k, n=n)), ks, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    table = bernoulli_recursive(max(ks))
    assert sums == [s_faulhaber(PowerSumQuery(k=k, n=n), table) for k in ks]
