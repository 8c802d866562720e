import doctest
import importlib
import pkgutil

import pytest

import faulhaber
from faulhaber import bernoulli, integrality, powersum, primes, selftest

vsc_primes = primes.vsc_primes
s_brute = powersum.s_brute
s_mod = powersum.s_mod
s_recursive = powersum.s_recursive
mu = powersum.mu
bernoulli_recursive = bernoulli.bernoulli_recursive
decide = integrality.decide


@pytest.mark.parametrize("name", [n for n, _ in selftest.GROUPS])
def test_group_holds_at_full_range(name, group_results):
    assert group_results[name].passed, group_results[name].detail


def memo_off_by_x_to_the_k_plus_1(limit):
    # L (k+1) added to L B_0 of the table cut from the memo at k moves S_k(n)
    # by exactly x^(k+1), x = n + 1, so the division stays exact and only the
    # route comparison can see it
    t = bernoulli_recursive(limit)
    scaled = (t.scaled[0] + t.lcm * (limit + 1), *t.scaled[1:])
    return bernoulli.BernoulliTable(t.limit, t.lcm, scaled, t.route)


def corrupt_egf(limit):
    # B_limit + 1: L added to L B_limit over the table's common denominator L
    t = bernoulli_recursive(limit)
    return bernoulli.BernoulliTable(limit, t.lcm, (*t.scaled[:-1], t.scaled[-1] + t.lcm), "egf")


class B45PlusOne(bernoulli.BernoulliTable):
    # every table both routes build, B_45 + 1 in those that reach it: the two
    # routes still agree, so only the odd-index zeros can see it
    __slots__ = ()

    def __init__(self, limit, lcm, scaled, route):
        if limit >= 45:
            scaled = (*scaled[:45], scaled[45] + lcm, *scaled[46:])
        super().__init__(limit, lcm, scaled, route)


class MisKeyed(dict):
    # a verdict stored under g + 2: g misses every time, and an odd g finds the
    # verdict of g - 2 once that one is stored, right in yes/no, wrong in witness
    def setdefault(self, g, verdict):
        return super().setdefault(g + 2, verdict)


def last_witness_dropped(k, n):
    v = decide(k, n)
    return v._replace(witness_primes=v.witness_primes[:-1]) if len(v.witness_primes) > 1 else v


# One fault per property the prime filter, the Bernoulli routes, s_brute, the
# Bernoulli memo behind s_faulhaber, s_recursive, s_mod and mu must keep: the
# filter sorted, repeat-free, holding 3 and monotone in k; the routes agreeing
# and zero at odd indices; s_brute summing every term, exactly; the closed form
# over the memo summing exactly; a block of p^a terms summing to 0 mod p^a; the
# recurrence's residue and mu's flag agreeing with the rule; the witness primes
# making up the whole denominator of the average, whether decide walks them or
# its cache hands them back.
FAULTS = [
    pytest.param("vsc-divisors-vs-sieve", primes, "vsc_primes",
                 lambda k: vsc_primes(k)[::-1], id="unsorted"),
    pytest.param("vsc-divisors-vs-sieve", primes, "vsc_primes",
                 lambda k: vsc_primes(k) + vsc_primes(k)[-1:], id="repeat"),
    pytest.param("vsc-divisors-vs-sieve", primes, "vsc_primes",
                 lambda k: [p for p in vsc_primes(k) if p != 3], id="missing-3"),
    # 5 is kept at k = 4 and dropped at k = 12
    pytest.param("vsc-divisors-vs-sieve", primes, "vsc_primes",
                 lambda k: [p for p in vsc_primes(k) if not (p == 5 and k % 3 == 0)], id="not-monotone"),
    pytest.param("route-equivalence", bernoulli, "bernoulli_egf", corrupt_egf, id="egf-last-value-plus-1"),
    pytest.param("route-equivalence", bernoulli, "BernoulliTable", B45PlusOne, id="B_45-plus-1-on-both-routes"),
    pytest.param("three-route-agreement", powersum, "s_brute",
                 lambda q: s_brute(q) - q.n**q.k, id="no-last-term"),
    pytest.param("three-route-agreement", bernoulli, "bernoulli_recursive",
                 memo_off_by_x_to_the_k_plus_1, id="memo-off-by-x^(k+1)"),
    pytest.param("modular-consistency", powersum, "s_brute",
                 lambda q: s_brute(q) + (q.n == 7), id="off-by-one-at-7"),
    # 125 = 5^3 with 4 not dividing any odd k
    pytest.param("block-sum-residues", powersum, "s_mod",
                 lambda q, m: s_mod(q, m) + (q.n == 125 and q.k % 2 == 1), id="s_mod-plus-1-at-125-odd-k"),
    pytest.param("theorem-vs-oracle", powersum, "mu",
                 lambda q: mu(q)._replace(integral=mu(q).integral != ((q.k, q.n) == (4, 9))),
                 id="flipped-mu"),
    # S_4(9) = 15333 is 6 mod 9; + 3 makes it 0, so the residue says integral
    pytest.param("theorem-vs-oracle", powersum, "s_recursive",
                 lambda kmax, n: [s + 3 * ((k, n) == (4, 9)) for k, s in enumerate(s_recursive(kmax, n), 1)],
                 id="s_recursive-residue-at-(4,9)"),
    pytest.param("theorem-vs-oracle", integrality, "_even_no", MisKeyed(), id="verdict-cached-under-g+2"),
    pytest.param("theorem-vs-oracle", integrality, "decide", last_witness_dropped, id="last-witness-dropped"),
]


@pytest.mark.parametrize("group,module,name,fault", FAULTS)
def test_group_catches_fault(monkeypatch, group, module, name, fault):
    monkeypatch.setattr(module, name, fault)
    with pytest.raises(selftest.InvariantViolation):
        dict(selftest.GROUPS)[group]()


def test_a_route_inconsistency_fails_its_group_and_the_rest_still_run(monkeypatch):
    # B_2 + 1/7 in the series table makes the closed form over it leave a
    # remainder, and s_faulhaber raises InconsistencyError at k = 2, n = 1
    def egf_with_bad_b2(limit):
        # over the common denominator 7 L, B_2 + 1/7 adds L to 7 L B_2
        t = bernoulli_recursive(limit)
        scaled = [7 * a for a in t.scaled]
        scaled[2] += t.lcm
        return bernoulli.BernoulliTable(limit, 7 * t.lcm, tuple(scaled), "egf")

    # the real group, then a stub that records that it still ran
    ran = []
    group = dict(selftest.GROUPS)["three-route-agreement"]
    monkeypatch.setattr(selftest, "GROUPS", [("three-route-agreement", group), ("after-it", lambda: ran.append(1))])
    monkeypatch.setattr(bernoulli, "bernoulli_egf", egf_with_bad_b2)
    failing, after = selftest.run_groups()
    assert (failing.name, failing.passed) == ("three-route-agreement", False)
    assert "closed form gave a non-integer for PowerSumQuery(k=2, n=1)" in failing.detail
    assert (after.name, after.passed, ran) == ("after-it", True, [1])


def package_modules():
    # __main__ runs the CLI on import
    names = [m.name for m in pkgutil.iter_modules(faulhaber.__path__) if m.name != "__main__"]
    return [faulhaber] + [importlib.import_module(f"faulhaber.{n}") for n in names]


def test_docstring_examples():
    results = {module.__name__: doctest.testmod(module) for module in package_modules()}
    assert all(r.failed == 0 for r in results.values()), results
    assert sum(r.attempted for r in results.values()) > 0


def test_export_lists_resolve():
    for module in package_modules():
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
