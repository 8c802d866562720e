import doctest
import importlib
import pkgutil

import pytest

import faulhaber
from faulhaber import bernoulli, powersum, primes, selftest

vsc_primes = primes.vsc_primes
s_brute = powersum.s_brute
s_recursive = powersum.s_recursive
mu = powersum.mu
bernoulli_recursive = bernoulli.bernoulli_recursive


@pytest.mark.parametrize("check", [c for _, c in selftest.GROUPS], ids=[n for n, _ in selftest.GROUPS])
def test_group_holds_at_full_range(check):
    check()  # raises InvariantViolation naming the counterexample


def memo_off_by_x_to_the_k_plus_1(limit):
    # L (k+1) added to L B_0 of the table cut from the memo at k moves S_k(n)
    # by exactly x^(k+1), x = n + 1, so the division stays exact and only the
    # route comparison can see it
    t = bernoulli_recursive(limit)
    scaled = (t.scaled[0] + t.lcm * (limit + 1), *t.scaled[1:])
    return bernoulli.BernoulliTable(t.limit, t.lcm, scaled, t.route)


# One fault per property the prime filter, s_brute, the Bernoulli memo behind
# s_faulhaber, s_recursive and mu must keep: the filter sorted, repeat-free,
# holding 3 and monotone in k; s_brute summing every term, exactly; the closed
# form over the memo summing exactly; the recurrence's residue and mu's flag
# agreeing with the rule.
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
    pytest.param("three-route-agreement", powersum, "s_brute",
                 lambda q: s_brute(q) - q.n**q.k, id="no-last-term"),
    pytest.param("three-route-agreement", bernoulli, "bernoulli_recursive",
                 memo_off_by_x_to_the_k_plus_1, id="memo-off-by-x^(k+1)"),
    pytest.param("modular-consistency", powersum, "s_brute",
                 lambda q: s_brute(q) + (q.n == 7), id="off-by-one-at-7"),
    pytest.param("theorem-vs-oracle", powersum, "mu",
                 lambda q: mu(q)._replace(integral=mu(q).integral != ((q.k, q.n) == (4, 9))),
                 id="flipped-mu"),
    # S_4(9) = 15333 is 6 mod 9; + 3 makes it 0, so the residue says integral
    pytest.param("theorem-vs-oracle", powersum, "s_recursive",
                 lambda kmax, n: [s + 3 * ((k, n) == (4, 9)) for k, s in enumerate(s_recursive(kmax, n), 1)],
                 id="s_recursive-residue-at-(4,9)"),
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

    monkeypatch.setattr(bernoulli, "bernoulli_egf", egf_with_bad_b2)
    results = selftest.run_groups()
    assert [r.name for r in results] == [name for name, _ in selftest.GROUPS]
    failed = {r.name: r.detail for r in results if not r.passed}
    assert "closed form gave a non-integer for PowerSumQuery(k=2, n=1)" in failed["three-route-agreement"]


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
