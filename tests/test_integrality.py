import math
import sys
import threading

import pytest

from faulhaber import bernoulli, integrality, primes
from faulhaber.bernoulli import vsc_denominator
from faulhaber.integrality import (
    RULE_EVEN,
    RULE_K1,
    RULE_ODD,
    Verdict,
    decide,
    grid,
    predict_residue,
    prime_block_sum,
)
from faulhaber.powersum import PowerSumQuery, mu, s_mod


def test_decide_even_k_coprime_case():
    v = decide(4, 7)
    assert v.integral
    assert v.rule == RULE_EVEN
    assert v.witness_primes == ()
    assert v.witness_residue is None


def test_decide_odd_k_obstruction():
    v = decide(3, 6)
    assert not v.integral
    assert v.rule == RULE_ODD
    assert v.witness_residue == 2


def test_decide_even_k_witness_primes():
    v = decide(2, 6)
    assert not v.integral
    assert v.rule == RULE_EVEN
    assert v.witness_primes == (2, 3)


def test_decide_k1_cases():
    assert decide(1, 3).integral
    v = decide(1, 4)
    assert not v.integral
    assert v.rule == RULE_K1
    assert v.witness_residue == 0


def built_verdict(k, n):
    """The verdict built field by field, the way decide built each one
    before the fixed verdicts became shared constants."""
    if k == 1:
        if n % 2 == 1:
            return Verdict(integral=True, rule=RULE_K1)
        return Verdict(integral=False, rule=RULE_K1, witness_residue=n % 2)
    if k % 2 == 1:
        if n % 4 != 2:
            return Verdict(integral=True, rule=RULE_ODD)
        return Verdict(integral=False, rule=RULE_ODD, witness_residue=n % 4)
    if math.gcd(n, vsc_denominator(k)) == 1:
        return Verdict(integral=True, rule=RULE_EVEN)
    witness = tuple(p for p in primes.vsc_primes(k) if n % p == 0)
    return Verdict(integral=False, rule=RULE_EVEN, witness_primes=witness)


def test_shared_verdicts_equal_freshly_built_ones():
    for k in range(1, 13):
        for n in list(range(1, 41)) + [10**30 + 1, 10**30 + 2, 10**30 + 4]:
            assert decide(k, n) == built_verdict(k, n)


def test_witness_reuses_the_filter(monkeypatch):
    calls = []
    factorize = primes.factorize

    def counted(n, *args):
        calls.append(n)
        return factorize(n, *args)

    bernoulli.vsc_denominator.cache_clear()
    primes.vsc_primes.cache_clear()
    monkeypatch.setattr(primes, "factorize", counted)
    assert decide(12, 6).witness_primes == (2, 3)
    assert decide(12, 6).witness_primes == (2, 3)
    assert decide(12, 35).witness_primes == (5, 7)
    assert calls == [12]


def test_decide_validates_inputs():
    with pytest.raises(ValueError):
        decide(0, 5)
    with pytest.raises(ValueError):
        decide(2, 0)


def test_decide_n_equals_1_always_integral():
    for k in range(1, 20):
        assert decide(k, 1).integral


def test_witness_primes_divide_both_n_and_denominator():
    for k in range(2, 21, 2):
        d = vsc_denominator(k)
        for n in range(1, 201):
            v = decide(k, n)
            if v.integral:
                assert v.witness_primes == ()
                assert math.gcd(n, d) == 1
            else:
                assert v.witness_primes
                for p in v.witness_primes:
                    assert n % p == 0
                    assert d % p == 0
                assert math.prod(v.witness_primes) == math.gcd(n, d)


def walked_witness(k, n):
    """The witness primes found by testing every prime of k against n."""
    return tuple(p for p in primes.vsc_primes(k) if n % p == 0)


def test_witness_walk_names_every_common_prime():
    # n = D_k shares every prime of k, so the walk runs to the end; 6 (D_k + 1)
    # shares only 2 and 3, and n = 2 or 3 one prime, so the walk stops early
    for k in range(2, 201, 2):
        d = vsc_denominator(k)
        for n in (d, 2 * 3 * d + 6, 2, 3):
            v = decide(k, n)
            assert not v.integral
            assert math.prod(v.witness_primes) == math.gcd(n, d)
            assert all(n % p == 0 for p in v.witness_primes)
            assert v.witness_primes == walked_witness(k, n)


def test_even_k_no_verdicts_are_shared_per_witness():
    first = decide(2, 6)
    assert decide(12, 6) is first
    assert decide(4, 6 * 7**30) is first
    other = decide(4, 10)
    assert other is not first
    assert other == Verdict(integral=False, rule=RULE_EVEN, witness_primes=(2, 5))


def test_replace_leaves_a_shared_verdict_unchanged():
    shared = decide(2, 6)
    changed = shared._replace(witness_primes=(2,))
    assert changed.witness_primes == (2,)
    assert shared.witness_primes == (2, 3)
    assert decide(2, 6).witness_primes == (2, 3)


def test_shared_no_verdict_cache_is_bounded(monkeypatch):
    # the first 11 primes of k = 720720 have 2047 nonempty products, each its
    # own g, so the empty cache fills and is cleared along the way
    monkeypatch.setattr(integrality, "_even_no", {})
    bound = integrality._EVEN_NO_CACHE_SIZE
    k = 720720
    first = primes.vsc_primes(k)[:11]
    assert 2 ** len(first) - 1 > bound
    for mask in range(1, 2 ** len(first)):
        n = math.prod(p for i, p in enumerate(first) if mask >> i & 1)
        v = decide(k, n)
        assert len(integrality._even_no) <= bound
        assert not v.integral
        assert v.witness_primes == walked_witness(k, n)
        assert math.prod(v.witness_primes) == n
    # g = 6 came third and was cleared out; it is walked again to the same verdict
    assert 6 not in integrality._even_no
    assert decide(k, 6) == Verdict(integral=False, rule=RULE_EVEN, witness_primes=(2, 3))


def test_threads_sharing_a_small_verdict_cache_agree_with_one_thread(monkeypatch):
    reference = grid(60, 400)
    monkeypatch.setattr(integrality, "_EVEN_NO_CACHE_SIZE", 8)
    monkeypatch.setattr(integrality, "_even_no", {})
    results = [None] * 4
    sizes = []

    def work(i):
        results[i] = integrality.grid(60, 400)
        sizes.append(len(integrality._even_no))

    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert results == [reference] * 4
    assert sizes and max(sizes) <= 8


def test_prime_block_sum_rejects_composite():
    with pytest.raises(ValueError):
        prime_block_sum(6, 2)
    with pytest.raises(ValueError):
        prime_block_sum(5, 0)


@pytest.mark.parametrize(
    "k,n,p,a,predicted",
    [
        (2, 4, 2, 2, 2),   # -(4/2) mod 4;  S_2(4) = 30 = 2 (mod 4)
        (2, 9, 3, 2, 6),   # -3 mod 9;      S_2(9) = 285 = 6 (mod 9)
        (4, 9, 3, 2, 6),   # (p-1) | k;     S_4(9) = 15333 = 6 (mod 9)
        (2, 25, 5, 2, 0),  # (p-1) = 4 does not divide 2
    ],
)
def test_predict_residue_examples(k, n, p, a, predicted):
    pred = predict_residue(k, n, p)
    assert (pred.p, pred.a, pred.predicted) == (p, a, predicted)
    assert pred.modulus == p**a
    assert s_mod(PowerSumQuery(k=k, n=n), pred.modulus) == predicted


def test_predict_residue_rejects_bad_inputs():
    with pytest.raises(ValueError):
        predict_residue(3, 4, 2)  # odd exponent
    with pytest.raises(ValueError):
        predict_residue(2, 9, 2)  # 2 does not divide 9
    with pytest.raises(ValueError):
        predict_residue(2, 8, 4)  # 4 is not prime
    with pytest.raises(ValueError):
        predict_residue(2, 1, 2)


def test_grid_shape_and_rows():
    rows = grid(4, 6)
    assert len(rows) == 4
    assert all(len(r) == 6 for r in rows)
    assert [v.integral for v in rows[0][:4]] == [True, False, True, False]
    assert [v.integral for v in rows[3]] == [True, False, False, False, False, False]


def test_grid_first_column_all_integral():
    rows = grid(6, 1)
    assert all(r[0].integral for r in rows)


def test_grid_matches_decide_cellwise():
    rows = grid(5, 30)
    for k in range(1, 6):
        for n in range(1, 31):
            assert rows[k - 1][n - 1] == decide(k, n)


def test_grid_rejects_bad_bounds():
    with pytest.raises(ValueError):
        grid(0, 5)
    with pytest.raises(ValueError):
        grid(5, 0)


def test_witness_text_forms():
    assert decide(2, 6).witness_text() == "witness primes 2,3"
    assert decide(3, 6).witness_text() == "n ≡ 2 (mod 4)"
    assert decide(1, 4).witness_text() == "n even"
    assert decide(2, 5).witness_text() == ""


def check_decide_at_large_n():
    """``integrality.decide`` against ``mu`` through the closed form, at k <= 200
    and n up to about 10^40, and for even k its witness against gcd(n, D_k).
    About half the draws are made a multiple of a prime of D_k (of 2 at odd k)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def k_and_n(draw):
        k = draw(st.integers(min_value=1, max_value=200))
        if not draw(st.booleans()):
            return k, draw(st.integers(min_value=1, max_value=10**40))
        p = draw(st.sampled_from(primes.vsc_primes(k) if k % 2 == 0 else (2,)))
        return k, p * draw(st.integers(min_value=1, max_value=10**40 // p))

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(k_and_n())
    def check(kn):
        k, n = kn
        verdict = integrality.decide(k, n)
        assert verdict.integral == mu(PowerSumQuery(k=k, n=n)).integral, (k, n)
        if k % 2 == 0:
            assert math.prod(verdict.witness_primes) == math.gcd(n, vsc_denominator(k)), (k, n)

    check()


def test_decide_matches_the_closed_form_up_to_10_to_the_40():
    check_decide_at_large_n()


def check_decide_is_periodic_in_n():
    """``integrality.decide(k, n)`` against ``decide(k, n + 4 D_k t)`` with t
    around 10^30 and even k <= 2000: both calls have the same g = gcd(n, D_k),
    so a "no" must be the same shared object and name the primes of g.
    About half the draws are made a multiple of a prime of D_k."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def k_n_t(draw):
        k = 2 * draw(st.integers(min_value=1, max_value=1000))
        n = draw(st.integers(min_value=1, max_value=10**40))
        if draw(st.booleans()):
            n *= draw(st.sampled_from(primes.vsc_primes(k)))
        return k, n, draw(st.integers(min_value=10**29, max_value=10**31))

    @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @hypothesis.given(k_n_t())
    def check(knt):
        k, n, t = knt
        d = vsc_denominator(k)
        first = integrality.decide(k, n)
        shifted = integrality.decide(k, n + 4 * d * t)
        assert shifted == first, (k, n, t)
        assert math.prod(first.witness_primes) == math.gcd(n, d), (k, n)
        if not first.integral:
            assert shifted is first, (k, n, t)

    check()


def test_decide_is_periodic_in_n_at_offsets_near_10_to_the_30():
    check_decide_is_periodic_in_n()


def test_periodicity_property_catches_a_verdict_cached_under_a_wrong_g(monkeypatch):
    class MisKeyed(dict):
        # a verdict stored under g + 2: g misses every time, and an odd g
        # finds the verdict of g - 2 once that one is stored
        def setdefault(self, g, verdict):
            return super().setdefault(g + 2, verdict)

    monkeypatch.setattr(integrality, "_even_no", MisKeyed())
    with pytest.raises(AssertionError):
        check_decide_is_periodic_in_n()


def test_large_n_property_catches_a_flipped_witness(monkeypatch):
    # 3 divides every D_k at even k: toggling it in the witness breaks the product
    def flipped(k, n):
        v = decide(k, n)
        if k % 2:
            return v
        return v._replace(witness_primes=tuple(sorted({*v.witness_primes} ^ {3})))

    monkeypatch.setattr(integrality, "decide", flipped)
    with pytest.raises(AssertionError):
        check_decide_at_large_n()
