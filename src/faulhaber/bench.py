"""Wall-clock comparison: theorem-based verdict vs modular / exact summation.

Each cell times three ways of answering "is the average of the first n
k-th powers an integer?":

* ``decide``  -- one gcd against a precomputed prime product,
* ``s_mod``   -- modular summation of n terms,
* ``s_brute`` -- the exact sum, then a divisibility check.

The summation methods run under a per-cell time budget (5 s by default,
and at most that) and are marked infeasible instead of hanging; an
estimated total time is extrapolated from the progress made, so the
report still shows the gap.
Whenever two methods both finish a cell, their verdicts are cross-checked.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import integrality
from .powersum import InconsistencyError, PowerSumQuery

__all__ = ["BenchCell", "DEFAULT_CELLS", "DEFAULT_BUDGET_MS", "run_bench", "speedup_estimate"]

DEFAULT_CELLS: tuple[tuple[int, int], ...] = (
    (2, 100),
    (8, 10_000),
    (20, 1_000_000),
    (1000, 1_000_000_000),
)
DEFAULT_BUDGET_MS = 5000.0

_CHUNK = 2048  # iterations between deadline checks


class BenchCell(NamedTuple):
    k: int
    n: int
    method: str  # "decide" | "s_mod" | "s_brute"
    status: str  # "ok" | "infeasible"
    elapsed_ms: float
    integral: bool | None  # None when the method did not finish
    est_ms: float | None  # extrapolated total when infeasible


def _budgeted_sum(k: int, n: int, m: int | None, budget_s: float) -> tuple[int | None, int]:
    """Sum of pow(x, k, m) over x = 1..n with a deadline; m=None sums exactly.

    Returns (sum | None, terms done).  With m = n the sum is congruent to
    S_k(n) mod n, so either way S_k(n)/n is integral iff the sum is 0 mod n.
    """
    deadline = time.perf_counter() + budget_s
    total = 0
    j = 1
    while j <= n:
        hi = min(n, j + _CHUNK - 1)
        total += sum(pow(x, k, m) for x in range(j, hi + 1))
        j = hi + 1
        if time.perf_counter() > deadline:
            return None, j - 1
    return total, n


def _cell(k: int, n: int, method: str, elapsed: float, integral: bool | None, done: int) -> BenchCell:
    if integral is None:
        est = elapsed * 1000.0 * (n / max(done, 1))
        return BenchCell(k, n, method, "infeasible", round(elapsed * 1000.0, 3), None, round(est, 3))
    return BenchCell(k, n, method, "ok", round(elapsed * 1000.0, 3), integral, None)


def run_bench(
    cells: tuple[tuple[int, int], ...] = DEFAULT_CELLS,
    budget_ms: float = DEFAULT_BUDGET_MS,
) -> list[BenchCell]:
    """Time every method on every cell; raises on verdict disagreement.

    The budget and every cell are checked before the first cell is timed,
    so a bad argument fails at once: the budget must lie in
    (0, DEFAULT_BUDGET_MS] ms, because a larger one lets the summations at
    the default cells run for hours, and a cell needs k >= 1 and n >= 1.
    """
    if not 0 < budget_ms <= DEFAULT_BUDGET_MS:
        raise ValueError(f"budget must be > 0 and <= {DEFAULT_BUDGET_MS:g} ms, got {budget_ms}")
    for k, n in cells:
        PowerSumQuery(k=k, n=n)
    budget_s = budget_ms / 1000.0
    out: list[BenchCell] = []
    for k, n in cells:
        start = time.perf_counter()
        verdict = integrality.decide(k, n)
        out.append(_cell(k, n, "decide", time.perf_counter() - start, verdict.integral, n))

        for method, m in (("s_mod", n), ("s_brute", None)):
            start = time.perf_counter()
            total, done = _budgeted_sum(k, n, m, budget_s)
            integral = None if total is None else total % n == 0
            out.append(_cell(k, n, method, time.perf_counter() - start, integral, done))
            if integral is not None and integral != verdict.integral:
                raise InconsistencyError(
                    f"summation verdict {integral} contradicts rule verdict "
                    f"{verdict.integral} at k={k}, n={n}"
                )
    return out


def speedup_estimate(results: list[BenchCell]) -> tuple[int, int, float] | None:
    """(k, n, ratio) of s_mod cost to decide cost at the largest cell timed."""
    best = None
    by_key: dict[tuple[int, int], dict[str, BenchCell]] = {}
    for c in results:
        by_key.setdefault((c.k, c.n), {})[c.method] = c
    for (k, n), methods in by_key.items():
        dec, smod = methods.get("decide"), methods.get("s_mod")
        if dec is None or smod is None:
            continue
        cost = smod.elapsed_ms if smod.status == "ok" else (smod.est_ms or 0.0)
        ratio = cost / max(dec.elapsed_ms, 1e-3)
        if best is None or n > best[1]:
            best = (k, n, round(ratio, 1))
    return best
