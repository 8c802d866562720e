"""Wall-clock comparison: theorem-based verdict vs modular / exact summation.

Each cell times three ways of answering "is the average of the first n
k-th powers an integer?":

* ``decide``  -- one gcd against a precomputed prime product,
* ``s_mod``   -- ``powersum.s_mod`` with modulus n, over n terms,
* ``s_brute`` -- ``powersum.s_brute``, the exact sum, then a divisibility check.

Each summation runs on the longest prefix 1..n0 <= n that its route's
bound in ``powersum`` admits, the bound the CLI refuses calls by.  With
n0 = n the cell is ``ok`` and its verdict is cross-checked against
``decide``; otherwise it is ``infeasible``, and its total time is
extrapolated from the prefix by n / n0, so the report still shows the gap.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from . import integrality, powersum
from .powersum import InconsistencyError, PowerSumQuery

__all__ = ["BenchCell", "DEFAULT_CELLS", "run_bench", "speedup_estimate"]

DEFAULT_CELLS: tuple[tuple[int, int], ...] = (
    (2, 100),
    (8, 10_000),
    (20, 1_000_000),
    (1000, 1_000_000_000),
)


class BenchCell(NamedTuple):
    k: int
    n: int
    method: str  # "decide" | "s_mod" | "s_brute"
    status: str  # "ok" | "infeasible"
    elapsed_ms: float
    integral: bool | None  # None when the method did not finish
    est_ms: float | None  # extrapolated total when infeasible


def run_bench(cells: tuple[tuple[int, int], ...] = DEFAULT_CELLS) -> list[BenchCell]:
    """Time every method on every cell; raises on verdict disagreement.

    Every cell is checked before the first one is timed, so a bad cell
    (k < 1 or n < 1) fails at once.
    """
    for k, n in cells:
        PowerSumQuery(k=k, n=n)
    out: list[BenchCell] = []
    for k, n in cells:
        start = time.perf_counter()
        verdict = integrality.decide(k, n)
        ms = (time.perf_counter() - start) * 1000.0
        out.append(BenchCell(k, n, "decide", "ok", round(ms, 3), verdict.integral, None))

        # S_k(n0) mod n either way; one term costs nothing, whatever k is
        for method, terms, residue in (
            ("s_mod", powersum._mod_terms(k, n, n), lambda q: powersum.s_mod(q, n)),
            ("s_brute", powersum._brute_terms(k, n), lambda q: powersum.s_brute(q) % n),
        ):
            terms = max(terms, 1)
            start = time.perf_counter()
            r = residue(PowerSumQuery(k=k, n=terms))
            ms = (time.perf_counter() - start) * 1000.0
            if terms < n:
                est = round(ms * n / terms, 3)
                out.append(BenchCell(k, n, method, "infeasible", round(ms, 3), None, est))
                continue
            integral = r == 0
            out.append(BenchCell(k, n, method, "ok", round(ms, 3), integral, None))
            if integral != verdict.integral:
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
