"""Command-line surface.

Every subcommand is a thin adapter over the library: it parses arguments,
calls the one function that does the work, and prints the result either
as plain text or, with ``--json``, as line-delimited records with stable
key order.  Exact values are always rendered as decimal strings or
"num/den" -- ``--approx`` may append a decimal approximation but never
replaces the exact form.

Exit codes: 0 success (and "integral" for check), 1 not integral (check
only), 2 usage or input error, a closed stdout or running out of memory,
3 internal inconsistency.
"""

import math
import os
import sys

# json, decimal and fractions are imported where they are used, so check,
# denom and table without --json load only int code; argparse (with the
# gettext it pulls in) is imported when main builds the parser, so a process
# that imports this module without parsing argv does not pay for it
from . import bench, bernoulli, integrality, powersum, primes, selftest
from .powersum import InconsistencyError, PowerSumQuery

__all__ = ["main", "approx_decimal"]

# each work bound lives beside its work (the Bernoulli tables in bernoulli,
# the routes in powersum, grid in integrality); these two bound only output

# sum and avg print S_k(n) < n^(k+1) in full, at most (k+1) log10(n) + 1 digits,
# and CPython before 3.12 turns an int into decimal digits in quadratic time
# (about 1.3 s for 2.6e5 digits on one core); past this many, every route is refused
_OUTPUT_DIGIT_BOUND = 2 * 10**5
# table --json writes one record of about 150 bytes per cell (about 2 s and
# 30 MB for 200 x 1000 cells); past this many cells it is refused
_TABLE_JSON_CELL_BOUND = 2 * 10**5
_APPROX_DIGITS = 12


def _emit(record: dict, as_json: bool, human: str) -> None:
    if as_json:
        import json

        print(json.dumps(record))
    else:
        print(human)


def approx_decimal(q) -> str:
    """Decimal approximation of a Fraction q as a string; only ever *appended* to exact output.

    It keeps 12 significant digits, rounded in ``decimal`` past the normal
    float range, where a float would overflow, lose digits or round to 0.

    >>> from fractions import Fraction
    >>> approx_decimal(Fraction(-1, 30))
    '-0.0333333333333'
    >>> approx_decimal(Fraction(-7 * 10**500))
    '-7e+500'
    >>> approx_decimal(Fraction(1, 10**400))
    '1e-400'
    """
    if not q or sys.float_info.min <= abs(q) <= sys.float_info.max:
        return format(q.numerator / q.denominator, f".{_APPROX_DIGITS}g")
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = _APPROX_DIGITS
        value = Decimal(q.numerator) / q.denominator
        return format(value.normalize(), "g")


def _sum_by_route(k: int, n: int, route: str) -> int:
    q = PowerSumQuery(k=k, n=n)
    # compared as int against float, so no k is too large to test
    if n > 1 and k + 1 > _OUTPUT_DIGIT_BOUND / math.log10(n):
        raise ValueError(
            f"S_k(n) has about (k+1) log10(n) digits, and output is bounded at"
            f" {_OUTPUT_DIGIT_BOUND} digits; no route's bound admits k={k}, n={n}"
        )
    try:
        return powersum.s_route(q, route)
    except powersum.RouteRefused as exc:
        # the library names routes; the CLI names the option that picks one
        others = " or ".join(f"--route {o}" for o in exc.admitting)
        advice = f"use {others} for" if others else "no route's bound admits"
        raise ValueError(
            f"the {exc.route} route (in --route {route}) {exc.bound}; {advice} k={k}, n={n}"
        ) from None


def _cmd_bern(args) -> int:
    # the series table has the smaller bound, so with --verify it is built
    # first: a k past it is refused before either table starts
    other = bernoulli.bernoulli_egf(args.k) if args.verify else None
    table = bernoulli.bernoulli_recursive(args.k)
    value = table[args.k]
    record = {"command": "bern", "k": str(args.k), "value": str(value)}
    human = str(value)
    if args.verify:
        if other.values != table.values:
            raise InconsistencyError(f"recursion and series routes disagree up to {args.k}")
        record["verified"] = True
    if args.approx:
        record["approx"] = approx_decimal(value)
        human += f" ≈ {record['approx']}"
    _emit(record, args.json, human)
    return 0


def _cmd_denom(args) -> int:
    ps = primes.vsc_primes(args.k)
    d = math.prod(ps)
    record = {
        "command": "denom",
        "k": str(args.k),
        "value": str(d),
        "primes": [str(p) for p in ps],
    }
    _emit(record, args.json, str(d))
    return 0


def _cmd_sum(args) -> int:
    value = _sum_by_route(args.k, args.n, args.route)
    record = {
        "command": "sum",
        "k": str(args.k),
        "n": str(args.n),
        "route": args.route,
        "value": str(value),
    }
    if args.route == "all":
        record["routes_agree"] = True  # a disagreement never reaches this line
    _emit(record, args.json, str(value))
    return 0


def _cmd_avg(args) -> int:
    from fractions import Fraction

    value = Fraction(_sum_by_route(args.k, args.n, args.route), args.n)
    record = {
        "command": "avg",
        "k": str(args.k),
        "n": str(args.n),
        "route": args.route,
        "value": str(value),
        "integral": value.denominator == 1,
    }
    if args.route == "all":
        record["routes_agree"] = True
    human = str(value)
    if args.approx:
        record["approx"] = approx_decimal(value)
        human += f" ≈ {record['approx']}"
    _emit(record, args.json, human)
    return 0


def _verdict_record(command: str, k: int, n: int, v: integrality.Verdict) -> dict:
    return {
        "command": command,
        "k": str(k),
        "n": str(n),
        "integral": v.integral,
        "rule": v.rule,
        "witness_primes": [str(p) for p in v.witness_primes],
        "witness_residue": None if v.witness_residue is None else str(v.witness_residue),
    }


def _cmd_check(args) -> int:
    verdict = integrality.decide(args.k, args.n)
    human = "integral" if verdict.integral else f"not integral; {verdict.witness_text()}"
    _emit(_verdict_record("check", args.k, args.n, verdict), args.json, human)
    return 0 if verdict.integral else 1


def _cmd_table(args) -> int:
    # grid bounds its own cells; --json writes far more per cell, so it has its own bound
    if args.json and min(args.kmax, args.nmax) >= 1 and args.kmax * args.nmax > _TABLE_JSON_CELL_BOUND:
        raise ValueError(
            f"table builds all kmax nmax verdicts before it prints and is bounded at"
            f" kmax nmax <= {_TABLE_JSON_CELL_BOUND} with --json; got kmax={args.kmax}, nmax={args.nmax}"
        )
    rows = integrality.grid(args.kmax, args.nmax)
    if args.json:
        import json
    else:
        print(f"  k  denominator  integral for n = 1..{args.nmax}")
    for k, row in enumerate(rows, start=1):
        den = str(bernoulli.vsc_denominator(k)) if k >= 2 and k % 2 == 0 else None
        if args.json:
            for n, verdict in enumerate(row, start=1):
                record = _verdict_record("table", k, n, verdict)
                record["denominator"] = den
                print(json.dumps(record))
        else:
            cells = " ".join("✓" if v.integral else "✗" for v in row)
            print(f"{k:>3}  {den or '-':>11}  {cells}")
    return 0


def _cmd_selftest(args) -> int:
    results = selftest.run_groups()
    failed = [r for r in results if not r.passed]
    for r in results:
        record = {
            "command": "selftest",
            "group": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "seconds": round(r.elapsed, 3),
        }
        mark = "ok  " if r.passed else "FAIL"
        human = f"{mark} {r.name:<26} {r.elapsed:7.2f}s"
        if r.detail:
            human += f"  {r.detail}"
        _emit(record, args.json, human)
    summary = {
        "command": "selftest-summary",
        "groups": str(len(results)),
        "failed": str(len(failed)),
    }
    if failed:
        names = ", ".join(r.name for r in failed)
        _emit(summary, args.json, f"{len(failed)} of {len(results)} invariant groups FAILED: {names}")
        return 3
    _emit(summary, args.json, f"all {len(results)} invariant groups passed")
    return 0


def _cmd_bench(args) -> int:
    results = bench.run_bench()
    for c in results:
        record = {
            "command": "bench",
            "k": str(c.k),
            "n": str(c.n),
            "method": c.method,
            "status": c.status,
            "ms": c.elapsed_ms,
            "integral": c.integral,
            "est_ms": c.est_ms,
        }
        if c.status == "ok":
            verdict = "integral" if c.integral else "not integral"
            human = f"k={c.k:<5} n={c.n:<11} {c.method:<8} {c.elapsed_ms:>12.3f} ms  {verdict}"
        else:
            human = (
                f"k={c.k:<5} n={c.n:<11} {c.method:<8} "
                f"infeasible past its bound (estimated {c.est_ms:.0f} ms from a prefix)"
            )
        _emit(record, args.json, human)
    k, n, ratio = bench.speedup_estimate(results)
    record = {"command": "bench-summary", "k": str(k), "n": str(n), "speedup": ratio}
    _emit(record, args.json, f"rule-based decision vs modular summation at k={k}, n={n}: ~{ratio}x")
    return 0


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="faulhaber",
        description="Exact Bernoulli numbers, power sums, and integrality of their averages.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit line-delimited JSON records")
    summed = argparse.ArgumentParser(add_help=False, parents=[common])
    summed.add_argument("k", type=int)
    summed.add_argument("n", type=int)
    summed.add_argument(
        "--route",
        choices=(*powersum.ROUTES, "all"),
        default="faulhaber",
        help="evaluation route; 'all' cross-checks every route",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bern", parents=[common], help="print the k-th Bernoulli number")
    p.add_argument("k", type=int)
    p.add_argument("--verify", action="store_true", help="cross-check the two routes")
    p.add_argument("--approx", action="store_true", help="append a decimal approximation")
    p.set_defaults(handler=_cmd_bern)

    p = sub.add_parser("denom", parents=[common], help="Bernoulli denominator for even k")
    p.add_argument("k", type=int)
    p.set_defaults(handler=_cmd_denom)

    p = sub.add_parser("sum", parents=[summed], help="S_k(n) = 1^k + ... + n^k, exactly")
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("avg", parents=[summed], help="average of the first n k-th powers")
    p.add_argument("--approx", action="store_true", help="append a decimal approximation")
    p.set_defaults(handler=_cmd_avg)

    p = sub.add_parser("check", parents=[common], help="decide integrality, with witness")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("table", parents=[common], help="verdict grid over 1..kmax x 1..nmax")
    p.add_argument("kmax", nargs="?", type=int, default=8)
    p.add_argument("nmax", nargs="?", type=int, default=16)
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("selftest", parents=[common], help="run the full invariant suite")
    p.set_defaults(handler=_cmd_selftest)

    p = sub.add_parser("bench", parents=[common], help="decision rule vs summation timings")
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    saved_limit = None
    if hasattr(sys, "set_int_max_str_digits"):  # exact values may exceed 4300 digits
        saved_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here at the latest, not at exit
        return code
    except BrokenPipeError:
        # later writes, the interpreter's final flush among them, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed", file=sys.stderr)
        return 2
    except (ValueError, primes.FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an uncaught one would exit 1, which reads as "not integral"
        print("error: out of memory", file=sys.stderr)
        return 2
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    finally:
        # the limit is process-wide; callers in this interpreter keep theirs
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    sys.exit(main())
