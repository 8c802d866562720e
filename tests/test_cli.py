import argparse
import ast
import json
import os
import pathlib
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from test_selftest import corrupt_egf

import faulhaber.bernoulli
import faulhaber.integrality
import faulhaber.powersum
import faulhaber.primes
from faulhaber import bench, selftest
from faulhaber.bernoulli import bernoulli_recursive
from faulhaber.cli import approx_decimal, build_parser, main
from faulhaber.primes import vsc_primes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "q,expected",
    [
        (Fraction(1, 10**400), "1e-400"),  # a float rounds it to 0
        (Fraction(-3, 7 * 10**330), "-4.28571428571e-331"),  # to -0
        (Fraction(1, 3 * 10**320), "3.33333333333e-321"),  # to 3.33494310943e-321
    ],
)
def test_approx_decimal_below_the_normal_float_range(q, expected):
    with localcontext() as ctx:
        ctx.prec = 12
        assert format((Decimal(q.numerator) / q.denominator).normalize(), "g") == expected
    assert approx_decimal(q) == expected


# the error text of each refusal below is a row of cli_transcript.jsonl; these
# tests show that no work starts before it
@pytest.mark.parametrize("argv", [("bern", "2049"), ("bern", "513", "--verify")], ids=["plain", "verify"])
def test_bern_past_its_k_bound_exits_2_before_any_work(capsys, monkeypatch, argv):
    # past the bound either table would take seconds to minutes; neither may start
    def never(*args):
        raise AssertionError("a Bernoulli table was built past the k bound")

    monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_recursive", never)
    monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_egf", never)
    assert run_cli(capsys, *argv)[:2] == (2, "")


def test_bern_past_the_verify_bound_runs_without_verify(capsys):
    code, out, _ = run_cli(capsys, "bern", "600")
    assert code == 0
    assert out == str(bernoulli_recursive(600)[600]) + "\n"


def test_bern_approx_any_magnitude(capsys):
    code, out, _ = run_cli(capsys, "bern", "300", "--approx")
    assert code == 0
    exact, approx = out.strip().split(" ≈ ")
    value = Fraction(exact)
    assert abs(value) > 10**308  # beyond the float range
    estimate = Decimal(approx)
    assert estimate.is_finite()
    assert abs(Fraction(estimate) / value - 1) < Fraction(1, 10**11)


def test_denom_filters_primes_once(capsys, monkeypatch):
    calls = []

    def counted(k):
        calls.append(k)
        return vsc_primes(k)

    faulhaber.bernoulli.vsc_denominator.cache_clear()
    faulhaber.primes.vsc_primes.cache_clear()
    monkeypatch.setattr(faulhaber.primes, "vsc_primes", counted)
    code, _, _ = run_cli(capsys, "denom", "720720")
    assert code == 0
    assert calls == [720720]


def test_sum_prints_values_past_4300_digits(capsys):
    # where the interpreter limits int digits, main lifts the limit and then
    # restores it; set a known nonzero limit, whatever earlier tests left behind
    limited = hasattr(sys, "get_int_max_str_digits")
    if limited:
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        code, out, _ = run_cli(capsys, "sum", "2000", "1000", "--route", "brute")
        assert code == 0
        assert len(out.strip()) > 4300
        assert out.strip().isdigit()
        if limited:
            assert sys.get_int_max_str_digits() == 4300
    finally:
        if limited:
            sys.set_int_max_str_digits(before)


def refused_before_any_work(k, n, routes):
    """A test that ``sum``/``avg`` k n ``--route`` r exits 2 with empty stdout
    for each r in ``routes`` before any summation or Bernoulli table starts."""

    @pytest.mark.parametrize("command", ["sum", "avg"])
    @pytest.mark.parametrize("route", routes)
    def test(capsys, monkeypatch, command, route):
        def never(*args):
            raise AssertionError(f"a summation route ran past its bound at k={k}, n={n}")

        for name in ("s_brute", "s_faulhaber", "s_recursive"):
            monkeypatch.setattr(faulhaber.powersum, name, never)
        monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_recursive", never)
        assert run_cli(capsys, command, str(k), str(n), "--route", route)[:2] == (2, "")

    return test


# any summation reached would be 10**30 terms of work
test_brute_route_past_its_term_bound_exits_2_before_any_work = refused_before_any_work(
    2, 10**30, ["brute", "all"]
)
# n = 10**6 is inside the term bound, but at k = 600 the powers hold about
# 1.2e10 bits, more than 15 s of summing
test_brute_route_past_its_work_bound_exits_2_before_any_work = refused_before_any_work(
    600, 10**6, ["brute", "all"]
)
# n = 1000 is inside the brute route's term bound; at k = 2000 the recursion
# alone would run for minutes
test_recursive_route_past_its_work_bound_exits_2_before_any_work = refused_before_any_work(
    2000, 1000, ["recursive", "all"]
)
# n = 2 is two terms by the brute route; at k = 8192 the Bernoulli table alone
# would take minutes to build
test_faulhaber_route_past_its_k_bound_exits_2_before_any_work = refused_before_any_work(
    8192, 2, ["faulhaber", "all"]
)
# k = 10**6 at n = 10 is inside the brute route's bounds, but the value has
# 10**6 digits, and printing them takes more than 30 s
test_output_past_its_digit_bound_exits_2_before_any_work = refused_before_any_work(
    10**6, 10, ["brute", "faulhaber", "recursive", "all"]
)


def test_output_digit_bound_admits_up_to_200000_digits(capsys, monkeypatch):
    # at n = 10 the estimate (k+1) log10(n) is k + 1 digits exactly
    monkeypatch.setattr(faulhaber.powersum, "s_brute", lambda q: 0)
    assert run_cli(capsys, "sum", "199999", "10", "--route", "brute")[0] == 0
    assert run_cli(capsys, "sum", "200000", "10", "--route", "brute")[0] == 2
    # a 1 is one digit at any k
    assert run_cli(capsys, "sum", str(10**7), "1", "--route", "brute")[0] == 0


def test_every_refusal_names_only_routes_the_bounds_admit(capsys, monkeypatch):
    # stub routes that agree at once: a call exits 0 exactly when no bound refuses it
    monkeypatch.setattr(faulhaber.powersum, "s_brute", lambda q: 0)
    monkeypatch.setattr(faulhaber.powersum, "s_faulhaber", lambda q: 0)
    monkeypatch.setattr(faulhaber.powersum, "s_recursive", lambda k, n: [0])
    refusals = 0
    for k in (2, 600, 700, 2048, 2049, 8192):
        for n in (2, 1000, 10**6, 10**6 + 1, 10**30):
            for route in ("brute", "faulhaber", "recursive", "all"):
                code, _, err = run_cli(capsys, "sum", str(k), str(n), "--route", route)
                if code == 0:
                    continue
                refusals += 1
                assert code == 2, err
                advice = err.split(";")[-1]
                named = re.findall(r"--route (\w+)", advice)
                admitted = [
                    other
                    for other in ("brute", "faulhaber", "recursive")
                    if run_cli(capsys, "sum", str(k), str(n), "--route", other)[0] == 0
                ]
                assert sorted(named) == admitted, err
                assert named or "no route" in advice, err
    assert refusals > 20


def test_check_past_the_candidate_bound_exits_2_before_any_candidate(capsys, monkeypatch):
    # k/2 is the product of the 25 primes up to 97, so it has 2^25 divisors:
    # listing a candidate 2m + 1 for each would take gigabytes
    def never(n):
        raise AssertionError("a candidate was settled past the candidate bound")

    monkeypatch.setattr(faulhaber.primes, "is_prime", never)
    assert run_cli(capsys, "check", "4611135927891036849506204294663512140", "6")[:2] == (2, "")


def test_check_json_record(capsys):
    code, out, _ = run_cli(capsys, "check", "2", "6", "--json")
    assert code == 1
    record = json.loads(out)
    assert record == {
        "command": "check",
        "k": "2",
        "n": "6",
        "integral": False,
        "rule": "even-k",
        "witness_primes": ["2", "3"],
        "witness_residue": None,
    }


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "check", "2", "6", "--json")
    _, second, _ = run_cli(capsys, "check", "2", "6", "--json")
    assert first == second


class GridRan(Exception):
    pass


def ran_grid(kmax, nmax):
    raise GridRan(kmax, nmax)


# --json writes about 150 bytes a cell, so it has its own bound of 200000 cells
@pytest.mark.parametrize(
    "argv", [["4000001", "1"], ["200", "20001"], ["1", "10000000000"], ["200", "1001", "--json"]]
)
def test_table_past_its_cell_bound_exits_2_before_any_verdict(capsys, monkeypatch, argv):
    monkeypatch.setattr(faulhaber.integrality, "grid", ran_grid)
    assert run_cli(capsys, "table", *argv)[:2] == (2, "")


@pytest.mark.parametrize(
    "argv", [["200", "20000"], ["1", "4000000"], ["0", "10000000000"], ["200", "1000", "--json"]]
)
def test_table_cell_bound_admits_up_to_4000000_cells(capsys, monkeypatch, argv):
    # a kmax or nmax below 1 is left to grid's own check; --json admits 200000
    monkeypatch.setattr(faulhaber.integrality, "grid", ran_grid)
    with pytest.raises(GridRan):
        main(["table", *argv])


def test_cli_is_a_thin_adapter(capsys):
    # byte-identical to direct library calls on the same inputs
    table = bernoulli_recursive(8)
    _, out, _ = run_cli(capsys, "bern", "8")
    assert out == str(table[8]) + "\n"

    q = faulhaber.powersum.PowerSumQuery(k=5, n=9)
    _, out, _ = run_cli(capsys, "sum", "5", "9")
    assert out == str(faulhaber.powersum.s_faulhaber(q)) + "\n"

    _, out, _ = run_cli(capsys, "avg", "5", "9")
    assert out == str(Fraction(faulhaber.powersum.s_faulhaber(q), 9)) + "\n"


def test_option_strings_of_every_subcommand_are_pinned():
    # every settable option is listed here, so a new one shows up as a diff
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(s for action in p._actions for s in action.option_strings)
        for name, p in sub.choices.items()
    }
    options[parser.prog] = sorted(s for action in parser._actions for s in action.option_strings)
    common = ["--help", "--json", "-h"]
    assert options == {
        "faulhaber": ["--help", "-h"],
        "bern": sorted(common + ["--approx", "--verify"]),
        "denom": common,
        "sum": sorted(common + ["--route"]),
        "avg": sorted(common + ["--approx", "--route"]),
        "check": common,
        "table": common,
        "selftest": common,
        "bench": common,
    }


# argparse refuses each before any handler runs; the options that do exist
# are pinned above, and kmax and nmax of table are positional only
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "2"],
        ["bern", "4", "--cap", "600"],
        ["selftest", "--quick"],
        ["bench", "--budget-ms", "500"],
        ["table", "--kmax", "2"],
    ],
    ids=["missing-n", "bern-cap", "selftest-quick", "bench-budget-ms", "table-kmax-flag"],
)
def test_usage_error_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def planted_counterexample():
    raise selftest.InvariantViolation("planted counterexample")


# one passing and one failing stub: these tests pin the report, and every real
# group runs once, in the acceptance gate
STUB_GROUPS = [("stub-holds", lambda: None), ("stub-fails", planted_counterexample)]


def run_selftest(capsys, monkeypatch, groups, *flags):
    monkeypatch.setattr(selftest, "GROUPS", groups)
    return run_cli(capsys, "selftest", *flags)


def test_selftest_quick(capsys, monkeypatch):
    code, out, _ = run_selftest(capsys, monkeypatch, STUB_GROUPS)
    assert code == 3
    *lines, _ = out.splitlines()
    parts = []
    for line in lines:  # the mark, the name and the time, then the detail on FAIL
        name, seconds, *detail = line[5:].split(maxsplit=2)
        assert seconds.endswith("s") and float(seconds[:-1]) >= 0
        parts.append((line[:4], name, detail))
    assert parts == [("ok  ", "stub-holds", []), ("FAIL", "stub-fails", ["planted counterexample"])]


def test_selftest_json(capsys, monkeypatch):
    code, out, _ = run_selftest(capsys, monkeypatch, STUB_GROUPS, "--json")
    assert code == 3
    *records, summary = [json.loads(line) for line in out.splitlines()]
    assert [list(r) for r in records] == [["command", "group", "passed", "detail", "seconds"]] * len(STUB_GROUPS)
    assert [(r["group"], r["passed"], r["detail"]) for r in records] == [
        ("stub-holds", True, ""),
        ("stub-fails", False, "planted counterexample"),
    ]
    assert summary == {"command": "selftest-summary", "groups": str(len(STUB_GROUPS)), "failed": "1"}


def test_selftest_names_injected_fault(capsys, monkeypatch):
    # exit 3 names only the group that fails; without it, exit 0
    code, out, _ = run_selftest(capsys, monkeypatch, STUB_GROUPS)
    assert code == 3
    assert out.splitlines()[-1] == f"1 of {len(STUB_GROUPS)} invariant groups FAILED: stub-fails"
    passing = STUB_GROUPS[:1]
    code, out, _ = run_selftest(capsys, monkeypatch, passing)
    assert code == 0
    assert out.splitlines()[-1] == f"all {len(passing)} invariant groups passed"


def test_route_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(faulhaber.powersum, "s_brute", lambda q: 31)
    code, _, err = run_cli(capsys, "sum", "2", "4", "--route", "all")
    assert code == 3
    assert "disagree" in err


def test_avg_route_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(faulhaber.powersum, "s_brute", lambda q: 31)
    code, out, err = run_cli(capsys, "avg", "2", "4", "--route", "all")
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_bern_verify_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(faulhaber.bernoulli, "bernoulli_egf", corrupt_egf)
    code, out, err = run_cli(capsys, "bern", "10", "--verify")
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_bench_verdict_disagreement_exits_3(capsys, monkeypatch):
    decide = faulhaber.integrality.decide

    def flipped(k, n):
        verdict = decide(k, n)
        return verdict._replace(integral=not verdict.integral)

    monkeypatch.setattr(faulhaber.integrality, "decide", flipped)
    code, out, err = run_cli(capsys, "bench")
    assert code == 3
    assert out == ""
    assert "contradicts" in err


def test_bench_runs_the_library_summation(capsys, monkeypatch):
    s_mod = faulhaber.powersum.s_mod

    def flipped(q, m):
        return 0 if s_mod(q, m) else 1

    monkeypatch.setattr(faulhaber.powersum, "s_mod", flipped)
    code, out, err = run_cli(capsys, "bench")
    assert code == 3
    assert out == ""
    assert "contradicts" in err


def test_bench_runs_s_mod_only_on_the_terms_its_bound_admits(bench_report, bench_s_mod_calls):
    calls = bench_s_mod_calls
    assert [(k, m) for k, _, m in calls] == list(bench.DEFAULT_CELLS)
    for k, terms, m in calls:
        assert terms <= 10**6 and terms * k.bit_length() * m.bit_length() <= 3 * 10**8
    assert calls[-1][1] == 10**6  # of the 10^9 terms at k = 1000


def test_bench_report(bench_report):
    summary = bench_report[-1]
    assert summary["command"] == "bench-summary"
    assert summary["speedup"] > 1000

    cells = bench_report[:-1]
    assert [list(r) for r in cells] == [
        ["command", "k", "n", "method", "status", "ms", "integral", "est_ms"]
    ] * len(cells)
    assert {r["method"] for r in cells} == {"decide", "s_mod", "s_brute"}
    decide_cells = [r for r in cells if r["method"] == "decide"]
    assert all(r["status"] == "ok" for r in decide_cells)

    big = [r for r in cells if r["n"] == "1000000000" and r["method"] == "s_mod"]
    assert big[0]["status"] == "infeasible"
    assert big[0]["integral"] is None
    assert big[0]["est_ms"] >= 999 * big[0]["ms"]  # 10^6 of the 10^9 terms, extrapolated


def test_bench_calls_infeasible_exactly_the_brute_calls_the_cli_refuses(
    capsys, monkeypatch, bench_report
):
    # a stub in place of the brute route: a bound that admits n = 10^9 fails here, not hangs
    summed = []

    def stub(q):
        summed.append((q.k, q.n))
        return 0

    monkeypatch.setattr(faulhaber.powersum, "s_brute", stub)
    cells = [r for r in bench_report[:-1] if r["method"] == "s_brute"]
    assert len(cells) == len(bench.DEFAULT_CELLS)
    for r in cells:
        code, _, err = run_cli(capsys, "sum", r["k"], r["n"], "--route", "brute")
        assert (r["status"] == "infeasible") == (code == 2), (r, err)
    assert {r["status"] for r in cells} == {"ok", "infeasible"}
    assert summed == [(int(r["k"]), int(r["n"])) for r in cells if r["status"] == "ok"]


def test_readme_cli_block_names_only_existing_options():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    known = {s for p in sub.choices.values() for action in p._actions for s in action.option_strings}
    named = set(re.findall(r"--[a-z][a-z-]*", block))
    assert named and named <= known, named - known


def test_module_entry_point_runs(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "faulhaber", "check", "4", "7"],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "integral"


def test_cli_import_loads_neither_dataclasses_nor_inspect(src_env):
    # those two were more than half of the import; typing and __future__ go
    # too, since the records are built on a plain tuple base, and argparse
    # (with its gettext) loads only when main builds the parser.  selftest and
    # bench stay eager, because the benchmark reads their import times off
    # this import.  -S keeps whatever site-packages import at start-up (which
    # can be typing itself) out of the count
    code = """
import contextlib, io, sys, faulhaber.cli
print(*sorted(m for m in ('dataclasses', 'inspect', 'typing', '__future__', 'argparse', 'gettext',
                          'faulhaber.bench', 'faulhaber.selftest') if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    code = faulhaber.cli.main(["check", "4", "7"])
print(code, 'argparse' in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    imported, parsed = proc.stdout.splitlines()
    assert imported.split() == ["faulhaber.bench", "faulhaber.selftest"]
    # deferred, not removed: the first parse loads it
    assert parsed.split() == ["0", "True"]


# fractions imports decimal and numbers; json is the CLI's own
_LAZY_MODULES = ("fractions", "decimal", "numbers", "json")


def test_cli_import_loads_no_rational_decimal_or_json(src_env):
    code = f"import sys, faulhaber.cli; print(*(m for m in {_LAZY_MODULES!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_int_only_commands_load_no_rational_decimal_or_json(src_env):
    # one child runs the commands in turn and reports, after each, its exit
    # code and which of the lazy modules are loaded by then; bern and --json
    # come last, to show the probe sees a load when there is one.  What each
    # command prints is a row of cli_transcript.jsonl
    code = f"""
import contextlib, io, sys
from faulhaber import cli
for argv in (["check", "4", "7"], ["denom", "60"], ["table", "4", "8"], ["sum", "3", "10"],
             ["sum", "3", "10", "--route", "all"], ["bern", "12"], ["check", "4", "7", "--json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print((code, [m for m in {_LAZY_MODULES!r} if m in sys.modules]))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=src_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *int_only, bern, check_json = map(ast.literal_eval, proc.stdout.splitlines())
    # the memo grows in ints, and each route of sum is int-only
    assert int_only == [(0, [])] * 5
    assert bern[0] == 0 and "fractions" in bern[1] and "json" not in bern[1]
    assert check_json[0] == 0 and "json" in check_json[1]


@pytest.mark.parametrize(
    "argv",
    [["check", "4", "7"], ["table", "8", "4000"]],
    ids=["fails-on-final-flush", "fails-mid-output"],
)
def test_closed_stdout_exits_2_without_traceback(src_env, argv):
    # the read end is closed before the child starts, so its first write fails;
    # stdout is block-buffered, so a short output is first written by the flush
    env = {key: value for key, value in src_env.items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "faulhaber", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output was closed\n"
