"""Command-line front end.

Exit status: 0 on success, 1 when a check or scan is inconclusive (or a
self-test disagrees), 2 on usage errors, which include arguments outside
the mathematical domain (``DomainError``) and work budgets above the
limits below.  Output is a pure function of the arguments and of
``CERESA_DIGITS``, the default ``--digits``; ``--threads`` only changes
wall time.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from . import ceresa, specfun
from .ceresa import CeresaResult, RowFailure
from .specfun import DomainError

# f(N,k) costs one closed-form term per twist h (phi(N)/2 of them); at the default
# 30 digits (50 inner) on a shared 2-vCPU VM with pure-Python mpmath, a term took
# 2.3-2.5 ms for N = 1009 and 2003 and 2.4-2.7 ms for N = 40009, so this is about a
# minute; it caps value/check/scan --n and the whole table range, weighted by _term_weight
TWIST_TERMS_MAX = 20_000
# f(N,k) sums its twist terms at ceresa._inner_digits(k! 2 N^{2k}, digits) digits.
# The series engine and ln_gamma certify them at 1,000 digits and more, so this cap
# rests only on _term_weight's fit, measured up to 250 digits
INNER_DIGITS_MAX = 250
# oracle-test --n N runs ((N-1)(N-2))^2 closed-form/quadrature pairs and evaluates each
# distinct closed form once: 72/144, 180/400, 375/900, 1,872/5,184 and 10,647/33,124 at
# N = 5, 6, 7, 10 and 15.  At 30 digits N = 5, 6 and 10 took 0.25-0.43, 0.49-0.66 and
# 4.4-4.7 s, and the 33,124 pairs of N = 15 took 40 s (1.2 ms each); at 250 digits a
# pair weighs 25, and N = 7 (900 pairs) took 4.5 s
ORACLE_PAIRS_MAX = 33_124
# oracle-test evaluates its closed forms at no fewer digits, dixon-test its trials at no more
ORACLE_DIGITS_MIN = 20
DIXON_DIGITS_MAX = 25
# a dixon-test trial (ten closed forms at 25 digits) took 11-14 ms on the same VM,
# over 200 and 2,000 trials, so this is about a minute
DIXON_TRIALS_MAX = 5_000


def _twist_terms_bound(n_lo: int, n_hi: int) -> int:
    """Sum of (N - 1) // 2 >= phi(N) / 2 over n_lo <= N < n_hi, in closed form."""
    def below(x):  # the sum over 1 <= N < x
        return (max(x, 2) - 2) ** 2 // 4
    return below(n_hi) - below(n_lo) if n_lo < n_hi else 0


def _term_weight(inner: int) -> int:
    """A twist term at ``inner`` digits, in TWIST_TERMS_MAX units (terms at the
    default 50): (inner / 50)^2 rounded up, so 4, 9, 16 and 25 at 100, 150, 200
    and 250 digits.  Measured per-term cost ratios there are 2.3, 4.7, 8.7 and 15
    (N = 40009, best of four, interleaved), and at most 2.6, 6.0, 12.7 and 19.6 in
    noisier runs."""
    return max(1, -(-inner * inner // 50 ** 2))


def _needed_inner_digits(n: int, k: int, digits: int) -> int:
    """The inner digits ceresa._certify uses for f(N,k); above INNER_DIGITS_MAX
    a float lower bound, so a huge --k never builds k!."""
    if n < 4 or k < 1:  # outside the domain, which the command itself reports
        return 0
    est = (math.lgamma(k + 1) + 2 * k * math.log(n)) / math.log(10)
    if est > INNER_DIGITS_MAX:
        return int(est)
    return ceresa._inner_digits(ceresa._prefactor(n, k), digits)


def _check_budget(ap: argparse.ArgumentParser, args, digits: int) -> None:
    # inner digits and weighted work, before any computation: a self-test runs at the
    # digits it is given; a table's largest prefactor is that of its last degree
    budget, unit, inner = TWIST_TERMS_MAX, "twist terms", digits
    if args.command == "oracle-test":
        work, budget, unit = ((args.n - 1) * (args.n - 2)) ** 2, ORACLE_PAIRS_MAX, "pairs"
    elif args.command == "dixon-test":
        work, budget, unit = args.trials, DIXON_TRIALS_MAX, "trials"
    else:
        if args.command == "table":
            if args.n_min >= args.n_max:
                ap.error("empty degree range: --n-min must be below --n-max")
            n, work = args.n_max - 1, _twist_terms_bound(args.n_min, args.n_max)
        elif args.command == "klein":
            n, work = 7, 3
        else:
            n, work = args.n, (args.n - 1) // 2
        inner = _needed_inner_digits(n, args.k, digits)
    if inner > INNER_DIGITS_MAX:
        ap.error(f"the arguments need {inner} inner digits, above {INNER_DIGITS_MAX}")
    if work * _term_weight(inner) > budget:
        ap.error(f"{work} {unit} at {inner} inner digits exceed the work budget "
                 f"of {budget} {unit} at 50 digits")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fermatvol",
        description="Error-bounded Ceresa-cycle invariants of Fermat curves")
    common = argparse.ArgumentParser(add_help=False)
    # a string default goes through type=int, so a malformed CERESA_DIGITS exits 2
    common.add_argument("--digits", type=int,
                        default=os.environ.get("CERESA_DIGITS") or "30",
                        help="decimal accuracy target, at least 10 "
                             "(default: env CERESA_DIGITS, else 30)")
    rows = argparse.ArgumentParser(add_help=False, parents=[common])
    rows.add_argument("--format", choices=("csv", "json", "text"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)
    budget = f"(N-1)//2 twist terms per degree, weighted by inner digits, within {TWIST_TERMS_MAX}"

    t = sub.add_parser("table", parents=[rows], help="fractional parts for a degree range")
    t.add_argument("--n-min", type=int, default=4)
    t.add_argument("--n-max", type=int, default=100,
                   help=f"exclusive upper bound; {budget}")
    t.add_argument("--k", type=int, default=1)
    t.add_argument("--threads", type=int, default=1,
                   help="worker processes for independent rows")

    v = sub.add_parser("value", parents=[rows], help="single invariant value")
    v.add_argument("--n", type=int, required=True, help=budget)
    v.add_argument("--k", type=int, default=1)

    c = sub.add_parser("check", parents=[rows], help="non-integrality verdict")
    c.add_argument("--n", type=int, required=True, help=budget)
    c.add_argument("--k", type=int, default=1)

    s = sub.add_parser("scan", parents=[common], help="multiples scan m*f for m <= m-max")
    s.add_argument("--n", type=int, required=True, help=budget)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--m-max", type=int, required=True,
                   help="largest multiple, below 10^(digits-1) so that m_max * err < 0.1")
    s.add_argument("--format", choices=("text", "json"), default="text")

    kq = sub.add_parser("klein", parents=[rows], help="Klein-quartic triple value at degree 7")
    kq.add_argument("--k", type=int, default=13)

    d = sub.add_parser("dixon-test", parents=[common],
                       help="ten-way closed-form consistency self-test, at "
                            f"min(--digits, {DIXON_DIGITS_MAX}) digits")
    d.add_argument("--trials", type=int, default=50,
                   help=f"at least 1 and at most {DIXON_TRIALS_MAX}")
    d.add_argument("--seed", type=int, default=20100301)

    o = sub.add_parser("oracle-test", parents=[common],
                       help="quadrature cross-check of the arc integral closed form")
    o.add_argument("--n", type=int, default=5, help=f"((N-1)(N-2))^2 pairs, weighted by "
                   f"digits, within {ORACLE_PAIRS_MAX} (N = 15)")
    o.add_argument("--tolerance", type=float, default=1e-8, help="a finite positive number")
    return ap


def _emit(rows, fmt: str, out, text) -> int:
    """Print result rows as csv, json or text(row), each failed row on stderr; exit
    status 1 if a row failed or is not certified non-integral."""
    status = 0
    render = {"csv": CeresaResult.csv_row, "json": CeresaResult.to_json}.get(fmt, text)
    if fmt == "csv":
        print("n,k,frac,err,verdict", file=out)
    for row in rows:
        if isinstance(row, RowFailure):
            print(f"row N={row.n}: FAILED {row.message}", file=sys.stderr)
            status = 1
            continue
        print(render(row), file=out)
        if row.verdict != "non-integral":
            status = 1
    return status


def _result_line(res: CeresaResult) -> str:
    return (f"N={res.n} k={res.k}  frac={res.frac_6digits()}  "
            f"err<={mpmath.nstr(res.err, 3)}  verdict={res.verdict}")


def cmd_table(args, digits, out) -> int:
    rows = ceresa.table1(range(args.n_min, args.n_max), args.k, digits,
                         threads=max(1, args.threads))
    if args.format == "text":
        print(f"N    f(N,{args.k}) mod 1", file=out)
    return _emit(rows, args.format, out, lambda row: f"{row.n:<4d} {row.frac_6digits()}")


def cmd_value(args, digits, out) -> int:
    _emit([ceresa.f_value(args.n, args.k, digits)], args.format, out, _result_line)
    return 0


def cmd_check(args, digits, out) -> int:
    return _emit([ceresa.f_value(args.n, args.k, digits)], args.format, out, _result_line)


def cmd_scan(args, digits, out) -> int:
    res = ceresa.multiples_scan(args.n, args.k, args.m_max, digits)
    if args.format == "json":
        print(res.to_json(), file=out)
    else:
        state = "all verified" if res.all_verified else \
            f"first inconclusive at m={res.first_inconclusive}"
        print(f"N={res.n} k={res.k} m<={res.m_max}: verified up to "
              f"{res.verified_up_to} ({state})", file=out)
    return 0 if res.all_verified else 1


def cmd_klein(args, digits, out) -> int:
    return _emit([ceresa.klein_value(args.k, digits)], args.format, out, _result_line)


def _random_quadruple(rng: random.Random) -> tuple:
    def q():
        den = rng.randint(5, 40)
        return Fraction(rng.randint(1, den - 1), den)
    return q(), q(), q(), q()


def cmd_dixon_test(args, digits, out) -> int:
    rng = random.Random(args.seed)
    worst = mp.mpf(0)
    bad = 0
    for trial in range(args.trials):
        quad = _random_quadruple(rng)
        members = specfun.dixon_family(*quad, digits=digits)
        live = [m.value for m in members if not m.skipped]
        exp = min(b.exp for b in live)
        balls = sorted(b._at(exp) for b in live)    # (mid, rad) over 2^exp, by mid
        # the intervals meet pairwise iff they all meet (Helly in one dimension), so
        # iff the highest lower end is at most the lowest upper end, on exact integers
        ok = max(m - r for m, r in balls) <= min(m + r for m, r in balls)
        worst = max(worst, specfun._fixed_mpf(balls[-1][0] - balls[0][0], -exp))  # exactly
        print(f"trial {trial:3d} params={tuple(str(x) for x in quad)} "
              f"live={len(live)} skipped={len(members) - len(live)} "
              f"{'ok' if ok else 'DISAGREE'}", file=out)
        if not ok:
            bad += 1
    print(f"worst pairwise gap: {mpmath.nstr(worst, 3)}; "
          f"{args.trials - bad}/{args.trials} trials consistent", file=out)
    return 0 if bad == 0 else 1


def cmd_oracle_test(args, digits, out) -> int:
    from .fermat import FermatCurve, delta_iterated_integral, index_set
    curve = FermatCurve(args.n)
    idxs = index_set(args.n)
    # the Beta normaliser B(alpha, beta) of each index, once
    betas = [specfun.gamma_quotient([i.alpha, i.beta], [i.alpha + i.beta], 25) for i in idxs]
    worst = 0.0
    bad = 0
    for i1, b1 in zip(idxs, betas):
        for i2, b2 in zip(idxs, betas):
            closed = delta_iterated_integral(curve, i1, i2, digits)
            quad = specfun.euler_double_integral(i1.alpha, i1.beta, i2.alpha, i2.beta)
            normalized = closed * b1 * b2
            gap = abs(float(normalized.value - quad.value))
            worst = max(worst, gap)
            if gap > args.tolerance:
                bad += 1
                print(f"pair ({i1.a},{i1.b})x({i2.a},{i2.b}): gap {gap:.3g}",
                      file=sys.stderr)
    print(f"{len(idxs) ** 2} pairs at N={args.n}: worst |closed - quadrature| = {worst:.3g}",
          file=out)
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    digits = args.digits
    if digits < 10:
        ap.error("--digits (or CERESA_DIGITS) must be at least 10")
    digits = {"oracle-test": max(ORACLE_DIGITS_MIN, digits),
              "dixon-test": min(digits, DIXON_DIGITS_MAX)}.get(args.command, digits)
    if args.command == "scan" and ceresa._decimal_len(args.m_max) >= digits:  # no 10^digits built
        ap.error(f"--m-max must be below 10^{digits - 1}, where m_max * err < 0.1")
    if args.command == "dixon-test" and args.trials < 1:
        ap.error("--trials must be at least 1")
    if args.command == "oracle-test" and not 0 < args.tolerance < math.inf:  # nan fails too
        ap.error("--tolerance must be a finite positive number")
    if args.command == "table" and args.k < 1:  # the rows would each report a DomainError
        ap.error("--k must be at least 1")
    if args.command == "table" and args.n_min < 4:  # so would the rows below degree 4
        ap.error("--n-min must be at least 4")
    _check_budget(ap, args, digits)
    out = sys.stdout
    dispatch = {
        "table": cmd_table,
        "value": cmd_value,
        "check": cmd_check,
        "scan": cmd_scan,
        "klein": cmd_klein,
        "dixon-test": cmd_dixon_test,
        "oracle-test": cmd_oracle_test,
    }
    try:
        return dispatch[args.command](args, digits, out)
    except DomainError as exc:
        ap.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
