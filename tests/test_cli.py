import json
from pathlib import Path

import mpmath
import pytest

from fermatvol import ceresa, specfun
from fermatvol.cli import (DIXON_TRIALS_MAX, INNER_DIGITS_MAX, TWIST_TERMS_MAX, _check_budget,
                           _needed_inner_digits, _twist_terms_bound, build_parser, main)
from fermatvol.specfun import BoundedReal, clear_caches


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_value_json(capsys):
    code, out, _ = run(capsys, ["value", "--n", "5", "--k", "1", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 5 and rec["verdict"] == "non-integral"
    assert rec["frac"].startswith("0.5377411")


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, ["check", "--n", "5", "--k", "1"])
    assert code == 0
    assert "non-integral" in out


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--n-min", "4", "--n-max", "7",
                                "--k", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,frac,err,verdict"
    assert len(lines) == 4
    assert lines[1].startswith("4,1,0.262995")


def test_table_threads_identical_output(capsys):
    args = ["table", "--n-min", "4", "--n-max", "8", "--format", "csv"]
    code1, out1, _ = run(capsys, args + ["--threads", "1"])
    code2, out2, _ = run(capsys, args + ["--threads", "2"])
    assert (code1, out1) == (code2, out2)


def test_reruns_byte_identical(capsys):
    argv = ["value", "--n", "6", "--format", "json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_table_reruns_byte_identical_in_one_process(capsys):
    # the second run reads every memo cache warm
    argv = ["table", "--n-max", "12"]
    first = run(capsys, argv)
    assert first[0] == 0
    assert run(capsys, argv) == first


def test_scan_command(capsys):
    code, out, _ = run(capsys, ["scan", "--n", "5", "--k", "1", "--m-max", "50",
                                "--format", "json"])
    assert code == 0
    assert json.loads(out)["verified_up_to"] == 50
    # far beyond any walk, up to the largest m_max admitted at 30 digits, below the
    # first failing multiple 7.3e29
    for m_max in (10 ** 28, 10 ** 29 - 1):
        code, out, _ = run(capsys, ["scan", "--n", "5", "--m-max", str(m_max)])
        assert code == 0 and "all verified" in out


def test_klein_command(capsys):
    code, out, _ = run(capsys, ["klein", "--k", "1", "--format", "json"])
    assert code == 0
    rec = json.loads(out)
    assert rec["frac"].startswith("0.0343694")


def test_dixon_test_command(capsys):
    code, out, _ = run(capsys, ["dixon-test", "--trials", "2", "--digits", "15"])
    assert code == 0
    assert "2/2 trials consistent" in out


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["table", "--digits", "5"])
    assert exc.value.code == 2


def test_env_digits_default(monkeypatch, capsys):
    monkeypatch.setenv("CERESA_DIGITS", "12")
    code, out, _ = run(capsys, ["value", "--n", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["frac"].startswith("0.262995")


@pytest.mark.parametrize("env", ["abc", "5"])
def test_env_digits_invalid_exits_2(monkeypatch, capsys, env):
    monkeypatch.setenv("CERESA_DIGITS", env)
    with pytest.raises(SystemExit) as exc:
        main(["value", "--n", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["value", "--n", "5", "--k", "99"],
    ["value", "--n", "3"],
    ["klein", "--k", "14"],
    ["scan", "--n", "5", "--m-max", "0"],
    ["oracle-test", "--n", "3"],
    ["dixon-test", "--trials", "0"],
    ["scan", "--n", "5", "--m-max", str(10 ** 29)],  # the least refused at 30 digits
    ["value", "--n", "1000003"],
    ["check", "--n", "1000003"],
    ["scan", "--n", "1000003", "--m-max", "10"],
    ["table", "--n-max", "1000"],
    ["oracle-test", "--n", "16"],
    ["table", "--n-min", "50", "--n-max", "10"],
    ["value", "--n", "100", "--k", "60"],
    ["value", "--n", "7", "--k", "2", "--digits", "400"],
    ["value", "--n", "100", "--k", "4000"],
    ["value", "--n", "5", "--digits", "239"],
    ["check", "--n", "2003", "--digits", "200"],
    ["scan", "--n", "5", "--m-max", "10", "--digits", "400"],
    ["klein", "--digits", "400"],
    ["table", "--n-max", "20", "--digits", "300"],
    ["table", "--k", "40"],
    ["oracle-test", "--n", "4", "--digits", "400"],
    ["oracle-test", "--n", "4", "--digits", "251"],
    ["oracle-test", "--n", "8", "--digits", "250"],
    ["oracle-test", "--n", "13", "--digits", "60"],
    ["oracle-test", "--tolerance", "nan"],
    ["oracle-test", "--tolerance", "inf"],
    ["oracle-test", "--tolerance", "0"],
    ["table", "--k", "0"],
    ["table", "--n-min", "2", "--n-max", "6"],
    ["dixon-test", "--trials", str(DIXON_TRIALS_MAX + 1)],
    # an option only the commands that read it accept
    ["value", "--n", "5", "--threads", "7"],
    ["dixon-test", "--format", "json"],
    ["scan", "--n", "5", "--m-max", "10", "--format", "csv"],
    ["oracle-test", "--format", "csv", "--threads", "2"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_out_of_range_exits_2(capsys, argv):
    # rejected before any certified value is computed
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle-test", "--n", "15"],
    ["oracle-test", "--n", "5", "--digits", "250"],
    ["value", "--n", "40002"],
    ["oracle-test", "--n", "7", "--digits", "250"],
    ["check", "--n", "2001", "--digits", "200"],
    ["dixon-test", "--trials", str(DIXON_TRIALS_MAX)],
])
def test_budget_admits_largest_jobs(argv):
    # the largest admitted oracle jobs at 30 and 250 digits and the largest degrees at
    # 30 and 200 digits pass the budget check, which exits 2 otherwise; the last two
    # were refused under the former (inner/50)^3 weight; nothing is computed
    ap = build_parser()
    args = ap.parse_args(argv)
    _check_budget(ap, args, args.digits)


def test_oracle_test_reference_line(capsys):
    # cmd_oracle_test's own loop with its Beta normalisers, one per index; the line is
    # the reference line of the perfbench selfcheck workload
    code, out, err = run(capsys, ["oracle-test", "--n", "5"])
    assert code == 0 and err == ""
    assert out == "144 pairs at N=5: worst |closed - quadrature| = 6.65e-10\n"


def test_oracle_test_reruns_byte_identical(capsys):
    # the second run in one process reads every closed form and quadrature factor
    # from the memos and must print the same bytes as the first
    from fermatvol import fermat
    clear_caches()
    first = run(capsys, ["oracle-test", "--n", "5"])
    assert fermat._closed_form_cached.cache_info().currsize == 72
    assert run(capsys, ["oracle-test", "--n", "5"]) == first


def test_oracle_test_evaluates_each_region_once(capsys):
    # the 144 pairs ask for 288 regions: A at (a1, b1, a2, b2) and, as region D, A at
    # the swapped pair (b1, a1, b2, a2), which is another of the 144
    from fermatvol import _quadrature
    clear_caches()
    code, out, _ = run(capsys, ["oracle-test", "--n", "5"])
    assert code == 0 and out == "144 pairs at N=5: worst |closed - quadrature| = 6.65e-10\n"
    info = _quadrature._region.cache_info()
    assert (info.misses, info.hits) == (144, 144)


def test_twist_terms_bound_closed_form():
    for lo in range(-3, 15):
        for hi in range(-3, 17):
            assert _twist_terms_bound(lo, hi) == sum(max(0, (n - 1) // 2) for n in range(lo, hi))
    # the default 96-row table fits the budget
    assert _twist_terms_bound(4, 100) <= TWIST_TERMS_MAX


def test_inner_digits_max_certifies(capsys):
    # --digits 238 puts f(5,1) at exactly INNER_DIGITS_MAX inner digits
    assert _needed_inner_digits(5, 1, 238) == INNER_DIGITS_MAX
    code, out, _ = run(capsys, ["value", "--n", "5", "--digits", "238", "--format", "json"])
    assert code == 0
    assert json.loads(out)["frac"].startswith("0.5377411")


def test_inner_digits_is_certify_precision():
    for n in (4, 5, 7, 11, 97, 1009):
        for k in (1, 2, 5, 13, 40):
            for digits in (10, 30, 75, 200):
                want = ceresa._inner_digits(ceresa._prefactor(n, k), digits)
                got = _needed_inner_digits(n, k, digits)
                assert got == want if want <= INNER_DIGITS_MAX else got > INNER_DIGITS_MAX
    # a huge k is rejected from the float estimate, without building k!
    assert _needed_inner_digits(40001, 10 ** 8, 30) > INNER_DIGITS_MAX


_VALUE_7_2 = '{"err": "1.5303e-59", "frac": "0.819282798512059136988304612897", "h_terms": 3, ' \
    '"int_distance": "0.180717201487940863011695387103", "k": 2, "n": 7, ' \
    '"value": "16761.8192827985120591369883046128968014", "verdict": "non-integral"}\n'
_CHECK_5 = '{"err": "1.47965e-61", "frac": "0.537741147837383823595168325298", "h_terms": 2, ' \
    '"int_distance": "0.462258852162616176404831674702", "k": 1, "n": 5, ' \
    '"value": "55.53774114783738382359516832529768839247", "verdict": "non-integral"}\n'
_KLEIN_13 = '{"err": "5.29223e-61", "frac": "0.0703575612633883864526598715401", "h_terms": 3, ' \
    '"int_distance": "0.0703575612633883864526598715401", "k": 13, "n": 7, ' \
    '"value": "183759970222195481034721888837906.0703576", "verdict": "non-integral"}\n'
_TABLE_5_3 = '{"err": "5.54868e-58", "frac": "0.529304390189338481881219866331", "h_terms": 2, ' \
    '"int_distance": "0.470695609810661518118780133669", "k": 3, "n": 5, ' \
    '"value": "208266.5293043901893384818812198663314718", "verdict": "non-integral"}\n'
_ROW_4_FAILED = "row N=4: FAILED DomainError: k=3 outside [1, 1] for N=4\n"
_CSV = "n,k,frac,err,verdict\n"


_GOLDEN = [
    ("value --n 7 --k 2", "text",
     "N=7 k=2  frac=0.819283  err<=1.53e-59  verdict=non-integral\n", "", 0),
    ("value --n 7 --k 2", "csv",
     _CSV + "7,2,0.81928279851205914,1.5303e-59,non-integral\n", "", 0),
    ("value --n 7 --k 2", "json", _VALUE_7_2, "", 0),
    ("check --n 5", "text",
     "N=5 k=1  frac=0.537741  err<=1.48e-61  verdict=non-integral\n", "", 0),
    ("check --n 5", "csv", _CSV + "5,1,0.53774114783738382,1.47965e-61,non-integral\n", "", 0),
    ("check --n 5", "json", _CHECK_5, "", 0),
    ("klein --k 13", "text",
     "N=7 k=13  frac=0.0703576  err<=5.29e-61  verdict=non-integral\n", "", 0),
    ("klein --k 13", "csv",
     _CSV + "7,13,0.070357561263388386,5.29223e-61,non-integral\n", "", 0),
    ("klein --k 13", "json", _KLEIN_13, "", 0),
    # N = 4 has no k = 3: its row fails on stderr, the run goes on and exits 1
    ("table --n-min 4 --n-max 6 --k 3", "text",
     "N    f(N,3) mod 1\n5    0.529304\n", _ROW_4_FAILED, 1),
    ("table --n-min 4 --n-max 6 --k 3", "csv",
     _CSV + "5,3,0.52930439018933848,5.54868e-58,non-integral\n", _ROW_4_FAILED, 1),
    ("table --n-min 4 --n-max 6 --k 3", "json", _TABLE_5_3, _ROW_4_FAILED, 1),
]


@pytest.mark.parametrize("argv, fmt, out, err, code", _GOLDEN,
                         ids=[f"{argv.split()[0]}-{fmt}" for argv, fmt, *_ in _GOLDEN])
def test_result_commands_golden(capsys, argv, fmt, out, err, code):
    # every byte of the four result-printing commands, in each format
    assert run(capsys, argv.split() + ["--format", fmt]) == (code, out, err)


@pytest.mark.parametrize("seed", [20100301, 20100317])
def test_dixon_test_reference_lines(capsys, seed):
    # the reference lines of the perfbench selfcheck workload, keyed "dixon-test SEED:i"
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["selfcheck"]
    code, out, err = run(capsys, ["dixon-test", "--trials", "8", "--seed", str(seed),
                                  "--digits", "30"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines == [reference[f"dixon-test {seed}:{i}"] for i in range(len(lines))]
    assert f"dixon-test {seed}:{len(lines)}" not in reference


def _shift_first_member(monkeypatch, shift):
    """Patch dixon_family so that, in the first trial only, the first live member's
    value moves up by shift(live members), exactly; its bound stays."""
    real, calls = specfun.dixon_family, []

    def patched(*args, **kwargs):
        members = real(*args, **kwargs)
        if not calls:
            live = [m.value for m in members if not m.skipped]
            first = next(m for m in members if not m.skipped)
            first.value = BoundedReal(mpmath.fadd(first.value.value, shift(live), exact=True),
                                      first.value.err)
        calls.append(args)
        return members

    monkeypatch.setattr(specfun, "dixon_family", patched)


def test_dixon_test_reports_disagreement(monkeypatch, capsys):
    _shift_first_member(monkeypatch, lambda live: 1)
    code, out, err = run(capsys, ["dixon-test", "--trials", "2"])
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert lines[0].endswith(" DISAGREE") and lines[1].endswith(" ok")
    assert lines[2] == "worst pairwise gap: 1.0; 1/2 trials consistent"


def _touching_shift(live):
    # the largest shift of live[0] whose interval still meets every other one
    tops = [mpmath.fadd(b.value, b.err, exact=True) for b in live[1:]]
    return mpmath.fsub(mpmath.fadd(min(tops), live[0].err, exact=True), live[0].value,
                       exact=True)


@pytest.mark.parametrize("past, verdict, code", [(0, "ok", 0), (1, "DISAGREE", 1)])
def test_dixon_test_agreement_is_exact(monkeypatch, capsys, past, verdict, code):
    # intervals that touch agree; one 2^-200 further apart they do not
    tiny = mpmath.ldexp(1, -200)
    _shift_first_member(monkeypatch,
                        lambda live: mpmath.fadd(_touching_shift(live), past * tiny, exact=True))
    got, out, _ = run(capsys, ["dixon-test", "--trials", "1"])
    assert got == code and out.splitlines()[0].endswith(f" {verdict}")
