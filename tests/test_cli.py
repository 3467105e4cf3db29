import json

import pytest

from fermatvol import ceresa
from fermatvol.cli import (DIXON_TRIALS_MAX, INNER_DIGITS_MAX, TWIST_TERMS_MAX, _check_budget,
                           _needed_inner_digits, _twist_terms_bound, build_parser, main)


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
