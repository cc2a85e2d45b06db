import math

import pytest

from pauli_uncertainty import verify
from pauli_uncertainty.cli import (
    EXIT_DOMAIN_ERROR,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    MAX_ORDERS,
    MAX_POINTS,
    MAX_SAMPLES,
    _InputError,
    _parse_alpha_range,
    main,
)
from pauli_uncertainty.verify import MAX_GRID_POINTS

TWO_LN2 = 2.0 * math.log(2.0)
TAU_STAR = math.acos(1.0 / math.sqrt(3.0)) / 2.0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- eval


def test_eval_eigenstate(capsys):
    code, out, _ = run(capsys, "eval", "--eigenstate", "z+", "--alpha", "0.5")
    assert code == EXIT_OK
    assert "sum=1.38629436112" in out
    assert "gap_upper[3*rho_hat]" in out
    gap_line = next(ln for ln in out.splitlines() if ln.startswith("gap_lower:"))
    assert abs(float(gap_line.split(":")[1])) < 1e-12


def test_eval_center_hits_mixed_ceiling(capsys):
    code, out, _ = run(capsys, "eval", "--bloch", "0,0,0", "--alpha", "0.5")
    assert code == EXIT_OK
    assert "sum=2.07944154168" in out
    assert "gap_upper[3*ln2]" in out


def test_eval_extremal_angle_fixture(capsys):
    code, out, _ = run(
        capsys, "eval", "--angles", f"{TAU_STAR},{math.pi / 4.0}", "--alpha", "0.5"
    )
    assert code == EXIT_OK
    sum_line = next(ln for ln in out.splitlines() if ln.startswith("renyi:"))
    total = float(sum_line.rsplit("sum=", 1)[1])
    assert total == pytest.approx(1.790729071339602, abs=1e-10)


def test_eval_mixture_spec(capsys):
    code, out, _ = run(capsys, "eval", "--mix", "0.75,x", "--alpha", "0.5")
    assert code == EXIT_OK
    assert "dist_x: (+0.75, -0.25)" in out


def test_eval_csv_format(capsys):
    import csv
    import io

    code, out, _ = run(
        capsys, "eval", "--eigenstate", "z+", "--alpha", "0.5", "--format", "csv"
    )
    assert code == EXIT_OK
    header, row = list(csv.reader(io.StringIO(out)))
    assert header[:3] == ["state", "alpha", "dist_x"]
    assert len(row) == len(header)
    assert row[1] == "0.5"


def test_eval_errors(capsys):
    code, _, err = run(capsys, "eval", "--bloch", "2,0,0", "--alpha", "0.5")
    assert code == EXIT_INPUT_ERROR and "unit ball" in err
    code, _, err = run(capsys, "eval", "--eigenstate", "z+", "--alpha", "1.5")
    assert code == EXIT_DOMAIN_ERROR
    code, _, err = run(capsys, "eval", "--eigenstate", "z+", "--alpha", "0.0000001")
    assert code == EXIT_DOMAIN_ERROR
    code, _, err = run(capsys, "eval", "--alpha", "0.5")
    assert code == EXIT_INPUT_ERROR and "exactly one" in err
    code, _, err = run(
        capsys, "eval", "--bloch", "0,0,0", "--angles", "0,0", "--alpha", "0.5"
    )
    assert code == EXIT_INPUT_ERROR
    code, _, err = run(capsys, "eval", "--angles", "0.1", "--alpha", "0.5")
    assert code == EXIT_INPUT_ERROR


@pytest.mark.parametrize("command", ["eval", "saturate"])
@pytest.mark.parametrize(
    "option, spec, message",
    [
        ("--bloch", "1,a,0", "--bloch has a non-numeric entry: '1,a,0'"),
        ("--bloch", "inf,0,0", "Bloch components must be finite"),
        ("--bloch", "2,0,0", "Bloch vector (2.0, 0.0, 0.0) lies outside the unit ball"),
        ("--eigenstate", "w+", "bad --eigenstate 'w+', expected e.g. z+ or x-"),
        ("--eigenstate", "x", "bad --eigenstate 'x', expected e.g. z+ or x-"),
        ("--mix", "abc,x", "bad --mix weight 'abc'"),
        ("--mix", "1.5,x", "bad --mix '1.5,x', expected LAMBDA,AXIS with LAMBDA in [0,1]"),
        ("--mix", "0.5,w", "bad --mix '0.5,w', expected LAMBDA,AXIS with LAMBDA in [0,1]"),
        ("--angles", "nan,0", "angles must be finite, got (nan, 0.0)"),
    ],
)
def test_state_option_rejections(capsys, command, option, spec, message):
    # the state constructors' own ValueErrors reach main unwrapped
    code, out, err = run(capsys, command, option, spec, "--alpha", "0.5")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"error: {message}\n"


# ------------------------------------------------------------------ saturate


def test_saturate_eigenstate(capsys):
    code, out, _ = run(capsys, "saturate", "--eigenstate", "x-", "--alpha", "0.7")
    assert code == EXIT_OK
    assert "kind=lower-saturated" in out
    assert "witness_axis=x" in out


def test_saturate_center_interior(capsys):
    code, out, _ = run(capsys, "saturate", "--bloch", "0,0,0", "--alpha", "0.5")
    assert code == EXIT_OK
    assert "kind=interior" in out


def test_saturate_extremal_state(capsys):
    code, out, _ = run(
        capsys, "saturate", "--angles", f"{TAU_STAR},{math.pi / 4.0}", "--alpha", "0.5"
    )
    assert code == EXIT_OK
    assert "kind=upper-saturated" in out


@pytest.mark.parametrize(
    "eigenstate, alpha, tol",
    [
        # a tol below the rounding of the sum and the probabilities
        ("x-", "0.7", "0"),
        ("x-", "0.7", "1e-300"),
        ("x-", "1", "0"),
        # near order one the 1/(1 - alpha) prefactor amplifies that rounding
        ("x+", "0.99999", "1e-12"),
    ]
    + [(s, "0.999999998", None) for s in ("x+", "x-", "y+", "y-", "z+", "z-")],
)
def test_saturate_gate_covers_rounding_floor(capsys, eigenstate, alpha, tol):
    argv = ["saturate", "--eigenstate", eigenstate, "--alpha", alpha]
    if tol is not None:
        argv.append(f"--tol={tol}")
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert err == ""
    assert f"kind=lower-saturated witness_axis={eigenstate[0]}" in out


def test_eval_and_saturate_agree_on_purity(capsys):
    # norm within PURITY_TOL of 1, but the vector the probabilities
    # reconstruct lies further from 1: both commands read the triple's purity
    bloch = "--bloch=0.329077124688033,-0.5399667027320034,-0.7746897468972885"
    code, out, _ = run(capsys, "eval", bloch, "--alpha", "0.5")
    assert code == EXIT_OK
    assert "(pure=false)" in out and "gap_upper[3*ln2]" in out
    code, out, err = run(capsys, "saturate", bloch, "--alpha", "0.5")
    assert code == EXIT_OK
    assert err == ""
    assert "kind=interior" in out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0.7", "0.25"])
def test_saturate_rejects_tol_outside_range(capsys, tol):
    # at sqrt(tol) >= 1/2 the uniform-axis test accepts every distribution:
    # tol = inf or 0.7 used to certify the maximally mixed state
    code, out, err = run(capsys, "saturate", "--bloch", "0,0,0", "--alpha", "0.5", f"--tol={tol}")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "--tol" in err


def test_saturate_accepts_tol_just_below_a_quarter(capsys):
    code, out, _ = run(capsys, "saturate", "--bloch", "0,0,0", "--alpha", "0.5", "--tol", "0.2499")
    assert code == EXIT_OK
    assert "kind=interior" in out


# ---------------------------------------------------------------------- band


def test_band_default_range(capsys):
    code, out, _ = run(capsys, "band")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,lower,B_renyi,A_tsallis"
    assert len(lines) == 101  # header + 100 rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.01
    assert float(first[2]) > 0.99
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert abs(float(last[2]) - float(last[3])) < 1e-9
    assert abs(float(last[2]) - 0.744) < 1e-3
    for row in lines[1:]:
        _, lower, b_val, a_val = (float(x) for x in row.split(","))
        assert 2.0 / 3.0 <= a_val <= b_val
        assert lower == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_band_output_file_and_byte_stability(tmp_path, capsys):
    target = tmp_path / "band.csv"
    code, _, _ = run(capsys, "band", "--alpha-range", "0.1:0.5:0.1", "--out", str(target))
    assert code == EXIT_OK
    first = target.read_bytes()
    assert first.endswith(b"\n") and b"\r" not in first
    code, _, _ = run(capsys, "band", "--alpha-range", "0.1:0.5:0.1", "--out", str(target))
    assert code == EXIT_OK
    assert target.read_bytes() == first


def test_band_unwritable_path(capsys):
    code, _, err = run(
        capsys, "band", "--alpha-range", "0.5:0.6:0.1", "--out", "/nonexistent/dir/x.csv"
    )
    assert code == EXIT_INPUT_ERROR
    assert "cannot write" in err


def test_band_bad_range(capsys):
    code, _, err = run(capsys, "band", "--alpha-range", "0.5:0.1:0.1")
    assert code == EXIT_INPUT_ERROR
    code, _, err = run(capsys, "band", "--alpha-range", "oops")
    assert code == EXIT_INPUT_ERROR
    code, _, err = run(capsys, "band", "--alpha", "1.7")
    assert code == EXIT_DOMAIN_ERROR


@pytest.mark.parametrize("command", ["band", "verify"])
def test_alpha_and_alpha_range_are_exclusive(capsys, command):
    code, out, err = run(capsys, command, "--alpha", "0.3", "--alpha-range", "0.5:0.6:0.1")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "--alpha-range" in err


@pytest.mark.parametrize(
    "spec", ["0:1:nan", "0:inf:0.1", "nan:1:0.1", "-inf:1:0.1", "0:1:inf", "0:1:-inf"]
)
def test_alpha_range_rejects_non_finite(capsys, spec):
    with pytest.raises(_InputError):
        _parse_alpha_range(spec)
    for command in ("band", "verify"):
        # the = form keeps argparse from reading "-inf:..." as an option
        code, out, err = run(capsys, command, f"--alpha-range={spec}")
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "finite" in err


def test_alpha_range_order_count_is_bounded(capsys):
    assert len(_parse_alpha_range(f"1:{MAX_ORDERS}:1")) == MAX_ORDERS
    # each of these would expand past the limit; the count is taken from
    # the arguments, so the list is never built
    for spec in (f"1:{MAX_ORDERS + 1}:1", "0:1:1e-12", "0:1:5e-324", "-1e308:1e308:1"):
        with pytest.raises(_InputError, match="orders"):
            _parse_alpha_range(spec)
    code, out, err = run(capsys, "band", "--alpha-range", "0:1:1e-12")
    assert code == EXIT_INPUT_ERROR and out == "" and "orders" in err


def test_alpha_range_rejects_orders_that_repeat_after_rounding(monkeypatch, capsys):
    # 30 steps of 1e-13 round to 12 decimals as 4 distinct orders
    spec = "0.5:0.5000000000019:1e-13"
    with pytest.raises(_InputError, match="repeat"):
        _parse_alpha_range(spec)

    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the orders were checked")

    monkeypatch.setattr(verify, "grid_min_sum", no_scan)
    for command in ("band", "verify"):
        code, out, err = run(capsys, command, "--alpha-range", spec)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "repeat" in err


def test_verify_rejects_several_orders_on_the_shannon_row(monkeypatch, capsys):
    # all six orders lie within ORDER_ONE_TOL of 1: each would be the same
    # Shannon row, printed and scanned once per order
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the orders were checked")

    monkeypatch.setattr(verify, "grid_min_sum", no_scan)
    code, out, err = run(
        capsys, "verify", "--alpha-range", "0.9999999995:1.0:1e-10",
        "--grid", "101x101", "--samples", "1000", "--points", "50",
    )
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "Shannon row" in err


# -------------------------------------------------------------------- verify

GOLDEN_VERIFY_101 = """\
check=grid_min_sum alpha=0.25 claimed=1.38629436112 observed=1.38629436112 err=0 passed=true
check=grid_max_sum_pure alpha=0.25 claimed=1.93066526079 observed=1.93066395829 err=1.30249583408e-06 passed=true
check=impurity_gap_scan alpha=0.25 claimed=1.38629436112 observed=1.70160061249 err=0 passed=true
check=derivative_sign_check alpha=0.25 claimed=0.392699081699 observed=0.392699081682 err=1.62775348755e-11 passed=true
check=grid_min_sum alpha=0.5 claimed=1.38629436112 observed=1.38629436112 err=0 passed=true
check=grid_max_sum_pure alpha=0.5 claimed=1.79072907134 observed=1.79072706639 err=2.00495384961e-06 passed=true
check=impurity_gap_scan alpha=0.5 claimed=1.38629436112 observed=1.51796510142 err=0 passed=true
check=derivative_sign_check alpha=0.5 claimed=0.392699081699 observed=0.392699081699 err=3.29958282919e-13 passed=true
check=grid_min_sum alpha=0.75 claimed=1.38629436112 observed=1.38629436112 err=2.22044604925e-16 passed=true
check=grid_max_sum_pure alpha=0.75 claimed=1.66234774766 observed=1.66234571192 err=2.03574304547e-06 passed=true
check=impurity_gap_scan alpha=0.75 claimed=1.38629436112 observed=1.44236270999 err=0 passed=true
check=derivative_sign_check alpha=0.75 claimed=0.392699081699 observed=0.392699081703 err=3.96549459936e-12 passed=true
check=grid_min_sum alpha=1 claimed=1.38629436112 observed=1.38629436112 err=0 passed=true
check=grid_max_sum_pure alpha=1 claimed=1.54712020939 observed=1.54711873395 err=1.47543608309e-06 passed=true
check=grid_min_sum alpha=0.9999 claimed=1.38629436112 observed=1.38629436112 err=1.23656640483e-12 passed=true
check=grid_max_sum_pure alpha=0.9999 claimed=1.54716356994 observed=1.54716209419 err=1.47575479992e-06 passed=true
check=impurity_gap_scan alpha=0.9999 claimed=1.38629436112 observed=1.41110160858 err=0 passed=true
check=band_sweep alpha=0.5 claimed=0 observed=-6.26368093615e-07 err=0 passed=true
info band_rel_gap alpha=0.5 observed=0.0250317494126
"""


def test_verify_golden_report(capsys):
    # the exact report text of a small default-order run; speed-ups of the
    # scans must leave every digit of it unchanged
    code, out, err = run(capsys, "verify", "--grid", "101x101", "--samples", "2000", "--points", "50")
    assert code == EXIT_OK
    assert err == ""
    assert out == GOLDEN_VERIFY_101


GOLDEN_VERIFY_41_RANGE = """\
check=grid_min_sum alpha=0.2 claimed=1.38629436112 observed=1.38629436112 err=2.22044604925e-16 passed=true
check=grid_max_sum_pure alpha=0.2 claimed=1.95981814593 observed=1.95979602999 err=2.21159423843e-05 passed=true
check=impurity_gap_scan alpha=0.2 claimed=1.38629436112 observed=1.68313963929 err=0 passed=true
check=derivative_sign_check alpha=0.2 claimed=0.392699081699 observed=0.39269908166 err=3.85992349194e-11 passed=true
check=grid_min_sum alpha=0.4 claimed=1.38629436112 observed=1.38629436112 err=0 passed=true
check=grid_max_sum_pure alpha=0.4 claimed=1.84544520094 observed=1.84540843788 err=3.6763052883e-05 passed=true
check=impurity_gap_scan alpha=0.4 claimed=1.38629436112 observed=1.50105432295 err=0 passed=true
check=derivative_sign_check alpha=0.4 claimed=0.392699081699 observed=0.392699081679 err=1.99558147784e-11 passed=true
check=grid_min_sum alpha=0.6 claimed=1.38629436112 observed=1.38629436112 err=2.22044604925e-16 passed=true
check=grid_max_sum_pure alpha=0.6 claimed=1.73787460464 observed=1.73783192258 err=4.26820590134e-05 passed=true
check=impurity_gap_scan alpha=0.6 claimed=1.38629436112 observed=1.43155215373 err=0 passed=true
check=derivative_sign_check alpha=0.6 claimed=0.392699081699 observed=0.392699081696 err=2.31459296174e-12 passed=true
check=grid_min_sum alpha=0.8 claimed=1.38629436112 observed=1.38629436112 err=8.881784197e-16 passed=true
check=grid_max_sum_pure alpha=0.8 claimed=1.63821888203 observed=1.63817888025 err=4.00017825266e-05 passed=true
check=impurity_gap_scan alpha=0.8 claimed=1.38629436112 observed=1.4058194466 err=0 passed=true
check=derivative_sign_check alpha=0.8 claimed=0.392699081699 observed=0.392699081773 err=7.45880024411e-11 passed=true
check=band_sweep alpha=0.4 claimed=0 observed=-1.06355201341e-05 err=0 passed=true
info band_rel_gap alpha=0.4 observed=0.0246182894196
"""


def test_verify_golden_report_two_threads_order_range(capsys):
    # what the run above leaves out: two threads, non-default orders, and
    # a main grid equal to the sweep grid
    code, out, err = run(
        capsys,
        "verify",
        "--alpha-range", "0.2:0.8:0.2",
        "--grid", "41x41",
        "--samples", "5000",
        "--points", "400",
        "--threads", "2",
    )
    assert code == EXIT_OK
    assert err == ""
    assert out == GOLDEN_VERIFY_41_RANGE


def test_verify_quick_run(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--alpha", "0.5",
        "--grid", "101x101",
        "--samples", "2000",
        "--points", "64",
    )
    assert code == EXIT_OK
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("check=")]
    names = [ln.split()[0] for ln in lines]
    assert names == [
        "check=grid_min_sum",
        "check=grid_max_sum_pure",
        "check=impurity_gap_scan",
        "check=derivative_sign_check",
        "check=band_sweep",
    ]
    assert all("passed=true" in ln for ln in lines)
    assert any(ln.startswith("info band_rel_gap") for ln in out.splitlines())


def test_verify_order_one_uses_inner_order(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--alpha", "1.0",
        "--grid", "101x101",
        "--samples", "1000",
        "--points", "32",
    )
    assert code == EXIT_OK
    assert "check=impurity_gap_scan alpha=0.9999" in out


def test_verify_negative_control(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--alpha", "0.5",
        "--grid", "101x101",
        "--samples", "1000",
        "--points", "32",
        "--inject-low-claim",
    )
    assert code == EXIT_VERIFY_FAILED
    assert "check=grid_min_sum" in out and "passed=false" in out


@pytest.mark.parametrize("threads", ["0", "-3", "65"])
def test_verify_rejects_threads_out_of_range(capsys, threads):
    # a 21x21 grid is a single block, so even without the check no more
    # than one worker thread could start
    code, out, err = run(capsys, "verify", "--alpha", "0.5", "--grid", "21x21", "--threads", threads)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "--threads" in err


@pytest.mark.parametrize(
    "option, value",
    [
        ("--samples", "0"),
        ("--samples", str(MAX_SAMPLES + 1)),
        ("--samples", "10000000000000"),
        ("--points", "0"),
        ("--points", str(MAX_POINTS + 1)),
        ("--points", "10000000000000"),
        ("--seed", "-1"),
        ("--grid", f"100000x{MAX_GRID_POINTS // 100_000 + 1}"),
    ],
)
def test_verify_rejects_size_arguments_before_any_work(monkeypatch, capsys, option, value):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the arguments were checked")

    monkeypatch.setattr(verify, "grid_min_sum", no_scan)
    code, out, err = run(capsys, "verify", option, value)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert option in err


@pytest.mark.parametrize("orders", [["--alpha-range", "0.5:1.5:0.5"], ["--alpha", "1.2"]])
def test_verify_rejects_orders_before_any_work(monkeypatch, capsys, orders):
    # 0.5 and 1.0 are valid, but 1.5 must stop the run before their scans
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the orders were checked")

    monkeypatch.setattr(verify, "grid_min_sum", no_scan)
    code, out, err = run(capsys, "verify", *orders, "--grid", "51x51")
    assert code == EXIT_DOMAIN_ERROR
    assert out == ""
    assert "above 1" in err


def test_only_domain_errors_exit_3(monkeypatch, capsys):
    # the exit code follows the error's type, not the wording of its message
    def worded_like_a_domain_error(*args, **kwargs):
        raise ValueError("order of the scan is broken")

    monkeypatch.setattr(verify, "grid_min_sum", worded_like_a_domain_error)
    code, out, err = run(capsys, "verify", "--alpha", "0.5", "--grid", "21x21")
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "order of the scan is broken" in err


@pytest.mark.parametrize("spec", ["abc", "10x", "1x100", "100x100x100"])
def test_verify_reports_bad_grid_as_input_error(capsys, spec):
    # --grid is parsed by the command, so the message reaches stderr and
    # main returns instead of raising SystemExit from inside argparse
    code, out, err = run(capsys, "verify", "--grid", spec)
    assert code == EXIT_INPUT_ERROR
    assert out == ""
    assert "bad --grid" in err


@pytest.mark.parametrize("alpha", ["0.0001", "0.999"])
def test_verify_passes_near_the_ends_of_the_order_range(capsys, alpha):
    # both used to fail the derivative check on a flat 1e-10 sign gate
    code, out, _ = run(capsys, "verify", "--alpha", alpha, "--grid", "101x101", "--samples", "2000")
    assert code == EXIT_OK
    assert "passed=false" not in out


def test_verify_threads_identical_output(capsys):
    args = ["verify", "--alpha", "0.5", "--grid", "101x101", "--samples", "1000", "--points", "32"]
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args, "--threads", "4")
    assert code_a == code_b == EXIT_OK
    assert out_a == out_b
