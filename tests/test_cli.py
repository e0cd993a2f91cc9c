"""End-to-end tests of the command-line interface and its exit-code contract."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqht
from seqht import JointPmf, ProtocolConfig, exact_errors, fit_exponent, monte_carlo_errors
from seqht.cli import (
    EXIT_BUDGET,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    _fmt,
    main,
)

PRODUCT_P = [[0.81, 0.09], [0.09, 0.01]]
UNIFORM = [[0.25, 0.25], [0.25, 0.25]]
P_3X3 = [[0.30, 0.05, 0.05], [0.05, 0.20, 0.05], [0.05, 0.05, 0.20]]
UNIFORM_3X3 = [[1.0 / 9.0] * 3 for _ in range(3)]


def write_config(tmp_path, name="config.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def run(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# exponent


def test_exponent_product_case(tmp_path, capsys):
    cfg = write_config(tmp_path, P_XY=PRODUCT_P, Q_XY=UNIFORM)
    assert run(["exponent", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    assert abs(float(row["exponent"]) - 0.7361284143369942) <= 1e-9
    assert row["converged"] == "true"
    assert abs(float(row["grid_oracle"]) - float(row["exponent"])) <= 1e-4
    assert lines[2] == "# minimizer (row-major)"
    minimizer = [[float(v) for v in line.split(",")] for line in lines[3:5]]
    for got, want in zip(sum(minimizer, []), sum(PRODUCT_P, [])):
        assert abs(got - want) <= 1e-9


def test_exponent_zero_case(tmp_path, capsys):
    cfg = write_config(
        tmp_path, P_XY=[[0.3, 0.2], [0.2, 0.3]], Q_XY=UNIFORM
    )
    assert run(["exponent", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert float(lines[1].split(",")[0]) <= 1e-9


def test_exponent_zero_cell_is_a_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, P_XY=UNIFORM, Q_XY=[[0.5, 0.5], [0.0, 0.0]]
    )
    assert run(["exponent", "--config", cfg]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "strictly positive" in err and "Q_XY" in err


def test_exponent_non_convergence_still_reports(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=[[0.5, 0.2], [0.1, 0.2]],
        Q_XY=[[0.1, 0.3], [0.4, 0.2]],
        tolerance=1e-15,
        max_iterations=1,
    )
    assert run(["exponent", "--config", cfg]) == EXIT_NO_CONVERGENCE
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[1] == "false"
    assert len(lines) >= 5


def test_exponent_output_file_is_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, P_XY=PRODUCT_P, Q_XY=UNIFORM)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run(["exponent", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    first_stdout = capsys.readouterr().out
    assert run(["exponent", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text(encoding="utf-8") == first_stdout


# ---------------------------------------------------------------------------
# simulate


def test_simulate_exact_sixteen_outcome(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 1, "eta": 0.25},
    )
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("N,n,k,eta,alpha,beta")
    fields = lines[1].split(",")
    assert fields[0] == "2"
    assert fields[5] == "0.25"
    assert fields[9] == "exact"
    assert fields[10] == "" and fields[11] == ""


def test_simulate_row_matches_library_call(tmp_path, capsys):
    p = [[0.5, 0.2], [0.1, 0.2]]
    cfg = write_config(
        tmp_path, P_XY=p, Q_XY=UNIFORM, protocol={"k": 2, "n": 20, "eta": 0.1}
    )
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
    report = exact_errors(
        ProtocolConfig(k=2, n=20, eta=0.1),
        JointPmf.from_probs(p),
        JointPmf.from_probs(UNIFORM),
    )
    assert float(fields[4]) == report.alpha
    assert float(fields[5]) == report.beta
    assert float(fields[6]) == report.neg_ln_beta_per_sample


def test_simulate_monte_carlo_flags(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 1, "eta": 0.25},
    )
    code = run(
        ["simulate", "--config", cfg, "--method", "mc", "--trials", "4000", "--seed", "3"]
    )
    assert code == EXIT_OK
    fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert fields[9] == "mc"
    assert fields[10] == "4000"
    ci = float(fields[11])
    assert abs(float(fields[5]) - 0.25) <= 4.0 * ci


def test_simulate_thread_flag_does_not_change_bytes(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=[[0.5, 0.2], [0.1, 0.2]],
        Q_XY=UNIFORM,
        protocol={"k": 1, "n": 50, "eta": 0.2},
        method="mc",
        trials=40_000,
        seed=11,
    )
    out_a = tmp_path / "one.csv"
    out_b = tmp_path / "four.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
    assert (
        run(["simulate", "--config", cfg, "--threads", "4", "--out", str(out_b)])
        == EXIT_OK
    )
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_monte_carlo_needs_trials(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 1, "eta": 0.25},
    )
    assert run(["simulate", "--config", cfg, "--method", "mc"]) == EXIT_VALIDATION
    cfg2 = write_config(
        tmp_path,
        name="zero.json",
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 1, "eta": 0.25},
        method="mc",
        trials=0,
    )
    assert run(["simulate", "--config", cfg2]) == EXIT_VALIDATION
    capsys.readouterr()


@pytest.mark.parametrize("method", ["exact", "mc"])
@pytest.mark.parametrize(
    "flag,value", [("--threads", "0"), ("--threads", "-3"), ("--trials", "0"), ("--trials", "-1"), ("--trials", "x")]
)
def test_simulate_checks_monte_carlo_flags_for_every_method(tmp_path, capsys, method, flag, value):
    cfg = write_config(tmp_path, **SIM, protocol={"k": 2, "n": 3}, trials=10)
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--config", cfg, "--method", method, flag, value])
    assert exc.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


@pytest.mark.parametrize("body", [{"trials": 0}, {"trials": -2}, {"trials": 2.5}, {"seed": 1.5}, {"seed": "7"}])
def test_simulate_checks_monte_carlo_fields_for_every_method(tmp_path, capsys, body):
    cfg = write_config(tmp_path, **SIM, protocol={"k": 2, "n": 3}, **body)
    assert run(["simulate", "--config", cfg, "--method", "exact"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert next(iter(body)) in captured.err and captured.out == ""


def test_exact_simulate_accepts_valid_monte_carlo_flags(tmp_path, capsys):
    cfg = write_config(tmp_path, **SIM, protocol={"k": 2, "n": 3})
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    plain = capsys.readouterr().out
    flags = ["--threads", "1", "--seed", "-5", "--trials", "7"]
    assert run(["simulate", "--config", cfg, "--method", "exact", *flags]) == EXIT_OK
    assert capsys.readouterr().out == plain
    assert "exact" in plain


def test_simulate_enumeration_budget_exit(tmp_path, capsys):
    third = [[1.0 / 9.0] * 3] * 3
    cfg = write_config(
        tmp_path,
        P_XY=third,
        Q_XY=third,
        protocol={"k": 10, "n": 80, "eta": 0.05},
    )
    assert run(["simulate", "--config", cfg]) == EXIT_BUDGET
    assert "Monte Carlo" in capsys.readouterr().err


def test_binary_early_decide_is_exact_past_64_samples(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=PRODUCT_P,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 50, "policy_kind": "early_decide"},
        method="exact",
        N_grid=[100, 200, 300, 400],
    )
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    assert run(["fit", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1].split(",")[9] == "exact"
    assert lines[2] == "N,neg_ln_beta,fitted"


def test_simulate_config_validation(tmp_path, capsys):
    missing_q = write_config(
        tmp_path, name="m.json", P_XY=UNIFORM, protocol={"k": 2, "n": 1}
    )
    assert run(["simulate", "--config", missing_q]) == EXIT_VALIDATION
    assert run(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_VALIDATION
    not_object = tmp_path / "list.json"
    not_object.write_text("[1,2,3]", encoding="utf-8")
    assert run(["simulate", "--config", str(not_object)]) == EXIT_VALIDATION
    no_protocol = write_config(tmp_path, name="np.json", P_XY=UNIFORM, Q_XY=UNIFORM)
    assert run(["simulate", "--config", no_protocol]) == EXIT_VALIDATION
    bad_method = write_config(
        tmp_path,
        name="bm.json",
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 1},
        method="guess",
    )
    assert run(["simulate", "--config", bad_method]) == EXIT_VALIDATION
    capsys.readouterr()


def test_simulate_eta_defaults_from_schedule(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 50},
    )
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
    from seqht import default_eta

    assert float(fields[3]) == default_eta(50, 2)


# ---------------------------------------------------------------------------
# fit


def test_fit_product_instance(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=PRODUCT_P,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 50, "eta": 0.05},
        N_grid=[100, 200, 300, 400],
    )
    assert run(["fit", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,neg_ln_beta,fitted"
    assert len(lines) == 7
    assert lines[5].startswith("# slope=")
    assert "slope/exponent=" in lines[6]
    ratio = float(lines[6].split("slope/exponent=")[1])
    assert 0.5 < ratio < 1.0


def test_fit_needs_four_grid_points(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=PRODUCT_P,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 50, "eta": 0.05},
        N_grid=[100],
    )
    assert run(["fit", "--config", cfg]) == EXIT_VALIDATION
    no_grid = write_config(
        tmp_path,
        name="ng.json",
        P_XY=PRODUCT_P,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 50, "eta": 0.05},
    )
    assert run(["fit", "--config", no_grid]) == EXIT_VALIDATION
    capsys.readouterr()


def test_fit_flat_for_identical_hypotheses(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=UNIFORM,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 10, "eta": 0.3},
        N_grid=[40, 80, 120, 160],
    )
    assert run(["fit", "--config", cfg]) == EXIT_OK
    summary = [
        line
        for line in capsys.readouterr().out.strip().split("\n")
        if line.startswith("# slope=")
    ][0]
    slope = float(summary.split("slope=")[1].split(" ")[0])
    assert abs(slope) <= 1e-3


def test_fit_repeated_budget_grid_is_a_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=PRODUCT_P,
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 50, "eta": 0.05},
        N_grid=[200, 200, 200, 200],
    )
    assert run(["fit", "--config", cfg]) == EXIT_VALIDATION
    assert "distinct" in capsys.readouterr().err


def test_fit_zero_beta_budget_is_a_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        P_XY=[[0.7, 0.1], [0.1, 0.1]],
        Q_XY=UNIFORM,
        protocol={"k": 2, "n": 10, "eta": 0.001},
        N_grid=[20, 22, 40, 60],
    )
    assert run(["fit", "--config", cfg]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "budget 22" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# strict scalar fields

SIM = {"P_XY": PRODUCT_P, "Q_XY": UNIFORM}


@pytest.mark.parametrize(
    "command,body,field",
    [
        ("simulate", {**SIM, "protocol": {"k": 2.7, "n": 5}}, "k"),
        ("simulate", {**SIM, "protocol": {"k": True, "n": 5}}, "k"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": "10"}}, "n"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": 5, "eta": "0.1"}}, "eta"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": 5, "epsilon": "0.05"}}, "epsilon"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": 5}, "method": "mc", "trials": "many"}, "trials"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": 5}, "method": "mc", "trials": 10, "seed": 1.5}, "seed"),
        ("exponent", {**SIM, "tolerance": "abc"}, "tolerance"),
        ("exponent", {**SIM, "max_iterations": 2.5}, "max_iterations"),
        ("exponent", {**SIM, "grid_step": [1e-5]}, "grid_step"),
        ("exponent", {**SIM, "P_XY": "abc"}, "P_XY"),
        ("fit", {**SIM, "protocol": {"k": 2, "n": 50}, "N_grid": [100, 200, 300, "400"]}, "N_grid"),
        ("verify", {"verify": {"cases": "3"}}, "cases"),
        ("exponent", {**SIM, "Q_XY": [["0.25", 0.25], [0.25, 0.25]]}, "Q_XY"),
        ("simulate", {**SIM, "Q_XY": [[0.5, 0.5], [0.0]], "protocol": {"k": 2, "n": 5}}, "Q_XY"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": 5, "encoder_kind": "bogus"}}, "encoder_kind"),
        ("simulate", {**SIM, "protocol": {"k": 2, "n": 5, "policy_kind": 5}}, "policy_kind"),
        ("verify", {"verify": [1, 2]}, "verify"),
        ("exponent", {**SIM, "grid_step": 1e-7}, "grid_step"),
        ("verify", {"seed": -3}, "seed"),
    ],
)
def test_bad_scalar_field_is_a_validation_error(tmp_path, capsys, command, body, field):
    cfg = write_config(tmp_path, **body)
    assert run([command, "--config", cfg]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "matrix",
    [[[0.5, 0.6], [0.0, 0.0]], [[1.25, -0.25], [0.0, 0.0]], [0.25, 0.75], [[[1.0]]], {"a": 1}, None,
     [[10**400, 0], [0, 0]]],
)
def test_bad_matrix_is_a_validation_error_naming_its_key(tmp_path, capsys, matrix):
    cfg = write_config(tmp_path, P_XY=PRODUCT_P, Q_XY=matrix)
    assert run(["exponent", "--config", cfg]) == EXIT_VALIDATION
    assert "'Q_XY': " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [("exponent", "--seed"), ("exponent", "--threads"), ("fit", "--seed"), ("fit", "--threads"),
     ("verify", "--threads")],
)
def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path, **SIM, protocol={"k": 2, "n": 10}, N_grid=[20, 40, 60, 80])
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", cfg, flag, "2"])
    assert exc.value.code == EXIT_VALIDATION
    assert flag in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(seqht.__file__).resolve().parents[1])
    probe = "import sys, seqht, seqht.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_no_run_loads_scipy(tmp_path):
    src = str(Path(seqht.__file__).resolve().parents[1])
    cfg = write_config(
        tmp_path, **SIM, protocol={"k": 2, "n": 10, "eta": 0.2}, N_grid=[20, 40, 60, 80],
        verify={"wald_horizon": 6, "set_bound_horizon": 4, "cases": 3},
    )
    early = write_config(
        tmp_path, "early.json", **SIM, protocol={"k": 2, "n": 16, "eta": 0.1, "policy_kind": "early_decide"}
    )
    three = write_config(
        tmp_path, "three.json", P_XY=P_3X3, Q_XY=UNIFORM_3X3, protocol={"k": 2, "n": 4, "eta": 0.2}
    )
    probe = (
        "import contextlib, io, sys, seqht, seqht.cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert seqht.cli.main(list(argv)) == 0, argv\n"
        "print('scipy' in sys.modules)\n"
        f"cfg, early, three = {cfg!r}, {early!r}, {three!r}\n"
        "run('simulate', '--config', cfg, '--method', 'mc', '--trials', '200', '--seed', '3')\n"
        "run('exponent', '--config', cfg)\n"
        "run('verify', '--config', cfg)\n"
        "for path in (cfg, early, three):\n"
        "    run('simulate', '--config', path, '--method', 'exact')\n"
        "run('fit', '--config', cfg)\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split() == ["False", "False"]


def test_no_library_module_imports_scipy():
    for path in sorted(Path(seqht.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), f"{path.name}:{node.lineno}"


# ---------------------------------------------------------------------------
# verify


def test_verify_default_suite_passes(tmp_path, capsys):
    assert run(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 42 checks passed" in out
    assert "wald stop-at-first-1" in out
    assert "FAIL" not in out


def test_verify_is_seed_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert run(["verify", "--seed", "7", "--out", str(out_a)]) == EXIT_OK
    assert run(["verify", "--seed", "7", "--out", str(out_b)]) == EXIT_OK
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_verify_rejects_oversized_horizons(tmp_path, capsys):
    cfg = write_config(tmp_path, verify={"wald_horizon": 20})
    assert run(["verify", "--config", cfg]) == EXIT_VALIDATION
    assert "wald_horizon" in capsys.readouterr().err
    cfg2 = write_config(tmp_path, name="l.json", verify={"set_bound_horizon": 13})
    assert run(["verify", "--config", cfg2]) == EXIT_VALIDATION
    cfg3 = write_config(tmp_path, name="c.json", verify={"cases": 0})
    assert run(["verify", "--config", cfg3]) == EXIT_VALIDATION
    capsys.readouterr()


def test_verify_rejects_a_negative_seed_flag(capsys):
    assert run(["verify", "--seed", "-1"]) == EXIT_VALIDATION
    assert "seed" in capsys.readouterr().err


def test_verify_small_suite_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, verify={"wald_horizon": 6, "set_bound_horizon": 4, "cases": 3}, seed=5
    )
    assert run(["verify", "--config", cfg]) == EXIT_OK
    assert "all 8 checks passed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# output format


def test_error_csv_row_exact_leaves_mc_columns_empty(tmp_path, capsys):
    cfg = write_config(tmp_path, P_XY=UNIFORM, Q_XY=UNIFORM, protocol={"k": 2, "n": 1, "eta": 0.25})
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    header, row = capsys.readouterr().out.strip().split("\n")
    fields = row.split(",")
    assert len(fields) == len(header.split(","))
    assert fields[0] == "2" and fields[1] == "1" and fields[2] == "2"
    assert fields[4] == "0.75" and fields[5] == "0.25"
    assert fields[9] == "exact"
    assert fields[10] == "" and fields[11] == ""


def test_error_csv_row_mc_fills_all_columns(tmp_path, capsys):
    cfg = write_config(
        tmp_path, P_XY=UNIFORM, Q_XY=UNIFORM, protocol={"k": 2, "n": 5, "eta": 0.2},
        method="mc", trials=256, seed=5,
    )
    assert run(["simulate", "--config", cfg]) == EXIT_OK
    fields = capsys.readouterr().out.strip().split("\n")[1].split(",")
    uniform = JointPmf.from_probs(UNIFORM)
    report = monte_carlo_errors(ProtocolConfig(k=2, n=5, eta=0.2), uniform, uniform, trials=256, seed=5)
    assert fields[9] == "mc"
    assert fields[10] == "256"
    assert float(fields[11]) == report.ci_halfwidth


def test_fit_csv_rows_follow_the_line(tmp_path, capsys):
    p = [[0.5, 0.2], [0.1, 0.2]]
    cfg = write_config(
        tmp_path, P_XY=p, Q_XY=UNIFORM, protocol={"k": 1, "n": 10, "eta": 0.2}, N_grid=[20, 40, 60, 80]
    )
    assert run(["fit", "--config", cfg]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    fit = fit_exponent(
        ProtocolConfig(k=1, n=10, eta=0.2), JointPmf.from_probs(p), JointPmf.from_probs(UNIFORM),
        budget_grid=[20, 40, 60, 80],
    )
    assert lines[0] == "N,neg_ln_beta,fitted"
    for row, (total, value) in zip(lines[1:5], fit.points, strict=True):
        cells = row.split(",")
        assert cells[0] == str(total)
        assert float(cells[1]) == value
        assert math.isclose(float(cells[2]), fit.slope * total + fit.intercept, rel_tol=1e-12)
    assert lines[5].startswith(f"# slope={_fmt(fit.slope)} nats/sample")


def test_float_formatter_round_trips():
    for value in (0.1, 1.0 / 3.0, 1e-300, 0.25, 123456.789, 6.5e-290):
        assert float(_fmt(value)) == value
    assert _fmt(0.25) == "0.25"


# ---------------------------------------------------------------------------
# output bytes

CORRELATED = [[0.5, 0.2], [0.1, 0.2]]
MC = {
    **SIM, "protocol": {"k": 1, "n": 10, "eta": 0.2, "policy_kind": "early_decide"},
    "method": "mc", "trials": 40_000, "seed": 11,
}
MC_FIXED = {**SIM, "protocol": {"k": 2, "n": 100, "eta": 0.05}, "method": "mc", "trials": 40_000, "seed": 11}

# The sha256 of each subcommand's stdout on small fixed configs, so that a
# change to how any number is printed shows here, not downstream.
GOLDEN = {
    "simulate-exact": (
        ["simulate"], {"P_XY": CORRELATED, "Q_XY": UNIFORM, "protocol": {"k": 2, "n": 20, "eta": 0.1}},
        "756419e6744fb5504b87ec5fc928023b815f7d2e7aca2bc8abbf3336e12ded7f",
    ),
    "simulate-early": (
        ["simulate"], {**SIM, "protocol": {"k": 2, "n": 16, "eta": 0.1, "policy_kind": "early_decide"}},
        "74f42cf968c3fff93956f4c1e28b02ec509e3b92351d947c384d6e17073254b4",
    ),
    "simulate-3x3": (
        ["simulate"], {"P_XY": P_3X3, "Q_XY": UNIFORM_3X3, "protocol": {"k": 2, "n": 4, "eta": 0.2}},
        "b30d487962bcf33c3e793459592f708e01ca7a7ed7149c5f9c17305e8b464cbd",
    ),
    "simulate-mc-1": (
        ["simulate", "--threads", "1"], MC,
        "957ec3d10098ec2a1f48e160dd708cd20b1d365c161e7075b79171d77a4eaa73",
    ),
    "simulate-mc-2": (
        ["simulate", "--threads", "2"], MC,
        "957ec3d10098ec2a1f48e160dd708cd20b1d365c161e7075b79171d77a4eaa73",
    ),
    # Fixed-horizon MC: the benchmark pair at N = 200 on 1 and 2 threads and
    # at N = 2000, and a 3x3 instance where both hypotheses accept and reject.
    "simulate-mc-fixed-1": (
        ["simulate", "--threads", "1"], MC_FIXED,
        "10c1a93316ff8ba062d841b56bede7ae2c112980781df5a098ece85fd9abb673",
    ),
    "simulate-mc-fixed-2": (
        ["simulate", "--threads", "2"], MC_FIXED,
        "10c1a93316ff8ba062d841b56bede7ae2c112980781df5a098ece85fd9abb673",
    ),
    "simulate-mc-fixed-n2000": (
        ["simulate"], {**MC_FIXED, "protocol": {"k": 2, "n": 1000, "eta": 0.02}, "trials": 4_000},
        "c2a65f9e064dfbd4b1d4765113bc4f8cd574a2d2e95804dcd010eae9be768fbe",
    ),
    "simulate-mc-fixed-3x3": (
        ["simulate"],
        {**MC_FIXED, "P_XY": P_3X3, "Q_XY": UNIFORM_3X3, "protocol": {"k": 2, "n": 60, "eta": 0.1}, "trials": 20_000},
        "d1c3feaafec7bfa41c61d0bcabc31825eb1f094c94aeb49f68f2137e6cb0fb9a",
    ),
    "fit": (
        ["fit"],
        {"P_XY": CORRELATED, "Q_XY": UNIFORM, "protocol": {"k": 2, "n": 10, "eta": 0.2},
         "N_grid": [40, 80, 120, 160]},
        "95d63c594fc948194a7c746755c649f41f99cb76b3c03f8d3db03cd9cccffac9",
    ),
    "exponent-2x2": (
        ["exponent"], SIM,
        "c4aad1ea041c4d17ec24167622a3b408fec0b7e4c34806b48ab383fec2294198",
    ),
    "exponent-3x3": (
        ["exponent"], {"P_XY": P_3X3, "Q_XY": UNIFORM_3X3},
        "ce430b90cb1d90af11230406cbf9e5f8eb02b2757af975305cc6c63c907987c9",
    ),
    "verify": (
        ["verify"], None,
        "92c58442358df6a6e6cae3df4c12530120d7aa3b4346531b20394c7eab6f4763",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stdout_bytes_are_pinned(tmp_path, capsys, case):
    argv, body, digest = GOLDEN[case]
    if body is not None:
        argv = [*argv, "--config", write_config(tmp_path, **body)]
    assert run(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
