"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqht
from seqht import JointPmf, ProtocolConfig, exact_errors
from seqht.cli import (
    EXIT_BUDGET,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)

PRODUCT_P = [[0.81, 0.09], [0.09, 0.01]]
UNIFORM = [[0.25, 0.25], [0.25, 0.25]]


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
        ("exponent", {**SIM, "protocol": {"epsilon": "0.05"}}, "epsilon"),
        ("fit", {**SIM, "protocol": {"k": 2, "n": 50}, "N_grid": [100, 200, 300, "400"]}, "N_grid"),
        ("verify", {"verify": {"cases": "3"}}, "cases"),
    ],
)
def test_bad_scalar_field_is_a_validation_error(tmp_path, capsys, command, body, field):
    cfg = write_config(tmp_path, **body)
    assert run([command, "--config", cfg]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err


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


def test_verify_small_suite_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path, verify={"wald_horizon": 6, "set_bound_horizon": 4, "cases": 3}, seed=5
    )
    assert run(["verify", "--config", cfg]) == EXIT_OK
    assert "all 8 checks passed" in capsys.readouterr().out
