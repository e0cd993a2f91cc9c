"""Command-line front end: config parsing, subcommands, CSV emission.

Subcommands: ``exponent`` (solve for the optimal exponent), ``simulate``
(exact or Monte Carlo error evaluation), ``fit`` (empirical exponent slope
over a budget grid), ``verify`` (exact small-horizon identity checks).
Each takes ``--config`` and ``--out``; ``simulate`` and ``verify`` take
``--seed``; ``simulate`` alone takes ``--threads``, ``--method``, ``--trials``.

Every command is a pure function of the config file and the seed: validation
happens before any computation, and output files are written byte-identically
on re-runs. Exit codes are fixed so CI can gate on them: 0 success, 2
validation failure, 3 solver non-convergence, 4 exact evaluation out of reach
(over the cell budget, or early-decide on a non-binary alphabet), 5
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Mapping

import numpy as np

from .errors import InvalidConfig, InvalidDistribution, NotStrictlyPositive, SeqHTError, TooLarge
from .exponent import SolverOptions, grid_oracle_exponent, solve_exponent
from .harness import (
    ERROR_CSV_HEADER,
    FIT_CSV_HEADER,
    error_report_csv_row,
    exact_errors,
    exponent_fit_csv_rows,
    exponent_fit_summary,
    fit_exponent,
    format_float,
    monte_carlo_errors,
    verify_acceptance_bound,
    verify_wald_identity,
)
from .prob import JointPmf, Pmf, kl_divergence, marginals
from .protocol import ProtocolConfig, default_eta

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_BUDGET = 4
EXIT_VERIFY_FAILED = 5

WALD_HORIZON_LIMIT = 16
SET_BOUND_HORIZON_LIMIT = 12


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig("config root must be a JSON object")
    return raw


def _int_field(section: Mapping[str, Any], key: str, default: Any = None) -> int:
    """A JSON integer field (``true``, ``2.7`` and ``"10"`` are rejected)."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"'{key}' must be an integer, got {value!r}")
    return value


def _number_field(section: Mapping[str, Any], key: str, default: Any = None) -> float:
    """A JSON number field (``true`` and ``"abc"`` are rejected)."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"'{key}' must be a number, got {value!r}")
    return float(value)


def _parse_joint(raw: Mapping[str, Any], key: str) -> JointPmf:
    if key not in raw:
        raise InvalidConfig(f"config is missing the {key} matrix")
    try:
        return JointPmf.from_probs(raw[key])
    except InvalidDistribution as exc:
        raise InvalidConfig(f"'{key}': {exc}") from exc


def _parse_protocol(raw: Mapping[str, Any]) -> ProtocolConfig:
    section = raw.get("protocol")
    if not isinstance(section, Mapping):
        raise InvalidConfig("config is missing the protocol section")
    for field in ("k", "n"):
        if field not in section:
            raise InvalidConfig(f"protocol section is missing '{field}'")
    k = _int_field(section, "k")
    n = _int_field(section, "n")
    eta = _number_field(section, "eta") if "eta" in section else default_eta(n, k)
    return ProtocolConfig(
        k=k,
        n=n,
        eta=eta,
        encoder_kind=section.get("encoder_kind", "one_bit"),
        policy_kind=section.get("policy_kind", "fixed_horizon"),
        epsilon=_number_field(section, "epsilon", 0.05),
    )


def _resolve_int(args, raw: Mapping[str, Any], key: str, default: int) -> int:
    override = getattr(args, key, None)
    if override is not None:
        return override
    return _int_field(raw, key, default)


def _positive_int(text: str) -> int:
    """An argparse type: a flag value that must be an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _emit(text: str, out_path: str | None):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cmd_exponent(args) -> int:
    raw = _load_json(args.config)
    p = _parse_joint(raw, "P_XY")
    q = _parse_joint(raw, "Q_XY")
    if not q.strictly_positive:
        raise NotStrictlyPositive(
            "the optimal exponent requires a strictly positive alternative "
            "joint (min over cells of Q_XY > 0); the supplied Q_XY has a zero cell"
        )
    opts = SolverOptions(
        tolerance=_number_field(raw, "tolerance", 1e-10),
        max_iterations=_int_field(raw, "max_iterations", 100_000),
    )
    result = solve_exponent(p, q, opts)

    oracle = ""
    if p.probs.shape == (2, 2):
        oracle = format_float(grid_oracle_exponent(p, q, _number_field(raw, "grid_step", 1e-5)))
    p_x, p_y = marginals(p)
    q_x, q_y = marginals(q)
    baseline_x = kl_divergence(p_x, q_x)
    baseline_y = kl_divergence(p_y, q_y)
    baseline_joint = kl_divergence(
        Pmf.from_probs(p.probs.ravel()), Pmf.from_probs(q.probs.ravel())
    )

    lines = [
        "exponent,converged,iterations,marginal_residual,duality_gap_bound,"
        "grid_oracle,baseline_x,baseline_y,baseline_joint",
        ",".join(
            [
                format_float(result.exponent),
                "true" if result.converged else "false",
                str(result.iterations),
                format_float(result.marginal_residual),
                format_float(result.duality_gap_bound),
                oracle,
                format_float(baseline_x),
                format_float(baseline_y),
                format_float(baseline_joint),
            ]
        ),
        "# minimizer (row-major)",
    ]
    lines.extend(",".join(format_float(v) for v in row) for row in result.minimizer.probs)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    p = _parse_joint(raw, "P_XY")
    q = _parse_joint(raw, "Q_XY")
    config = _parse_protocol(raw)
    method = raw.get("method", "exact") if args.method is None else args.method
    if method not in ("exact", "mc"):
        raise InvalidConfig(f"method must be 'exact' or 'mc', got {method!r}")
    # The Monte Carlo inputs are checked whichever method runs (argparse
    # checks the flags), so a bad one is never accepted and ignored.
    trials = _resolve_int(args, raw, "trials", 0)
    seed = _resolve_int(args, raw, "seed", 0)
    if trials < 1 and (method == "mc" or "trials" in raw):
        raise InvalidConfig(f"Monte Carlo needs trials >= 1, got {trials}")
    if method == "mc":
        report = monte_carlo_errors(config, p, q, trials, seed, threads=args.threads)
    else:
        report = exact_errors(config, p, q)
    _emit(ERROR_CSV_HEADER + "\n" + error_report_csv_row(report) + "\n", args.out)
    return EXIT_OK


def cmd_fit(args) -> int:
    raw = _load_json(args.config)
    p = _parse_joint(raw, "P_XY")
    q = _parse_joint(raw, "Q_XY")
    config = _parse_protocol(raw)
    grid = raw.get("N_grid")
    if not isinstance(grid, list) or len(grid) < 4:
        raise InvalidConfig("fit needs an N_grid list with at least 4 sample budgets")
    if any(isinstance(v, bool) or not isinstance(v, int) for v in grid):
        raise InvalidConfig(f"N_grid entries must be integers, got {grid!r}")
    fit = fit_exponent(config, p, q, grid)

    solver_line = ""
    if q.strictly_positive:
        solved = solve_exponent(p, q)
        solver_line = (
            f"# solver exponent={format_float(solved.exponent)} "
            f"slope/exponent={format_float(fit.slope / solved.exponent) if solved.exponent > 0 else 'inf'}"
        )
    lines = [FIT_CSV_HEADER]
    lines.extend(exponent_fit_csv_rows(fit))
    lines.append("# " + exponent_fit_summary(fit))
    if solver_line:
        lines.append(solver_line)
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _wald_suite(rng: np.random.Generator, horizon: int, cases: int):
    """Deterministic-stop, first-hit, and randomized threshold rules."""
    checks: list[tuple[str, Callable[[], Any]]] = []

    def make(name, p0, q0, rule):
        p = Pmf.from_probs([p0, 1 - p0])
        q = Pmf.from_probs([q0, 1 - q0])
        return (name, lambda: verify_wald_identity(p, q, rule, horizon))

    checks.append(make("deterministic-stop", 0.5, 0.9, lambda prefix: len(prefix) >= min(3, horizon)))
    checks.append(make("stop-at-first-1", 0.5, 0.9, lambda prefix: prefix[-1] == 1))
    for i in range(cases):
        p0 = float(rng.uniform(0.1, 0.9))
        q0 = float(rng.uniform(0.1, 0.9))
        threshold = int(rng.integers(1, horizon + 1))
        rule = lambda prefix, c=threshold: prefix.count(0) >= c
        checks.append(make(f"threshold-{i}(count0>={threshold})", p0, q0, rule))
    return checks


def _acceptance_bound_suite(rng: np.random.Generator, horizon: int, cases: int):
    checks = []
    for i in range(cases):
        p0 = float(rng.uniform(0.1, 0.9))
        q0 = float(rng.uniform(0.1, 0.9))
        p = Pmf.from_probs([p0, 1 - p0])
        q = Pmf.from_probs([q0, 1 - q0])
        sets = {}
        for t in range(1, horizon + 1):
            seqs = []
            for code in range(2**t):
                if rng.random() < 0.5:
                    seqs.append(tuple((code >> b) & 1 for b in range(t)))
            sets[t] = seqs
        if i % 2 == 0:
            weights = rng.uniform(0.0, 1.0, size=horizon)
            law = {t + 1: float(w) / float(weights.sum()) for t, w in enumerate(weights)}
            stopping: Any = law
            desc = "law"
        else:
            threshold = int(rng.integers(1, horizon + 1))
            stopping = lambda prefix, c=threshold: prefix.count(1) >= c
            desc = f"rule(count1>={threshold})"
        checks.append(
            (
                f"case-{i}({desc})",
                lambda p=p, q=q, s=stopping, a=sets: verify_acceptance_bound(p, q, s, a, horizon),
            )
        )
    return checks


def cmd_verify(args) -> int:
    raw = _load_json(args.config) if args.config else {}
    section = raw.get("verify", {})
    if not isinstance(section, Mapping):
        raise InvalidConfig(f"the 'verify' section must be a JSON object, got {section!r}")
    wald_horizon = _int_field(section, "wald_horizon", 8)
    set_bound_horizon = _int_field(section, "set_bound_horizon", 6)
    cases = _int_field(section, "cases", 20)
    if not (1 <= wald_horizon <= WALD_HORIZON_LIMIT):
        raise InvalidConfig(
            f"wald_horizon must be in 1..{WALD_HORIZON_LIMIT} (exact enumeration), got {wald_horizon}"
        )
    if not (1 <= set_bound_horizon <= SET_BOUND_HORIZON_LIMIT):
        raise InvalidConfig(
            f"set_bound_horizon must be in 1..{SET_BOUND_HORIZON_LIMIT} (exact enumeration), got {set_bound_horizon}"
        )
    if cases < 1:
        raise InvalidConfig(f"cases must be >= 1, got {cases}")
    seed = _resolve_int(args, raw, "seed", 0)
    rng = np.random.default_rng(seed)

    lines = []
    failures = []
    for name, run in _wald_suite(rng, wald_horizon, cases):
        report = run()
        ok = report.holds(1e-9)
        lines.append(
            f"wald {name}: lhs={format_float(report.lhs)} rhs={format_float(report.rhs)} "
            f"gap={format_float(report.gap)} {'pass' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(lines[-1])
    for name, run in _acceptance_bound_suite(rng, set_bound_horizon, cases):
        report = run()
        ok = report.holds and report.holds_loose
        lines.append(
            f"set-bound {name}: lhs={format_float(report.lhs)} "
            f"bound={format_float(report.bound_nats)} "
            f"loose={format_float(report.bound_loose)} {'pass' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(lines[-1])
    lines.append(
        f"{len(failures)} failures out of {2 * cases + 2} checks"
        if failures
        else f"all {2 * cases + 2} checks passed"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqht",
        description=(
            "Sequential distributed hypothesis testing toolkit: exponent "
            "solving, exact and Monte Carlo error evaluation, identity checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required, help="JSON experiment config")
        sp.add_argument("--out", default=None, help="also write output to this file")

    sp = sub.add_parser("exponent", help="solve for the optimal type-II exponent")
    common(sp)
    sp = sub.add_parser("simulate", help="evaluate error probabilities")
    common(sp)
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    sp.add_argument("--threads", type=_positive_int, default=1, help="worker cap (output-invariant)")
    sp.add_argument("--method", choices=("exact", "mc"), default=None)
    sp.add_argument("--trials", type=_positive_int, default=None)
    sp = sub.add_parser("fit", help="fit the empirical exponent over a budget grid")
    common(sp)
    sp = sub.add_parser("verify", help="run exact identity/inequality checks")
    common(sp, config_required=False)
    sp.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "exponent": cmd_exponent,
        "simulate": cmd_simulate,
        "fit": cmd_fit,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SeqHTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
