"""Command-line front end: config parsing, subcommands, and every output line.

The library returns reports and numbers; only this module turns them into
CSV and text, every float through one formatter (17 significant digits).

Subcommands: ``exponent`` (solve for the optimal exponent), ``simulate``
(exact or Monte Carlo error evaluation), ``fit`` (empirical exponent slope
over a budget grid), ``verify`` (exact small-horizon identity checks).
Each takes ``--config`` and ``--out``; ``simulate`` and ``verify`` take
``--seed``; ``simulate`` alone takes ``--threads``, ``--method``, ``--trials``.
Monte Carlo runs on one thread: ``--threads`` is still accepted and checked,
so existing command lines keep working, but nothing reads it.

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
from itertools import chain
from typing import Any, Mapping

import numpy as np

from .errors import (
    InvalidConfig,
    InvalidDistribution,
    NotStrictlyPositive,
    SeqHTError,
    TooLarge,
    _integer,
    _real,
)
from .exponent import SolverOptions, grid_oracle_exponent, solve_exponent
from .harness import (
    exact_errors,
    fit_exponent,
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


def _fmt(x: float) -> str:
    """Canonical float rendering: 17 significant digits, '.' separator."""
    return f"{x:.17g}"


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
    # k and n feed the default eta; ProtocolConfig checks the rest by name.
    k, n = (_integer(field, section[field], positive=False) for field in ("k", "n"))
    return ProtocolConfig(
        k=k,
        n=n,
        eta=section["eta"] if "eta" in section else default_eta(n, k),
        encoder_kind=section.get("encoder_kind", "one_bit"),
        policy_kind=section.get("policy_kind", "fixed_horizon"),
        epsilon=section.get("epsilon", 0.05),
    )


def _resolve_int(args, raw: Mapping[str, Any], key: str, default: int) -> int:
    """The flag's value if given, else the config field's."""
    override = getattr(args, key, None)
    return _integer(key, raw.get(key, default) if override is None else override, positive=False)


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
        tolerance=raw.get("tolerance", 1e-10), max_iterations=raw.get("max_iterations", 100_000)
    )
    result = solve_exponent(p, q, opts)

    oracle = ""
    if p.probs.shape == (2, 2):
        oracle = _fmt(grid_oracle_exponent(p, q, _real("grid_step", raw.get("grid_step", 1e-5))))
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
                _fmt(result.exponent),
                "true" if result.converged else "false",
                str(result.iterations),
                _fmt(result.marginal_residual),
                _fmt(result.duality_gap_bound),
                oracle,
                _fmt(baseline_x),
                _fmt(baseline_y),
                _fmt(baseline_joint),
            ]
        ),
        "# minimizer (row-major)",
    ]
    lines.extend(",".join(_fmt(v) for v in row) for row in result.minimizer.probs)
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
        report = monte_carlo_errors(config, p, q, trials, seed)
    else:
        report = exact_errors(config, p, q)
    floats = (report.eta, report.alpha, report.beta, report.neg_ln_beta_per_sample, report.e_t_h0, report.e_t_h1)
    mc = ["", ""] if report.trials is None else [str(report.trials), _fmt(report.ci_halfwidth)]
    row = [str(report.total_samples), str(report.n), str(report.k), *map(_fmt, floats), report.method, *mc]
    header = "N,n,k,eta,alpha,beta,neg_ln_beta_per_N,e_t_h0,e_t_h1,method,trials,ci"
    _emit(header + "\n" + ",".join(row) + "\n", args.out)
    return EXIT_OK


def cmd_fit(args) -> int:
    raw = _load_json(args.config)
    p = _parse_joint(raw, "P_XY")
    q = _parse_joint(raw, "Q_XY")
    config = _parse_protocol(raw)
    grid = raw.get("N_grid")
    if not isinstance(grid, list) or len(grid) < 4:
        raise InvalidConfig("fit needs an N_grid list with at least 4 sample budgets")
    fit = fit_exponent(config, p, q, [_integer("N_grid entry", v, positive=False) for v in grid])

    lines = ["N,neg_ln_beta,fitted"]
    lines += [f"{total},{_fmt(v)},{_fmt(fit.slope * total + fit.intercept)}" for total, v in fit.points]
    lines.append(
        f"# slope={_fmt(fit.slope)} nats/sample intercept={_fmt(fit.intercept)} "
        f"r_squared={_fmt(fit.r_squared)}"
    )
    if q.strictly_positive:
        solved = solve_exponent(p, q)
        with np.errstate(divide="ignore", invalid="ignore"):  # exponent 0: +-inf, or nan for slope 0
            ratio = float(np.float64(fit.slope) / solved.exponent)
        lines.append(f"# solver exponent={_fmt(solved.exponent)} slope/exponent={_fmt(ratio)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _wald_checks(rng: np.random.Generator, horizon: int, cases: int):
    """(line, passed) for the deterministic-stop, first-hit and randomized
    threshold rules, each run as it is drawn."""

    def check(name, p0, q0, rule):
        p = Pmf.from_probs([p0, 1 - p0])
        q = Pmf.from_probs([q0, 1 - q0])
        r = verify_wald_identity(p, q, rule, horizon)
        return f"wald {name}: lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)} gap={_fmt(r.gap)}", r.holds(1e-9)

    yield check("deterministic-stop", 0.5, 0.9, lambda prefix: len(prefix) >= min(3, horizon))
    yield check("stop-at-first-1", 0.5, 0.9, lambda prefix: prefix[-1] == 1)
    for i in range(cases):
        p0 = float(rng.uniform(0.1, 0.9))
        q0 = float(rng.uniform(0.1, 0.9))
        threshold = int(rng.integers(1, horizon + 1))
        rule = lambda prefix: prefix.count(0) >= threshold
        yield check(f"threshold-{i}(count0>={threshold})", p0, q0, rule)


def _acceptance_bound_checks(rng: np.random.Generator, horizon: int, cases: int):
    """(line, passed) for random sets under a stopping law or rule, each
    run as it is drawn, so one case's sets are held at a time."""
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
            stopping = lambda prefix: prefix.count(1) >= threshold
            desc = f"rule(count1>={threshold})"
        r = verify_acceptance_bound(p, q, stopping, sets, horizon)
        line = f"set-bound case-{i}({desc}): lhs={_fmt(r.lhs)} bound={_fmt(r.bound_nats)} loose={_fmt(r.bound_loose)}"
        yield line, r.holds


def cmd_verify(args) -> int:
    raw = _load_json(args.config) if args.config else {}
    section = raw.get("verify", {})
    if not isinstance(section, Mapping):
        raise InvalidConfig(f"the 'verify' section must be a JSON object, got {section!r}")
    wald_horizon, set_bound_horizon, cases = (
        _integer(key, section.get(key, default), positive=False)
        for key, default in (("wald_horizon", 8), ("set_bound_horizon", 6), ("cases", 20))
    )
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
    if seed < 0:
        raise InvalidConfig(f"the verify seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)

    lines = []
    failures = 0
    # The suites share the rng: every Wald check is drawn before any set-bound one.
    checks = chain(_wald_checks(rng, wald_horizon, cases), _acceptance_bound_checks(rng, set_bound_horizon, cases))
    for text, ok in checks:
        lines.append(f"{text} {'pass' if ok else 'FAIL'}")
        failures += not ok
    lines.append(
        f"{failures} failures out of {len(lines)} checks" if failures else f"all {len(lines)} checks passed"
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
    sp.add_argument("--threads", type=_positive_int, default=1, help="accepted and checked, no effect (MC runs on one thread)")
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
