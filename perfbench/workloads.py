"""Workload definitions: config generation, job runners and output checks.

A workload is a fixed list of jobs and a pass is one run through that list.
Every input a job sees is generated from the benchmark seed and written to a
config directory; ``load_jobs`` reads that directory back, so the work of
loading configs is the same in the timed process and in the set-up probes.

Randomized inputs (Monte Carlo seeds, protocol run seeds, random exponent
instances, the verify seed) come from ``variant = seed % VARIANTS``. Their
expected outputs were taken from the seed code once per variant and stored in
``reference.json`` (see ``make_reference.py``), so every job's output is
checked exactly, not only for plausibility.

This module imports only the standard library at module level; seqht is
imported inside the functions that need it, so that the set-up probe times
the library import itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

WORKLOADS = ("exact-fit", "mc-stream", "scalar-calls")
VARIANTS = 16
SIZES = ("full", "tiny")

P_XY = [[0.81, 0.09], [0.09, 0.01]]
Q_XY = [[0.25, 0.25], [0.25, 0.25]]
# A correlated 3x3 null against the uniform alternative, for the general
# (joint-type enumeration) exact path.
P_3X3 = [[0.30, 0.05, 0.05], [0.05, 0.20, 0.05], [0.05, 0.05, 0.20]]
Q_3X3 = [[1.0 / 9.0] * 3 for _ in range(3)]

EXACT_REL_TOL = 1e-12
# Solver against the 2x2 grid oracle, as in acceptance criterion 1.
ORACLE_GRID_STEP = 1e-5
ORACLE_TOL = 1e-3
SOLVER_RESIDUAL_TOL = 1e-10

_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix64 finalizer in plain integers (input generation only)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(variant: int, stream: int) -> int:
    """Independent 64-bit seed for one input stream of one variant."""
    return _mix64(variant * 0x9E3779B97F4A7C15 + stream + 1)


# ---------------------------------------------------------------- configs


def _protocol(k: int, n: int, eta: float | None = None, **extra) -> dict:
    section = {"k": k, "n": n, **extra}
    if eta is not None:
        section["eta"] = eta
    return section


def _sim(p, q, protocol: dict, **extra) -> dict:
    return {"P_XY": p, "Q_XY": q, "protocol": protocol, **extra}


def _exact_fit_configs(size: str, variant: int) -> dict[str, dict]:
    full = size == "full"
    grid = [200, 400, 600, 800, 1000] if full else [20, 40, 60, 80]
    n_big = 1000 if full else 100
    # eta is left out of the fit config, so the CLI applies the default
    # schedule for the template horizon (n = 250, N = 500) to every point.
    return {
        "fit": {"cli": "fit", **_sim(P_XY, Q_XY, _protocol(2, 250 if full else 25), N_grid=grid)},
        "exact-binary-n2000": {
            "cli": "simulate",
            **_sim(P_XY, Q_XY, _protocol(2, n_big, 0.02), method="exact"),
        },
        "exact-general-3x3": {
            "cli": "simulate",
            **_sim(P_3X3, Q_3X3, _protocol(2, 6 if full else 3, 0.2), method="exact"),
        },
        "exact-early-n64": {
            "cli": "simulate",
            **_sim(P_XY, Q_XY, _protocol(2, 32 if full else 8, 0.1, policy_kind="early_decide"), method="exact"),
        },
    }


def _mc_stream_configs(size: str, variant: int) -> dict[str, dict]:
    full = size == "full"
    small, large = (100_000, 20_000) if full else (2_000, 500)
    return {
        "mc-n200": {
            "cli": "simulate",
            "threads": 1,
            **_sim(P_XY, Q_XY, _protocol(2, 100, 0.05), method="mc", trials=small, seed=stream_seed(variant, 1)),
        },
        "mc-n200-early-t2": {
            "cli": "simulate",
            "threads": 2,
            **_sim(
                # Default eta: at 0.05 nearly every trial is rejected in round 1.
                P_XY, Q_XY, _protocol(2, 100, policy_kind="early_decide"),
                method="mc", trials=small, seed=stream_seed(variant, 2),
            ),
        },
        "mc-n2000": {
            "cli": "simulate",
            "threads": 1,
            **_sim(P_XY, Q_XY, _protocol(2, 1000 if full else 200, 0.02), method="mc", trials=large, seed=stream_seed(variant, 3)),
        },
    }


def _random_joints(rng: random.Random, count: int, side: int, floor: float) -> list[list[list[float]]]:
    out = []
    for _ in range(count):
        w = [rng.random() + floor for _ in range(side * side)]
        total = sum(w)
        out.append([[w[r * side + c] / total for c in range(side)] for r in range(side)])
    return out


def _scalar_calls_configs(size: str, variant: int) -> dict[str, dict]:
    full = size == "full"
    rng = random.Random(stream_seed(variant, 4))
    runs = 4000 if full else 100
    small, large = (200, 50) if full else (10, 5)
    return {
        "run-protocol": {
            "api": "run_protocol",
            "P_XY": P_XY,
            "Q_XY": Q_XY,
            "protocol": _protocol(3, 12, 0.2),
            "seeds": [stream_seed(variant, 1000 + i) for i in range(runs)],
        },
        "acceptance-region": {
            "api": "acceptance_region",
            "P_XY": P_XY,
            "protocol": _protocol(2, 3 if full else 2, 0.2),
        },
        "exponent-2x2": {
            "api": "solve_exponent",
            "pairs": list(zip(_random_joints(rng, small, 2, 0.05), _random_joints(rng, small, 2, 0.1))),
        },
        "exponent-10x10": {
            "api": "solve_exponent",
            "pairs": list(zip(_random_joints(rng, large, 10, 0.05), _random_joints(rng, large, 10, 0.1))),
        },
        "verify": {
            "cli": "verify",
            "seed": stream_seed(variant, 5) >> 1,
            "verify": {"wald_horizon": 14, "set_bound_horizon": 10} if full else {"wald_horizon": 6, "set_bound_horizon": 4, "cases": 4},
        },
    }


_CONFIGS = {
    "exact-fit": _exact_fit_configs,
    "mc-stream": _mc_stream_configs,
    "scalar-calls": _scalar_calls_configs,
}

# Jobs whose inputs depend on the variant; the others share one reference.
_VARIANT_JOBS = {"mc-n200", "mc-n200-early-t2", "mc-n2000", "run-protocol", "verify", "exponent-2x2", "exponent-10x10"}


def write_configs(workload: str, seed: int, size: str, directory: Path) -> None:
    """Write one JSON config per job, plus the job order, into ``directory``.

    The order is fixed, not drawn from the seed: peak memory depends on which
    job runs after which, and it should not vary between seeds.
    """
    variant = seed % VARIANTS
    configs = _CONFIGS[workload](size, variant)
    order = list(configs)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("*.json"):
        stale.unlink()
    for name, config in configs.items():
        (directory / f"{name}.json").write_text(json.dumps(config))
    meta = {"workload": workload, "seed": seed, "size": size, "variant": variant, "order": order}
    (directory / "order.json").write_text(json.dumps(meta))


# ------------------------------------------------------------------- jobs


@dataclass
class Job:
    """One unit of client work.

    ``run`` returns the raw output and ``values`` reduces it to the values
    the check compares with the stored reference named by ``ref_key`` (None
    when ``values`` itself is the whole check, as for ``verify``). ``oracle``
    adds an independent check. ``latencies_ns`` collects per-call latencies
    for jobs that time individual library calls.
    """

    name: str
    run: Callable[[], Any]
    values: Callable[[Any], dict]
    ref_key: str | None
    rel_tol: float = 0.0
    threads: int = 1
    mc_trial_samples: int = 0
    oracle: Callable[[Any], str | None] | None = None
    latencies_ns: list[int] = field(default_factory=list)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    import seqht.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = seqht.cli.main(argv)
    return code, buf.getvalue()


def _csv_row(text: str) -> dict[str, str]:
    lines = text.strip().splitlines()
    return dict(zip(lines[0].split(","), lines[1].split(",")))


def _simulate_values(out) -> dict:
    code, text = out
    if code != 0:
        raise RuntimeError(f"simulate exited with {code}")
    row = _csv_row(text)
    return {key: float(row[key]) for key in ("alpha", "beta", "neg_ln_beta_per_N", "e_t_h0", "e_t_h1")}


def _fit_values(out) -> dict:
    code, text = out
    if code != 0:
        raise RuntimeError(f"fit exited with {code}")
    values = {}
    for line in text.strip().splitlines()[1:]:
        if line.startswith("# slope="):
            values["slope"] = float(line.split()[1].split("=")[1])
        elif not line.startswith("#"):
            total, neg_ln_beta, _ = line.split(",")
            values[f"neg_ln_beta@{total}"] = float(neg_ln_beta)
    return values


def _verify_values(out) -> dict:
    code, text = out
    last = text.strip().splitlines()[-1]
    if code != 0 or not last.startswith("all "):
        raise RuntimeError(f"verify exited with {code}: {last}")
    return {"summary": last}


def _digest(items) -> str:
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()[:32]


def _cli_job(name: str, path: Path, raw: dict) -> Job:
    kind = raw["cli"]
    argv = [kind, "--config", str(path)]
    if kind == "simulate":
        argv += ["--threads", str(raw.get("threads", 1))]
    values = {"simulate": _simulate_values, "fit": _fit_values, "verify": _verify_values}[kind]
    is_mc = raw.get("method") == "mc"
    exact = kind in ("fit", "simulate") and not is_mc
    proto = raw.get("protocol", {})
    return Job(
        name=name,
        run=lambda: _run_cli(argv),
        values=values,
        ref_key=None if kind == "verify" else name,
        rel_tol=EXACT_REL_TOL if exact else 0.0,
        threads=int(raw.get("threads", 1)),
        mc_trial_samples=2 * int(raw["trials"]) * proto["k"] * proto["n"] if is_mc else 0,
    )


def _run_protocol_job(name: str, raw: dict) -> Job:
    from seqht import JointPmf, ProtocolConfig, SourceModel

    p = JointPmf.from_probs(raw["P_XY"])
    q = JointPmf.from_probs(raw["Q_XY"])
    base = raw["protocol"]
    configs = [
        ProtocolConfig(k=base["k"], n=base["n"], eta=base["eta"], policy_kind=policy, encoder_kind=encoder)
        for policy in ("fixed_horizon", "early_decide")
        for encoder in ("one_bit", "full_type")
    ]
    # Run i alternates H0/H1, then the encoder, then the policy.
    runs = [
        (configs[(i // 2) % 4], SourceModel("H0" if i % 2 == 0 else "H1", p if i % 2 == 0 else q, s))
        for i, s in enumerate(raw["seeds"])
    ]

    def run():
        import seqht.protocol as protocol

        job.latencies_ns.clear()
        clock = time.perf_counter_ns
        out = []
        for config, source in runs:
            t0 = clock()
            trace = protocol.run_protocol(config, p, source)
            job.latencies_ns.append(clock() - t0)
            out.append(f"{trace.stopping_time}:{trace.decision}")
        return out

    job = Job(name, run, lambda out: {"runs": len(out), "digest": _digest(out)}, name)
    return job


def _acceptance_job(name: str, raw: dict) -> Job:
    from seqht import JointPmf, ProtocolConfig

    p = JointPmf.from_probs(raw["P_XY"])
    base = raw["protocol"]
    length = base["k"] * base["n"]
    seqs = [tuple((code >> b) & 1 for b in range(length)) for code in range(2**length)]
    configs = [
        ProtocolConfig(k=base["k"], n=base["n"], eta=base["eta"], encoder_kind=encoder)
        for encoder in ("one_bit", "full_type")
    ]

    def run():
        import seqht.protocol as protocol

        member = protocol.acceptance_region_membership
        return [[int(member(c, p, x, y)) for x in seqs for y in seqs] for c in configs]

    def values(out):
        one_bit, full_type = out
        return {
            "accepted": sum(one_bit),
            "digest": _digest(one_bit),
            "encoders_agree": one_bit == full_type,
        }

    return Job(name, run, values, name)


def _exponent_job(name: str, raw: dict) -> Job:
    from seqht import JointPmf

    pairs = [(JointPmf.from_probs(p), JointPmf.from_probs(q)) for p, q in raw["pairs"]]
    binary = pairs[0][0].probs.shape == (2, 2)

    def run():
        import seqht.exponent as exponent

        return [exponent.solve_exponent(p, q) for p, q in pairs]

    def values(out):
        return {
            "instances": len(out),
            "converged": all(r.converged for r in out),
            "max_residual_ok": max(r.marginal_residual for r in out) <= SOLVER_RESIDUAL_TOL,
        }

    oracle_values: list[float] = []

    def oracle(out) -> str | None:
        if not binary:
            return None
        from seqht import grid_oracle_exponent

        if not oracle_values:
            oracle_values.extend(grid_oracle_exponent(p, q, ORACLE_GRID_STEP) for p, q in pairs)
        gap = max(abs(r.exponent - o) for r, o in zip(out, oracle_values))
        return None if gap <= ORACLE_TOL else f"solver differs from the grid oracle by {gap:.3e}"

    # Random instances all converge; the reference pins that and the count.
    return Job(name, run, values, name, oracle=oracle)


def load_jobs(directory: Path) -> tuple[dict, list[Job]]:
    """Load the configs in ``directory`` into jobs, in the seed's job order."""
    meta = json.loads((directory / "order.json").read_text())
    jobs = []
    for name in meta["order"]:
        path = directory / f"{name}.json"
        raw = json.loads(path.read_text())
        if "cli" in raw:
            job = _cli_job(name, path, raw)
        elif raw["api"] == "run_protocol":
            job = _run_protocol_job(name, raw)
        elif raw["api"] == "acceptance_region":
            job = _acceptance_job(name, raw)
        else:
            job = _exponent_job(name, raw)
        if job.ref_key is not None:
            variant = f"@v{meta['variant']}" if name in _VARIANT_JOBS else ""
            job.ref_key = f"{meta['size']}:{name}{variant}"
        jobs.append(job)
    return meta, jobs


def compare(values: dict, reference: dict | None, rel_tol: float) -> str | None:
    """None when ``values`` match ``reference``, else a one-line reason."""
    if reference is None:
        return "no reference value stored"
    if values.keys() != reference.keys():
        return f"output keys {sorted(values)} differ from reference keys {sorted(reference)}"
    for key, ref in reference.items():
        got = values[key]
        if isinstance(ref, float) and rel_tol > 0:
            ok = got == ref or (math.isfinite(ref) and abs(got - ref) <= rel_tol * abs(ref))
        else:
            ok = got == ref
        if not ok:
            return f"{key}={got!r}, reference {ref!r}"
    return None
