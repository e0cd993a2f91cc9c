"""Which seqht functions are traced, and the per-layer metrics built from them.

Layers are seqht's modules: ``cli``, ``harness`` (exact / mc / fit / verify),
``protocol`` (batch ``simulate_batch``; scalar ``encode``, ``decide``,
``run_protocol``, ``acceptance_region_membership``), ``rng``, ``prob`` and
``exponent``. Per-layer values are per traced pass, so runs with different
pass counts compare directly.
"""

from __future__ import annotations


import numpy as np

from tracing import TracePoint, Tracer, self_times


def _exact_path(args, kwargs) -> str:
    config, p = args[0], args[1]
    if config.policy_kind.value != "fixed_horizon":
        return "harness.exact_errors.early"
    if p.probs.shape == (2, 2):
        return "harness.exact_errors.binary"
    return "harness.exact_errors.general"


def _window(total: int, target: np.ndarray, margin: float) -> int:
    """Typical binary counts 0..total, by the protocol's max-norm rule."""
    c = np.arange(total + 1, dtype=np.float64)
    gap = np.maximum(np.abs(c / total - target[0]), np.abs((total - c) / total - target[1]))
    return int((gap <= margin).sum())


def _count_exact(tracer: Tracer, sid, args, kwargs, result, dur_ns, peak):
    from seqht import count_type_vectors

    config, p = args[0], args[1]
    total = config.total_samples
    tracer.notes[sid] = {"N": total}
    path = _exact_path(args, kwargs)
    if path.endswith("binary"):
        w_x = _window(total, p.probs.sum(axis=1), config.eta)
        w_y = _window(total, p.probs.sum(axis=0), config.eta)
        tracer.add(path + ".window_cells", w_x * w_y * total)
    elif path.endswith("general"):
        tracer.add(path + ".types", count_type_vectors(total, p.probs.size))


def _count_fit(tracer, sid, args, kwargs, result, dur_ns, peak):
    tracer.add("harness.fit_exponent.points", len(args[3] if len(args) > 3 else kwargs["budget_grid"]))


def _count_mc(tracer, sid, args, kwargs, result, dur_ns, peak):
    threads = args[5] if len(args) > 5 else kwargs.get("threads", 1)
    tracer.add("harness.mc.thread_ns", threads * dur_ns)


def _count_batch(tracer, sid, args, kwargs, result, dur_ns, peak):
    config, seeds = args[0], args[3]
    trials = len(seeds)
    samples = trials * config.total_samples
    tracer.notes[sid] = {"trials": trials, "N": config.total_samples, "policy": config.policy_kind.value}
    tracer.add("protocol.simulate_batch.trial_samples", samples)
    if peak is not None:
        tracer.add("protocol.simulate_batch.peak_bytes", peak)
        tracer.add("protocol.simulate_batch.measured_trial_samples", samples)


def _count_draws(key: str, from_result: bool):
    def count(tracer, sid, args, kwargs, result, dur_ns, peak):
        tracer.add(key, np.size(result) if from_result else args[2])

    return count


def _count_sweeps(tracer, sid, args, kwargs, result, dur_ns, peak):
    tracer.add("exponent.solve_exponent.sweeps", result.iterations)


POINTS = [
    TracePoint("seqht.cli", "main", "cli.main"),
    TracePoint("seqht.harness", "exact_errors", "harness.exact_errors", classify=_exact_path, count=_count_exact),
    TracePoint("seqht.harness", "fit_exponent", "harness.fit_exponent", count=_count_fit),
    TracePoint("seqht.harness", "monte_carlo_errors", "harness.monte_carlo_errors", count=_count_mc),
    TracePoint("seqht.harness", "verify_wald_identity", "harness.verify_wald_identity"),
    TracePoint("seqht.harness", "verify_acceptance_bound", "harness.verify_acceptance_bound"),
    TracePoint("seqht.protocol", "simulate_batch", "protocol.simulate_batch", count=_count_batch, memory=True),
    TracePoint("seqht.protocol", "run_protocol", "protocol.run_protocol"),
    TracePoint("seqht.protocol", "encode", "protocol.encode"),
    TracePoint("seqht.protocol", "decide", "protocol.decide"),
    TracePoint("seqht.protocol", "acceptance_region_membership", "protocol.acceptance_region_membership"),
    TracePoint("seqht.rng", "uniforms", "rng.uniforms", count=_count_draws("rng.uniforms.draws", True)),
    TracePoint("seqht.rng", "uniform_block", "rng.uniform_block", count=_count_draws("rng.uniform_block.draws", False)),
    TracePoint(
        "seqht.rng", "sample_categorical", "rng.sample_categorical",
        count=_count_draws("rng.sample_categorical.draws", True),
    ),
    TracePoint("seqht.rng", "derive_seed", "rng.derive_seed", count=_count_draws("rng.derive_seed.draws", True)),
    TracePoint("seqht.prob", "marginals", "prob.marginals"),
    TracePoint("seqht.prob", "empirical_type", "prob.empirical_type"),
    TracePoint("seqht.prob", "linf_distance", "prob.linf_distance"),
    TracePoint("seqht.exponent", "solve_exponent", "exponent.solve_exponent", count=_count_sweeps),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced passes, each a (value, unit) pair."""
    rows = tracer.table()
    n_names = len(tracer.names)
    dur = (rows[:, 5] - rows[:, 4]).astype(np.float64)
    calls = np.bincount(rows[:, 1], minlength=n_names)
    busy = np.bincount(rows[:, 1], weights=dur, minlength=n_names)
    own = np.bincount(rows[:, 1], weights=self_times(rows).astype(np.float64), minlength=n_names)
    counts = tracer.counts
    per = 1.0 / passes
    out: dict[str, tuple[float, str]] = {}

    def stat(name):
        i = tracer.name_id(name)
        if i >= n_names:
            return 0, 0.0, 0.0
        return int(calls[i]), float(busy[i]), float(own[i])

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def basic(name, with_self=False):
        c, b, s = stat(name)
        put(f"{name}.calls", c * per, "count")
        put(f"{name}.busy_s", b * per / 1e9, "s")
        if with_self:
            put(f"{name}.self_s", s * per / 1e9, "s")
        return c, b

    for path in ("binary", "general", "early"):
        basic(f"harness.exact_errors.{path}")
    put("harness.exact_errors.binary.window_cells", counts["harness.exact_errors.binary.window_cells"] * per, "count")
    types = counts["harness.exact_errors.general.types"]
    put("harness.exact_errors.general.types", types * per, "count")
    put("harness.exact_errors.general.ns_per_type", _ratio(stat("harness.exact_errors.general")[1], types), "ns")

    _, fit_busy, _ = stat("harness.fit_exponent")
    put("harness.fit_exponent.busy_s", fit_busy * per / 1e9, "s")
    put("harness.fit_exponent.points", counts["harness.fit_exponent.points"] * per, "count")

    _, mc_busy = basic("harness.monte_carlo_errors", with_self=True)
    batch_id = tracer.name_id("protocol.simulate_batch")
    mc_id = tracer.name_id("harness.monte_carlo_errors")
    parent_rows = rows[:, 3]
    has_parent = parent_rows >= 0
    parent_name = np.full(len(rows), -1)
    parent_name[has_parent] = rows[parent_rows[has_parent], 1]
    chunk = (rows[:, 1] == batch_id) & (parent_name == mc_id)
    thread_ns = counts["harness.mc.thread_ns"]
    put("harness.mc.chunks", chunk.sum() * per, "count")
    put("harness.mc.threads", _ratio(thread_ns, mc_busy), "count")
    put("harness.mc.parallel_efficiency", _ratio(dur[chunk].sum(), thread_ns), "ratio")

    _, batch_busy = basic("protocol.simulate_batch", with_self=True)
    samples = counts["protocol.simulate_batch.trial_samples"]
    put("protocol.simulate_batch.trial_samples", samples * per, "count")
    put("protocol.simulate_batch.ns_per_trial_sample", _ratio(batch_busy, samples), "ns")
    put(
        "protocol.simulate_batch.peak_bytes_per_trial_sample",
        _ratio(counts["protocol.simulate_batch.peak_bytes"], counts["protocol.simulate_batch.measured_trial_samples"]),
        "B",
    )

    for fn in ("uniforms", "uniform_block", "sample_categorical", "derive_seed"):
        _, b = basic(f"rng.{fn}")
        draws = counts[f"rng.{fn}.draws"]
        put(f"rng.{fn}.draws", draws * per, "count")
        put(f"rng.{fn}.ns_per_draw", _ratio(b, draws), "ns")

    for fn in ("run_protocol", "encode", "decide", "acceptance_region_membership"):
        c, b = basic(f"protocol.{fn}")
        put(f"protocol.{fn}.us_per_call", _ratio(b, c) / 1e3, "us")

    for fn in ("marginals", "empirical_type", "linf_distance"):
        basic(f"prob.{fn}")

    _, solve_busy = basic("exponent.solve_exponent")
    sweeps = counts["exponent.solve_exponent.sweeps"]
    put("exponent.solve_exponent.sweeps", sweeps * per, "count")
    put("exponent.solve_exponent.us_per_sweep", _ratio(solve_busy, sweeps) / 1e3, "us")

    basic("harness.verify_wald_identity")
    basic("harness.verify_acceptance_bound")
    basic("cli.main", with_self=True)
    return out


def baseline_rows(tracer: Tracer, job_medians: dict[str, float]) -> list[str]:
    """Lines matching the rows of the ROADMAP Baseline table this run covers.

    Whole-job times are untraced medians; per-call and per-chunk times come
    from the traced passes and include tracing overhead.
    """
    rows = tracer.table()
    names = tracer.names
    lines = []

    def spans(name):
        if name not in names:
            return rows[:0]
        return rows[rows[:, 1] == names.index(name)]

    def ms(ns):
        return f"{ns / 1e6:.3f} ms"

    exact = spans("harness.exact_errors.binary")
    by_n: dict[int, list[int]] = {}
    for sid, t0, t1 in zip(exact[:, 0].tolist(), exact[:, 4].tolist(), exact[:, 5].tolist()):
        by_n.setdefault(tracer.notes[sid]["N"], []).append(t1 - t0)
    if by_n:
        cells = " / ".join(f"N={n}: {np.median(v) / 1e9:.3f} s" for n, v in sorted(by_n.items()))
        lines.append(f"exact fixed-horizon binary (traced, per call): {cells}")
    general = spans("harness.exact_errors.general")
    if len(general):
        types = tracer.counts["harness.exact_errors.general.types"] / len(general)
        lines.append(
            f"exact general joint-type path (traced, per call): {ms(np.median(general[:, 5] - general[:, 4]))}, {types:,.0f} types"
        )
    for job, seconds in job_medians.items():
        lines.append(f"job {job} (untraced median): {seconds:.3f} s")

    batch = spans("protocol.simulate_batch")
    for policy in ("fixed_horizon", "early_decide"):
        full = [
            sid for sid in batch[:, 0].tolist()
            if tracer.notes[sid]["trials"] == 16_384 and tracer.notes[sid]["policy"] == policy
            and tracer.notes[sid]["N"] == 200
        ]
        if not full:
            continue
        parts = []
        for name in ("rng.uniforms", "rng.sample_categorical", "protocol.simulate_batch"):
            s = spans(name)
            # The batch spans themselves, or the rng spans they are parent of.
            mask = np.isin(s[:, 0] if name == "protocol.simulate_batch" else s[:, 3], full)
            parts.append(ms((s[mask, 5] - s[mask, 4]).sum() / len(full)))
        lines.append(
            f"MC per 16,384-trial chunk, N=200, {policy} (traced): "
            "uniforms / sample_categorical / simulate_batch = " + " / ".join(parts)
        )
    measured = tracer.counts["protocol.simulate_batch.measured_trial_samples"]
    if measured:
        per_sample = tracer.counts["protocol.simulate_batch.peak_bytes"] / measured
        lines.append(f"MC peak traced allocation (1-thread jobs): {per_sample:.1f} B per trial-sample")

    for name in ("protocol.run_protocol", "protocol.decide", "prob.marginals", "exponent.solve_exponent"):
        s = spans(name)
        if len(s):
            lines.append(f"{name} (traced, per call): {np.median(s[:, 5] - s[:, 4]) / 1e3:.1f} us median")
    return lines
