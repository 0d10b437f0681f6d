"""Frozen-trajectory evaluation engine.

Per decision slot the engine measures the hit rate of the current cache
against the frozen requests, then asks the controller, parses its text and
applies the action (or skips the update and counts an invalid). Every
controller in one evaluation consumes the identical instance bytes; the
instance hash is recorded in each report and asserted equal on emission.

Decision latency is measured but kept out of the deterministic report
files: metric tables regenerate byte-identically, the latency sidecar
does not.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, field

from .core import StructuralError, canonical_json, hit_rate
from .episode import Episode
from .interface import parse
from .policies import Policy, make_policy
from .reward import RewardConfig
from .traffic import (
    SWEEP_AXES,
    Instance,
    InstanceConfig,
    WarmState,
    build_instance,
    load_instance,
    save_instance,
    sweep_config,
    warm_start,
)

REPORT_SCHEMA = "coopcache.report.v1"
RUNCONFIG_SCHEMA = "coopcache.runconfig.v1"


@dataclass(frozen=True)
class RunConfig:
    """One evaluation: instance source, controllers, seeds, scoring knobs."""

    instance_config: InstanceConfig | None = None
    instance_path: str | None = None
    policies: tuple[str, ...] = ("lru",)
    seeds: tuple[int, ...] = (1, 2, 3)
    slots: int | None = None
    reward: RewardConfig = field(default_factory=RewardConfig)
    out_dir: str | None = None
    extern_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.instance_config is None and self.instance_path is None:
            raise StructuralError("need instance parameters or an instance file")
        if not self.policies:
            raise StructuralError("need at least one policy spec")
        if not self.seeds:
            raise StructuralError("need at least one seed")


@dataclass(frozen=True)
class EvalReport:
    """Per-rollout metrics: hit series, prefix averages, invalid count.

    ``table_mean`` averages the checkpoint prefix averages (the headline
    table column); ``overall_mean`` averages the full per-slot series.
    Latency is observational and excluded from equality.
    """

    policy: str
    seed: int
    instance_sha256: str
    slots: int
    p_hit: tuple[float, ...]
    checkpoints: tuple[tuple[int, float], ...]
    table_mean: float
    overall_mean: float
    invalid_actions: int
    latency_s: tuple[float, ...] = field(compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "policy": self.policy,
            "seed": self.seed,
            "instance_sha256": self.instance_sha256,
            "slots": self.slots,
            "p_hit": list(self.p_hit),
            "checkpoints": [[s, v] for s, v in self.checkpoints],
            "table_mean": self.table_mean,
            "overall_mean": self.overall_mean,
            "invalid_actions": self.invalid_actions,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        if payload.get("schema") != REPORT_SCHEMA:
            raise StructuralError(f"unsupported report schema: {payload.get('schema')!r}")
        return cls(
            policy=payload["policy"],
            seed=int(payload["seed"]),
            instance_sha256=payload["instance_sha256"],
            slots=int(payload["slots"]),
            p_hit=tuple(float(x) for x in payload["p_hit"]),
            checkpoints=tuple((int(s), float(v)) for s, v in payload["checkpoints"]),
            table_mean=float(payload["table_mean"]),
            overall_mean=float(payload["overall_mean"]),
            invalid_actions=int(payload["invalid_actions"]),
            latency_s=(),
        )


def checkpoint_slots(slots: int) -> tuple[int, ...]:
    """Prefix-average checkpoints: every 50 slots, or the end for short runs."""
    marks = tuple(range(50, slots + 1, 50))
    return marks if marks else (slots,)


def prefix_average(series, upto: int) -> float:
    return sum(series[:upto]) / upto


def rollout(instance: Instance, policy: Policy, slots: int | None = None,
            warm: WarmState | None = None) -> EvalReport:
    """Roll one controller over the frozen trace from the warm state.

    Measure-then-update: the hit rate recorded for a slot uses the cache
    as it stood when the slot's requests arrived. Invalid completions
    execute no update and are counted; every executed transition is
    audited against the single-swap budget.
    """
    config = instance.config
    slots = config.rollout_slots if slots is None else int(slots)
    if slots < 1:
        raise StructuralError("rollout needs at least one slot")
    if config.warm_slots + slots + config.horizon_reserve > instance.trace_len:
        raise StructuralError("trace too short for warm-up + rollout + reserve")
    if warm is None:
        warm = warm_start(instance)
    policy.reset(instance, warm)
    episode = Episode(instance, warm)
    series: list[float] = []
    latencies: list[float] = []
    invalid = 0
    try:
        for _ in range(slots):
            obs = episode.advance()
            series.append(hit_rate(obs.cache, obs.requests, instance.graph))
            peek = instance.peek(obs.slot, policy.peek_len) if policy.peek_len else None
            started = time.perf_counter()
            text = policy.decide(obs, peek)
            latencies.append(time.perf_counter() - started)
            if not episode.step(parse(text, obs)):
                invalid += 1
    finally:
        policy.close()
    marks = checkpoint_slots(slots)
    checkpoints = tuple((m, prefix_average(series, m)) for m in marks)
    return EvalReport(
        policy=policy.name,
        seed=instance.seed,
        instance_sha256=instance.sha256(),
        slots=slots,
        p_hit=tuple(series),
        checkpoints=checkpoints,
        table_mean=sum(v for _, v in checkpoints) / len(checkpoints),
        overall_mean=sum(series) / len(series),
        invalid_actions=invalid,
        latency_s=tuple(latencies),
    )


def _instance_for_seed(cfg: RunConfig, seed: int) -> Instance:
    if cfg.instance_path is not None:
        instance = load_instance(cfg.instance_path)
        if instance.seed != seed:
            raise StructuralError(
                f"instance file holds seed {instance.seed}, run asked for {seed}"
            )
        return instance
    return build_instance(cfg.instance_config, seed)


def _check_specs(cfg: RunConfig, configs) -> None:
    """Fail before the first rollout or file write on a spec that cannot run.

    Two specs with the same policy name would overwrite each other's
    report files and be averaged into one table row; a warm-up oracle or a
    policy whose peek reaches past the trace end would fail only when it
    gets there, and an empty rollout only after its instance file is written.
    """
    policies = [make_policy(spec, cfg.reward.gamma, cfg.extern_timeout)
                for spec in cfg.policies]
    names = [p.name for p in policies]
    if len(set(names)) < len(names):
        raise StructuralError(f"policy specs share a name: {names}")
    for config in configs:
        if config.warm_slots + cfg.reward.horizon > config.trace_slots:
            raise StructuralError(
                f"warm-up {config.warm_slots} + oracle horizon {cfg.reward.horizon} "
                f"exceeds the {config.trace_slots}-slot trace"
            )
        slots = config.rollout_slots if cfg.slots is None else int(cfg.slots)
        if slots < 1:
            raise StructuralError("rollout needs at least one slot")
        for p in policies:
            tail = max(config.horizon_reserve, p.peek_len)
            if config.warm_slots + slots + tail > config.trace_slots:
                raise StructuralError(
                    f"{p.name}: warm-up {config.warm_slots} + {slots} slots + "
                    f"look-ahead {tail} exceeds the {config.trace_slots}-slot trace"
                )


def run(cfg: RunConfig) -> list[EvalReport]:
    """Evaluate every configured policy on every seed's frozen instance."""
    instances = [_instance_for_seed(cfg, seed) for seed in cfg.seeds]
    _check_specs(cfg, [instance.config for instance in instances])
    reports: list[EvalReport] = []
    out = cfg.out_dir
    if out:
        os.makedirs(out, exist_ok=True)
    for seed, instance in zip(cfg.seeds, instances):
        if out:
            save_instance(instance, os.path.join(out, f"instance_seed{seed}.json"))
        warm = warm_start(instance, cfg.reward.horizon, cfg.reward.gamma)
        for spec in cfg.policies:
            policy = make_policy(spec, cfg.reward.gamma, cfg.extern_timeout)
            report = rollout(instance, policy, cfg.slots, warm)
            reports.append(report)
            if out:
                name = f"report_{_safe_name(policy.name)}_seed{seed}.json"
                with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
                    fh.write(canonical_json(report.to_dict()) + "\n")
    if out:
        write_reports(reports, out)
        write_latency(reports, out)
    return reports


def sweep(cfg: RunConfig, axis: str, values) -> list[dict]:
    """Regenerate instances along one parameter axis and evaluate them.

    Same seeds at every point; one tidy row per (value, policy, seed).
    """
    if axis not in SWEEP_AXES:
        raise StructuralError(f"axis must be one of {tuple(SWEEP_AXES)}")
    if cfg.instance_config is None:
        raise StructuralError("sweeps need instance parameters, not an instance file")
    points = [(value, sweep_config(cfg.instance_config, axis, value)) for value in values]
    _check_specs(cfg, [point for _, point in points])
    rows: list[dict] = []
    for value, point in points:
        for seed in cfg.seeds:
            instance = build_instance(point, seed)
            warm = warm_start(instance, cfg.reward.horizon, cfg.reward.gamma)
            for spec in cfg.policies:
                policy = make_policy(spec, cfg.reward.gamma, cfg.extern_timeout)
                report = rollout(instance, policy, cfg.slots, warm)
                rows.append(
                    {
                        "axis": axis,
                        "value": value,
                        "policy": report.policy,
                        "seed": seed,
                        "table_mean": report.table_mean,
                        "overall_mean": report.overall_mean,
                        "invalid_actions": report.invalid_actions,
                    }
                )
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_sweep(rows, os.path.join(cfg.out_dir, f"sweep_{axis}.csv"))
    return rows


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() else "-" for c in name)


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def write_reports(reports, out_dir) -> tuple[str, str]:
    """Emit the per-seed and aggregate metric tables.

    ``results.csv`` mirrors the headline table: one column per checkpoint
    slot then the mean; aggregate rows use seed="mean". ``series.csv`` is
    the plot-ready long format. Emission is a pure function of the reports.
    """
    if not reports:
        raise StructuralError("nothing to report")
    by_seed: dict[int, set] = {}
    for r in reports:
        by_seed.setdefault(r.seed, set()).add(r.instance_sha256)
    for seed, hashes in by_seed.items():
        if len(hashes) != 1:
            raise StructuralError(f"seed {seed}: policies saw different instance bytes")
    marks = [m for m, _ in reports[0].checkpoints]
    results_path = os.path.join(out_dir, "results.csv")
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "seed"] + [f"slot_{m}" for m in marks] + ["mean"])
        ordered = sorted(reports, key=lambda r: (r.policy, r.seed))
        for r in ordered:
            writer.writerow(
                [r.policy, r.seed]
                + [_fmt(v) for _, v in r.checkpoints]
                + [_fmt(r.table_mean)]
            )
        for policy in sorted({r.policy for r in reports}):
            group = [r for r in reports if r.policy == policy]
            row: list[str] = [policy, "mean"]
            for i in range(len(marks)):
                row.append(_fmt(sum(r.checkpoints[i][1] for r in group) / len(group)))
            row.append(_fmt(sum(r.table_mean for r in group) / len(group)))
            writer.writerow(row)
    series_path = os.path.join(out_dir, "series.csv")
    with open(series_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "seed", "slot", "p_hit"])
        for r in sorted(reports, key=lambda r: (r.policy, r.seed)):
            for i, v in enumerate(r.p_hit, start=1):
                writer.writerow([r.policy, r.seed, i, _fmt(v)])
    return results_path, series_path


def write_sweep(rows, path) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "value", "policy", "seed", "mean", "overall_mean", "invalid_actions"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["axis"],
                    _fmt(row["value"]),
                    row["policy"],
                    row["seed"],
                    _fmt(row["table_mean"]),
                    _fmt(row["overall_mean"]),
                    row["invalid_actions"],
                ]
            )
    return path


def write_latency(reports, out_dir) -> str:
    """Observational sidecar; excluded from the byte-determinism contract."""
    path = os.path.join(out_dir, "latency.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "seed", "slot", "latency_s"])
        for r in reports:
            for i, v in enumerate(r.latency_s, start=1):
                writer.writerow([r.policy, r.seed, i, _fmt(v)])
    return path


def load_reports(directory) -> list[EvalReport]:
    """Read every report JSON a previous run left in ``directory``."""
    reports = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("report_") and name.endswith(".json"):
            with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                reports.append(EvalReport.from_dict(json.load(fh)))
    return reports
