"""Frozen-trajectory evaluation engine.

Per decision slot the engine measures the hit rate of the current cache
against the frozen requests, then asks the controller, parses its answer
if it is text, and applies the action (or skips the update and counts an
invalid). Every controller in one evaluation consumes the identical
instance bytes; each report carries the instance hash, asserted equal on
emission and computed when first read, so ``sweep``, which writes no hash,
hashes no instance.
``run`` and ``sweep`` share one loop, ``_evaluate``: it builds the policies
once and checks every point, seed and topology before the first rollout,
then builds, warms and rolls one instance at a time; ``rollout`` checks its
own slot budget before its first slot.

Decision latency is measured but kept out of the deterministic report
files: metric tables regenerate byte-identically, the latency sidecar
does not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .core import (
    FeasibilityError,
    StructuralError,
    atomic_write,
    canonical_json,
    check_count,
    check_out_dir,
    check_positive,
    finite,
    hit_rate,
    key_reader,
    make_out_dir,
    read_json,
    whole,
)
from .episode import Episode
from .interface import parse
from .policies import EXTERN_TIMEOUT_S, Policy, make_policy
from .reward import RewardConfig
from .traffic import (
    Instance,
    InstanceConfig,
    WarmState,
    build_instance,
    check_seeds,
    draw_graph,
    load_seeded_instance,
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
    extern_timeout: float = EXTERN_TIMEOUT_S

    def __post_init__(self) -> None:
        if (self.instance_config is None) == (self.instance_path is None):
            raise StructuralError("need one of instance parameters and an instance file")
        if not self.policies:
            raise StructuralError("need at least one policy spec")
        check_seeds(self.seeds)
        check_positive("extern_timeout", self.extern_timeout)


class _InstanceSha256:
    """``EvalReport.instance_sha256``: a digest, or a callable giving it such as
    ``Instance.sha256``, called on the first read, so an unread report hashes nothing."""

    def __get__(self, report, owner=None):
        if report is None:  # no class default: the field stays required
            raise AttributeError("instance_sha256")
        if not isinstance(digest := report.__dict__["instance_sha256"], str):
            digest = report.__dict__["instance_sha256"] = digest()
        return digest

    def __set__(self, report, digest) -> None:
        report.__dict__["instance_sha256"] = digest


@dataclass(frozen=True)
class EvalReport:
    """Per-rollout data (hit series, invalid count, latency) and the summaries
    derived from ``p_hit``: ``checkpoints`` are its prefix averages, ``table_mean``
    averages them (the headline table column), ``overall_mean`` the full series.
    Latency is observational and excluded from equality.
    """

    policy: str
    seed: int
    instance_sha256: str = _InstanceSha256()
    p_hit: tuple[float, ...]
    invalid_actions: int
    latency_s: tuple[float, ...] = field(compare=False, repr=False)

    @property
    def slots(self) -> int:
        return len(self.p_hit)

    @cached_property
    def checkpoints(self) -> tuple[tuple[int, float], ...]:
        return tuple((m, prefix_average(self.p_hit, m)) for m in checkpoint_slots(self.slots))

    @property
    def table_mean(self) -> float:
        return sum(v for _, v in self.checkpoints) / len(self.checkpoints)

    @property
    def overall_mean(self) -> float:
        return sum(self.p_hit) / len(self.p_hit)

    def __getstate__(self) -> dict:
        self.instance_sha256  # a pickle or copy holds the digest, not the instance
        return self.__dict__

    def to_dict(self) -> dict:
        payload = asdict(self)
        del payload["latency_s"]
        payload.update((name, getattr(self, name)) for name, _, _ in _SUMMARIES)
        return {"schema": REPORT_SCHEMA, **payload}

    @classmethod
    def from_dict(cls, payload: dict) -> "EvalReport":
        """Read a saved report; a wrong type or a summary that ``p_hit`` does not give
        raises naming its key."""
        key = key_reader(payload, "report key")
        if payload.get("schema") != REPORT_SCHEMA:
            raise StructuralError(f"unsupported report schema: {payload.get('schema')!r}")
        report = cls(
            policy=key("policy", _text),
            seed=key("seed"),
            instance_sha256=key("instance_sha256", _text),
            p_hit=key("p_hit", _series),
            invalid_actions=key("invalid_actions"),
            latency_s=(),
        )
        for name, parse, what in _SUMMARIES:
            if key(name, parse) != (derived := getattr(report, name)):
                raise StructuralError(f"report key {name!r}: not {canonical_json(derived)}, {what}")
        return report


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {value!r}")
    return value


def _series(values) -> tuple[float, ...]:
    if not (series := tuple(map(finite, values))):
        raise ValueError("expected at least one hit rate")
    return series


#: The summary keys a saved report holds: how each is read, and what it must equal.
_SUMMARIES = (
    ("slots", whole, "the p_hit count"),
    ("checkpoints", lambda pairs: tuple((whole(s), finite(v)) for s, v in pairs),
     "the p_hit prefix averages"),
    ("table_mean", finite, "the mean of the checkpoint averages"),
    ("overall_mean", finite, "the p_hit mean"),
)


def checkpoint_slots(slots: int) -> tuple[int, ...]:
    """Prefix-average checkpoints: every 50 slots, or the end for short runs."""
    marks = tuple(range(50, slots + 1, 50))
    return marks if marks else (slots,)


def prefix_average(series, upto: int) -> float:
    return sum(series[:upto]) / upto


def rollout(instance: Instance, policy: Policy, slots: int | None, warm: WarmState) -> EvalReport:
    """Roll one controller over the frozen trace from the warm state.

    Measure-then-update: the hit rate recorded for a slot uses the cache
    as it stood when the slot's requests arrived. A built-in policy's
    ``JointAction`` is applied as it is; only a text answer (the extern
    adapter's completion) is parsed, and an invalid one executes no update
    and is counted. An infeasible ``JointAction``, a faulty policy's, raises
    a ``StructuralError`` naming the policy, the slot, the BS and the rule.
    Every executed transition is audited against the single-swap budget.
    The recorded latency times ``decide`` alone.
    """
    slots = _slot_budget(instance.config, policy, slots, instance.trace_len)
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
            action = policy.decide(obs, peek)
            latencies.append(time.perf_counter() - started)
            if isinstance(action, str):
                action = parse(action, obs)
            try:
                if not episode.step(action):
                    invalid += 1
            except FeasibilityError as exc:
                raise StructuralError(f"{policy.name}: slot {obs.slot}: {exc}") from None
    finally:
        policy.close()
    return EvalReport(
        policy=policy.name,
        seed=instance.seed,
        instance_sha256=instance.sha256,
        p_hit=tuple(series),
        invalid_actions=invalid,
        latency_s=tuple(latencies),
    )


def _slot_budget(config: InstanceConfig, policy: Policy, slots: int | None, trace_len: int) -> int:
    """The rollout length, ``slots`` or else the config's, a count of at least 1;
    raises naming the policy unless warm-up, rollout and the longer of reserve
    and peek fit in ``trace_len`` slots."""
    slots = check_count("slots", config.rollout_slots if slots is None else slots, 1)
    tail = max(config.horizon_reserve, policy.peek_len)
    if config.warm_slots + slots + tail > trace_len:
        raise StructuralError(
            f"{policy.name}: warm-up {config.warm_slots} + {slots} slots + "
            f"look-ahead {tail} exceeds the {trace_len}-slot trace"
        )
    return slots


def _evaluate(cfg: RunConfig, points):
    """Yield ``(value, instance, reports)`` per point and seed, one report per policy.

    A point is a ``(value, source)`` pair whose source is an instance config,
    built once per seed, or the instance the file ``cfg.instance_path`` holds,
    of the one seed asked for. Everything is checked before the first build or
    rollout: the out dir, the instance file, the policy specs (two with one name
    would overwrite each other's report files and be averaged into one table
    row), each point's warm-up oracle and every policy's slot budget, and each
    config point's topology for every seed. Then each instance is built, warmed
    once and rolled by every policy in turn, so one is held at a time.
    """
    if cfg.out_dir is not None:
        check_out_dir(cfg.out_dir)
    if cfg.instance_path is not None:
        points = [(None, load_seeded_instance(cfg.instance_path, list(cfg.seeds), "run"))]
    policies = [make_policy(spec, cfg.reward.gamma, cfg.extern_timeout)
                for spec in cfg.policies]
    names = [p.name for p in policies]
    if len(set(names)) < len(names):
        raise StructuralError(f"policy specs share a name: {names}")
    for _, source in points:
        config = source.config if isinstance(source, Instance) else source
        config.check_warmup_fits(cfg.reward.horizon)
        for p in policies:
            _slot_budget(config, p, cfg.slots, config.trace_slots)
        if config is source:
            for seed in cfg.seeds:
                draw_graph(config, seed)
    for value, source in points:
        for seed in cfg.seeds:
            instance = source if isinstance(source, Instance) else build_instance(source, seed)
            warm = warm_start(instance, cfg.reward.horizon, cfg.reward.gamma)
            yield value, instance, [rollout(instance, p, cfg.slots, warm) for p in policies]


def run(cfg: RunConfig) -> list[EvalReport]:
    """Evaluate every configured policy on every seed's frozen instance.

    An instance file holds one seed, which must be the only one asked for;
    an ``out_dir`` that cannot be made is refused before the file is read.
    Files are written only once every rollout has succeeded.
    """
    evaluated = list(_evaluate(cfg, [(None, cfg.instance_config)]))
    reports = [report for _, _, per_policy in evaluated for report in per_policy]
    out = cfg.out_dir
    if out is not None:
        make_out_dir(out)
        for _, instance, _ in evaluated:
            save_instance(instance, os.path.join(out, f"instance_seed{instance.seed}.json"))
        for report in reports:
            name = f"report_{_safe_name(report.policy)}_seed{report.seed}.json"
            with atomic_write(os.path.join(out, name)) as fh:
                fh.write(canonical_json(report.to_dict()) + "\n")
        write_reports(reports, out)
        write_latency(reports, out)
    return reports


def sweep(cfg: RunConfig, axis: str, values) -> list[dict]:
    """Regenerate instances along one parameter axis and evaluate them.

    Same seeds at every point; one tidy row per (value, policy, seed).
    """
    if cfg.instance_config is None:
        raise StructuralError("sweeps need instance parameters, not an instance file")
    points = [(value, sweep_config(cfg.instance_config, axis, value)) for value in values]
    if len({config for _, config in points}) < len(points):
        raise StructuralError(f"sweep values repeat a point: {[value for value, _ in points]}")
    rows = [
        {
            "axis": axis,
            "value": value,
            "policy": report.policy,
            "seed": report.seed,
            "table_mean": report.table_mean,
            "overall_mean": report.overall_mean,
            "invalid_actions": report.invalid_actions,
        }
        for value, _, reports in _evaluate(cfg, points) for report in reports
    ]
    if cfg.out_dir is not None:
        make_out_dir(cfg.out_dir)
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
    Reports whose checkpoint slots differ share no columns, and policies
    whose seed sets differ would be averaged over different instances: both
    are refused before any file is written, and ``out_dir`` is made only
    once they pass.
    """
    if not reports:
        raise StructuralError("nothing to report")
    seeds_of: dict[str, set] = {}
    for r in reports:
        seeds_of.setdefault(r.policy, set()).add(r.seed)
    seeds = set().union(*seeds_of.values())
    for policy, have in sorted(seeds_of.items()):
        if have != seeds:
            raise StructuralError(f"policy {policy} has no report for seed {min(seeds - have)}; "
                                  "every policy needs the same seeds")
    by_seed: dict[int, set] = {}
    for r in reports:
        by_seed.setdefault(r.seed, set()).add(r.instance_sha256)
    for seed, hashes in by_seed.items():
        if len(hashes) != 1:
            raise StructuralError(f"seed {seed}: policies saw different instance bytes")
    slot_sets = sorted({tuple(m for m, _ in r.checkpoints) for r in reports})
    if len(slot_sets) > 1:
        raise StructuralError("reports differ in checkpoint slots: "
                              + " and ".join(str(list(marks)) for marks in slot_sets))
    marks = slot_sets[0]
    make_out_dir(out_dir)
    ordered = sorted(reports, key=lambda r: (r.policy, r.seed))
    rows = [[r.policy, r.seed] + [_fmt(v) for _, v in r.checkpoints] + [_fmt(r.table_mean)]
            for r in ordered]
    for policy in sorted({r.policy for r in reports}):
        group = [r for r in reports if r.policy == policy]
        rows.append([policy, "mean"]
                    + [_fmt(sum(r.checkpoints[i][1] for r in group) / len(group))
                       for i in range(len(marks))]
                    + [_fmt(sum(r.table_mean for r in group) / len(group))])
    header = ["policy", "seed"] + [f"slot_{m}" for m in marks] + ["mean"]
    return (_write_csv(os.path.join(out_dir, "results.csv"), header, rows),
            _write_series(os.path.join(out_dir, "series.csv"), ordered, "p_hit"))


def write_sweep(rows, path) -> str:
    header = ["axis", "value", "policy", "seed", "mean", "overall_mean", "invalid_actions"]
    return _write_csv(path, header, (
        [row["axis"], _fmt(row["value"]), row["policy"], row["seed"],
         _fmt(row["table_mean"]), _fmt(row["overall_mean"]), row["invalid_actions"]]
        for row in rows))


def write_latency(reports, out_dir) -> str:
    """Observational sidecar; excluded from the byte-determinism contract."""
    return _write_series(os.path.join(out_dir, "latency.csv"), reports, "latency_s")


def _write_series(path, reports, series: str) -> str:
    """One ``policy,seed,slot,<series>`` row per slot of each report's ``series``."""
    return _write_csv(path, ["policy", "seed", "slot", series], (
        [r.policy, r.seed, i, _fmt(v)]
        for r in reports for i, v in enumerate(getattr(r, series), start=1)))


def _write_csv(path, header, rows) -> str:
    """The one CSV table writer: ``header``, then ``rows``, replacing ``path`` atomically."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


_CONFIG_OPENING = b'{"config":'
_DECODER = json.JSONDecoder()


def _hash_instance_file(path) -> tuple:
    """The SHA-256 of the file at ``path``, read one 16 KiB chunk at a time,
    and the config it opens with, decoded from the first chunk; None when it
    does not open with one. A file that hashes to a report's digest is in
    canonical form, whose sorted keys open with ``{"config":``."""
    digest, config = hashlib.sha256(), None
    chunk = bytearray(1 << 14)
    try:
        with open(path, "rb") as fh, memoryview(chunk) as view:
            size = fh.readinto(chunk)
            end = chunk.find(b"}", 0, size) + 1  # a config holds no object: its first "}" ends it
            if end and chunk.startswith(_CONFIG_OPENING, 0, size):
                try:
                    config = _DECODER.raw_decode(chunk[:end].decode(), len(_CONFIG_OPENING))[0]
                except ValueError:
                    pass
            while size:
                digest.update(view[:size])
                size = fh.readinto(chunk)
    except OSError as exc:
        raise StructuralError(f"{path}: {exc}") from None
    return digest.hexdigest(), config


def load_reports(directory) -> list[EvalReport]:
    """Read every report JSON a previous run left in ``directory``.

    Where the instance file ``run`` writes for a report's seed lies beside
    it, the file must hash to the report's ``instance_sha256``, and all such
    files must share one config; otherwise the set is refused naming the
    file, so one table never mixes instances or configurations. Only the
    config each file opens with is decoded, so a hash-matched file that does
    not open with it is refused too.
    """
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise StructuralError(f"{directory}: {exc}") from None
    loaded = [(name, read_json(os.path.join(directory, name), EvalReport.from_dict))
              for name in names if name.startswith("report_") and name.endswith(".json")]
    digests: dict[str, str] = {}  # instance file -> its SHA-256
    configs: dict = {}  # instance file -> the config it opens with, or None
    for name, report in loaded:
        path = os.path.join(directory, f"instance_seed{report.seed}.json")
        if path not in digests and os.path.isfile(path):
            digests[path], configs[path] = _hash_instance_file(path)
        if path in digests and digests[path] != report.instance_sha256:
            raise StructuralError(f"{path}: not the instance {name} was run on "
                                  "(its SHA-256 is not the report's instance_sha256)")
    for path, config in configs.items():
        if config is None:  # a malformed file is refused as a whole file read would refuse it
            read_json(path, lambda p: key_reader(p, "instance key")("config", lambda c: c))
            raise StructuralError(f"{path}: not an instance file in canonical form "
                                  "(it must open with its config, as {\"config\":{...})")
    first = next(iter(configs), None)
    for path, config in configs.items():
        if config != configs[first]:
            raise StructuralError(f"{path}: config differs from {first}'s; "
                                  "one report set holds one configuration")
    return [report for _, report in loaded]
