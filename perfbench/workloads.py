"""The three benchmark workloads, driven through coopcache's public API.

Each workload turns the benchmark seed into its inputs, then runs rounds.
A round is one set-up (freezing the task) followed by one job (the work a
user of the matching CLI command waits for). Every round of a run repeats
the same inputs, so its artifacts must hash the same each time.

See README.md in this directory for why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pace import paced, reference_s
from coopcache.core import NOOP, JointAction
from coopcache.dataset import (
    audit_dataset,
    generate_grpo_states,
    generate_sft,
    write_grpo_jsonl,
    write_sft_jsonl,
)
from coopcache.harness import rollout, write_latency, write_reports, write_sweep
from coopcache.interface import serialize
from coopcache.policies import make_policy
from coopcache.reward import RewardConfig, verify_pbrs
from coopcache.traffic import (
    InstanceConfig,
    advance_tracker,
    build_instance,
    observe,
    sweep_config,
    warm_start,
)
from coopcache.verification import first_decision_observation, fuzz_parser


def canonical_json(payload) -> str:
    """The byte form coopcache itself uses for report files."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@dataclass
class Round:
    """What one round measured and produced."""

    setup_s: float = 0.0                          # paced seconds, see pace.py
    setup_raw_s: float = 0.0                      # host seconds
    times: dict = field(default_factory=dict)     # job item -> paced seconds
    raw: dict = field(default_factory=dict)       # job item -> host seconds
    references: list = field(default_factory=list)  # (before, after) per span, in order
    rate_items: set = field(default_factory=set)  # items the headline rate is taken over
    units: int = 0                                # headline units of work in the job
    attempted: int = 0
    failed: int = 0
    artifacts: dict = field(default_factory=dict)  # name -> SHA-256 of its bytes
    stats: list = field(default_factory=list)      # simulated statistics, printed
    info: dict = field(default_factory=dict)       # observational figures, not gated

    def _span(self):
        """Times one span between two reference measurements."""
        before = reference_s()
        started = time.perf_counter()
        yield
        host_s = time.perf_counter() - started
        self.references.append((before, reference_s()))
        return host_s, paced(host_s, self.references[-1])

    @contextmanager
    def timed(self, item: str, rate: bool = False):
        host_s, paced_s = yield from self._span()
        self.raw[item] = self.raw.get(item, 0.0) + host_s
        self.times[item] = self.times.get(item, 0.0) + paced_s
        if rate:
            self.rate_items.add(item)

    @contextmanager
    def setup_part(self):
        """Times one part of the set-up; the parts add up to ``setup_s``."""
        host_s, paced_s = yield from self._span()
        self.setup_raw_s += host_s
        self.setup_s += paced_s

    @property
    def wall_s(self) -> float:
        """Host seconds inside the timed spans, without the reference work."""
        return self.setup_raw_s + sum(self.raw.values())

    @property
    def paced_s(self) -> float:
        """Paced seconds of the timed spans."""
        return self.setup_s + sum(self.times.values())

    def artifact(self, name: str, data) -> None:
        if isinstance(data, str):
            data = data.encode("utf-8")
        self.artifacts[name] = hashlib.sha256(data).hexdigest()

    def digest(self) -> str:
        """One SHA-256 over the sorted artifact manifest."""
        manifest = "".join(f"{n} {h}\n" for n, h in sorted(self.artifacts.items()))
        return hashlib.sha256(manifest.encode("utf-8")).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def run_round(self) -> Round:
        """Set up, then run the job; ``setup`` times its own parts."""
        out = Round()
        state = self.setup(out)
        try:
            self.job(state, out)
        finally:
            self.teardown(state)
        return out

    def setup(self, out: Round):
        raise NotImplementedError

    def job(self, state, out: Round) -> None:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what the set-up started, even when the job failed."""


class SweepWorkload(Workload):
    """The README's headline evaluation: a library-size sweep on 5 BSs."""

    name = "sweep-5bs"
    values = (100, 300, 500, 700, 900, 1100)
    policies = ("oracle:1", "lru", "lfu", "fifo")
    base = InstanceConfig(bs_count=5, users=40)
    reward = RewardConfig()

    def setup(self, out):
        points = []
        for value in self.values:
            with out.setup_part():
                instance = build_instance(sweep_config(self.base, "library_size", value),
                                          self.seed)
                warm = warm_start(instance, self.reward.horizon, self.reward.gamma)
            points.append((value, instance, warm))
        return points

    def job(self, points, out):
        rows = []
        for value, instance, warm in points:
            for spec in self.policies:
                policy = make_policy(spec, self.reward.gamma)
                with out.timed(f"rollout F={value} {spec}", rate=True):
                    report = rollout(instance, policy, None, warm)
                rows.append({
                    "axis": "library_size", "value": value, "policy": report.policy,
                    "seed": self.seed, "table_mean": report.table_mean,
                    "overall_mean": report.overall_mean,
                    "invalid_actions": report.invalid_actions,
                })
                out.artifact(f"report_{spec}_F{value}.json", canonical_json(report.to_dict()))
                out.units += report.slots
                out.attempted += report.slots
                out.failed += report.invalid_actions
                out.stats.append(f"F={value} {report.policy} table_mean={report.table_mean!r} "
                                 f"invalid={report.invalid_actions}")
            out.artifact(f"instance_F{value}.json", instance.to_canonical_json())
        path = os.path.join(self.workdir, "sweep_library_size.csv")
        with out.timed("write_sweep"):
            write_sweep(rows, path)
        out.artifact("sweep_library_size.csv", _read(path))


class ExportWorkload(Workload):
    """`export-sft --grpo-out` on 5 BSs, then the auditor over both files."""

    name = "export-5bs"
    records = 500
    config = InstanceConfig(bs_count=5, users=40, rollout_slots=520)

    def setup(self, out):
        with out.setup_part():
            return build_instance(self.config, self.seed)

    def job(self, instance, out):
        sft_path = os.path.join(self.workdir, "sft.jsonl")
        grpo_path = os.path.join(self.workdir, "grpo.jsonl")
        with out.timed("generate_sft", rate=True):
            sft = generate_sft(instance, self.records)
        with out.timed("generate_grpo_states", rate=True):
            grpo = generate_grpo_states(instance, self.records)
        with out.timed("write", rate=True):
            write_sft_jsonl(sft, sft_path)
            write_grpo_jsonl(grpo, grpo_path)
        with out.timed("audit", rate=True):
            audits = {"sft": audit_dataset(sft_path), "grpo": audit_dataset(grpo_path)}
        out.artifact("instance.json", instance.to_canonical_json())
        out.artifact("sft.jsonl", _read(sft_path))
        out.artifact("grpo.jsonl", _read(grpo_path))
        for kind, export in (("sft", sft), ("grpo", grpo)):
            audit = audits[kind]
            out.artifact(f"audit_{kind}.json", canonical_json(audit.to_dict()))
            out.units += len(export.records)
            out.attempted += export.requested
            out.failed += (export.requested - len(export.records)
                           + len(audit.invalid_indices) + len(audit.gate_violations))
            swaps = sum(d["swap"] for d in audit.per_bs)
            out.stats.append(f"{kind} records={audit.records} swaps={swaps} "
                             f"noop_fraction={audit.noop_fraction!r} ok={audit.ok}")


class AuditWorkload(Workload):
    """`verify` on the default 2-BS config, plus a `run` of the extern stub.

    The verify part is parser fuzz plus the shaping audit. The extern part
    is a default 300-slot rollout of the stub adapter in a child process,
    started with this interpreter; the child imports the coopcache of the
    checkout under test through PYTHONPATH, which run.py sets. It keeps the
    adapter layer measured. A workload of its own was dropped: its
    wall-clock figures follow the host waking the child and the pump
    thread, and spread too far between runs on a shared virtual machine.
    """

    name = "audit-2bs"
    fuzz_cases = 100_000
    pbrs_slots = 20
    config = InstanceConfig()
    reward = RewardConfig()
    extern_timeout_s = 10.0

    def setup(self, out):
        instances = []
        for seed in (self.seed, self.seed + 1, self.seed + 2):
            with out.setup_part():
                instances.append(build_instance(self.config, seed))
        instance = instances[0]
        with out.setup_part():
            warm = warm_start(instance, self.reward.horizon, self.reward.gamma)
        spec = f"extern:{shlex.quote(sys.executable)} -m coopcache.extern_stub"
        # One completed round trip ends the set-up: the child has imported.
        t = self.config.warm_slots + 1
        requests = instance.request_slot(t)
        obs = observe(t, warm.cache, requests, advance_tracker(warm.tracker, requests))
        with out.setup_part():
            policy = make_policy(spec, self.reward.gamma, self.extern_timeout_s)
            try:
                policy.reset(instance, warm)
                reply = policy.decide(obs)
            except BaseException:
                policy.close()
                raise
        if not reply:
            policy.close()
            raise RuntimeError("the extern adapter did not answer its first prompt")
        out.attempted += 1
        if reply != serialize(JointAction.valid([NOOP] * self.config.bs_count)):
            out.failed += 1
        return instances, warm, policy

    def teardown(self, state):
        state[2].close()

    def job(self, state, out):
        instances, warm, policy = state
        # The extern run goes first: until it closes the adapter, the pump
        # thread waits inside read_frame, and the trace counts that wait.
        with out.timed("extern rollout"):
            report = rollout(instances[0], policy, None, warm)
        with out.timed("extern write"):
            results, series = write_reports([report], self.workdir)
            write_latency([report], self.workdir)
        with out.timed("fuzz_parser"):
            fuzz = fuzz_parser(first_decision_observation(instances[0]), self.fuzz_cases)
        shaping = []
        for instance in instances:
            with out.timed(f"verify_pbrs seed {instance.seed}", rate=True):
                shaping.append(verify_pbrs(instance, self.pbrs_slots, self.reward))
        verify = {"fuzz": fuzz.to_dict(), "shaping": [r.to_dict() for r in shaping]}
        for instance in instances:
            out.artifact(f"instance_seed{instance.seed}.json", instance.to_canonical_json())
        out.artifact("verify_report.json", canonical_json(verify))
        out.artifact(f"report_{report.policy}.json", canonical_json(report.to_dict()))
        out.artifact("results.csv", _read(results))
        out.artifact("series.csv", _read(series))
        out.units = sum(r.actions_checked for r in shaping)
        out.attempted += fuzz.cases + out.units + report.slots
        out.failed += len(fuzz.crashes) + len(fuzz.infeasible_accepts) + sum(
            len(r.argmax_mismatches) + len(r.order_violations) + len(r.demotion_violations)
            for r in shaping
        ) + report.invalid_actions
        rtt_ms = sorted(x * 1e3 for x in report.latency_s[1:])
        out.info["fuzz_cases_per_s"] = fuzz.cases / out.times["fuzz_parser"]
        out.info["extern_rtt_p50_ms"] = rtt_ms[len(rtt_ms) // 2]
        out.info["extern_rtt_p99_ms"] = rtt_ms[int(0.99 * (len(rtt_ms) - 1))]
        out.stats.append(f"fuzz cases={fuzz.cases} ok={fuzz.ok}")
        for r in shaping:
            out.stats.append(f"shaping seed={r.seed} slots={r.slots_checked} "
                             f"actions={r.actions_checked} ok={r.ok}")
        out.stats.append(f"extern table_mean={report.table_mean!r} "
                         f"invalid={report.invalid_actions}")


WORKLOADS = {w.name: w for w in (SweepWorkload, ExportWorkload, AuditWorkload)}
