"""Rollout engine, run/sweep orchestration and CLI tests."""

from __future__ import annotations

import collections
import copy
import csv
import dataclasses
import functools
import hashlib
import json
import os
import pickle
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from coopcache.cli import (
    _CONFIG_KEYS,
    SETTINGS,
    _load_file_cfg,
    _run_config,
    build_parser,
    cache_size,
    integer_list,
)
from coopcache import episode, harness, interface, verification
from coopcache.cli import main as cli_main
from coopcache.core import (
    NOOP,
    RULE_ADMISSIBILITY,
    BsAction,
    JointAction,
    StructuralError,
    canonical_json,
    hit_rate,
    integer,
    real,
)
from coopcache.dataset import generate_sft, write_export
from coopcache.harness import (
    RUNCONFIG_SCHEMA,
    EvalReport,
    RunConfig,
    checkpoint_slots,
    load_reports,
    prefix_average,
    rollout,
    run,
    sweep,
    write_reports,
)
from coopcache.policies import OraclePolicy, Policy, make_policy
from coopcache.reward import RewardConfig, group_advantage, verify_pbrs
from coopcache.traffic import (
    SWEEP_AXES,
    ConfigurationError,
    Instance,
    InstanceConfig,
    build_instance,
    load_instance,
    save_instance,
    sweep_config,
    warm_start,
    zipf_pmf,
)

import test_golden
from conftest import small_config


@pytest.fixture(scope="module")
def instance():
    return build_instance(small_config(), 1)


@pytest.fixture(scope="module")
def warm(instance):
    return warm_start(instance, 4, 0.9)


def test_noop_policy_holds_cache_constant(instance, warm):
    report = rollout(instance, make_policy("noop"), None, warm)
    expected = [
        hit_rate(warm.cache, instance.request_slot(t), instance.graph)
        for t in range(
            instance.config.warm_slots + 1,
            instance.config.warm_slots + instance.config.rollout_slots + 1,
        )
    ]
    assert list(report.p_hit) == expected
    assert report.invalid_actions == 0


def test_rollout_deterministic(instance, warm):
    a = rollout(instance, make_policy("lru"), None, warm)
    b = rollout(instance, make_policy("lru"), None, warm)
    assert a == b  # latency excluded from equality
    assert len(a.latency_s) == a.slots


@pytest.mark.parametrize("spec", ["lru", "lfu", "fifo", "noop", "oracle:1"])
def test_a_rollout_that_renders_no_prompt_counts_no_frequencies(instance, spec):
    warm = warm_start(instance, 4, 0.9)
    rollout(instance, make_policy(spec), None, warm)
    assert warm.tracker.index[0] is None
    warm.tracker.window_counts(1, (1,))  # the first read starts the counts
    assert warm.tracker.index[0] is not None


class _TextNoop(Policy):
    """Answers every slot with the all-NOOP line, as an adapter would."""

    name = "text"

    def decide(self, obs, peek=None) -> str:
        return interface.serialize(JointAction.valid([NOOP] * obs.bs_count))


@pytest.fixture
def text_calls(monkeypatch):
    """A Counter of the calls to ``parse`` and ``serialize``, made through any
    name a coopcache module bound them to."""
    calls = collections.Counter()
    for name in ("parse", "serialize"):
        real = getattr(interface, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.startswith("coopcache")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("spec", ["lru", "lfu", "fifo", "noop", "oracle:1"])
def test_a_built_in_rollout_neither_serializes_nor_parses(instance, text_calls, spec):
    report = rollout(instance, make_policy(spec), None, warm_start(instance, 4, 0.9))
    assert report.slots == instance.config.rollout_slots
    assert text_calls == {}


def test_a_text_answer_is_parsed_once_per_slot(instance, text_calls):
    report = rollout(instance, _TextNoop(), None, warm_start(instance, 4, 0.9))
    assert report.invalid_actions == 0
    assert text_calls == {"parse": report.slots, "serialize": report.slots}


class _Infeasible(Policy):
    """Swaps into BS 1's first slot a file that no user there asks for."""

    name = "stub"

    def decide(self, obs, peek=None) -> JointAction:
        row, pool = obs.cache.slots[0], obs.requests.counts[0]
        self.swap = BsAction(1, next(f for f in range(1, 99) if f not in pool and f not in row),
                             row[0])
        return JointAction.valid([self.swap] + [NOOP] * (obs.bs_count - 1))


def test_an_infeasible_built_in_action_is_one_error_naming_policy_slot_bs_and_rule(instance):
    policy = _Infeasible()
    with pytest.raises(StructuralError) as raised:
        rollout(instance, policy, None, warm_start(instance, 4, 0.9))
    z, f_in, f_out = policy.swap
    slot = instance.config.warm_slots + 1
    assert str(raised.value) == (f"stub: slot {slot}: BS 1: {RULE_ADMISSIBILITY}: "
                                 f"SWAP slot={z} out={f_out} in={f_in}")
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


def test_prefix_averages_recomputable(instance, warm):
    report = rollout(instance, make_policy("lfu"), None, warm)
    for mark, value in report.checkpoints:
        assert value == pytest.approx(prefix_average(report.p_hit, mark))
    assert report.overall_mean == pytest.approx(
        sum(report.p_hit) / len(report.p_hit)
    )
    assert report.table_mean == pytest.approx(
        sum(v for _, v in report.checkpoints) / len(report.checkpoints)
    )


def test_checkpoint_slots_shape():
    assert checkpoint_slots(300) == (50, 100, 150, 200, 250, 300)
    assert checkpoint_slots(120) == (50, 100)
    assert checkpoint_slots(30) == (30,)


def test_rollout_slot_budget_guard(instance, warm):
    with pytest.raises(StructuralError):
        rollout(instance, make_policy("noop"), 10_000, warm)


def test_rollout_refuses_a_peek_past_the_trace_before_its_first_slot(instance, warm, work):
    policy = make_policy("oracle:5")  # small_config keeps a 4-slot reserve
    with pytest.raises(StructuralError, match="^oracle:5: .* look-ahead 5 exceeds"):
        rollout(instance, policy, None, warm)
    assert not work


def test_run_writes_deterministic_outputs(tmp_path):
    cfg = RunConfig(
        instance_config=small_config(),
        policies=("lru", "oracle:2"),
        seeds=(1, 2),
        out_dir=str(tmp_path / "a"),
        slots=20,
    )
    reports = run(cfg)
    assert len(reports) == 4
    again = RunConfig(
        instance_config=small_config(),
        policies=("lru", "oracle:2"),
        seeds=(1, 2),
        out_dir=str(tmp_path / "b"),
        slots=20,
    )
    run(again)
    for name in (
        "results.csv",
        "series.csv",
        "instance_seed1.json",
        "instance_seed2.json",
        "report_lru_seed1.json",
        "report_oracle-2_seed2.json",
    ):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "latency.csv").exists()


def test_results_table_structure(tmp_path):
    cfg = RunConfig(
        instance_config=small_config(),
        policies=("lru", "fifo"),
        seeds=(1, 2, 3),
        out_dir=str(tmp_path),
        slots=20,
    )
    run(cfg)
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["policy", "seed", "slot_20", "mean"]
    # 3 seeds x 2 policies + 2 aggregate rows
    assert len(rows) == 1 + 6 + 2
    assert [r[1] for r in rows[1:]].count("mean") == 2


def test_report_reemission_idempotent(tmp_path):
    cfg = RunConfig(
        instance_config=small_config(),
        policies=("lru",),
        seeds=(1,),
        out_dir=str(tmp_path / "first"),
        slots=20,
    )
    run(cfg)
    reports = load_reports(tmp_path / "first")
    (tmp_path / "second").mkdir()
    write_reports(reports, tmp_path / "second")
    assert (tmp_path / "first" / "results.csv").read_bytes() == (
        tmp_path / "second" / "results.csv"
    ).read_bytes()


def test_run_writes_once_every_rollout_has_succeeded(tmp_path, monkeypatch):
    """A rollout failing after others succeeded leaves no instance or report."""
    def rollout_then_fail(instance, policy, slots, warm):
        if policy.name == "fifo":
            raise StructuralError("fifo failed")
        return rollout(instance, policy, slots, warm)

    monkeypatch.setattr(harness, "rollout", rollout_then_fail)
    out = tmp_path / "out"
    cfg = RunConfig(instance_config=small_config(), policies=("lru", "fifo"), seeds=(1, 2),
                    slots=5, out_dir=str(out))
    with pytest.raises(StructuralError, match="fifo failed"):
        run(cfg)
    assert not out.exists()


def test_paired_comparison_hash_guard(tmp_path, instance, warm):
    report = rollout(instance, make_policy("lru"), None, warm)
    forged = EvalReport(
        policy="noop",
        seed=report.seed,
        instance_sha256="0" * 64,
        p_hit=report.p_hit,
        invalid_actions=0,
        latency_s=(),
    )
    with pytest.raises(StructuralError):
        write_reports([report, forged], tmp_path)


def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, instance, warm):
    report = rollout(instance, make_policy("lru"), None, warm)
    write_reports([report], tmp_path)
    before = (tmp_path / "results.csv").read_bytes()

    def fail(value):
        raise RuntimeError("disk gone")

    # The header row is out before the first table cell fails.
    monkeypatch.setattr(harness, "_fmt", fail)
    with pytest.raises(RuntimeError, match="disk gone"):
        write_reports([report], tmp_path)
    assert (tmp_path / "results.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv", "series.csv"]


def test_sweep_rows_and_table(tmp_path):
    cfg = RunConfig(
        instance_config=small_config(),
        policies=("lru",),
        seeds=(1, 2),
        out_dir=str(tmp_path),
        slots=15,
    )
    rows = sweep(cfg, "cache_capacity", [3, 4])
    assert len(rows) == 4
    assert {r["value"] for r in rows} == {3, 4}
    with open(tmp_path / "sweep_cache_capacity.csv") as fh:
        table = list(csv.reader(fh))
    assert table[0][:4] == ["axis", "value", "policy", "seed"]
    assert len(table) == 5
    with pytest.raises(StructuralError):
        sweep(cfg, "nonsense", [1])


def test_a_one_value_sweep_matches_run():
    cfg = RunConfig(instance_config=small_config(), policies=("lru", "oracle:1"), seeds=(1, 2),
                    slots=15)
    rows = sweep(cfg, "cache_capacity", [4])
    point = sweep_config(small_config(), "cache_capacity", 4)
    reports = run(dataclasses.replace(cfg, instance_config=point))
    assert [(row["policy"], row["seed"], row["table_mean"], row["overall_mean"],
             row["invalid_actions"]) for row in rows] == [
        (r.policy, r.seed, r.table_mean, r.overall_mean, r.invalid_actions) for r in reports]


def test_a_sweep_builds_each_instance_after_the_last_ones_rollouts(monkeypatch):
    """One instance is held at a time: a point's seeds are built, and each
    is rolled by every policy before the next is built."""
    events = []
    build, roll = harness.build_instance, harness.rollout

    def built(config, seed):
        events.append(("build", config.cache_size[0], seed))
        return build(config, seed)

    def rolled(instance, policy, slots, warm):
        events.append(("rollout", instance.config.cache_size[0], instance.seed))
        return roll(instance, policy, slots, warm)

    monkeypatch.setattr(harness, "build_instance", built)
    monkeypatch.setattr(harness, "rollout", rolled)
    cfg = RunConfig(instance_config=small_config(), policies=("lru", "fifo"), seeds=(1, 2),
                    slots=5)
    sweep(cfg, "cache_capacity", [3, 4])
    assert events == [(kind, value, seed) for value in (3, 4) for seed in (1, 2)
                      for kind in ("build", "rollout", "rollout")]


def test_run_config_validation():
    for source in ({}, {"instance_config": small_config(), "instance_path": "i.json"}):
        with pytest.raises(StructuralError, match="^need one of instance parameters and an"):
            RunConfig(**source)
    with pytest.raises(StructuralError):
        RunConfig(instance_config=small_config(), policies=())


def test_cli_gen_instance_and_run(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    code = cli_main(
        [
            "gen-instance", "--bs", "2", "--users", "6", "--library", "12",
            "--cache", "3", "--groups", "2", "--windows", "5,10",
            "--warm-slots", "12", "--rollout-slots", "30", "--horizon-reserve", "4",
            "--seed", "1", "--out", str(inst_path),
        ]
    )
    assert code == 0
    assert inst_path.exists()
    out_dir = tmp_path / "run"
    code = cli_main(
        [
            "run", "--instance", str(inst_path), "--policy", "lru",
            "--seeds", "1", "--slots", "15", "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "results.csv").exists()
    printed = capsys.readouterr().out
    assert "lru seed=1" in printed


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps(
            {
                "schema": "coopcache.runconfig.v1",
                "bs": 2, "users": 6, "library": 12, "cache": [3, 3],
                "groups": 2, "windows": [5, 10], "warm_slots": 12,
                "rollout_slots": 30, "horizon_reserve": 4,
                "policies": ["noop"], "seeds": [1], "slots": 25,
                "out": str(tmp_path / "from-file"),
            }
        )
    )
    code = cli_main(["run", "--config", str(cfg_path), "--slots", "10"])
    assert code == 0
    reports = load_reports(tmp_path / "from-file")
    assert reports[0].slots == 10  # flag beats file
    assert reports[0].policy == "noop"


def test_cli_sweep(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep", "--bs", "2", "--users", "6", "--library", "12",
            "--cache", "3", "--groups", "2", "--windows", "5,10",
            "--warm-slots", "12", "--rollout-slots", "30", "--horizon-reserve", "4",
            "--axis", "cache_capacity", "--values", "3,4",
            "--policy", "lru", "--seeds", "1", "--slots", "15",
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "sweep_cache_capacity.csv").exists()
    assert "cache_capacity=3 lru" in capsys.readouterr().out


def test_cli_verify_small(tmp_path, capsys, monkeypatch):
    # tiny fuzz budget; the acceptance suite runs the full 1e5
    monkeypatch.setenv("COOPCACHE_OUT_DIR", str(tmp_path))
    code = cli_main(["verify", "--seeds", "1", "--pbrs-slots", "2", "--fuzz-cases", "500"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "PASS parser fuzz" in printed
    assert "PASS shaping audit seed 1" in printed
    assert "PASS joint-space bound" in printed
    assert (tmp_path / "verify_report.json").exists()


def test_cli_verify_asks_for_100000_fuzz_cases_by_default(tmp_path, monkeypatch):
    monkeypatch.setenv("COOPCACHE_OUT_DIR", str(tmp_path))
    asked = []
    fuzz_parser = verification.fuzz_parser
    monkeypatch.setattr(verification, "fuzz_parser",
                        lambda obs, cases: asked.append(cases) or fuzz_parser(obs, 0))
    assert cli_main(["verify", "--seeds", "1", "--pbrs-slots", "1"]) == 0
    assert asked == [100_000]


def test_cli_export_sft_walks_the_expert_once(tmp_path, monkeypatch, small_instance):
    inst_path = tmp_path / "inst.json"
    save_instance(small_instance, inst_path)
    calls = []
    real = episode.oracle_joint_action
    monkeypatch.setattr(episode, "oracle_joint_action",
                        lambda *args: calls.append(1) or real(*args))
    argv = ["export-sft", "--instance", str(inst_path), "--records", "5", "--horizon", "3",
            "--out", str(tmp_path / "sft.jsonl")]
    assert cli_main(argv) == 0
    sft_only = len(calls)
    assert cli_main([*argv, "--grpo-out", str(tmp_path / "grpo.jsonl")]) == 0
    assert sft_only > 0 and len(calls) - sft_only == sft_only


def test_work_counts_an_export_from_an_instance_file(tmp_path, small_instance, work):
    """``work`` sees a walk by its own steps, not by the call that starts it:
    an export that loads its instance, and so builds none, counts its warm-up
    picks and walk slots."""
    inst_path = tmp_path / "inst.json"
    save_instance(small_instance, inst_path)
    assert cli_main(["export-sft", "--instance", str(inst_path), "--records", "2",
                     "--horizon", "3", "--out", str(tmp_path / "sft.jsonl")]) == 0
    assert set(work) == {"traffic.hottest_uncached", "traffic.oracle_best_action",
                         "Episode.advance"}


def test_cli_export_sft_and_report(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli_main(
        [
            "gen-instance", "--bs", "2", "--users", "6", "--library", "12",
            "--cache", "3", "--groups", "2", "--windows", "5,10",
            "--warm-slots", "12", "--rollout-slots", "30", "--horizon-reserve", "4",
            "--seed", "2", "--out", str(inst_path),
        ]
    )
    sft_path = tmp_path / "sft.jsonl"
    grpo_path = tmp_path / "grpo.jsonl"
    code = cli_main(
        [
            "export-sft", "--instance", str(inst_path), "--records", "5",
            "--horizon", "3", "--out", str(sft_path), "--grpo-out", str(grpo_path),
        ]
    )
    assert code == 0
    assert len(sft_path.read_text().splitlines()) == 5
    assert len(grpo_path.read_text().splitlines()) == 5

    run_dir = tmp_path / "run"
    cli_main(
        [
            "run", "--instance", str(inst_path), "--policy", "noop",
            "--seeds", "2", "--slots", "10", "--out", str(run_dir),
        ]
    )
    re_dir = tmp_path / "re"
    code = cli_main(["report", "--reports", str(run_dir), "--out", str(re_dir)])
    assert code == 0
    assert (re_dir / "results.csv").read_bytes() == (run_dir / "results.csv").read_bytes()


def test_report_into_the_run_directory_keeps_the_measured_latency(tmp_path, monkeypatch):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    out = str(tmp_path / "rep")
    cli_main(["run", "--bs", "2", "--policy", "lru", "--seeds", "1", "--slots", "50",
              "--out", out])
    latency = (tmp_path / "rep" / "latency.csv").read_bytes()
    assert len(latency.splitlines()) == 51
    assert cli_main(["report", "--reports", out, "--out", out]) == 0
    assert (tmp_path / "rep" / "latency.csv").read_bytes() == latency


@pytest.mark.parametrize("specs", [
    ("lru", "lfu", "lru"),
    (f"extern:{sys.executable} -m coopcache.extern_stub",
     f"extern:{sys.executable} -m coopcache.extern_stub --again"),
    ("oracle:2", "oracle:02"),
])
def test_run_and_sweep_reject_colliding_policy_names(tmp_path, specs):
    cfg = RunConfig(instance_config=small_config(), policies=specs, seeds=(1,),
                    slots=5, out_dir=str(tmp_path / "out"))
    with pytest.raises(StructuralError, match="share a name"):
        run(cfg)
    with pytest.raises(StructuralError, match="share a name"):
        sweep(cfg, "cache_capacity", [3])
    assert not (tmp_path / "out").exists()


def test_run_checks_every_peek_before_the_first_rollout(tmp_path):
    # small_config keeps a 4-slot reserve; oracle:5 peeks one slot past the trace
    out = tmp_path / "out"
    cfg = RunConfig(instance_config=small_config(), policies=("lru", "oracle:5"),
                    seeds=(1,), out_dir=str(out))
    with pytest.raises(StructuralError, match="oracle:5"):
        run(cfg)
    with pytest.raises(StructuralError, match="oracle:5"):
        sweep(cfg, "cache_capacity", [3, 4])
    # the warm-up oracle peeks reward.horizon slots past the warm-up
    deep = RunConfig(instance_config=small_config(), policies=("lru",), seeds=(1,),
                     reward=RewardConfig(horizon=40), out_dir=str(out))
    with pytest.raises(StructuralError, match="oracle horizon 40"):
        run(deep)
    assert not out.exists()
    # a shorter rollout leaves room for the peek
    reports = run(RunConfig(instance_config=small_config(), policies=("lru", "oracle:5"),
                            seeds=(1,), slots=29))
    assert [r.policy for r in reports] == ["lru", "oracle:5"]


# Per setting: a flag text and the field value it sets, neither the default.
_SAMPLES = {
    "bs": ("5", 5),
    "users": ("7", 7),
    "library": ("50", 50),
    "cache": ("3,4", (3, 4)),
    "groups": ("2", 2),
    "alpha": ("0.8", 0.8),
    "windows": ("5,20", (5, 20)),
    "radius": ("0.45", 0.45),
    "warm_slots": ("20", 20),
    "rollout_slots": ("40", 40),
    "horizon_reserve": ("6", 6),
    "horizon": ("4", 4),
    "gamma": ("0.5", 0.5),
    "lambda_fmt": ("-0.5", -0.5),
    "lambda_opp": ("-0.1", -0.1),
    "epsilon": ("0.01", 0.01),
    "instance": ("inst.json", "inst.json"),
    "policies": ("lfu", ("lfu",)),
    "seeds": ("4,5", (4, 5)),
    "slots": ("12", 12),
    "extern_timeout": ("2.5", 2.5),
    "out": ("elsewhere", "elsewhere"),
}


def _built_field(command, setting, argv, file_cfg):
    extra = ["--axis", "users", "--values", "4"] if command == "sweep" else []
    cfg = _run_config(build_parser().parse_args([command, *extra, *argv]), file_cfg)
    target = {"instance": cfg.instance_config, "reward": cfg.reward, "run": cfg, "source": cfg}
    return getattr(target[setting.config], setting.field)


def test_config_keys_are_the_settings_table():
    assert _CONFIG_KEYS == {"schema"} | {s.key for s in SETTINGS} == {"schema"} | set(_SAMPLES)


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.key)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_setting_flag_and_config_key_set_the_same_field(tmp_path, monkeypatch, command, setting):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    text, expected = _SAMPLES[setting.key]
    path = tmp_path / "run.json"
    value = list(expected) if isinstance(expected, tuple) else expected
    path.write_text(json.dumps({"schema": RUNCONFIG_SCHEMA, setting.key: value}))
    assert _built_field(command, setting, [setting.option, text], {}) == expected
    assert _built_field(command, setting, [], _load_file_cfg(str(path))) == expected
    defaults = {
        "instance": InstanceConfig(),
        "reward": RewardConfig(),
        "run": RunConfig(instance_config=InstanceConfig()),
    }
    defaults["source"] = defaults["run"]  # instance_path, a RunConfig field
    # out_dir=None writes nothing; the CLI writes to results/ unless told otherwise
    default = "results" if setting.key == "out" else getattr(defaults[setting.config],
                                                             setting.field)
    assert _built_field(command, setting, [], {}) == default


@pytest.mark.parametrize("value, expected", [
    ("3", (3, 3)), ("3,4", (3, 4)), (3, (3, 3)), ([3, 4], (3, 4)), ([3], None),
])
def test_config_cache_forms(value, expected):
    args = build_parser().parse_args(["run"])
    if expected is None:
        with pytest.raises(ConfigurationError):  # one entry for two BSs
            _run_config(args, {"cache": value})
    else:
        assert _run_config(args, {"cache": value}).instance_config.cache_size == expected


def test_sweep_axis_choices_are_the_sweep_axes():
    commands = next(a for a in build_parser()._actions if isinstance(a.choices, dict))
    axis = next(a for a in commands.choices["sweep"]._actions if "--axis" in a.option_strings)
    assert tuple(axis.choices) == tuple(SWEEP_AXES)


def test_cli_sweep_parses_values_by_axis(tmp_path):
    out_dir = tmp_path / "sweep"
    code = cli_main(
        [
            "sweep", "--bs", "2", "--users", "6", "--library", "12",
            "--cache", "3", "--groups", "2", "--windows", "5,10",
            "--warm-slots", "12", "--rollout-slots", "30", "--horizon-reserve", "4",
            "--axis", "zipf_alpha", "--values", "1", "--policy", "lru",
            "--seeds", "1", "--slots", "5", "--out", str(out_dir),
        ]
    )
    assert code == 0
    with open(out_dir / "sweep_zipf_alpha.csv", encoding="utf-8", newline="") as fh:
        assert [row["value"] for row in csv.DictReader(fh)] == ["1.0"]


def test_sweep_rejects_a_non_finite_alpha_before_any_rollout(tmp_path, work):
    out = tmp_path / "out"
    cfg = RunConfig(instance_config=small_config(), policies=("lru",), seeds=(1,),
                    slots=5, out_dir=str(out))
    with pytest.raises(ConfigurationError, match="alpha must be a finite number, not nan"):
        sweep(cfg, "zipf_alpha", [1.0, float("nan")])
    with pytest.raises(SystemExit, match="alpha must be a finite number, not inf"):
        cli_main(["sweep", "--axis", "zipf_alpha", "--values", "1,inf", "--policy", "lru",
                  "--seeds", "1", "--slots", "5", "--out", str(out)])
    assert not work and not out.exists()


def test_sweep_refuses_an_unknown_axis_in_one_line_before_any_build(tmp_path, work):
    out = tmp_path / "out"
    cfg = RunConfig(instance_config=small_config(), policies=("lru",), seeds=(1,),
                    slots=5, out_dir=str(out))
    with pytest.raises(StructuralError) as exc:
        sweep(cfg, "bogus", [1])
    assert str(exc.value) == ("unknown sweep axis 'bogus'; expected one of "
                              "cache_capacity, library_size, zipf_alpha, users")
    assert not work and not out.exists()


# Text that is not decimal text, for every reader; an empty list entry, for
# the list readers; and float text with an underscore or a space, for the
# float readers. "\u0663" is the Arabic-Indic digit three.
_NOT_DECIMAL = ("1_0", "+3", " 3", "3 ", "\u0663")
_EMPTY_ENTRY = ("1,", "10,,100")
_NOT_A_FLOAT = ("1_2.5", " 0.4")


def _texts(parse) -> tuple[str, ...]:
    """The texts a reader of a setting parsed by ``parse`` must refuse."""
    return (_NOT_DECIMAL + (_EMPTY_ENTRY if parse in (integer_list, cache_size) else ())
            + (_NOT_A_FLOAT if parse is real else ()))


def _text_readers():
    """(id, how, where, texts) of every reader of a number written as text:
    ``how`` is "flag" (``where`` is the argv before the text), "config" (a
    ``--config`` key), "values" (a sweep axis) or "oracle" (a run's
    ``oracle:<H>`` spec, or ``make_policy``'s for "make_policy"). ``--values``
    splits at commas, so its empty entries are REFUSALS rows."""
    readers = []
    for s in SETTINGS:
        if s.parse in (integer, integer_list, cache_size, real):
            readers += [(f"run {s.option}", "flag", ["run", s.option], _texts(s.parse)),
                        (f"config {s.key}", "config", s.key, _texts(s.parse))]
    for argv in (["gen-instance", "--seed"], ["export-sft", "--seed"],
                 ["export-sft", "--records"], ["verify", "--pbrs-slots"],
                 ["verify", "--fuzz-cases"], ["verify", "--seeds"]):
        readers.append((" ".join(argv), "flag", argv, _texts(integer_list if argv[1] == "--seeds"
                                                             else integer)))
    for axis, field in SWEEP_AXES.items():
        parse = next(s.parse for s in SETTINGS if s.field == field)
        readers.append((f"--values {axis}", "values", axis,
                        _NOT_DECIMAL + (_NOT_A_FLOAT if parse is real else ())))
    readers += [("oracle", "oracle", None, _NOT_DECIMAL),
                ("make_policy", "make_policy", None, _NOT_DECIMAL)]
    return [pytest.param(how, where, text, id=f"{name}-{text!r}")
            for name, how, where, texts in readers for text in dict.fromkeys(texts)]


@pytest.mark.parametrize("how, where, text", _text_readers())
def test_every_text_reader_refuses_what_is_not_decimal_text(tmp_path, monkeypatch, capsys, work,
                                                           how, where, text):
    """A bad flag is argparse's usage error; a bad config value, ``--values``
    entry or ``oracle:`` spec is one line; all before any work or file."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    if how == "make_policy":
        with pytest.raises(StructuralError) as exc:
            make_policy(f"oracle:{text}")
        assert str(exc.value) == f"bad oracle horizon in {'oracle:' + text!r}"
        return
    argv = {
        "flag": lambda: [*where, text],
        "config": lambda: ["run", "--config", "run.json", "--out", "out"],
        "values": lambda: ["sweep", "--axis", where, "--values", text, "--policy", "lru",
                           "--seeds", "1", "--slots", "5", "--out", "out"],
        "oracle": lambda: ["run", "--policy", f"oracle:{text}", "--seeds", "1", "--out", "out"],
    }[how]()
    if how == "config":
        Path("run.json").write_text(json.dumps({"schema": RUNCONFIG_SCHEMA, where: text}))
    before = os.listdir()
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    if how == "flag":
        assert exc.value.code == 2
        parser = re.search(rf"argument {where[-1]}: invalid (\w+) value: {re.escape(repr(text))}$",
                           capsys.readouterr().err.strip())
        assert parser and not parser[1].startswith("_")  # the usage line names no private parser
    elif how == "config":
        assert exc.value.code.startswith(f"config key {where!r} has a bad value {text!r}: ")
    else:
        assert exc.value.code == (f"--values: {text!r} is not a {where} value" if how == "values"
                                  else f"bad oracle horizon in {'oracle:' + text!r}")
    assert "\n" not in str(exc.value.code) and not work
    assert os.listdir() == before


@pytest.mark.parametrize("axis, value, message", [
    ("library_size", 20.9, "library must be an integer >= 1, not 20.9"),
    ("cache_capacity", True, "cache_size must be an integer >= 1, not True"),
    ("users", "20", "users must be an integer >= 1, not '20'"),
    ("zipf_alpha", "1.2", "alpha must be a finite number, not '1.2'"),
])
def test_the_sweep_api_refuses_a_value_its_field_refuses_before_any_build(tmp_path, work, axis,
                                                                          value, message):
    out = tmp_path / "out"
    cfg = RunConfig(instance_config=small_config(), policies=("lru",), seeds=(1,),
                    slots=5, out_dir=str(out))
    with pytest.raises(ConfigurationError) as exc:
        sweep(cfg, axis, [value])
    assert str(exc.value) == message
    assert not work and not out.exists()


@pytest.mark.parametrize("name, call", [
    ("records", lambda inst, n: generate_sft(inst, n)),
    ("sample_slots", lambda inst, n: verify_pbrs(inst, n, RewardConfig())),
    ("cases", lambda inst, n: verification.fuzz_parser(
        verification.first_decision_observation(inst), n)),
], ids=["generate_sft", "verify_pbrs", "fuzz_parser"])
def test_the_api_refuses_a_negative_count_by_name(instance, name, call):
    with pytest.raises(StructuralError) as exc:
        call(instance, -3)
    assert str(exc.value) == f"{name} must be an integer >= 0, not -3"
    call(instance, 0)  # 0 is a count


def test_warm_start_refuses_a_short_trace_in_the_preflight_words():
    config = small_config()  # 12 warm-up slots of a 46-slot trace
    with pytest.raises(StructuralError) as preflight:
        run(RunConfig(instance_config=config, seeds=(1,), reward=RewardConfig(horizon=40)))
    with pytest.raises(StructuralError) as warm:
        warm_start(build_instance(config, 1), 40)
    assert str(warm.value) == str(preflight.value)
    assert str(warm.value) == "warm-up 12 + oracle horizon 40 exceeds the 46-slot trace"


def test_an_instance_is_hashed_only_where_a_report_is_written_or_compared(tmp_path, monkeypatch):
    """``sweep`` writes no hash and computes none; ``run --out`` hashes each
    instance once, as it saves it once, and writes the golden files; a fresh
    rollout's report equals the copy read back from its file."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    hashed, dumped = [], []
    sha256, to_json = Instance.sha256, Instance.to_canonical_json
    monkeypatch.setattr(Instance, "sha256", lambda self: hashed.append(self.seed) or sha256(self))
    monkeypatch.setattr(Instance, "to_canonical_json",
                        lambda self: dumped.append(self.seed) or to_json(self))
    cfg = RunConfig(instance_config=small_config(), policies=("lru", "oracle:1"), seeds=(1, 2),
                    slots=15)
    sweep(cfg, "library_size", [12, 14])
    sweep(dataclasses.replace(cfg, out_dir=str(tmp_path / "sweep")), "library_size", [12, 14])
    assert (hashed, dumped) == ([], [])

    case, argv = next(c for c in test_golden._cases() if c[0] == "run-2bs")
    golden = json.loads(test_golden.GOLDEN_PATH.read_text(encoding="utf-8"))
    out = tmp_path / case
    assert cli_main(argv(str(out))) == 0
    written = {f"{case}/{p.name}": test_golden._sha256(p)
               for p in out.iterdir() if p.name != "latency.csv"}
    assert written == {name: h for name, h in golden.items() if name.startswith(f"{case}/")}
    assert sorted(dumped) == [1, 1, 2, 2, 3, 3]  # one save and one hash per instance
    assert hashed

    instance = build_instance(small_config(), 3)
    warm = warm_start(instance)
    report = rollout(instance, make_policy("lru"), 15, warm)
    assert EvalReport.from_dict(report.to_dict()) == rollout(instance, make_policy("lru"), 15, warm)
    assert report.instance_sha256 == hashlib.sha256(to_json(instance).encode()).hexdigest()


def test_a_report_pickles_and_copies_without_its_instance():
    """A fresh report holds ``Instance.sha256`` until its digest is read; a
    pickle or a copy holds the digest instead, not the instance behind it."""
    instance = build_instance(InstanceConfig(bs_count=5, users=40, library=1100), 1)
    report = rollout(instance, make_policy("lru"), None, warm_start(instance))
    data = pickle.dumps(report)
    assert len(data) < 10_000
    for twin in (pickle.loads(data), copy.copy(report)):
        assert twin.__dict__["instance_sha256"] == instance.sha256()
        assert twin == report and twin.latency_s == report.latency_s


@pytest.mark.parametrize("name", ["pbrs_slots", "fuzz_cases"])
def test_run_verification_refuses_a_negative_count_before_any_suite(work, name):
    with pytest.raises(StructuralError) as exc:
        verification.run_verification(seeds=(1,), **{name: -1})
    assert str(exc.value) == f"{name} must be an integer >= 0, not -1" and not work


def _number_refusals(kind: str, name: str) -> list[tuple[object, str]]:
    """The bad values of one kind of number and the words its ``core`` rule
    refuses each in: 2.5, a bool, text, one below the floor and -3 as a count;
    NaN, an infinity, a bool and text as a finite number; those, 0 and -1 as a
    positive number."""
    if kind.startswith("count"):
        floor = int(kind[-1])
        return [(v, f"{name} must be an integer >= {floor}, not {v!r}")
                for v in (2.5, True, "3", floor - 1, -3)]
    rows = [(v, f"{name} must be a finite number, not {v!r}")
            for v in (float("nan"), float("inf"), True, "3")]
    if kind == "positive":
        rows += [(v, f"{name} must be > 0, not {v!r}") for v in (0, -1)]
    return rows


_fuzz_parser = verification.fuzz_parser  # the function itself: ``work`` counts a call of the name
# A warm-up that fills its caches on its last slot never asks the oracle, so
# only the horizon rule can refuse a bad horizon before it ends.
_UNASKED = functools.cache(lambda: build_instance(small_config(warm_slots=10, cache_size=10), 1))

@pytest.fixture(scope="module")
def asked_on(instance, warm):
    """What an asker needs beside the value, made before ``work`` counts."""
    return types.SimpleNamespace(instance=instance, warm=warm,
                                 obs=verification.first_decision_observation(instance))


#: Every asker of a number rule: test id -> (the kind of number, the name its
#: refusal gives the value, a call of the asker on ``asked_on`` and the value).
NUMBER_ASKERS = {
    **{f"instance-config-{field}": (f"count>={floor}", field,
                                    lambda on, v, field=field: InstanceConfig(**{field: v}))
       for field, floor in [("bs_count", 1), ("users", 1), ("library", 1), ("groups", 1),
                            ("warm_slots", 0), ("rollout_slots", 0), ("horizon_reserve", 0)]},
    "instance-config-cache_size": ("count>=1", "cache_size",
                                   lambda on, v: InstanceConfig(cache_size=v)),
    "instance-config-windows": ("count>=1", "windows",
                                lambda on, v: InstanceConfig(windows=(v, 10))),
    "zipf_pmf-library": ("count>=1", "library", lambda on, v: zipf_pmf(v, 1.2)),
    "run-config-seeds": ("count>=0", "seed",
                         lambda on, v: RunConfig(instance_config=small_config(),
                                                         seeds=(v,))),
    "build_instance-seed": ("count>=0", "seed",
                            lambda on, v: build_instance(small_config(), v)),
    "run_verification-seeds": ("count>=0", "seed",
                               lambda on, v: verification.run_verification(seeds=(v,))),
    "run-slots": ("count>=1", "slots", lambda on, v: run(
        RunConfig(instance_config=small_config(), seeds=(1,), slots=v))),
    "rollout-slots": ("count>=1", "slots",
                      lambda on, v: rollout(on.instance, make_policy("lru"), v, on.warm)),
    "generate_sft-records": ("count>=0", "records", lambda on, v: generate_sft(on.instance, v)),
    "verify_pbrs-sample_slots": ("count>=0", "sample_slots",
                                 lambda on, v: verify_pbrs(on.instance, v, RewardConfig())),
    "fuzz_parser-cases": ("count>=0", "cases",
                          lambda on, v: _fuzz_parser(on.obs, v)),
    **{f"run_verification-{name}": ("count>=0", name, lambda on, v, name=name:
                                     verification.run_verification(seeds=(1,), **{name: v}))
       for name in ("pbrs_slots", "fuzz_cases")},
    "reward-config-horizon": ("count>=1", "horizon",
                              lambda on, v: RewardConfig(horizon=v)),
    "oracle-policy-horizon": ("count>=1", "horizon", lambda on, v: OraclePolicy(v)),
    "check_warmup_fits-horizon": ("count>=1", "horizon",
                                  lambda on, v: on.instance.config.check_warmup_fits(v)),
    "warm_start-horizon": ("count>=1", "horizon", lambda on, v: warm_start(_UNASKED(), v)),
    "generate_sft-horizon": ("count>=1", "horizon",
                             lambda on, v: generate_sft(_UNASKED(), 5, v)),
    **{f"reward-config-{name}": ("finite", name,
                                 lambda on, v, name=name: RewardConfig(**{name: v}))
       for name in ("lambda_fmt", "lambda_opp")},
    "instance-config-bs_xy-x": ("finite", "bs_xy", lambda on, v: InstanceConfig(
        bs_xy=((v, 0.5), (0.65, 0.5)))),
    "instance-config-bs_xy-y": ("finite", "bs_xy", lambda on, v: InstanceConfig(
        bs_xy=((0.35, 0.5), (0.65, v)))),
    "reward-config-epsilon": ("positive", "epsilon", lambda on, v: RewardConfig(epsilon=v)),
    "group_advantage-epsilon": ("positive", "epsilon",
                                lambda on, v: group_advantage([0.5, 1.0], v)),
    **{f"instance-config-{name}": ("positive", name,
                                   lambda on, v, name=name: InstanceConfig(**{name: v}))
       for name in ("alpha", "radius")},
    "zipf_pmf-alpha": ("positive", "alpha", lambda on, v: zipf_pmf(5, v)),
    "extern-policy-timeout": ("positive", "extern_timeout",
                              lambda on, v: make_policy(_EXTERN_STUB, 0.9, v)),
    "run-config-extern_timeout": ("positive", "extern_timeout", lambda on, v: RunConfig(
        instance_config=small_config(), policies=("lru",), extern_timeout=v)),
}


@pytest.mark.parametrize("asker, value, text", [
    pytest.param(asker, value, text, id=f"{asker}-{value!r}")
    for asker, (kind, name, _ask) in NUMBER_ASKERS.items()
    for value, text in _number_refusals(kind, name)])
def test_every_number_asker_refuses_a_bad_value_in_its_rules_words(asked_on, work, asker, value,
                                                                   text):
    """Each count, horizon, finite and positive setting is refused by its one
    ``core`` rule, in the same words wherever it is asked, before any work."""
    with pytest.raises(StructuralError, match=f"^{re.escape(text)}$"):
        NUMBER_ASKERS[asker][2](asked_on, value)
    assert not work, dict(work)


# README's refusals. Each one is a row of REFUSALS: the command's arguments,
# the one line it exits with (the whole line, or a pattern the line contains)
# and the files its working directory holds first. ``refused`` runs a row and
# checks what every refusal owes: exit 1 with that line, nothing printed, no
# file or directory made, and none of conftest's ``work`` done. Rows are
# grouped by the test that runs them; a group keeps the name of the test its
# rows came from, so each row keeps its test id.


class Refusal(NamedTuple):
    argv: list
    message: str | re.Pattern
    files: dict | Callable[[], dict] = {}  # path -> text or bytes; a "dir/" key makes a directory
    env: dict = {}


def _lay_out(root, files) -> None:
    for name, data in (files() if callable(files) else files).items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if name.endswith("/"):
            path.mkdir()
        elif isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(data)


def _listing(root) -> list[str]:
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


@pytest.fixture
def refused(tmp_path_factory, monkeypatch, capsys, work):
    def check(row: Refusal) -> None:
        monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
        cwd = tmp_path_factory.mktemp("refusal")
        _lay_out(cwd, row.files)
        monkeypatch.chdir(cwd)
        for name, value in row.env.items():
            monkeypatch.setenv(name, value)
        before = _listing(cwd)
        capsys.readouterr()
        work.clear()
        with pytest.raises(SystemExit) as exc:
            cli_main(row.argv)
        line = exc.value.code
        assert isinstance(line, str) and "\n" not in line
        if isinstance(row.message, str):
            assert line == row.message
        else:
            assert row.message.search(line), line
        assert capsys.readouterr().out == ""
        assert _listing(cwd) == before
        assert not work, dict(work)

    return check


@functools.cache
def _saved_report() -> dict:
    """The JSON payload of a 10-slot noop report, as ``run`` saves it."""
    instance = build_instance(small_config(), 1)
    return rollout(instance, make_policy("noop"), 10, warm_start(instance, 4, 0.9)).to_dict()


_MISSING = object()


def _ill_typed(key, value):
    def files():
        payload = {**_saved_report(), key: value}
        if value is _MISSING:
            del payload[key]
        return {"reports/report_noop_seed1.json": json.dumps(payload)}

    return files


@functools.cache
def _run_files(*runs) -> dict:
    """The files of ``d`` after a 50-slot ``run --out d`` with each argument tuple of ``runs``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "d")
        for argv in runs:
            cli_main(["run", *argv, "--slots", "50", "--out", out])
        return {f"d/{name}": Path(out, name).read_bytes() for name in os.listdir(out)}


_LRU_2BS_SEED1 = ("--bs", "2", "--seeds", "1", "--policy", "lru")


def _hash_matched(text):
    """A run's files with ``text`` as its instance file and the report's hash set to match."""
    def files():
        run = _run_files(_LRU_2BS_SEED1)
        report = json.loads(run["d/report_lru_seed1.json"])
        report["instance_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        return {**run, "d/instance_seed1.json": text, "d/report_lru_seed1.json": json.dumps(report)}

    return files


@functools.cache
def _unequal_reports(long_spec, short_spec) -> dict:
    """A 100-slot and a 60-slot report of seed 1 under ``reports``."""
    instance = build_instance(InstanceConfig(), 1)
    warm = warm_start(instance)
    return {f"reports/report_{spec}_seed1.json":
            canonical_json(rollout(instance, make_policy(spec), slots, warm).to_dict())
            for spec, slots in ((long_spec, 100), (short_spec, 60))}


@functools.cache
def _instance_json() -> str:
    return build_instance(small_config(), 1).to_canonical_json()


def _corrupted(edit) -> str:
    payload = json.loads(_instance_json())
    edit(payload)
    return json.dumps(payload)


def _set(*keys, value):
    """An edit that sets ``payload[k1][k2]...`` to ``value``."""
    def edit(payload):
        for key in keys[:-1]:
            payload = payload[key]
        payload[keys[-1]] = value

    return edit


#: Unreadable instance files: test id -> (file text, or None for no file; message).
_UNREADABLE = {
    "bad-json": ("{", "Expecting property name"),
    "array": ("[]", "instance keys must sit in a JSON object, not a list"),
    "string": ('"instance"', "instance keys must sit in a JSON object, not a str"),
    "wrong-schema": ('{"schema": "coopcache.other"}',
                     "unsupported instance schema: 'coopcache.other'"),
    "config-array": ('{"schema": "coopcache.instance.v1", "config": []}',
                     "instance config keys must sit in a JSON object, not a list"),
    "config-missing": ('{"schema": "coopcache.instance.v1"}', "instance key 'config' is missing"),
    "no-file": (None, r"\[Errno 2\] No such file or directory"),
}

#: Bad trace slots of a saved instance: test id -> (slot 6's requests, message).
_BAD_SLOTS = {
    "duplicate-user": ([[0, 3], [0, 4]], "slot 6: one request per user per slot"),
    "file-0": ([[0, 0]], "slot 6: file ids must be >= 1"),
    "user-outside": ([[6, 3]], "slot 6: user 6 is not in the association graph"),
    "file-before-user": ([[0.5, 2.5]], "slot 6: file ids must be integers, not 2.5"),
    "partial-slot": ([[0, 3]], "slot 6 holds 1 requests, not one per user"),
}

#: Corrupt saved instances: name -> (the edit of its payload, a pattern of the message).
_CORRUPTIONS = {
    "_truncate_trace": (lambda p: p.update(trace=p["trace"][:30]), "trace holds 30 slots"),
    "_request_file_5000": (_set("trace", 5, 0, 1, value=5000),
                           r"file ids outside 1\.\.12: \[5000\]"),
    "_fractional_groups": (_set("config", "groups", value=2.9),
                           r"instance config key 'groups': expected an integer, not 2\.9"),
    "_fractional_window": (_set("config", "windows", value=[5.5, 10]),
                           r"instance config key 'windows': expected an integer, not 5\.5"),
    "_repeated_window": (_set("config", "windows", value=[10, 10]), r"windows repeat: \[10, 10\]"),
    "_fractional_cache_size": (_set("config", "cache_size", value=[3.9, 3]),
                               r"instance config key 'cache_size': expected an integer, not 3\.9"),
    "_fractional_seed": (_set("seed", value=1.5),
                         r"instance key 'seed': expected an integer, not 1\.5"),
    "_fractional_user_group": (_set("user_group", 0, value=1.0),
                               r"instance key 'user_group': expected an integer, not 1\.0"),
    "_fractional_rank_to_file": (_set("rank_to_file", 0, 0, value=2.5),
                                 r"instance key 'rank_to_file': expected an integer, not 2\.5"),
    "_fractional_trace_file": (
        _set("trace", 5, 0, 1, value=2.7),
        r"instance key 'trace': slot 6: file ids must be integers, not 2\.7"),
    "_bool_alpha": (_set("config", "alpha", value=True),
                    "instance config key 'alpha': expected a number, not True"),
    "_bool_radius": (_set("config", "radius", value=False),
                     "instance config key 'radius': expected a number, not False"),
    "_text_alpha_nan": (_set("config", "alpha", value="nan"), "alpha must be a finite number"),
    "_infinite_radius": (_set("config", "radius", value=float("inf")),
                         "radius must be a finite number"),
    "_bool_user_coordinate": (
        _set("user_xy", 0, 0, value=True),
        r"instance key 'user_xy': expected an \[x, y\] pair of finite numbers, not \[True, "),
    "_text_user_coordinate": (_set("user_xy", 2, 1, value="0.35"),
                              r"instance key 'user_xy': expected .* not \[[0-9.]+, '0\.35'\]"),
    "_nan_user_coordinate": (_set("user_xy", 1, 0, value=float("nan")),
                             r"instance key 'user_xy': expected .* not \[nan, "),
    "_user_coordinate_triple": (
        lambda p: p["user_xy"][0].append(0.5),
        r"instance key 'user_xy': expected .* not \[[0-9.]+, [0-9.]+, 0\.5"),
    "_text_bs_coordinate": (_set("config", "bs_xy", 0, 0, value="0.35"),
                            r"instance config key 'bs_xy': expected .* not \['0\.35', 0\.5\]"),
    "_infinite_bs_coordinate": (_set("config", "bs_xy", 1, 1, value=float("-inf")),
                                r"instance config key 'bs_xy': expected .* not \[0\.65, -inf\]"),
    "_three_user_groups": (lambda p: p.update(user_group=p["user_group"][:3]),
                           r"^\S+: instance key 'user_group': expected 6 groups in 0\.\.1$"),
    "_user_group_past_groups": (_set("user_group", 4, value=2),
                                r"^\S+: instance key 'user_group': expected 6 groups in 0\.\.1$"),
    "_one_repeating_ranking": (
        _set("rank_to_file", value=[[1, 1, 1]]),
        r"^\S+: instance key 'rank_to_file': expected 2 permutations of 1\.\.12$"),
    "_ranking_repeats_a_file": (
        lambda p: p["rank_to_file"][1].__setitem__(0, p["rank_to_file"][1][1]),
        r"^\S+: instance key 'rank_to_file': expected 2 permutations of 1\.\.12$"),
    "_extra_user_point": (lambda p: p["user_xy"].append([0.5, 0.5]),
                          r"^\S+: instance key 'user_xy': expected 6 points, not 7$"),
    "_uncovered_user": (_set("user_xy", 3, value=[0.99, 0.01]),
                        r"^\S+: instance key 'user_xy': no BS covers user 3$"),
    "_no_shared_user": (lambda p: p.update(user_xy=[[0.1, 0.5]] * len(p["user_xy"])),
                        r"^\S+: instance key 'user_xy': no user is covered by two BSs$"),
}

_NOT_AN_OBJECT = ["[]", '"report"', "1", "null"]

_RUN_INSTANCE = ["run", "--instance", "inst.json", "--seeds", "1", "--out", "out"]
_REPORT = ["report", "--reports", "reports", "--out", "out"]
_REPORT_RUN = ["report", "--reports", "d", "--out", "t"]  # over the files of _run_files
_EXTERN_STUB = f"extern:{sys.executable} -m coopcache.extern_stub"
_OUT_COMMANDS = {
    "run": ["run", "--policy", "lru", "--seeds", "1", "--slots", "5"],
    "sweep": ["sweep", "--axis", "library_size", "--values", "100", "--policy", "lru",
              "--seeds", "1", "--slots", "5"],
    "verify": ["verify", "--seeds", "1"],
    "report": ["report", "--reports", "reports"],
}
_BAD_OUT_DIRS = {"a-file": ("afile", "Not a directory"),
                 "under-a-file": ("afile/sub", "Not a directory"),
                 "empty": ("", "No such file or directory")}


def _out_files() -> dict:
    return {"afile": "", "reports/report_noop_seed1.json": json.dumps(_saved_report())}


_REPORT_KEYS = [
    ("seed-float", "seed", 1.5, r"'seed': expected an integer, not 1\.5"),
    ("invalid-bool", "invalid_actions", True, "'invalid_actions': expected an integer, not True"),
    ("slots-text", "slots", "10", "'slots': expected an integer, not '10'"),
    ("slots-miscount", "slots", 9, "'slots': not 10, the p_hit count"),
    ("p_hit-nan", "p_hit", [0.5] * 9 + [float("nan")],
     "'p_hit': expected a finite number, not nan"),
    ("table_mean-text", "table_mean", "0.5", "'table_mean': expected a finite number, not '0.5'"),
    ("overall_mean-inf", "overall_mean", float("inf"),
     "'overall_mean': expected a finite number, not inf"),
    ("checkpoint-float-slot", "checkpoints", [[10.0, 0.5]],
     "'checkpoints': expected an integer, not 10.0"),
    ("checkpoint-bool-value", "checkpoints", [[10, True]],
     "'checkpoints': expected a finite number, not True"),
    ("checkpoint-triple", "checkpoints", [[10, 0.5, 1]],
     r"'checkpoints': too many values to unpack"),
    ("policy-number", "policy", 3, "'policy': expected a string, not 3"),
    ("sha-null", "instance_sha256", None, "'instance_sha256': expected a string, not None"),
    ("table_mean-missing", "table_mean", _MISSING, "'table_mean' is missing"),
    ("table_mean-differs", "table_mean", 0.999,
     r"'table_mean': not [0-9.e-]+, the mean of the checkpoint averages$"),
    ("overall_mean-differs", "overall_mean", 0.999,
     r"'overall_mean': not [0-9.e-]+, the p_hit mean$"),
    ("checkpoint-differs", "checkpoints", [[10, 0.999]],
     r"'checkpoints': not \[\[10,[0-9.e-]+\]\], the p_hit prefix averages$"),
    ("p_hit-empty", "p_hit", [], "'p_hit': expected at least one hit rate"),
]
_WRONG_TYPES = {
    "bs-text": ("bs", "two", r"config key 'bs' has a bad value 'two'"),
    "seeds-number": ("seeds", 5, r"config key 'seeds' has a bad value 5"),
    "policies-text": ("policies", "lru", r"config key 'policies' has a bad value 'lru'"),
    "policies-number-entry": ("policies", ["lru", 5],
                              r"config key 'policies' has a bad value \['lru', 5\]"),
    "seeds-text-entry": ("seeds", ["1"], r"config key 'seeds' has a bad value \['1'\]"),
    "windows-text-entry": ("windows", ["a"], r"config key 'windows' has a bad value \['a'\]"),
    "bs-float": ("bs", 2.5, r"config key 'bs' has a bad value 2\.5"),
    "cache-float-entry": ("cache", [3.7, 4], r"config key 'cache' has a bad value \[3\.7, 4\]"),
    "seeds-bool-entry": ("seeds", [True], r"config key 'seeds' has a bad value \[True\]"),
    "gamma-bool": ("gamma", True, r"config key 'gamma' has a bad value True"),
    "radius-bool": ("radius", False, r"config key 'radius' has a bad value False"),
}
_UNWRITABLE = {
    "gen-instance": (["gen-instance", "--seed", "1", "--out", "nodir/x.json"], "nodir/x.json",
                     "No such file or directory"),
    "export-sft": (["export-sft", "--records", "5", "--out", "nodir/s.jsonl"], "nodir/s.jsonl",
                   "No such file or directory"),
    "gen-instance-onto-a-directory": (["gen-instance", "--seed", "1", "--out", "adir"], "adir",
                                      "Is a directory"),
    "export-sft-grpo-out": (["export-sft", "--records", "5", "--out", "s.jsonl", "--grpo-out",
                             "nodir/g.jsonl"], "nodir/g.jsonl", "No such file or directory"),
    "export-sft-onto-a-directory": (["export-sft", "--records", "5", "--grpo-out", "g.jsonl",
                                     "--out", "adir"], "adir", "Is a directory"),
    "gen-instance-empty": (["gen-instance", "--seed", "1", "--out", ""], "''",
                           "No such file or directory"),
    "export-sft-empty": (["export-sft", "--records", "5", "--out", ""], "''",
                         "No such file or directory"),
    "export-sft-grpo-out-empty": (["export-sft", "--records", "5", "--out", "s.jsonl",
                                   "--grpo-out", ""], "''", "No such file or directory"),
}
_BESIDE = "instance settings given beside an instance file: "
_SWEEP_100 = ["sweep", "--axis", "library_size", "--values", "100", "--policy", "lru",
              "--seeds", "1", "--slots", "5"]
_UNEQUAL_SLOTS = "reports differ in checkpoint slots: [50] and [50, 100]"

REFUSALS = {
    "test_report_rejects_an_ill_typed_report": {
        name: Refusal(_REPORT,
                      re.compile(r"^reports/report_noop_seed1\.json: report key " + message),
                      _ill_typed(key, value))
        for name, key, value, message in _REPORT_KEYS
    },
    "test_report_rejects_a_report_that_is_not_json": [
        Refusal(_REPORT,
                re.compile(r"^reports/report_noop_seed1\.json: Expecting property name"),
                {"reports/report_noop_seed1.json": "{"}),
    ],
    "test_report_refuses_a_report_that_is_not_an_object": {
        text: Refusal(_REPORT, re.compile(
            r"^reports/report_x_seed1\.json: report keys must sit in a JSON object"),
            {"reports/report_x_seed1.json": text})
        for text in _NOT_AN_OBJECT
    },
    "test_run_names_an_unreadable_instance_file": {
        name: Refusal(["run", "--instance", "bad.json", "--seeds", "1", "--out", "out"],
                      re.compile(r"^bad\.json: " + message),
                      {} if text is None else {"bad.json": text})
        for name, (text, message) in _UNREADABLE.items()
    },
    "test_run_refuses_a_loaded_bad_slot": {
        name: Refusal(_RUN_INSTANCE, f"inst.json: instance key 'trace': {message}",
                      lambda slot=slot: {"inst.json": _corrupted(_set("trace", 5, value=slot))})
        for name, (slot, message) in _BAD_SLOTS.items()
    },
    "test_run_refuses_a_corrupt_instance_file": {
        name: Refusal(_RUN_INSTANCE, re.compile(message),
                      lambda edit=edit: {"inst.json": _corrupted(edit)})
        for name, (edit, message) in _CORRUPTIONS.items()
    },
    "test_a_failed_run_writes_nothing": [
        Refusal(["run", "--policy", "extern:/nonexistent/bin", "--slots", "1", "--seeds", "1",
                 "--out", "out"], re.compile("cannot start adapter '/nonexistent/bin'")),
    ],
    # Listed after oracle:10, an adapter that cannot start is refused before any warm-up.
    "test_a_bad_adapter_command_is_refused_before_any_rollout": {
        name: Refusal(["run", "--bs", "5", "--users", "40", "--seeds", "1",
                       "--policy", "oracle:10", "--policy", spec, "--out", "out"], message)
        for name, spec, message in [
            ("unclosed-quote", 'extern:python "unterminated',
             """cannot start adapter 'python "unterminated': No closing quotation"""),
            ("missing-program", "extern:/nonexistent/adapter",
             "cannot start adapter '/nonexistent/adapter': no executable '/nonexistent/adapter'"),
        ]
    },
    "test_report_refuses_policies_with_different_seeds": [
        Refusal(_REPORT_RUN,
                "policy fifo has no report for seed 1; every policy needs the same seeds",
                lambda: _run_files(("--seeds", "1", "--policy", "lru"),
                                   ("--seeds", "2", "--policy", "fifo"))),
        Refusal(_REPORT_RUN,
                re.compile("^policy lru has no report for seed 2;"),
                lambda: _run_files(("--seeds", "1", "--policy", "lru"),
                                   ("--seeds", "2", "--policy", "fifo"),
                                   ("--seeds", "1", "--policy", "fifo"))),
    ],
    "test_report_refuses_a_report_whose_instance_file_differs": [
        Refusal(_REPORT_RUN,
                "d/instance_seed1.json: not the instance report_lru_seed1.json was run on "
                "(its SHA-256 is not the report's instance_sha256)",
                lambda: {**_run_files(_LRU_2BS_SEED1), "d/instance_seed1.json": build_instance(
                    InstanceConfig(bs_count=5, users=40), 1).to_canonical_json()}),
    ],
    "test_report_refuses_instance_files_whose_configs_differ": [
        Refusal(_REPORT_RUN,
                "d/instance_seed2.json: config differs from d/instance_seed1.json's; "
                "one report set holds one configuration",
                lambda: _run_files(_LRU_2BS_SEED1, ("--bs", "5", "--users", "40", "--seeds", "2",
                                                    "--policy", "lru"))),
    ],
    # every run refuses it, not only one with an extern: policy
    "test_cli_refuses_a_bad_extern_timeout_before_any_rollout": {
        prefix + timeout: Refusal(["run", "--policy", policy, "--extern-timeout", timeout,
                                   "--slots", "1", "--seeds", "1", "--out", "out"],
                                  f"extern_timeout must be {rule}, not {float(timeout)!r}")
        for prefix, policy in [("", _EXTERN_STUB), ("lru:", "lru")]
        for timeout, rule in [("-1", "> 0"), ("0", "> 0"), ("nan", "a finite number")]
    },
    "test_report_refuses_reports_whose_checkpoint_slots_differ": {
        f"{long}-{short}": Refusal(_REPORT, _UNEQUAL_SLOTS,
                                   lambda long=long, short=short: _unequal_reports(long, short))
        for long, short in [("lru", "noop"), ("noop", "lru")]
    },
    "test_a_refused_report_creates_no_directory": {
        via: Refusal(["report", "--reports", "reports", "--out", "flag-out" if env else "out"],
                     _UNEQUAL_SLOTS, lambda: _unequal_reports("lru", "noop"), env)
        for via, env in [("--out", {}), ("COOPCACHE_OUT_DIR", {"COOPCACHE_OUT_DIR": "out"})]
    },
    "test_cli_rejects_unknown_config_keys": [
        Refusal(["run", "--config", "typo.json"], re.compile("polices"),
                {"typo.json": json.dumps({"schema": RUNCONFIG_SCHEMA, "polices": ["oracle:1"],
                                          "out": "out"})}),
    ],
    "test_cli_rejects_unversioned_config": [
        Refusal(["run", "--config", "bad.json"],
                f"config file must declare schema {RUNCONFIG_SCHEMA!r}", {"bad.json": "{}"}),
    ],
    "test_cli_config_value_of_wrong_type_names_its_key": {
        name: Refusal(["run", "--config", "bad.json"], re.compile(message),
                      {"bad.json": json.dumps({"schema": RUNCONFIG_SCHEMA, key: value,
                                               "out": "out"})})
        for name, (key, value, message) in _WRONG_TYPES.items()
    },
    "test_cli_run_without_slots_writes_nothing": {
        flag: Refusal(["run", f"--{flag}", "0", "--seeds", "1", "--out", "out"],
                      "slots must be an integer >= 1, not 0")
        for flag in ["slots", "rollout-slots"]
    },
    "test_cli_verify_without_seeds_writes_nothing": [
        Refusal(["verify", "--seeds", "", "--out", "out"], re.compile("at least one seed")),
    ],
    "test_cli_reports_an_error_in_one_line": {
        name: Refusal([*argv, "--out", "out"], re.compile(message), {"open-brace.json": "{"})
        for name, argv, message in [
            ("run-gamma-nan", ["run", "--gamma", "nan", "--seeds", "1"],
             "gamma must be a finite number, not nan"),
            ("run-missing-adapter",
             ["run", "--policy", "extern:/nonexistent/adapter", "--seeds", "1", "--slots", "1",
              "--warm-slots", "12", "--rollout-slots", "30", "--horizon-reserve", "4"],
             "cannot start adapter '/nonexistent/adapter'"),
            ("gen-instance-negative-radius", ["gen-instance", "--radius", "-0.4", "--seed", "1"],
             "radius must be > 0, not -0.4"),
            ("report-missing-dir", ["report", "--reports", "no-dir"],
             "^no-dir: .*No such file or directory"),
            ("run-missing-config", ["run", "--config", "no-file.json"],
             "^no-file.json: .*No such file or directory"),
            ("run-config-not-json", ["run", "--config", "open-brace.json"],
             "^open-brace.json: Expecting property name"),
        ]
    },
    "test_cli_sweep_refuses_a_bad_value_in_one_line": {
        f"{values}-{entry}": Refusal(["sweep", "--axis", "library_size", "--values", values,
                                      "--policy", "lru", "--seeds", "1", "--slots", "5",
                                      "--out", "out"],
                                     f"--values: {entry} is not a library_size value")
        for values, entry in [("100,abc", "'abc'"), ("100,", "''")]
    },
    "test_repeated_seeds_and_sweep_points_fail_before_any_rollout": [
        Refusal(["run", "--seeds", "1,1", "--slots", "5", "--out", "out"],
                re.compile(r"seeds repeat: \[1, 1\]")),
        Refusal(["sweep", "--axis", "zipf_alpha", "--values", "1.2,1.20", "--policy", "lru",
                 "--seeds", "1", "--slots", "5", "--out", "out"],
                re.compile(r"sweep values repeat a point: \[1\.2, 1\.2\]")),
    ],
    "test_repeated_verify_seeds_fail_before_any_audit": [
        Refusal(["verify", "--seeds", "1,1", "--out", "out"], "seeds repeat: [1, 1]"),
    ],
    "test_an_unwritable_output_path_is_one_error_line": {
        name: Refusal(argv, f"{shown}: cannot write: {reason}", {"adir/": None})
        for name, (argv, shown, reason) in _UNWRITABLE.items()
    },
    "test_an_output_directory_that_cannot_be_made_is_one_error_line": {
        f"{command}-{name}": Refusal([*argv, "--out", out],
                                     f"cannot make output directory {out!r}: {reason}", _out_files)
        for command, argv in _OUT_COMMANDS.items() for name, (out, reason) in _BAD_OUT_DIRS.items()
    },
    "test_repeated_windows_are_refused_in_one_line": [
        Refusal(["gen-instance", "--seed", "1", "--windows", "10,10", "--out", "i.json"],
                "windows repeat: [10, 10]"),
    ],
    "test_export_sft_refuses_one_path_for_both_files": [
        Refusal(["export-sft", "--records", "5", "--out", "a.jsonl", "--grpo-out", "./a.jsonl"],
                "./a.jsonl: the GRPO file cannot be the SFT file"),
    ],
    "test_a_negative_count_flag_is_one_error_line": {
        name: Refusal(argv, message)
        for name, argv, message in [
            ("export-sft-records", ["export-sft", "--records", "-3", "--out", "s.jsonl"],
             "--records must be an integer >= 0, not -3"),
            ("verify-fuzz-cases", ["verify", "--seeds", "1", "--fuzz-cases", "-5"],
             "--fuzz-cases must be an integer >= 0, not -5"),
            ("verify-pbrs-slots", ["verify", "--seeds", "1", "--pbrs-slots", "-1"],
             "--pbrs-slots must be an integer >= 0, not -1"),
        ]
    },
    # An instance file fixes every instance setting and its seed, so one given beside it is refused.
    "test_an_instance_file_refuses_the_settings_it_fixes": {
        name: Refusal([*argv, "--out", out], message, lambda config=config: {
            "i.json": _instance_json(),
            "c.json": json.dumps({"schema": RUNCONFIG_SCHEMA, "instance": "i.json", **config})})
        for name, argv, config, out, message in [
            ("run-flags", ["run", "--instance", "i.json", "--seeds", "1", "--bs", "5",
                           "--users", "3"], {}, "out", _BESIDE + "bs, users"),
            ("run-config-keys", ["run", "--config", "c.json", "--seeds", "1"],
             {"cache": 4, "alpha": 1.5}, "out", _BESIDE + "cache, alpha"),
            ("run-flag-beside-config-key", ["run", "--config", "c.json", "--seeds", "1",
                                            "--windows", "5,10"], {}, "out", _BESIDE + "windows"),
            # sweep would refuse the file itself; the settings beside it are named first
            ("sweep-flag", [*_SWEEP_100, "--instance", "i.json", "--bs", "2"], {}, "out",
             _BESIDE + "bs"),
            ("sweep-config-key", [*_SWEEP_100, "--config", "c.json"], {"users": 8}, "out",
             _BESIDE + "users"),
            ("export-sft-flags", ["export-sft", "--instance", "i.json", "--bs", "2",
                                  "--records", "3"], {}, "s.jsonl", _BESIDE + "bs"),
            ("export-sft-seed", ["export-sft", "--instance", "i.json", "--seed", "7",
                                 "--records", "3"], {}, "s.jsonl",
             "instance file holds seed 1, export-sft asked for 7"),
        ]
    },
    "test_an_instance_file_serves_run_for_its_own_seed_and_no_sweep": {
        "run-default-seeds": Refusal(["run", "--instance", "i.json", "--out", "out"],
                                     "instance file holds seed 1, run asked for [1, 2, 3]",
                                     lambda: {"i.json": _instance_json()}),
        "sweep": Refusal([*_SWEEP_100, "--instance", "i.json", "--out", "out"],
                         "sweeps need instance parameters, not an instance file",
                         lambda: {"i.json": _instance_json()}),
    },
    "test_run_sweep_and_report_refuse_before_any_work": {
        "run-negative-seed": Refusal(["run", "--seeds", "1,-1", "--policy", "lru", "--out", "out"],
                                     "seed must be an integer >= 0, not -1"),
        "sweep-negative-seed": Refusal(["sweep", "--axis", "library_size", "--values", "100",
                                        "--seeds", "1,-1", "--policy", "lru", "--out", "out"],
                                       "seed must be an integer >= 0, not -1"),
        "run-names-collide": Refusal(["run", "--policy", "lru", "--policy", "lru", "--seeds", "1",
                                      "--out", "out"], "policy specs share a name: ['lru', 'lru']"),
        "run-bad-oracle-horizon": Refusal(["run", "--policy", "oracle:1:2", "--seeds", "1",
                                           "--out", "out"], "bad oracle horizon in 'oracle:1:2'"),
        "sweep-names-collide": Refusal(["sweep", "--axis", "users", "--values", "20", "--policy",
                                        "oracle:1", "--policy", "oracle:01", "--seeds", "1",
                                        "--out", "out"],
                                       "policy specs share a name: ['oracle:1', 'oracle:1']"),
        "run-peek-past-the-trace": Refusal(
            ["run", "--policy", "lru", "--policy", "oracle:20", "--seeds", "1", "--out", "out"],
            "oracle:20: warm-up 100 + 300 slots + look-ahead 20 exceeds the 410-slot trace"),
        "run-warm-up-peek-past-the-trace": Refusal(
            ["run", "--policy", "lru", "--seeds", "1", "--horizon", "400", "--out", "out"],
            "warm-up 100 + oracle horizon 400 exceeds the 410-slot trace"),
        # seed 5 draws an overlap at 40 users, not at 1: no rollout of the first point runs
        "sweep-a-later-point-has-no-overlap": Refusal(
            ["sweep", "--bs", "2", "--radius", "0.16", "--axis", "users", "--values", "40,1",
             "--seeds", "5", "--policy", "lru", "--slots", "5", "--out", "out"],
            "no overlapping coverage after bounded resampling"),
        "run-a-user-cannot-be-placed": Refusal(
            ["run", "--radius", "0.001", "--seeds", "1", "--policy", "lru", "--out", "out"],
            "cannot place a covered user; grow the radius or move the BSs"),
        "run-out-dir-from-the-environment": Refusal(
            ["run", "--policy", "lru", "--seeds", "1", "--slots", "5"],
            "cannot make output directory 'afile': Not a directory", {"afile": ""},
            {"COOPCACHE_OUT_DIR": "afile"}),
        "report-instance-file-array": Refusal(
            _REPORT_RUN,
            "d/instance_seed1.json: instance keys must sit in a JSON object, not a list",
            _hash_matched("[]")),
        "report-instance-file-without-config": Refusal(
            _REPORT_RUN,
            "d/instance_seed1.json: instance key 'config' is missing", _hash_matched("{}")),
        "report-instance-file-not-json": Refusal(
            _REPORT_RUN,
            re.compile(r"^d/instance_seed1\.json: Expecting property name"), _hash_matched("{")),
        "run-without-seeds": Refusal(["run", "--seeds", "", "--out", "out"],
                                     "need at least one seed"),
        "run-oracle-horizon-0": Refusal(["run", "--policy", "oracle:0", "--seeds", "1",
                                         "--out", "out"], "horizon must be an integer >= 1, not 0"),
        "report-no-reports": Refusal(_REPORT, "no report_*.json files under reports",
                                     {"reports/": None}),
        "report-unknown-schema": Refusal(
            _REPORT, "reports/report_noop_seed1.json: unsupported report schema: 'coopcache.v0'",
            _ill_typed("schema", "coopcache.v0")),
        **{f"report-instance-file-{name}": Refusal(
            _REPORT_RUN,
            "d/instance_seed1.json: not an instance file in canonical form "
            '(it must open with its config, as {"config":{...})', _hash_matched(text))
           for name, text in [("config-not-first", '{"schema":"x","config":{}}'),
                              ("spaced", '{"config": {}}')]},
    },
    # verify and export-sft check their seeds, reward settings and look-ahead fit
    # before they build the first instance
    "test_verify_and_export_sft_refuse_before_the_first_build": {
        "verify-negative-seed": Refusal(["verify", "--seeds", "1,-1", "--out", "out"],
                                        "seed must be an integer >= 0, not -1"),
        **{f"export-sft-{flag}-{value}": Refusal(
            ["export-sft", "--records", "5", f"--{flag}", value, "--out", "s.jsonl"], message)
           for flag, value, message in [
               ("horizon", "0", "horizon must be an integer >= 1, not 0"),
               ("gamma", "2", "gamma must be in (0, 1]"),
               ("horizon", "1000", "warm-up 100 + oracle horizon 1000 exceeds the 410-slot trace"),
           ]},
        "export-sft-file-horizon-1000": Refusal(
            ["export-sft", "--instance", "i.json", "--records", "5", "--horizon", "1000",
             "--out", "s.jsonl"], "warm-up 12 + oracle horizon 1000 exceeds the 46-slot trace",
            lambda: {"i.json": _instance_json()}),
    },
}


def _refusal_test(rows):
    """A test that runs ``rows`` through ``refused``: a case per key of a dict, one for a list."""
    if isinstance(rows, list):
        def test(refused):
            for row in rows:
                refused(row)
        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(refused, row):
        refused(row)
    return test


for _name, _rows in REFUSALS.items():
    globals()[_name] = _refusal_test(_rows)


@pytest.mark.parametrize("group, name", [
    ("test_a_bad_adapter_command_is_refused_before_any_rollout", "unclosed-quote"),
    ("test_a_bad_adapter_command_is_refused_before_any_rollout", "missing-program"),
    ("test_a_refused_report_creates_no_directory", "--out"),
    ("test_a_refused_report_creates_no_directory", "COOPCACHE_OUT_DIR"),
])
def test_a_refusal_exits_1_with_its_line_on_stderr(tmp_path, monkeypatch, group, name):
    """``python -m coopcache.cli`` ends a refused row with exit 1 and its one
    line on stderr, and makes nothing."""
    row = REFUSALS[group][name]
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    _lay_out(tmp_path, row.files)
    before = _listing(tmp_path)
    done = subprocess.run([sys.executable, "-m", "coopcache.cli", *row.argv], cwd=tmp_path,
                          env={**os.environ, **row.env}, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (1, row.message + "\n")
    assert _listing(tmp_path) == before


# The API halves of rows above: the same data, read by the function the command calls.

@pytest.mark.parametrize("text", _NOT_AN_OBJECT)
def test_report_rejects_a_report_that_is_not_an_object(tmp_path, text):
    (tmp_path / "report_x_seed1.json").write_text(text)
    with pytest.raises(StructuralError, match="report keys must sit in a JSON object"):
        load_reports(tmp_path)


@pytest.mark.parametrize("text, message", _UNREADABLE.values(), ids=_UNREADABLE)
def test_an_unreadable_instance_file_is_named(tmp_path, text, message):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(StructuralError, match=f"^{re.escape(str(path))}: {message}"):
        load_instance(path)


@pytest.mark.parametrize("slot, message", _BAD_SLOTS.values(), ids=_BAD_SLOTS)
def test_a_loaded_bad_slot_fails_in_one_line(tmp_path, slot, message):
    path = tmp_path / "inst.json"
    path.write_text(_corrupted(_set("trace", 5, value=slot)))
    with pytest.raises(StructuralError) as exc:
        load_instance(path)
    assert str(exc.value) == f"{path}: instance key 'trace': {message}"


@pytest.mark.parametrize("edit, message", _CORRUPTIONS.values(),
                         ids=[f"{name}-{message}" for name, (_, message) in _CORRUPTIONS.items()])
def test_corrupt_instance_file_fails_on_load(tmp_path, edit, message):
    path = tmp_path / "inst.json"
    path.write_text(_corrupted(edit))
    with pytest.raises(StructuralError, match=message):
        load_instance(path)


def test_write_export_refuses_one_path_for_both_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    export = generate_sft(build_instance(small_config(), 1), 2, horizon=3)
    with pytest.raises(StructuralError, match=r"^\./a\.jsonl: the GRPO file cannot be"):
        write_export(export, "a.jsonl", "./a.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_report_without_instance_files_reads_a_mixed_set(tmp_path, monkeypatch):
    """With the instance files removed only the report checks apply, and the
    mixed set of the configs-differ row passes them."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    row, = REFUSALS["test_report_refuses_instance_files_whose_configs_differ"]
    _lay_out(tmp_path, row.files)
    for seed in (1, 2):
        (tmp_path / f"d/instance_seed{seed}.json").unlink()
    monkeypatch.chdir(tmp_path)
    assert cli_main(_REPORT_RUN) == 0
    assert (tmp_path / "t" / "results.csv").exists()


def test_report_reads_no_whole_instance_file(tmp_path):
    """The instance files are hashed a chunk at a time and only the config
    each opens with is decoded, so the traced peak stays under half of one
    file; parsing a whole file took about 13 times its size."""
    out = tmp_path / "d"
    cli_main(["run", "--bs", "5", "--users", "40", "--policy", "lru", "--seeds", "1,2,3",
              "--slots", "50", "--out", str(out)])
    smallest = min(os.path.getsize(out / f"instance_seed{seed}.json") for seed in (1, 2, 3))
    load_reports(out)  # fill every cache first
    tracemalloc.start()
    try:
        assert len(load_reports(out)) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < smallest / 2, (peak, smallest)


def test_gen_instance_saves_its_windows_sorted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["gen-instance", "--seed", "1", "--windows", "100,10", "--out", "i.json"]) == 0
    assert load_instance("i.json").config.windows == (10, 100)


def _quick_start_commands() -> list[list[str]]:
    """The ``coopcache`` commands of README's Quick start block, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("coopcache ")]


def test_readme_quick_start_commands_parse():
    commands = _quick_start_commands()
    assert len(commands) == 6
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]
