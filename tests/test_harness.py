"""Rollout engine, run/sweep orchestration and CLI tests."""

from __future__ import annotations

import csv
import json
import sys

import pytest

from coopcache.cli import (
    _CONFIG_KEYS,
    SETTINGS,
    _load_file_cfg,
    _run_config,
    build_parser,
)
from coopcache import episode
from coopcache.cli import main as cli_main
from coopcache.core import StructuralError, hit_rate
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
from coopcache.policies import make_policy
from coopcache.reward import RewardConfig
from coopcache.traffic import (
    SWEEP_AXES,
    ConfigurationError,
    InstanceConfig,
    build_instance,
    load_instance,
    save_instance,
    warm_start,
)

from conftest import small_config


@pytest.fixture(scope="module")
def instance():
    return build_instance(small_config(), 1)


@pytest.fixture(scope="module")
def warm(instance):
    return warm_start(instance, 4, 0.9)


def test_noop_policy_holds_cache_constant(instance, warm):
    report = rollout(instance, make_policy("noop"), warm=warm)
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
    a = rollout(instance, make_policy("lru"), warm=warm)
    b = rollout(instance, make_policy("lru"), warm=warm)
    assert a == b  # latency excluded from equality
    assert len(a.latency_s) == a.slots


def test_prefix_averages_recomputable(instance, warm):
    report = rollout(instance, make_policy("lfu"), warm=warm)
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


def test_rollout_slot_budget_guard(instance):
    with pytest.raises(StructuralError):
        rollout(instance, make_policy("noop"), slots=10_000)


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


def test_paired_comparison_hash_guard(tmp_path, instance, warm):
    report = rollout(instance, make_policy("lru"), warm=warm)
    forged = EvalReport(
        policy="noop",
        seed=report.seed,
        instance_sha256="0" * 64,
        slots=report.slots,
        p_hit=report.p_hit,
        checkpoints=report.checkpoints,
        table_mean=report.table_mean,
        overall_mean=report.overall_mean,
        invalid_actions=0,
        latency_s=(),
    )
    with pytest.raises(StructuralError):
        write_reports([report, forged], tmp_path)


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


def test_run_config_validation():
    with pytest.raises(StructuralError):
        RunConfig(instance_config=None, instance_path=None)
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


def test_cli_rejects_unversioned_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{}")
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", str(cfg_path)])


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


def test_cli_export_sft_walks_the_expert_once(tmp_path, monkeypatch, small_instance):
    inst_path = tmp_path / "inst.json"
    save_instance(small_instance, inst_path)
    calls = []
    real = episode.oracle_best_action
    monkeypatch.setattr(episode, "oracle_best_action",
                        lambda *args: calls.append(1) or real(*args))
    argv = ["export-sft", "--instance", str(inst_path), "--records", "5", "--horizon", "3",
            "--out", str(tmp_path / "sft.jsonl")]
    assert cli_main(argv) == 0
    sft_only = len(calls)
    assert cli_main([*argv, "--grpo-out", str(tmp_path / "grpo.jsonl")]) == 0
    assert sft_only > 0 and len(calls) - sft_only == sft_only


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


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = tmp_path / "typo.json"
    cfg_path.write_text(json.dumps({
        "schema": "coopcache.runconfig.v1", "polices": ["oracle:1"],
        "out": str(tmp_path / "out"),
    }))
    with pytest.raises(SystemExit, match="polices"):
        cli_main(["run", "--config", str(cfg_path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("bs", "two", r"config key 'bs' has a bad value 'two'"),
    ("seeds", 5, r"config key 'seeds' has a bad value 5"),
    ("policies", "lru", r"config key 'policies' has a bad value 'lru'"),
    ("policies", ["lru", 5], r"config key 'policies' has a bad value \['lru', 5\]"),
    ("seeds", ["1"], r"config key 'seeds' has a bad value \['1'\]"),
    ("windows", ["a"], r"config key 'windows' has a bad value \['a'\]"),
    ("bs", 2.5, r"config key 'bs' has a bad value 2\.5"),
    ("cache", [3.7, 4], r"config key 'cache' has a bad value \[3\.7, 4\]"),
    ("seeds", [True], r"config key 'seeds' has a bad value \[True\]"),
], ids=["bs-text", "seeds-number", "policies-text", "policies-number-entry",
        "seeds-text-entry", "windows-text-entry", "bs-float", "cache-float-entry",
        "seeds-bool-entry"])
def test_cli_config_value_of_wrong_type_names_its_key(tmp_path, monkeypatch, key, value,
                                                      message):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "schema": RUNCONFIG_SCHEMA, key: value, "out": str(tmp_path / "out"),
    }))
    with pytest.raises(SystemExit, match=message):
        cli_main(["run", "--config", str(cfg_path)])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("slots", [["--slots", "0"], ["--rollout-slots", "0"]],
                         ids=["slots", "rollout-slots"])
def test_cli_run_without_slots_writes_nothing(tmp_path, monkeypatch, slots):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    out = tmp_path / "out"
    with pytest.raises(StructuralError, match="at least one slot"):
        cli_main(["run", *slots, "--seeds", "1", "--out", str(out)])
    assert not out.exists()


def test_cli_verify_without_seeds_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    out = tmp_path / "out"
    with pytest.raises(StructuralError, match="at least one seed"):
        cli_main(["verify", "--seeds", "", "--out", str(out)])
    assert not out.exists()


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
    target = {"instance": cfg.instance_config, "reward": cfg.reward, "run": cfg}
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


def _truncate_trace(payload):
    payload["trace"] = payload["trace"][:30]


def _request_file_5000(payload):
    payload["trace"][5][0][1] = 5000


@pytest.mark.parametrize("corrupt, message", [
    (_truncate_trace, "trace holds 30 slots"),
    (_request_file_5000, r"file ids outside 1\.\.12: \[5000\]"),
])
def test_corrupt_instance_file_fails_on_load(tmp_path, small_instance, corrupt, message):
    payload = json.loads(small_instance.to_canonical_json())
    corrupt(payload)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StructuralError, match=message):
        load_instance(path)
    out = tmp_path / "out"
    with pytest.raises(StructuralError, match=message):
        cli_main(["run", "--instance", str(path), "--seeds", "1", "--out", str(out)])
    assert not out.exists()
