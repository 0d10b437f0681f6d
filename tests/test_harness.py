"""Rollout engine, run/sweep orchestration and CLI tests."""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

from coopcache.cli import (
    _CONFIG_KEYS,
    SETTINGS,
    _load_file_cfg,
    _run_config,
    build_parser,
)
from coopcache import cli, episode, harness, verification
from coopcache.cli import main as cli_main
from coopcache.core import StructuralError, canonical_json, hit_rate
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
from coopcache.policies import make_policy
from coopcache.reward import RewardConfig, verify_pbrs
from coopcache.traffic import (
    SWEEP_AXES,
    ConfigurationError,
    Instance,
    InstanceConfig,
    build_instance,
    load_instance,
    save_instance,
    warm_start,
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


def test_rollout_refuses_a_peek_past_the_trace_before_its_first_slot():
    policy = make_policy("oracle:20")  # the default instance keeps a 10-slot reserve
    calls = []
    decide = policy.decide
    policy.decide = lambda obs, peek: calls.append(obs.slot) or decide(obs, peek)
    with pytest.raises(StructuralError, match="^oracle:20: .* look-ahead 20 exceeds"):
        rollout(build_instance(InstanceConfig(), 1), policy)
    assert calls == []


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


_MISSING = object()


@pytest.fixture(scope="module")
def saved_report(instance, warm):
    """The JSON payload of a 10-slot noop report, as ``run`` saves it."""
    return rollout(instance, make_policy("noop"), 10, warm).to_dict()


@pytest.mark.parametrize("key, value, message", [
    ("seed", 1.5, r"'seed': expected an integer, not 1\.5"),
    ("invalid_actions", True, "'invalid_actions': expected an integer, not True"),
    ("slots", "10", "'slots': expected an integer, not '10'"),
    ("slots", 9, "'slots': not 10, the p_hit count"),
    ("p_hit", [0.5] * 9 + [float("nan")], "'p_hit': expected a finite number, not nan"),
    ("table_mean", "0.5", "'table_mean': expected a finite number, not '0.5'"),
    ("overall_mean", float("inf"), "'overall_mean': expected a finite number, not inf"),
    ("checkpoints", [[10.0, 0.5]], "'checkpoints': expected an integer, not 10.0"),
    ("checkpoints", [[10, True]], "'checkpoints': expected a finite number, not True"),
    ("checkpoints", [[10, 0.5, 1]], r"'checkpoints': too many values to unpack"),
    ("policy", 3, "'policy': expected a string, not 3"),
    ("instance_sha256", None, "'instance_sha256': expected a string, not None"),
    ("table_mean", _MISSING, "'table_mean' is missing"),
    ("table_mean", 0.999, r"'table_mean': not [0-9.e-]+, the mean of the checkpoint averages$"),
    ("overall_mean", 0.999, r"'overall_mean': not [0-9.e-]+, the p_hit mean$"),
    ("checkpoints", [[10, 0.999]],
     r"'checkpoints': not \[\[10,[0-9.e-]+\]\], the p_hit prefix averages$"),
    ("p_hit", [], "'p_hit': expected at least one hit rate"),
], ids=["seed-float", "invalid-bool", "slots-text", "slots-miscount", "p_hit-nan",
        "table_mean-text", "overall_mean-inf", "checkpoint-float-slot",
        "checkpoint-bool-value", "checkpoint-triple", "policy-number", "sha-null",
        "table_mean-missing", "table_mean-differs", "overall_mean-differs",
        "checkpoint-differs", "p_hit-empty"])
def test_report_rejects_an_ill_typed_report(tmp_path, monkeypatch, saved_report,
                                            key, value, message):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    reports = tmp_path / "reports"
    reports.mkdir()
    path = reports / "report_noop_seed1.json"
    payload = {**saved_report, key: value}
    if value is _MISSING:
        del payload[key]
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="report key " + message) as exc:
        cli_main(["report", "--reports", str(reports), "--out", str(out)])
    assert str(exc.value).startswith(f"{path}: ") and "\n" not in str(exc.value)
    assert not out.exists()


def test_report_rejects_a_report_that_is_not_json(tmp_path):
    (tmp_path / "report_noop_seed1.json").write_text("{")
    with pytest.raises(SystemExit, match="report_noop_seed1.json: Expecting property name"):
        cli_main(["report", "--reports", str(tmp_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["[]", '"report"', "1", "null"])
def test_report_rejects_a_report_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "report_x_seed1.json"
    path.write_text(text)
    with pytest.raises(StructuralError, match="report keys must sit in a JSON object"):
        load_reports(tmp_path)
    message = f"^{re.escape(str(path))}: report keys must sit in a JSON object"
    with pytest.raises(SystemExit, match=message):
        cli_main(["report", "--reports", str(tmp_path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name"),
    ("[]", "instance keys must sit in a JSON object, not a list"),
    ('"instance"', "instance keys must sit in a JSON object, not a str"),
    ('{"schema": "coopcache.other"}', "unsupported instance schema: 'coopcache.other'"),
    ('{"schema": "coopcache.instance.v1", "config": []}',
     "instance config keys must sit in a JSON object, not a list"),
    ('{"schema": "coopcache.instance.v1"}', "instance key 'config' is missing"),
    (None, r"\[Errno 2\] No such file or directory"),
], ids=["bad-json", "array", "string", "wrong-schema", "config-array", "config-missing",
        "no-file"])
def test_an_unreadable_instance_file_is_named(tmp_path, monkeypatch, text, message):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    path = tmp_path / "bad.json"
    if text is not None:  # None leaves the path missing
        path.write_text(text)
    with pytest.raises(StructuralError, match=f"^{re.escape(str(path))}: {message}"):
        load_instance(path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^{re.escape(str(path))}: {message}"):
        cli_main(["run", "--instance", str(path), "--seeds", "1", "--out", str(out)])
    assert not out.exists()


def test_a_failed_run_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="cannot start adapter '/nonexistent/bin'"):
        cli_main(["run", "--policy", "extern:/nonexistent/bin", "--slots", "1",
                  "--seeds", "1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ('extern:python "unterminated',
     r"""cannot start adapter 'python "unterminated': No closing quotation"""),
    ("extern:/nonexistent/adapter",
     "cannot start adapter '/nonexistent/adapter': no executable '/nonexistent/adapter'"),
], ids=["unclosed-quote", "missing-program"])
def test_a_bad_adapter_command_is_refused_before_any_rollout(tmp_path, monkeypatch, spec,
                                                            message):
    """Listed after ``oracle:10``, an adapter command that cannot start ends
    ``run`` with exit 1 and one line, before any warm-up or rollout, and
    nothing is written."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    calls = []
    for name in ("warm_start", "rollout"):
        monkeypatch.setattr(harness, name, lambda *args, _name=name: calls.append(_name))
    argv = ["run", "--bs", "5", "--users", "40", "--seeds", "1", "--policy", "oracle:10",
            "--policy", spec, "--out", "out"]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert str(exc.value) == message and not calls
    done = subprocess.run([sys.executable, "-m", "coopcache.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (1, message + "\n")
    assert os.listdir(tmp_path) == []


def test_report_refuses_policies_with_different_seeds(tmp_path, monkeypatch):
    """``lru`` run on seed 1 and ``fifo`` on seed 2 into one directory would
    compare different instances in ``results.csv``: ``report`` refuses them
    in one line naming a missing (policy, seed), and writes nothing."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    reports = tmp_path / "d"
    for seed, spec in (("1", "lru"), ("2", "fifo")):
        cli_main(["run", "--seeds", seed, "--policy", spec, "--slots", "50",
                  "--out", str(reports)])
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        cli_main(["report", "--reports", str(reports), "--out", str(out)])
    assert str(exc.value) == ("policy fifo has no report for seed 1; "
                              "every policy needs the same seeds")
    assert not out.exists()
    cli_main(["run", "--seeds", "1", "--policy", "fifo", "--slots", "50", "--out", str(reports)])
    with pytest.raises(SystemExit, match="^policy lru has no report for seed 2;"):
        cli_main(["report", "--reports", str(reports), "--out", str(out)])
    assert not out.exists()


def test_report_refuses_a_report_whose_instance_file_differs(tmp_path, monkeypatch):
    """An instance file beside a report that is not the instance the report
    was run on (here a 5-BS instance written over the 2-BS one) is refused
    in one line naming the file, and nothing is written."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    reports = tmp_path / "d"
    cli_main(["run", "--bs", "2", "--seeds", "1", "--policy", "lru", "--slots", "50",
              "--out", str(reports)])
    instance = reports / "instance_seed1.json"
    cli_main(["gen-instance", "--bs", "5", "--users", "40", "--seed", "1", "--out", str(instance)])
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        cli_main(["report", "--reports", str(reports), "--out", str(out)])
    assert str(exc.value) == (f"{instance}: not the instance report_lru_seed1.json was run on "
                              "(its SHA-256 is not the report's instance_sha256)")
    assert not out.exists()


def test_report_refuses_instance_files_whose_configs_differ(tmp_path, monkeypatch):
    """A 2-BS run on seed 1 and a 5-BS run on seed 2 into one directory would
    average different configurations in one ``mean`` row: ``report`` refuses
    them in one line naming the file, and writes nothing. Without the
    instance files only the report checks apply, and the set passes them."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    reports = tmp_path / "d"
    cli_main(["run", "--bs", "2", "--seeds", "1", "--policy", "lru", "--slots", "50",
              "--out", str(reports)])
    cli_main(["run", "--bs", "5", "--users", "40", "--seeds", "2", "--policy", "lru",
              "--slots", "50", "--out", str(reports)])
    out = tmp_path / "t"
    with pytest.raises(SystemExit) as exc:
        cli_main(["report", "--reports", str(reports), "--out", str(out)])
    assert str(exc.value) == (f"{reports / 'instance_seed2.json'}: config differs from "
                              f"{reports / 'instance_seed1.json'}'s; "
                              "one report set holds one configuration")
    assert not out.exists()
    for seed in (1, 2):
        (reports / f"instance_seed{seed}.json").unlink()
    assert cli_main(["report", "--reports", str(reports), "--out", str(out)]) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("timeout", ["-1", "0", "nan"])
def test_cli_refuses_a_bad_extern_timeout_before_any_rollout(tmp_path, monkeypatch, timeout):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    rollouts = []
    monkeypatch.setattr(harness, "rollout", lambda *args: rollouts.append(args))
    out = tmp_path / "out"
    message = f"^extern timeout must be a finite number > 0, not {re.escape(repr(float(timeout)))}$"
    with pytest.raises(SystemExit, match=message):
        cli_main(["run", "--policy", f"extern:{sys.executable} -m coopcache.extern_stub",
                  "--extern-timeout", timeout, "--slots", "1", "--seeds", "1", "--out", str(out)])
    assert not rollouts and not out.exists()


def _write_unequal_reports(tmp_path, long_spec, short_spec):
    """A ``reports`` directory holding a 100-slot and a 60-slot report of seed 1."""
    instance = build_instance(InstanceConfig(), 1)
    warm = warm_start(instance)
    reports = tmp_path / "reports"
    reports.mkdir()
    for spec, slots in ((long_spec, 100), (short_spec, 60)):
        report = rollout(instance, make_policy(spec), slots, warm)
        (reports / f"report_{spec}_seed1.json").write_text(canonical_json(report.to_dict()))
    return reports


@pytest.mark.parametrize("long_spec, short_spec", [("lru", "noop"), ("noop", "lru")])
def test_report_refuses_reports_whose_checkpoint_slots_differ(tmp_path, monkeypatch,
                                                              long_spec, short_spec):
    """A 100-slot and a 60-slot report, read in either file order, are refused
    in one line before any table is written."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    reports = _write_unequal_reports(tmp_path, long_spec, short_spec)
    out = tmp_path / "out"
    with pytest.raises(SystemExit,
                       match=r"^reports differ in checkpoint slots: \[50\] and \[50, 100\]$"):
        cli_main(["report", "--reports", str(reports), "--out", str(out)])
    assert not (out / "results.csv").exists() and not (out / "series.csv").exists()


@pytest.mark.parametrize("via", ["--out", "COOPCACHE_OUT_DIR"])
def test_a_refused_report_creates_no_directory(tmp_path, via):
    """``report`` over a 100-slot and a 60-slot report exits 1 in one line,
    and neither the output directory it was given nor ``--out`` appears."""
    reports = _write_unequal_reports(tmp_path, "lru", "noop")
    out, flag_out = tmp_path / "out", tmp_path / "flag-out"
    env = {k: v for k, v in os.environ.items() if k != "COOPCACHE_OUT_DIR"}
    if via == "COOPCACHE_OUT_DIR":
        env[via] = str(out)
    else:
        flag_out = out
    done = subprocess.run(
        [sys.executable, "-m", "coopcache.cli", "report", "--reports", str(reports),
         "--out", str(flag_out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stderr == "reports differ in checkpoint slots: [50] and [50, 100]\n"
    assert sorted(os.listdir(tmp_path)) == ["reports"]


@pytest.mark.parametrize("slot, message", [
    ([[0, 3], [0, 4]], "one request per user per slot"),
    ([[0, 0]], "file ids must be >= 1"),
    ([[6, 3]], "user 6 is not in the association graph"),
    ([[0, 3]], "slot 6 holds 1 requests, not one per user"),
], ids=["duplicate-user", "file-0", "user-outside", "partial-slot"])
def test_a_loaded_bad_slot_fails_in_one_line(tmp_path, monkeypatch, slot, message):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    payload = json.loads(build_instance(small_config(), 1).to_canonical_json())
    payload["trace"][5] = slot
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    line = f"{path}: instance key 'trace': {message}"
    with pytest.raises(StructuralError) as exc:
        load_instance(path)
    assert str(exc.value) == line
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--instance", str(path), "--seeds", "1", "--out", str(out)])
    assert str(exc.value) == line and not out.exists()


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
    report = rollout(instance, make_policy("lru"), warm=warm)
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
    report = rollout(instance, make_policy("lru"), warm=warm)
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
    real = episode.oracle_joint_action
    monkeypatch.setattr(episode, "oracle_joint_action",
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
    ("gamma", True, r"config key 'gamma' has a bad value True"),
    ("radius", False, r"config key 'radius' has a bad value False"),
], ids=["bs-text", "seeds-number", "policies-text", "policies-number-entry",
        "seeds-text-entry", "windows-text-entry", "bs-float", "cache-float-entry",
        "seeds-bool-entry", "gamma-bool", "radius-bool"])
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
    with pytest.raises(SystemExit, match="at least one slot"):
        cli_main(["run", *slots, "--seeds", "1", "--out", str(out)])
    assert not out.exists()


def test_cli_verify_without_seeds_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="at least one seed"):
        cli_main(["verify", "--seeds", "", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--gamma", "nan", "--seeds", "1"], "gamma must be finite"),
    (["run", "--policy", "extern:/nonexistent/adapter", "--seeds", "1", "--slots", "1",
      "--warm-slots", "12", "--rollout-slots", "30", "--horizon-reserve", "4"],
     "cannot start adapter '/nonexistent/adapter'"),
    (["gen-instance", "--radius", "-0.4", "--seed", "1"], "radius must be finite and > 0"),
    (["report", "--reports", "no-dir"], "^no-dir: .*No such file or directory"),
    (["run", "--config", "no-file.json"], "^no-file.json: .*No such file or directory"),
    (["run", "--config", "open-brace.json"], "^open-brace.json: Expecting property name"),
], ids=["run-gamma-nan", "run-missing-adapter", "gen-instance-negative-radius",
        "report-missing-dir", "run-missing-config", "run-config-not-json"])
def test_cli_reports_an_error_in_one_line(tmp_path, monkeypatch, argv, message):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)  # the input paths above are relative to it
    (tmp_path / "open-brace.json").write_text("{")
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=message) as exc:
        cli_main([*argv, "--out", str(out)])
    assert "\n" not in str(exc.value)
    if argv[0] == "gen-instance":
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


@pytest.mark.parametrize("values, entry", [("100,abc", "'abc'"), ("100,", "''")])
def test_cli_sweep_refuses_a_bad_value_in_one_line(tmp_path, monkeypatch, values, entry):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=f"^--values: {entry} is not a library_size value$"):
        cli_main(["sweep", "--axis", "library_size", "--values", values, "--policy", "lru",
                  "--seeds", "1", "--slots", "5", "--out", str(out)])
    assert not out.exists()


def test_sweep_rejects_a_non_finite_alpha_before_any_rollout(tmp_path, monkeypatch):
    rollouts = []
    monkeypatch.setattr(harness, "rollout", lambda *args: rollouts.append(args))
    out = tmp_path / "out"
    cfg = RunConfig(instance_config=small_config(), policies=("lru",), seeds=(1,),
                    slots=5, out_dir=str(out))
    with pytest.raises(ConfigurationError, match="alpha must be finite"):
        sweep(cfg, "zipf_alpha", [1.0, float("nan")])
    with pytest.raises(SystemExit, match="alpha must be finite"):
        cli_main(["sweep", "--axis", "zipf_alpha", "--values", "1,inf", "--policy", "lru",
                  "--seeds", "1", "--slots", "5", "--out", str(out)])
    assert not rollouts and not out.exists()


def test_repeated_seeds_and_sweep_points_fail_before_any_rollout(tmp_path, monkeypatch):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    rollouts = []
    monkeypatch.setattr(harness, "rollout", lambda *args: rollouts.append(args))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=r"seeds repeat: \[1, 1\]"):
        cli_main(["run", "--seeds", "1,1", "--slots", "5", "--out", str(out)])
    with pytest.raises(SystemExit, match=r"sweep values repeat a point: \[1\.2, 1\.2\]"):
        cli_main(["sweep", "--axis", "zipf_alpha", "--values", "1.2,1.20", "--policy", "lru",
                  "--seeds", "1", "--slots", "5", "--out", str(out)])
    assert not rollouts and not out.exists()


def test_repeated_verify_seeds_fail_before_any_audit(tmp_path, monkeypatch):
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    audits = []
    monkeypatch.setattr(verification, "build_instance", lambda *args: audits.append(args))
    monkeypatch.setattr(verification, "verify_pbrs", lambda *args: audits.append(args))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=r"^seeds repeat: \[1, 1\]$"):
        cli_main(["verify", "--seeds", "1,1", "--out", str(out)])
    assert not audits and not out.exists()


@pytest.mark.parametrize("argv, shown, reason", [
    (["gen-instance", "--seed", "1", "--out", "nodir/x.json"], "nodir/x.json",
     "No such file or directory"),
    (["export-sft", "--records", "5", "--out", "nodir/s.jsonl"], "nodir/s.jsonl",
     "No such file or directory"),
    (["gen-instance", "--seed", "1", "--out", "adir"], "adir", "Is a directory"),
    (["export-sft", "--records", "5", "--out", "s.jsonl", "--grpo-out", "nodir/g.jsonl"],
     "nodir/g.jsonl", "No such file or directory"),
    (["export-sft", "--records", "5", "--grpo-out", "g.jsonl", "--out", "adir"], "adir",
     "Is a directory"),
    (["gen-instance", "--seed", "1", "--out", ""], "''", "No such file or directory"),
    (["export-sft", "--records", "5", "--out", ""], "''", "No such file or directory"),
    (["export-sft", "--records", "5", "--out", "s.jsonl", "--grpo-out", ""], "''",
     "No such file or directory"),
], ids=["gen-instance", "export-sft", "gen-instance-onto-a-directory",
        "export-sft-grpo-out", "export-sft-onto-a-directory", "gen-instance-empty",
        "export-sft-empty", "export-sft-grpo-out-empty"])
def test_an_unwritable_output_path_is_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                                     shown, reason):
    """The command writes no file and prints no ``wrote`` line, also when only
    one of the export's two files cannot be written; it refuses before it
    builds an instance or walks the expert, and shows an empty path as ``''``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    work = []
    monkeypatch.setattr(cli, "build_instance", lambda *args: work.append(args))
    monkeypatch.setattr(cli, "generate_sft", lambda *args: work.append(args))
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert str(exc.value) == f"{shown}: cannot write: {reason}"
    assert not work and "wrote" not in capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


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


@pytest.mark.parametrize("out, reason", _BAD_OUT_DIRS.values(), ids=_BAD_OUT_DIRS.keys())
@pytest.mark.parametrize("command", _OUT_COMMANDS)
def test_an_output_directory_that_cannot_be_made_is_one_error_line(
        tmp_path, monkeypatch, capsys, saved_report, command, out, reason):
    """Refused before the first rollout or audit, and nothing is made."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "reports").mkdir()
    (tmp_path / "reports" / "report_noop_seed1.json").write_text(json.dumps(saved_report))
    work = []
    monkeypatch.setattr(harness, "rollout", lambda *args: work.append(args))
    monkeypatch.setattr(verification, "build_instance", lambda *args: work.append(args))
    monkeypatch.setattr(verification, "fuzz_parser", lambda *args: work.append(args))
    with pytest.raises(SystemExit) as exc:
        cli_main(_OUT_COMMANDS[command] + ["--out", out])
    assert str(exc.value) == f"cannot make output directory {out!r}: {reason}"
    assert not work and "wrote" not in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "reports"]
    assert [p.name for p in (tmp_path / "reports").iterdir()] == ["report_noop_seed1.json"]


def test_repeated_windows_are_refused_in_one_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen-instance", "--seed", "1", "--windows", "10,10", "--out", "i.json"])
    assert str(exc.value) == "windows repeat: [10, 10]"
    assert list(tmp_path.iterdir()) == []
    assert cli_main(["gen-instance", "--seed", "1", "--windows", "100,10", "--out", "i.json"]) == 0
    assert load_instance("i.json").config.windows == (10, 100)


def test_export_sft_refuses_one_path_for_both_files(tmp_path, monkeypatch, capsys):
    """Refused in one line before any instance is built or walked, and by
    ``write_export`` before it opens a file."""
    monkeypatch.chdir(tmp_path)
    work = []
    monkeypatch.setattr(cli, "build_instance", lambda *args: work.append(args))
    monkeypatch.setattr(cli, "generate_sft", lambda *args: work.append(args))
    with pytest.raises(SystemExit) as exc:
        cli_main(["export-sft", "--records", "5", "--out", "a.jsonl", "--grpo-out", "./a.jsonl"])
    assert str(exc.value) == "./a.jsonl: the GRPO file cannot be the SFT file"
    assert not work and capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
    export = generate_sft(build_instance(small_config(), 1), 2, horizon=3)
    with pytest.raises(StructuralError, match=r"^\./a\.jsonl: the GRPO file cannot be"):
        write_export(export, "a.jsonl", "./a.jsonl")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["export-sft", "--records", "-3", "--out", "s.jsonl"], "--records must be >= 0, not -3"),
    (["verify", "--seeds", "1", "--fuzz-cases", "-5"], "--fuzz-cases must be >= 0, not -5"),
    (["verify", "--seeds", "1", "--pbrs-slots", "-1"], "--pbrs-slots must be >= 0, not -1"),
], ids=["export-sft-records", "verify-fuzz-cases", "verify-pbrs-slots"])
def test_a_negative_count_flag_is_one_error_line(tmp_path, monkeypatch, capsys, argv, message):
    """The refusal comes before any instance is built, file written or line printed."""
    monkeypatch.delenv("COOPCACHE_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)

    def no_instance(*args, **kwargs):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "build_instance", no_instance)
    monkeypatch.setattr(verification, "build_instance", no_instance)
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert str(exc.value) == message
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, call", [
    ("records", lambda inst, n: generate_sft(inst, n)),
    ("sample_slots", lambda inst, n: verify_pbrs(inst, n, RewardConfig())),
    ("cases", lambda inst, n: verification.fuzz_parser(
        verification.first_decision_observation(inst), n)),
], ids=["generate_sft", "verify_pbrs", "fuzz_parser"])
def test_the_api_refuses_a_negative_count_by_name(instance, name, call):
    with pytest.raises(StructuralError) as exc:
        call(instance, -3)
    assert str(exc.value) == f"{name} must be >= 0, not -3"
    call(instance, 0)  # 0 is a count


def test_warm_start_refuses_a_short_trace_in_the_preflight_words():
    config = small_config()  # 12 warm-up slots of a 46-slot trace
    with pytest.raises(StructuralError) as preflight:
        run(RunConfig(instance_config=config, seeds=(1,), reward=RewardConfig(horizon=40)))
    with pytest.raises(StructuralError) as warm:
        warm_start(build_instance(config, 1), 40)
    assert str(warm.value) == str(preflight.value)
    assert str(warm.value) == "warm-up 12 + oracle horizon 40 exceeds the 46-slot trace"


def _truncate_trace(payload):
    payload["trace"] = payload["trace"][:30]


def _request_file_5000(payload):
    payload["trace"][5][0][1] = 5000


def _fractional_groups(payload):
    payload["config"]["groups"] = 2.9


def _fractional_window(payload):
    payload["config"]["windows"] = [5.5, 10]


def _repeated_window(payload):
    payload["config"]["windows"] = [10, 10]


def _fractional_cache_size(payload):
    payload["config"]["cache_size"] = [3.9, 3]


def _fractional_seed(payload):
    payload["seed"] = 1.5


def _fractional_user_group(payload):
    payload["user_group"][0] = 1.0


def _fractional_rank_to_file(payload):
    payload["rank_to_file"][0][0] = 2.5


def _fractional_trace_file(payload):
    payload["trace"][5][0][1] = 2.7


def _bool_alpha(payload):
    payload["config"]["alpha"] = True


def _bool_radius(payload):
    payload["config"]["radius"] = False


def _text_alpha_nan(payload):
    payload["config"]["alpha"] = "nan"


def _infinite_radius(payload):
    payload["config"]["radius"] = float("inf")


def _bool_user_coordinate(payload):
    payload["user_xy"][0][0] = True


def _text_user_coordinate(payload):
    payload["user_xy"][2][1] = "0.35"


def _nan_user_coordinate(payload):
    payload["user_xy"][1][0] = float("nan")


def _user_coordinate_triple(payload):
    payload["user_xy"][0].append(0.5)


def _text_bs_coordinate(payload):
    payload["config"]["bs_xy"][0][0] = "0.35"


def _infinite_bs_coordinate(payload):
    payload["config"]["bs_xy"][1][1] = float("-inf")


def _three_user_groups(payload):
    payload["user_group"] = payload["user_group"][:3]


def _user_group_past_groups(payload):
    payload["user_group"][4] = 2


def _one_repeating_ranking(payload):
    payload["rank_to_file"] = [[1, 1, 1]]


def _ranking_repeats_a_file(payload):
    payload["rank_to_file"][1][0] = payload["rank_to_file"][1][1]


def _extra_user_point(payload):
    payload["user_xy"].append([0.5, 0.5])


def _uncovered_user(payload):
    payload["user_xy"][3] = [0.99, 0.01]


def _no_shared_user(payload):
    payload["user_xy"] = [[0.1, 0.5]] * len(payload["user_xy"])


@pytest.mark.parametrize("corrupt, message", [
    (_truncate_trace, "trace holds 30 slots"),
    (_request_file_5000, r"file ids outside 1\.\.12: \[5000\]"),
    (_fractional_groups, r"instance config key 'groups': expected an integer, not 2\.9"),
    (_fractional_window, r"instance config key 'windows': expected an integer, not 5\.5"),
    (_repeated_window, r"windows repeat: \[10, 10\]"),
    (_fractional_cache_size, r"instance config key 'cache_size': expected an integer, not 3\.9"),
    (_fractional_seed, r"instance key 'seed': expected an integer, not 1\.5"),
    (_fractional_user_group, r"instance key 'user_group': expected an integer, not 1\.0"),
    (_fractional_rank_to_file, r"instance key 'rank_to_file': expected an integer, not 2\.5"),
    (_fractional_trace_file, r"instance key 'trace': expected an integer, not 2\.7"),
    (_bool_alpha, "instance config key 'alpha': expected a number, not True"),
    (_bool_radius, "instance config key 'radius': expected a number, not False"),
    (_text_alpha_nan, "alpha must be finite and > 0"),
    (_infinite_radius, "radius must be finite"),
    (_bool_user_coordinate,
     r"instance key 'user_xy': expected an \[x, y\] pair of finite numbers, not \[True, "),
    (_text_user_coordinate, r"instance key 'user_xy': expected .* not \[[0-9.]+, '0\.35'\]"),
    (_nan_user_coordinate, r"instance key 'user_xy': expected .* not \[nan, "),
    (_user_coordinate_triple, r"instance key 'user_xy': expected .* not \[[0-9.]+, [0-9.]+, 0\.5"),
    (_text_bs_coordinate, r"instance config key 'bs_xy': expected .* not \['0\.35', 0\.5\]"),
    (_infinite_bs_coordinate, r"instance config key 'bs_xy': expected .* not \[0\.65, -inf\]"),
    (_three_user_groups, r"^\S+: instance key 'user_group': expected 6 groups in 0\.\.1$"),
    (_user_group_past_groups, r"^\S+: instance key 'user_group': expected 6 groups in 0\.\.1$"),
    (_one_repeating_ranking,
     r"^\S+: instance key 'rank_to_file': expected 2 permutations of 1\.\.12$"),
    (_ranking_repeats_a_file,
     r"^\S+: instance key 'rank_to_file': expected 2 permutations of 1\.\.12$"),
    (_extra_user_point, r"^\S+: instance key 'user_xy': expected 6 points, not 7$"),
    (_uncovered_user, r"^\S+: instance key 'user_xy': no BS covers user 3$"),
    (_no_shared_user, r"^\S+: instance key 'user_xy': no user is covered by two BSs$"),
])
def test_corrupt_instance_file_fails_on_load(tmp_path, small_instance, corrupt, message):
    payload = json.loads(small_instance.to_canonical_json())
    corrupt(payload)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StructuralError, match=message):
        load_instance(path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match=message):
        cli_main(["run", "--instance", str(path), "--seeds", "1", "--out", str(out)])
    assert not out.exists()


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
    report = rollout(instance, make_policy("lru"), 15)
    assert EvalReport.from_dict(report.to_dict()) == rollout(instance, make_policy("lru"), 15)
    assert report.instance_sha256 == hashlib.sha256(to_json(instance).encode()).hexdigest()


def test_a_report_pickles_and_copies_without_its_instance():
    """A fresh report holds ``Instance.sha256`` until its digest is read; a
    pickle or a copy holds the digest instead, not the instance behind it."""
    instance = build_instance(InstanceConfig(bs_count=5, users=40, library=1100), 1)
    report = rollout(instance, make_policy("lru"))
    data = pickle.dumps(report)
    assert len(data) < 10_000
    for twin in (pickle.loads(data), copy.copy(report)):
        assert twin.__dict__["instance_sha256"] == instance.sha256()
        assert twin == report and twin.latency_s == report.latency_s


@pytest.mark.parametrize("name", ["pbrs_slots", "fuzz_cases"])
def test_run_verification_refuses_a_negative_count_before_any_suite(monkeypatch, name):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite started")

    for suite in ("build_instance", "fuzz_parser", "verify_pbrs"):
        monkeypatch.setattr(verification, suite, no_suite)
    with pytest.raises(StructuralError) as exc:
        verification.run_verification(seeds=(1,), **{name: -1})
    assert str(exc.value) == f"{name} must be >= 0, not -1"
