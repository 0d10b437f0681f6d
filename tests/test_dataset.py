"""Demonstration export and audit tests."""

from __future__ import annotations

import json

import pytest

from coopcache.dataset import (
    DatasetFormatError,
    audit_dataset,
    generate_grpo_states,
    generate_sft,
    write_grpo_jsonl,
    write_sft_jsonl,
)
from coopcache.interface import decode_prompt, parse
from coopcache.traffic import build_instance

from conftest import small_config


@pytest.fixture(scope="module")
def instance():
    return build_instance(small_config(), 1)


def test_generate_zero_records(instance):
    export = generate_sft(instance, 0, horizon=3)
    assert export.records == ()
    assert not export.truncated


def test_generate_records_all_valid(instance):
    export = generate_sft(instance, 12, horizon=3)
    assert len(export.records) == 12
    assert not export.truncated
    for rec in export.records:
        obs = decode_prompt(rec.prompt)
        action = parse(rec.completion, obs)
        assert action.is_valid
        assert all(obs.cache.is_full(b) for b in range(1, obs.bs_count + 1))
        assert rec.instance_sha256 == instance.sha256()


def test_generate_deterministic_files(tmp_path, instance):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_sft_jsonl(generate_sft(instance, 8, horizon=3), a)
    write_sft_jsonl(generate_sft(instance, 8, horizon=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_truncation_marker(tmp_path, instance):
    export = generate_sft(instance, 10_000, horizon=3)
    assert export.truncated
    path = tmp_path / "short.jsonl"
    write_sft_jsonl(export, path)
    last = path.read_text().splitlines()[-1]
    marker = json.loads(last)
    assert marker["marker"] == "truncated"
    assert marker["emitted"] == len(export.records)
    audit = audit_dataset(path)
    assert audit.truncated
    assert audit.records == len(export.records)


def test_audit_fresh_file_clean(tmp_path, instance):
    path = tmp_path / "sft.jsonl"
    write_sft_jsonl(generate_sft(instance, 10, horizon=3), path)
    audit = audit_dataset(path)
    assert audit.ok
    assert audit.records == 10
    assert audit.invalid_indices == ()
    assert audit.gate_violations == ()
    assert 0.0 <= audit.noop_fraction <= 1.0
    assert len(audit.per_bs) == instance.config.bs_count
    swaps = sum(d["swap"] for d in audit.per_bs)
    noops = sum(d["noop"] for d in audit.per_bs)
    assert swaps + noops == 10 * instance.config.bs_count


def test_audit_detects_corruption(tmp_path, instance):
    path = tmp_path / "sft.jsonl"
    write_sft_jsonl(generate_sft(instance, 6, horizon=3), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[3])
    record["completion"] = "BS 1: NOOP"  # wrong line count for two BSs
    lines[3] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    audit = audit_dataset(path)
    assert not audit.ok
    assert audit.invalid_indices == (3,)


def test_audit_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    audit = audit_dataset(path)
    assert audit.records == 0
    assert audit.ok
    assert audit.noop_fraction == 0.0


def test_audit_schema_violation_names_record(tmp_path, instance):
    path = tmp_path / "bad.jsonl"
    write_sft_jsonl(generate_sft(instance, 3, horizon=3), path)
    lines = path.read_text().splitlines()
    lines[1] = '{"prompt": 7, "completion": "x"}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="record 1"):
        audit_dataset(path)
    path.write_text("not json\n")
    with pytest.raises(DatasetFormatError, match="record 0"):
        audit_dataset(path)


def test_grpo_states_carry_expert_witness(tmp_path, instance):
    export = generate_grpo_states(instance, 9, horizon=3)
    assert len(export.records) == 9
    for rec in export.records:
        obs = decode_prompt(rec.prompt)
        assert parse(rec.completion, obs).is_valid
        assert len(rec.peek_sha256) == 64
    path = tmp_path / "grpo.jsonl"
    write_grpo_jsonl(export, path)
    audit = audit_dataset(path)  # expert completions audit like completions
    assert audit.ok and audit.records == 9


def test_sft_and_grpo_share_prompts(instance):
    sft = generate_sft(instance, 5, horizon=3)
    grpo = generate_grpo_states(instance, 5, horizon=3)
    assert [r.prompt for r in sft.records] == [r.prompt for r in grpo.records]
    assert [r.completion for r in sft.records] == [
        r.completion for r in grpo.records
    ]
