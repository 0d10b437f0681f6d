"""Demonstration export and audit tests."""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

from coopcache import dataset
from coopcache.core import StructuralError, canonical_json
from coopcache.dataset import (
    DatasetFormatError,
    audit_dataset,
    generate_grpo_states,
    generate_sft,
    write_export,
    write_grpo_jsonl,
    write_sft_jsonl,
)
from coopcache.episode import expert_walk
from coopcache.interface import decode_prompt, encode, parse
from coopcache.traffic import (
    Instance,
    InstanceConfig,
    build_instance,
    load_instance,
    save_instance,
    slots_json,
)

from conftest import small_config


@pytest.fixture(scope="module")
def instance():
    return build_instance(small_config(), 1)


def test_generate_zero_records(instance):
    export = generate_sft(instance, 0, horizon=3)
    assert export.records == ()
    assert not export.truncated


def _metas(path) -> list[dict]:
    return [json.loads(line)["meta"] for line in Path(path).read_text().splitlines()]


def test_generate_records_all_valid(tmp_path, instance):
    export = generate_sft(instance, 12, horizon=3)
    assert len(export.records) == 12
    assert not export.truncated
    assert export.instance is instance and export.horizon == 3
    for rec, prompt in zip(export.records, export.prompts(), strict=True):
        obs = decode_prompt(prompt)
        action = parse(rec.completion, obs)
        assert action.is_valid
        assert all(obs.cache.is_full(b) for b in range(1, obs.bs_count + 1))
    write_sft_jsonl(export, tmp_path / "sft.jsonl")
    assert _metas(tmp_path / "sft.jsonl") == [
        {"seed": instance.seed, "slot": rec.slot, "instance_sha256": instance.sha256()}
        for rec in export.records]


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


def test_audit_file_payload_is_pinned(tmp_path):
    """An audit with a gate violation (record 1, the golden prompt, whose BS 2
    has an empty slot), an invalid record (3) and a truncation marker writes
    exactly this JSON payload."""
    export = generate_sft(build_instance(small_config(rollout_slots=6), 1), 8, horizon=3)
    assert export.truncated
    path = tmp_path / "sft.jsonl"
    write_sft_jsonl(export, path)
    lines = path.read_text().splitlines()
    golden = (Path(__file__).parent / "data" / "golden_prompt.txt").read_text()
    lines.insert(1, canonical_json({"prompt": golden, "completion": "BS 1: NOOP\nBS 2: NOOP"}))
    record = json.loads(lines[3])
    record["completion"] = "BS 1: NOOP"
    lines[3] = canonical_json(record)
    path.write_text("\n".join(lines) + "\n")
    assert json.loads(canonical_json(audit_dataset(path).to_dict())) == {
        "records": 8,
        "invalid_indices": [3],
        "gate_violations": [1],
        "noop_fraction": 0.6428571428571429,
        "per_bs": [{"noop": 4, "swap": 3}, {"noop": 5, "swap": 2}],
        "truncated": True,
        "ok": False,
    }


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
    for rec, prompt in zip(export.records, export.prompts(), strict=True):
        obs = decode_prompt(prompt)
        assert parse(rec.completion, obs).is_valid
    path = tmp_path / "grpo.jsonl"
    write_grpo_jsonl(export, path)
    for meta in _metas(path):
        assert len(meta["peek_sha256"]) == 64 and int(meta["peek_sha256"], 16) >= 0
    audit = audit_dataset(path)  # expert completions audit like completions
    assert audit.ok and audit.records == 9


def test_sft_and_grpo_share_prompts(instance):
    sft = generate_sft(instance, 5, horizon=3)
    grpo = generate_grpo_states(instance, 5, horizon=3)
    assert list(sft.prompts()) == list(grpo.prompts())
    assert [r.completion for r in sft.records] == [
        r.completion for r in grpo.records
    ]


@pytest.mark.parametrize("config, records, horizon", [
    (small_config(), 12, 3),
    (small_config(rollout_slots=6), 8, 3),
    (InstanceConfig(bs_count=5, users=40, rollout_slots=60), 40, 10),
    (InstanceConfig(bs_count=5, users=40, rollout_slots=30), 100, 10),
], ids=["2bs", "2bs-truncated", "5bs", "5bs-truncated"])
def test_the_prompts_are_the_walks_observations_rendered(config, records, horizon):
    """Rendered from the kept rows, each prompt is ``encode`` of the walk's
    observation at the record's slot, byte for byte."""
    instance = build_instance(config, 3)
    export = generate_sft(instance, records, horizon)
    walked = [encode(obs) for obs, _expert, _peek in
              islice(expert_walk(instance, horizon, dataset.EXPERT_GAMMA), records)]
    assert export.truncated == (len(walked) < records) and walked
    assert list(export.prompts()) == walked


def test_a_write_of_both_files_renders_each_prompt_once(tmp_path, monkeypatch):
    rendered = []
    monkeypatch.setattr(dataset, "encode", lambda obs: rendered.append(obs.slot) or encode(obs))
    export = generate_sft(build_instance(small_config(), 1), 12, horizon=3)
    assert rendered == []
    write_export(export, tmp_path / "sft.jsonl", tmp_path / "grpo.jsonl")
    assert rendered == [rec.slot for rec in export.records]


def test_an_export_keeps_far_less_per_record_than_its_prompt():
    """On the 5-BS config a record keeps its cache rows and completion, under
    a third of the prompt it is rendered to; a kept prompt would be more."""
    instance = build_instance(InstanceConfig(bs_count=5, users=40, rollout_slots=220), 4)
    generate_sft(instance, 200)  # fill the trace slots' lazy caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        export = generate_sft(instance, 200)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(export.records) == 200
    prompt = sum(map(len, export.prompts())) / len(export.records)
    assert kept / len(export.records) < prompt / 3, (kept, prompt)


def _digest(peek) -> str:
    return hashlib.sha256(slots_json(peek).encode("utf-8")).hexdigest()


def test_the_writer_digests_each_peek_window_of_the_trace(tmp_path):
    """The GRPO file's ``peek_sha256`` is the SHA-256 of the canonical JSON of
    ``trace[slot:slot+H]``, for the golden 5-BS and truncated 2-BS exports and
    for an export of a loaded copy of an instance, whose slots are other objects."""
    five = build_instance(InstanceConfig(bs_count=5, users=40), 2)
    save_instance(five, tmp_path / "five.json")
    exports = {
        "5bs": generate_sft(five, 60),
        "truncated": generate_sft(build_instance(InstanceConfig(rollout_slots=30), 3), 100, 4),
        "loaded": generate_sft(load_instance(tmp_path / "five.json"), 60),
    }
    assert exports["truncated"].truncated
    digests = {}
    for name, export in exports.items():
        path = tmp_path / f"{name}.jsonl"
        write_grpo_jsonl(export, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        metas = [row["meta"] for row in rows if "meta" in row]
        assert len(metas) == len(export.records) and len(rows) == len(metas) + export.truncated
        trace, horizon = export.instance.trace, export.horizon
        for rec, meta in zip(export.records, metas):
            assert meta["slot"] == rec.slot
            assert meta["peek_sha256"] == _digest(trace[rec.slot : rec.slot + horizon])
        digests[name] = [meta["peek_sha256"] for meta in metas]
    assert digests["loaded"] == digests["5bs"]


def test_a_write_formats_each_peek_slot_once_and_without_grpo_none(tmp_path, monkeypatch):
    calls = []
    slot_json = dataset.slot_json
    monkeypatch.setattr(dataset, "slot_json", lambda slot: calls.append(slot) or slot_json(slot))
    export = generate_sft(build_instance(small_config(), 1), 12, horizon=3)
    write_export(export, tmp_path / "sft.jsonl")
    write_sft_jsonl(export, tmp_path / "sft.jsonl")
    assert calls == []
    write_export(export, tmp_path / "sft.jsonl", tmp_path / "grpo.jsonl")
    trace = export.instance.trace
    distinct = {t for rec in export.records for t in range(rec.slot, rec.slot + 3)}
    assert len(calls) == len(distinct) < 3 * len(export.records)
    assert [id(slot) for slot in calls] == [id(trace[t]) for t in sorted(distinct)]


def test_generate_sft_hashes_no_instance(tmp_path, monkeypatch):
    """The digest is read when a file is written, not when the export is built."""
    hashed = []
    sha256 = Instance.sha256
    monkeypatch.setattr(Instance, "sha256", lambda self: hashed.append(self) or sha256(self))
    instance = build_instance(small_config(), 2)
    export = generate_sft(instance, 12, horizon=3)
    generate_grpo_states(instance, 4, horizon=3)
    assert hashed == []
    write_export(export, tmp_path / "sft.jsonl", tmp_path / "grpo.jsonl")
    assert hashed and all(inst is instance for inst in hashed)


def test_write_export_refuses_an_empty_grpo_path(tmp_path, monkeypatch, instance):
    """An empty GRPO path is a file that cannot be written, not a file left out."""
    monkeypatch.chdir(tmp_path)
    export = generate_sft(instance, 2, horizon=3)
    with pytest.raises(StructuralError, match="^'': cannot write: No such file or directory$"):
        write_export(export, "sft.jsonl", "")
    assert list(tmp_path.iterdir()) == []


def _lines(instance) -> list[str]:
    """Six SFT lines, the fourth with a completion that parses invalid, then the marker."""
    lines = [canonical_json(row) for row, in dataset._rows(generate_sft(instance, 6, horizon=3),
                                                           [False])]
    record = json.loads(lines[3])
    record["completion"] = "BS 1: NOOP"
    lines[3] = canonical_json(record)
    return [*lines, canonical_json({"marker": dataset.TRUNCATION_MARKER})]


@pytest.mark.parametrize("separator", ["\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"],
                         ids=["crlf", "cr", "vt", "ff", "nel", "ls"])
def test_each_line_break_of_str_splitlines_ends_a_record(tmp_path, instance, separator):
    """The auditor splits lines as ``str.splitlines`` does: CRLF, a lone CR and
    every other break audit as LF, with the same record indices."""
    lines = _lines(instance)
    lf, other = tmp_path / "lf.jsonl", tmp_path / "other.jsonl"
    lf.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    other.write_bytes(separator.join(lines).encode("utf-8"))
    audit = audit_dataset(lf)
    assert audit.invalid_indices == (3,) and audit.truncated
    assert audit_dataset(other) == audit


@pytest.mark.parametrize("text, message", [
    ("{0}\n\n{1}\n", "record 1: not JSON"),  # a blank line takes a record index
    ("{0}\x0c\n{1}\n", "record 1: not JSON"),  # a form feed then LF: a blank line between
    ("{0}\n{m}\n{1}\n", "record 1: marker before end of file"),
    ("{0}\n{m}\n\n", "record 1: marker before end of file"),
    ("{0}\n{m}\nnot json\n", "record 1: marker before end of file"),
    ("{0}\n{m}\n{m}\n", "record 1: marker before end of file"),  # the first of two markers
], ids=["blank-line", "ff-lf", "marker-mid-file", "marker-then-blank", "marker-then-bad",
        "two-markers"])
def test_the_audit_names_the_record_a_line_rule_breaks(tmp_path, instance, text, message):
    lines = _lines(instance)
    path = tmp_path / "bad.jsonl"
    path.write_bytes(text.format(lines[0], lines[1], m=lines[-1]).encode("utf-8"))
    with pytest.raises(DatasetFormatError, match=f"^{message}"):
        audit_dataset(path)


@pytest.mark.parametrize("separator", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize("bad, shown", [(b"\xff", "0xff"), (b"\xc3(", "0xc3"),
                                        (b"\xed\xb3\xbf", "0xed")],
                         ids=["stray-byte", "cut-sequence", "encoded-surrogate"])
def test_the_audit_names_the_record_that_is_not_utf8(tmp_path, instance, separator, bad, shown):
    """Bytes that do not decode name their record, also when one physical
    line holds several records; the records before it were read."""
    lines = [line.encode("utf-8") for line in _lines(instance)]
    lines[2] = lines[2][:20] + bad + lines[2][20:]
    path = tmp_path / "bad.jsonl"
    path.write_bytes(separator.encode().join(lines))
    with pytest.raises(DatasetFormatError) as exc:
        audit_dataset(path)
    assert str(exc.value).startswith(
        f"record 2: not UTF-8: 'utf-8' codec can't decode byte {shown} in position 20")


def test_the_audit_holds_one_record_at_a_time(tmp_path, instance):
    """Auditing ten times the records leaves the traced memory peak about where it was."""
    lines = _lines(instance)[:3]
    peaks = []
    for copies in (40, 400):
        path = tmp_path / f"x{copies}.jsonl"
        path.write_text("\n".join(lines * copies) + "\n")
        audit_dataset(path)  # fill every cache first
        tracemalloc.start()
        try:
            assert audit_dataset(path).records == 3 * copies
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
