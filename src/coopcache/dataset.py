"""Expert demonstration export and dataset auditing.

Exports are line-delimited JSON with canonical key order, one record per
line, so fine-tuning frameworks can stream them. Records are emitted only
at slots where every BS cache is full; regeneration from the same instance
and parameters is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from itertools import islice

from .core import (
    EMPTY_SLOT,
    EXPERT_GAMMA,
    EXPERT_HORIZON,
    StructuralError,
    atomic_write,
    canonical_json,
    nonnegative,
)
from .episode import expert_walk
from .interface import decode_prompt, encode, parse, serialize
from .traffic import Instance, slot_json, slots_json

TRUNCATION_MARKER = "truncated"


class DatasetFormatError(ValueError):
    """A dataset file violates the record schema."""


@dataclass(frozen=True)
class ExpertRecord:
    """One expert-walk slot: the prompt, the expert's completion, provenance.

    The SFT file pairs the prompt with the completion; the GRPO file keeps
    the completion as the expert witness plus a fingerprint of the peek.
    """

    prompt: str
    completion: str
    seed: int
    slot: int
    instance_sha256: str
    peek: tuple = field(repr=False)

    @property
    def peek_sha256(self) -> str:
        """Hashed when read, so an export that writes no GRPO file hashes nothing."""
        return _peek_sha256(self.peek)


def _peek_sha256(peek, slot_text=slot_json) -> str:
    """SHA-256 of the UTF-8 canonical JSON ``[[[u,f],...],...]`` of the peek slots."""
    return hashlib.sha256(slots_json(peek, slot_text).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SftExport:
    records: tuple
    requested: int

    @property
    def truncated(self) -> bool:
        return len(self.records) < self.requested


def generate_sft(instance: Instance, records: int, horizon: int = EXPERT_HORIZON,
                 gamma: float = EXPERT_GAMMA) -> SftExport:
    """Collect expert records at full-cache slots; one export feeds both files.

    Stops after ``records`` records, or earlier with ``truncated`` set when
    the trace cannot supply the look-ahead window anymore. A negative
    ``records`` raises.
    """
    nonnegative("records", records)
    sha = instance.sha256()
    walk = islice(expert_walk(instance, horizon, gamma), records)
    return SftExport(tuple(
        ExpertRecord(encode(obs), serialize(expert), instance.seed, obs.slot, sha, peek)
        for obs, expert, peek in walk
    ), records)


def generate_grpo_states(instance: Instance, records: int, horizon: int = EXPERT_HORIZON,
                         gamma: float = EXPERT_GAMMA) -> SftExport:
    """The reward-stage states: the same export as :func:`generate_sft`."""
    return generate_sft(instance, records, horizon, gamma)


def _write_jsonl(export: SftExport, files) -> None:
    """Per ``(path, grpo)`` one canonical JSON object per record, then the
    truncation marker if any. Every file is opened before any is written,
    so no path changes unless every path can be written."""
    with ExitStack() as stack:
        handles = [(stack.enter_context(atomic_write(path)), grpo) for path, grpo in files]
        for fh, grpo in handles:
            for row in _rows(export, grpo):
                fh.write(canonical_json(row) + "\n")
            if export.truncated:
                marker = {
                    "marker": TRUNCATION_MARKER,
                    "emitted": len(export.records),
                    "requested": export.requested,
                }
                fh.write(canonical_json(marker) + "\n")


def _rows(export: SftExport, grpo: bool):
    """SFT rows, or GRPO rows: ``expert`` for ``completion`` and a ``peek_sha256``."""
    if grpo:  # peeks overlap: format each distinct slot once per call, by identity
        slots = {id(slot): slot for rec in export.records for slot in rec.peek}
        texts = {key: slot_json(slot) for key, slot in slots.items()}
    for rec in export.records:
        meta = {"seed": rec.seed, "slot": rec.slot, "instance_sha256": rec.instance_sha256}
        if grpo:
            meta["peek_sha256"] = _peek_sha256(rec.peek, lambda slot: texts[id(slot)])
            yield {"prompt": rec.prompt, "expert": rec.completion, "meta": meta}
        else:
            yield {"prompt": rec.prompt, "completion": rec.completion, "meta": meta}


def write_sft_jsonl(export: SftExport, path) -> None:
    _write_jsonl(export, [(path, False)])


def write_grpo_jsonl(export: SftExport, path) -> None:
    _write_jsonl(export, [(path, True)])


def write_export(export: SftExport, sft_path, grpo_path=None) -> None:
    """The SFT file and, given ``grpo_path``, the GRPO file: both or neither."""
    files = [(sft_path, False)]
    if grpo_path is not None:
        if os.path.realpath(grpo_path) == os.path.realpath(sft_path):
            raise StructuralError(f"{grpo_path}: the GRPO file cannot be the SFT file")
        files.append((grpo_path, True))
    _write_jsonl(export, files)


@dataclass(frozen=True)
class DatasetAudit:
    """Re-parse results for one demonstration file."""

    records: int
    invalid_indices: tuple[int, ...]
    gate_violations: tuple[int, ...]
    per_bs: tuple[dict, ...]
    truncated: bool

    @property
    def noop_fraction(self) -> float:
        """The no-op share of the decisions of every valid completion, 0.0 for none."""
        noops = sum(tally["noop"] for tally in self.per_bs)
        decisions = noops + sum(tally["swap"] for tally in self.per_bs)
        return noops / decisions if decisions else 0.0

    @property
    def ok(self) -> bool:
        return not self.invalid_indices and not self.gate_violations

    def to_dict(self) -> dict:
        return {**asdict(self), "noop_fraction": self.noop_fraction, "ok": self.ok}


def audit_dataset(path) -> DatasetAudit:
    """Re-parse every completion against its own prompt's observation.

    Checks grammar plus feasibility record by record, flags records whose
    underlying cache had an empty slot, and tallies the per-BS decision
    mix. Schema violations raise DatasetFormatError naming the record.
    """
    invalid: list[int] = []
    gate: list[int] = []
    per_bs: list[dict] = []
    records = 0
    truncated = False
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"record {i}: not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise DatasetFormatError(f"record {i}: expected an object")
        if payload.get("marker") == TRUNCATION_MARKER:
            if i != len(lines) - 1:
                raise DatasetFormatError(f"record {i}: marker before end of file")
            truncated = True
            continue
        completion = payload.get("completion", payload.get("expert"))
        if not isinstance(payload.get("prompt"), str) or not isinstance(completion, str):
            raise DatasetFormatError(f"record {i}: prompt/completion must be strings")
        try:
            obs = decode_prompt(payload["prompt"])
        except ValueError as exc:
            raise DatasetFormatError(f"record {i}: bad prompt: {exc}") from exc
        records += 1
        while len(per_bs) < obs.bs_count:
            per_bs.append({"noop": 0, "swap": 0})
        if any(EMPTY_SLOT in row for row in obs.cache.slots):
            gate.append(i)
        action = parse(completion, obs)
        if not action.is_valid:
            invalid.append(i)
            continue
        for b, act in enumerate(action.actions):
            per_bs[b]["noop" if act.is_noop else "swap"] += 1
    return DatasetAudit(records, tuple(invalid), tuple(gate), tuple(per_bs), truncated)
