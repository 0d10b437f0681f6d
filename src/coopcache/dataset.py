"""Expert demonstration export and dataset auditing.

Exports are line-delimited JSON with canonical key order, one record per
line, so fine-tuning frameworks can stream them. Records are emitted only
at slots where every BS cache is full; regeneration from the same instance
and parameters is byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import islice

from .core import EMPTY_SLOT, canonical_json
from .episode import expert_walk
from .interface import decode_prompt, encode, parse, serialize
from .traffic import Instance

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
        payload = canonical_json([[list(p) for p in slot.pairs] for slot in self.peek])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SftExport:
    records: tuple
    requested: int

    @property
    def truncated(self) -> bool:
        return len(self.records) < self.requested


def generate_sft(instance: Instance, records: int, horizon: int = 10,
                 gamma: float = 0.9) -> SftExport:
    """Collect expert records at full-cache slots; one export feeds both files.

    Stops after ``records`` records, or earlier with ``truncated`` set when
    the trace cannot supply the look-ahead window anymore.
    """
    sha = instance.sha256()
    walk = islice(expert_walk(instance, horizon, gamma), max(records, 0))
    return SftExport(tuple(
        ExpertRecord(encode(obs), serialize(expert), instance.seed, obs.slot, sha, peek)
        for obs, expert, peek in walk
    ), records)


def generate_grpo_states(instance: Instance, records: int, horizon: int = 10,
                         gamma: float = 0.9) -> SftExport:
    """The reward-stage states: the same export as :func:`generate_sft`."""
    return generate_sft(instance, records, horizon, gamma)


def _write_jsonl(export: SftExport, path, row) -> None:
    """One canonical JSON object per record, then the truncation marker if any."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for rec in export.records:
            fh.write(canonical_json(row(rec)) + "\n")
        if export.truncated:
            marker = {
                "marker": TRUNCATION_MARKER,
                "emitted": len(export.records),
                "requested": export.requested,
            }
            fh.write(canonical_json(marker) + "\n")


def write_sft_jsonl(export: SftExport, path) -> None:
    _write_jsonl(export, path, lambda rec: {
        "prompt": rec.prompt,
        "completion": rec.completion,
        "meta": {
            "seed": rec.seed,
            "slot": rec.slot,
            "instance_sha256": rec.instance_sha256,
        },
    })


def write_grpo_jsonl(export: SftExport, path) -> None:
    _write_jsonl(export, path, lambda rec: {
        "prompt": rec.prompt,
        "expert": rec.completion,
        "meta": {
            "seed": rec.seed,
            "slot": rec.slot,
            "instance_sha256": rec.instance_sha256,
            "peek_sha256": rec.peek_sha256,
        },
    })


@dataclass(frozen=True)
class DatasetAudit:
    """Re-parse results for one demonstration file."""

    records: int
    invalid_indices: tuple[int, ...]
    gate_violations: tuple[int, ...]
    noop_fraction: float
    per_bs: tuple[dict, ...]
    truncated: bool

    @property
    def ok(self) -> bool:
        return not self.invalid_indices and not self.gate_violations

    def to_dict(self) -> dict:
        return {
            "records": self.records,
            "invalid_indices": list(self.invalid_indices),
            "gate_violations": list(self.gate_violations),
            "noop_fraction": self.noop_fraction,
            "per_bs": [dict(d) for d in self.per_bs],
            "truncated": self.truncated,
            "ok": self.ok,
        }


def audit_dataset(path) -> DatasetAudit:
    """Re-parse every completion against its own prompt's observation.

    Checks grammar plus feasibility record by record, flags records whose
    underlying cache had an empty slot, and tallies the per-BS decision
    mix. Schema violations raise DatasetFormatError naming the record.
    """
    invalid: list[int] = []
    gate: list[int] = []
    per_bs: list[dict] = []
    noop_lines = 0
    total_lines = 0
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
            total_lines += 1
            if act.is_noop:
                noop_lines += 1
                per_bs[b]["noop"] += 1
            else:
                per_bs[b]["swap"] += 1
    fraction = noop_lines / total_lines if total_lines else 0.0
    return DatasetAudit(
        records, tuple(invalid), tuple(gate), fraction, tuple(per_bs), truncated
    )
