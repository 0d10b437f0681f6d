"""Expert demonstration export and dataset auditing.

Exports are line-delimited JSON with canonical key order, one record per
line, so fine-tuning frameworks can stream them. Records are emitted only
at slots where every BS cache is full; regeneration from the same instance
and parameters is byte-identical. An export holds each record's cache rows,
not its prompt: the prompts are rendered as the files are written, once per
record however many files are written.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from itertools import chain, islice

from .core import (
    EMPTY_SLOT,
    EXPERT_GAMMA,
    EXPERT_HORIZON,
    CacheState,
    StructuralError,
    atomic_write,
    canonical_json,
    check_count,
    check_out_file,
)
from .episode import expert_walk
from .interface import SlotObservation, decode_prompt, encode, parse, serialize
from .traffic import FrequencyTracker, Instance, slot_json

TRUNCATION_MARKER = "truncated"


class DatasetFormatError(ValueError):
    """A dataset file violates the record schema."""


@dataclass(frozen=True, slots=True)
class ExpertRecord:
    """One expert-walk slot: the cache rows its prompt is rendered from and
    the expert's completion.

    ``rows`` are the walk's ``CacheState.slots`` at ``slot``, already checked;
    a row the expert left alone is the tuple of the state before, so the rows
    cost far less than the prompt. The SFT file pairs the prompt with the
    completion; the GRPO file keeps the completion as the expert witness plus
    a fingerprint of the peek.
    """

    slot: int
    rows: tuple
    completion: str


@dataclass(frozen=True)
class SftExport:
    """The records of one expert walk over ``instance`` with look-ahead
    ``horizon``, slots ascending, and the record count asked for."""

    instance: Instance = field(repr=False)
    horizon: int
    records: tuple
    requested: int

    @property
    def truncated(self) -> bool:
        return len(self.records) < self.requested

    def prompts(self):
        """Each record's prompt, in record order, as :func:`encode` renders the
        walk's observation at its slot. The pass's tracker views share one
        cell of running counts; the records' slots ascend, so the counts move
        forward from slot 0 and count each trace slot once per pass. The cell
        is freed when the pass ends."""
        windows, trace = self.instance.config.windows, self.instance.trace
        cell = [None]
        for rec in self.records:
            sets = tuple(frozenset(row).difference((EMPTY_SLOT,)) for row in rec.rows)
            tracker = FrequencyTracker(windows, trace, rec.slot, cell)
            yield encode(SlotObservation(rec.slot, CacheState._trusted(rec.rows, sets),
                                         trace[rec.slot - 1], tracker))


def generate_sft(instance: Instance, records: int, horizon: int = EXPERT_HORIZON,
                 gamma: float = EXPERT_GAMMA) -> SftExport:
    """Collect expert records at full-cache slots; one export feeds both files.

    Stops after ``records`` records, or earlier with ``truncated`` set when
    the trace cannot supply the look-ahead window anymore. A ``records``
    that is not a count raises. The instance is hashed and the prompts are rendered
    only when a file is written.
    """
    check_count("records", records)
    walk = islice(expert_walk(instance, horizon, gamma), records)
    return SftExport(instance, horizon, tuple(
        ExpertRecord(obs.slot, obs.cache.slots, serialize(expert)) for obs, expert, _peek in walk
    ), records)


def generate_grpo_states(instance: Instance, records: int, horizon: int = EXPERT_HORIZON,
                         gamma: float = EXPERT_GAMMA) -> SftExport:
    """The reward-stage states: the same export as :func:`generate_sft`."""
    return generate_sft(instance, records, horizon, gamma)


def _write_jsonl(export: SftExport, files) -> None:
    """Per ``(path, grpo)`` one canonical JSON object per record, then the
    truncation marker if any. Every file is opened before any is written,
    so no path changes unless every path can be written; the records are
    walked once, each row going to every file."""
    with ExitStack() as stack:
        handles = [stack.enter_context(atomic_write(path)) for path, _grpo in files]
        for rows in _rows(export, [grpo for _path, grpo in files]):
            for fh, row in zip(handles, rows):
                fh.write(canonical_json(row) + "\n")
        if export.truncated:
            marker = canonical_json({
                "marker": TRUNCATION_MARKER,
                "emitted": len(export.records),
                "requested": export.requested,
            })
            for fh in handles:
                fh.write(marker + "\n")


def _rows(export: SftExport, kinds):
    """Per record, one row per flag of ``kinds``, the prompt rendered once for
    all: an SFT row for False, a GRPO row for True, with ``expert`` for
    ``completion`` and a ``peek_sha256``, the digest of the canonical JSON of
    the ``horizon`` slots after the record's."""
    if not export.records:
        return
    instance, horizon = export.instance, export.horizon
    seed, sha = instance.seed, instance.sha256()
    peeks = any(kinds)
    # peeks overlap: format each slot once, keeping only the current record's window
    window: deque[str] = deque(maxlen=horizon)
    formatted = 0  # trace slots below this index are formatted already
    for rec, prompt in zip(export.records, export.prompts()):
        meta = {"seed": seed, "slot": rec.slot, "instance_sha256": sha}
        if peeks:
            end = rec.slot + horizon
            window.extend(map(slot_json, instance.trace[max(formatted, rec.slot) : end]))
            formatted = end
            peek = "[" + ",".join(window) + "]"
            grpo_meta = {**meta, "peek_sha256": hashlib.sha256(peek.encode("utf-8")).hexdigest()}
        yield [{"prompt": prompt, "expert": rec.completion, "meta": grpo_meta} if grpo
               else {"prompt": prompt, "completion": rec.completion, "meta": meta}
               for grpo in kinds]


def write_sft_jsonl(export: SftExport, path) -> None:
    _write_jsonl(export, [(path, False)])


def write_grpo_jsonl(export: SftExport, path) -> None:
    _write_jsonl(export, [(path, True)])


def check_export_paths(sft_path, grpo_path=None) -> None:
    """Refuse, naming it, an export path that cannot be written, or a GRPO
    path naming the SFT file; nothing is made."""
    for path in (sft_path, grpo_path):
        if path is not None:
            check_out_file(path)
    if grpo_path is not None and os.path.realpath(grpo_path) == os.path.realpath(sft_path):
        raise StructuralError(f"{grpo_path}: the GRPO file cannot be the SFT file")


def write_export(export: SftExport, sft_path, grpo_path=None) -> None:
    """The SFT file and, given ``grpo_path``, the GRPO file: both or neither."""
    check_export_paths(sft_path, grpo_path)
    files = [(sft_path, False)]
    if grpo_path is not None:
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
    mix. Schema violations and bytes that are not UTF-8 raise
    DatasetFormatError naming the record.
    """
    invalid: list[int] = []
    gate: list[int] = []
    per_bs: list[dict] = []
    records = 0
    marker = None  # the truncation marker's record index; it must be the last line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        # one physical line at a time, split as ``fh.read().splitlines()`` would split it
        for i, line in enumerate(chain.from_iterable(map(str.splitlines, fh))):
            if marker is not None:
                raise DatasetFormatError(f"record {marker}: marker before end of file")
            if not line.isascii():  # undecodable bytes arrive escaped: name their record
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DatasetFormatError(f"record {i}: not UTF-8: {exc}") from exc
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"record {i}: not JSON: {exc}") from exc
            if not isinstance(payload, dict):
                raise DatasetFormatError(f"record {i}: expected an object")
            if payload.get("marker") == TRUNCATION_MARKER:
                marker = i
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
    return DatasetAudit(records, tuple(invalid), tuple(gate), tuple(per_bs), marker is not None)
