"""Prompt rendering and the strict text-to-action grammar.

The decision grammar (ASCII, case-sensitive, one line per BS, ascending):

    BS <b>: NOOP
    BS <b>: SWAP slot=<z> out=<f_out> in=<f_in>

Integers are plain decimals without sign or leading zeros, at most nine
digits. Leading/trailing whitespace around each line is tolerated; any
other non-empty text anywhere in a completion invalidates the whole
output. ``parse`` never raises on completion text: every deviation maps
to the invalid joint action with a machine-readable reason.
"""

from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    EMPTY_SLOT,
    NOOP,
    RULE_ADMISSIBILITY,
    RULE_CONSISTENCY,
    RULE_DUPLICATION,
    BsAction,
    CacheState,
    JointAction,
    RequestSlot,
    StructuralError,
    swap_fault,
)

if TYPE_CHECKING:  # traffic imports this module
    from .traffic import FrequencyTracker

REASON_SYNTAX = "syntax"
REASON_COUNT = "count"
REASON_ORDER = "order"

#: All reasons ``parse`` can attach to an invalid joint action.
PARSE_REASONS = (
    REASON_SYNTAX,
    REASON_COUNT,
    REASON_ORDER,
    RULE_ADMISSIBILITY,
    RULE_DUPLICATION,
    RULE_CONSISTENCY,
)

#: The answer to most malformed text, shared so a rejection builds nothing.
_SYNTAX_ERROR = JointAction.invalid(REASON_SYNTAX)

_INT = r"[1-9][0-9]{0,8}"
# One decision line; a NOOP leaves the slot, out and in groups None.
_LINE = re.compile(rf"BS ({_INT}): (?:NOOP|SWAP slot=({_INT}) out=({_INT}) in=({_INT}))")

INSTRUCTION_BLOCK = (
    "INSTRUCTIONS:\n"
    "Reply with exactly one decision line per BS, in ascending BS order, and no other text.\n"
    "Allowed line formats:\n"
    "BS <b>: NOOP\n"
    "BS <b>: SWAP slot=<z> out=<f_out> in=<f_in>\n"
    "Feasibility rules:\n"
    "1. The file named by in= must be requested at that BS in the current slot.\n"
    "2. The file named by in= must not already be cached at that BS.\n"
    "3. The file named by out= must be the file currently stored at slot z of that BS.\n"
)


class SlotObservation(NamedTuple):
    """Immutable snapshot handed to policies at one decision slot.

    ``tracker`` views the frozen trace up to and including this slot;
    :func:`encode` reads the FREQ rates from it. A tracker never changes
    what it views, so the snapshot stays fixed. A decoded prompt has no
    tracker. The snapshot is the tuple of its four fields, so building one
    per slot costs no dataclass ``__init__``.
    """

    slot: int
    cache: CacheState
    requests: RequestSlot
    tracker: FrequencyTracker | None

    @property
    def bs_count(self) -> int:
        return len(self.cache.slots)


@lru_cache(maxsize=None)
def _bs_ids(bs_count: int) -> tuple[str, ...]:
    """The decision-line BS ids "1".."B" as the grammar spells them."""
    return tuple(str(b) for b in range(1, bs_count + 1))


@lru_cache(maxsize=None)
def _rate_texts(w: int) -> tuple[str, ...]:
    """The FREQ text of k/w for k = 0..w. Asked for once a view has passed w
    slots, so no table is longer than the trace. The tables hold constants
    only, so every caller in the process may share them."""
    return tuple(f"{k / w:.3f}" for k in range(w + 1))


def encode(obs: SlotObservation) -> str:
    """Render the canonical prompt; byte-identical for equal observations.

    Layout: a SLOT header, then per BS the cache row in slot order, the
    deduplicated request counts sorted by descending count then file id,
    and one FREQ line per window with the rates of the cached and requested
    files (three decimals, ties-to-even), then the fixed instruction block.
    An observation without a tracker, such as a decoded prompt's, raises.
    """
    if obs.tracker is None:
        raise StructuralError("the observation has no tracker, so it cannot be rendered")
    lines = [f"SLOT {obs.slot}"]
    t = obs.tracker.slots_seen
    span = max(t, 1)  # a view short of a window rates over all t slots; every k is 0 at t = 0
    for b in range(1, obs.bs_count + 1):
        row = obs.cache.slots[b - 1]
        cells = " ".join(["-" if f == EMPTY_SLOT else str(f) for f in row])
        lines.append(f"BS {b} CACHE: {cells}")
        ordered = sorted(obs.requests.counts[b - 1].items())
        ordered.sort(key=itemgetter(1), reverse=True)  # stable: ties stay in file order
        body = " ".join([f"{f}:{c}" for f, c in ordered])
        lines.append(f"BS {b} REQUESTS: {body}" if body else f"BS {b} REQUESTS:")
        files = sorted(obs.cache.files_at(b) | obs.requests.counts[b - 1].keys())
        heads = [f"{f}:" for f in files]
        for w, held in zip(obs.tracker.windows, obs.tracker.window_counts(b, files)):
            if w <= t:
                texts = _rate_texts(w)
                body = " ".join([h + texts[k] for h, k in zip(heads, held)])
            else:
                body = " ".join([f"{h}{k / span:.3f}" for h, k in zip(heads, held)])
            lines.append(f"BS {b} FREQ w={w}: {body}" if body else f"BS {b} FREQ w={w}:")
    lines.append(INSTRUCTION_BLOCK)
    return "\n".join(lines)


def parse(text: str, obs: SlotObservation) -> JointAction:
    """Decode a completion into a joint action, else the invalid value.

    Valid output requires exactly one grammar line per BS, in ascending BS
    order, with every swap passing the three feasibility rules against the
    observation. Never raises; the attached reason is one of
    ``PARSE_REASONS``. The first non-blank line outside the grammar decides
    the answer; a text whose first non-blank line does not even start with
    ``BS `` is refused before it is split into lines.
    """
    if not text.startswith("BS "):
        head = text.lstrip()
        if head and not head.startswith("BS "):  # every grammar line starts with "BS "
            return _SYNTAX_ERROR
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        m = _LINE.fullmatch(line)
        if m is None:
            return _SYNTAX_ERROR
        entries.append(m.groups())
    cache = obs.cache
    slots = cache.slots
    # ids have no leading zeros, so equal text is an equal number; convert
    # only to tell a wrong count from a wrong order
    if tuple([groups[0] for groups in entries]) != _bs_ids(len(slots)):
        if sorted([int(groups[0]) for groups in entries]) != list(range(1, len(slots) + 1)):
            return JointAction.invalid(REASON_COUNT)
        return JointAction.invalid(REASON_ORDER)
    counts = obs.requests.counts
    sets = cache._sets
    actions = []
    for b, (_, z, f_out, f_in) in enumerate(entries, start=1):
        if z is None:
            actions.append(NOOP)
            continue
        z, f_out, f_in = int(z), int(f_out), int(f_in)
        rule = swap_fault(slots[b - 1], sets[b - 1], counts[b - 1], z, f_in, f_out)
        if rule is not None:  # checked first: BsAction would raise on in == out
            return JointAction.invalid(rule)
        actions.append(BsAction(z, f_in, f_out))
    return JointAction.valid(actions)


def serialize(action: JointAction) -> str:
    """Render a valid joint action as grammar lines in ascending BS order."""
    actions = action.actions
    if actions is None:
        raise StructuralError("cannot serialize the invalid joint action")
    lines = []
    for b, (z, f_in, f_out) in enumerate(actions, start=1):
        if z:
            lines.append(f"BS {b}: SWAP slot={z} out={f_out} in={f_in}")
        else:
            lines.append(f"BS {b}: NOOP")
    return "\n".join(lines)


_PROMPT_SLOT = re.compile(r"SLOT ([0-9]+)")
_PROMPT_CACHE = re.compile(r"BS ([0-9]+) CACHE: (.*)")
_PROMPT_REQ = re.compile(r"BS ([0-9]+) REQUESTS:(.*)")
_PROMPT_FREQ = re.compile(r"BS [0-9]+ FREQ w=[0-9]+:(.*)")
# A canonical FREQ line: its body passes _file_values; no other line kind matches.
_CANONICAL_FREQ = re.compile(r"BS [0-9]+ FREQ w=[0-9]+:(?: [0-9]+:[0-9]+\.[0-9]+)*")


def _file_values(body: str, cast) -> dict:
    """Space separated ``<file>:<value>`` tokens; ValueError when malformed."""
    body = body.strip()
    pairs = [tok.split(":") for tok in body.split(" ")] if body else ()
    return {int(f): cast(v) for f, v in pairs}


def decode_prompt(text: str) -> SlotObservation:
    """Rebuild the cache and request counts a prompt renders.

    The result's request row is empty (prompts store per-BS aggregates
    only) and it has no tracker, so it supports parsing and feasibility
    auditing, not hit-rate evaluation or encoding. FREQ lines are checked
    and dropped. Raises StructuralError on malformed prompts.
    """
    lines = text.splitlines()
    if not lines:
        raise StructuralError("empty prompt")
    m = _PROMPT_SLOT.fullmatch(lines[0])
    if not m:
        raise StructuralError("prompt must open with a SLOT header")
    slot = int(m.group(1))
    rows: dict[int, tuple[int, ...]] = {}
    counts: dict[int, dict] = {}
    try:
        for line in lines[1:]:
            if _CANONICAL_FREQ.fullmatch(line):  # checked, not kept: most lines
                continue
            if line == "INSTRUCTIONS:":
                break
            if m := _PROMPT_CACHE.fullmatch(line):
                cells = m.group(2).split(" ")
                rows[int(m.group(1))] = tuple([EMPTY_SLOT if c == "-" else int(c) for c in cells])
            elif m := _PROMPT_REQ.fullmatch(line):
                counts[int(m.group(1))] = _file_values(m.group(2), int)
            elif m := _PROMPT_FREQ.fullmatch(line):
                _file_values(m.group(1), float)
            else:
                raise StructuralError(f"unrecognized prompt line: {line!r}")
    except StructuralError:  # an unrecognized line: its message stands alone
        raise
    except ValueError as exc:
        raise StructuralError(f"malformed prompt field: {exc}") from exc
    b_count = len(rows)
    if sorted(rows) != list(range(1, b_count + 1)) or sorted(counts) != sorted(rows):
        raise StructuralError("prompt must describe BS 1..B exactly once")
    cache = CacheState(tuple(rows[b] for b in range(1, b_count + 1)))
    requests = RequestSlot((), tuple(counts[b] for b in range(1, b_count + 1)))
    return SlotObservation(slot, cache, requests, None)
