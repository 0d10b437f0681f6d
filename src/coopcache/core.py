"""Core domain types and constraint checks for multi-BS cooperative caching.

File ids are dense 1-based integers; cache slot indices are 1-based. A slot
holding ``EMPTY_SLOT`` is unoccupied. The single-swap action interface can
only replace occupied slots; empty slots are filled by the warm-up prefill
path in :mod:`coopcache.traffic`, never through a swap action.

All types here are immutable values and all operations are pure functions,
so they are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

EMPTY_SLOT = 0

RULE_ADMISSIBILITY = "admissibility"
RULE_DUPLICATION = "duplication"
RULE_CONSISTENCY = "consistency"


def canonical_json(obj) -> str:
    """The byte form of every deterministic JSON artifact: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class StructuralError(ValueError):
    """Malformed or dimensionally inconsistent inputs."""


class FeasibilityError(Exception):
    """A per-BS action violated one of the three feasibility rules."""

    def __init__(self, bs: int, rule: str, detail: str) -> None:
        super().__init__(f"BS {bs}: {rule}: {detail}")
        self.bs = bs
        self.rule = rule


@dataclass(frozen=True)
class BsAction:
    """Decision of one BS: keep the cache as-is, or swap a single slot.

    ``slot == 0`` encodes the no-op. A swap names the 1-based slot index,
    the file to insert and the file expected to be evicted from that slot.
    """

    slot: int = 0
    file_in: int = 0
    file_out: int = 0

    def __post_init__(self) -> None:
        if self.slot == 0:
            if self.file_in or self.file_out:
                raise StructuralError("no-op action must not name files")
        else:
            if self.slot < 1 or self.file_in < 1 or self.file_out < 1:
                raise StructuralError("swap needs slot >= 1 and file ids >= 1")
            if self.file_in == self.file_out:
                raise StructuralError("swap must change the slot content")

    @property
    def is_noop(self) -> bool:
        return self.slot == 0


NOOP = BsAction()


@dataclass(frozen=True)
class JointAction:
    """One action per BS (valid), or the distinguished invalid value."""

    actions: tuple[BsAction, ...] | None
    reason: str | None = None

    @classmethod
    def valid(cls, actions) -> "JointAction":
        return cls(tuple(actions), None)

    @classmethod
    def invalid(cls, reason: str) -> "JointAction":
        return cls(None, reason)

    @property
    def is_valid(self) -> bool:
        return self.actions is not None

    @property
    def is_all_noop(self) -> bool:
        return self.actions is not None and all(a.is_noop for a in self.actions)


@dataclass(frozen=True)
class CacheState:
    """Ordered cache slots per BS; the row length is the BS capacity.

    Slot order is significant and stable: a no-op leaves the row untouched
    and a swap rewrites exactly one position.
    """

    slots: tuple[tuple[int, ...], ...]
    _sets: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        sets = []
        for b, row in enumerate(self.slots, start=1):
            if not row:
                raise StructuralError(f"BS {b}: capacity must be >= 1")
            files = [f for f in row if f != EMPTY_SLOT]
            if any(f < 1 for f in files):
                raise StructuralError(f"BS {b}: file ids must be >= 1")
            if len(set(files)) != len(files):
                raise StructuralError(f"BS {b}: duplicate file in cache")
            sets.append(frozenset(files))
        object.__setattr__(self, "_sets", tuple(sets))

    @classmethod
    def empty(cls, capacities) -> "CacheState":
        return cls(tuple((EMPTY_SLOT,) * int(c) for c in capacities))

    @property
    def bs_count(self) -> int:
        return len(self.slots)

    def capacity(self, b: int) -> int:
        return len(self.slots[b - 1])

    def files_at(self, b: int) -> frozenset[int]:
        return self._sets[b - 1]

    def is_full(self, b: int) -> bool:
        return EMPTY_SLOT not in self.slots[b - 1]

    def with_slot(self, b: int, z: int, file_id: int) -> "CacheState":
        """Copy-on-write single-position update (1-based indices)."""
        row = list(self.slots[b - 1])
        row[z - 1] = file_id
        rows = list(self.slots)
        rows[b - 1] = tuple(row)
        return CacheState(tuple(rows))


@dataclass(frozen=True)
class RequestSlot:
    """One slot of user requests plus per-BS views derived from coverage.

    ``counts[b-1]`` maps file id to the number of covered users requesting
    it this slot; ``admissible[b-1]`` is the deduplicated insertion pool of
    BS b (exactly the files with a positive count). Treat the dicts as
    read-only.
    """

    pairs: tuple[tuple[int, int], ...]
    counts: tuple[dict, ...] = field(compare=False, repr=False)
    admissible: tuple[frozenset, ...] = field(compare=False)

    @property
    def bs_count(self) -> int:
        return len(self.counts)

    @property
    def user_count(self) -> int:
        return len(self.pairs)


def request_slot(pairs, graph) -> RequestSlot:
    """Build a RequestSlot, deriving per-BS counts and admissible sets."""
    ordered = tuple(sorted((int(u), int(f)) for u, f in pairs))
    users = [u for u, _ in ordered]
    if len(set(users)) != len(users):
        raise StructuralError("one request per user per slot")
    counts: list[dict] = [{} for _ in range(graph.bs_count)]
    for u, f in ordered:
        if f < 1:
            raise StructuralError("file ids must be >= 1")
        if not 0 <= u < graph.user_count:
            raise StructuralError(f"user {u} is not in the association graph")
        for b in graph.coverage[u]:
            d = counts[b - 1]
            d[f] = d.get(f, 0) + 1
    admissible = tuple(frozenset(d) for d in counts)
    return RequestSlot(ordered, tuple(counts), admissible)


def hit_rate(cache: CacheState, requests: RequestSlot, graph) -> float:
    """Fraction of this slot's requests served by some covering BS cache.

    A request counts as a hit when the file sits in the cache of at least
    one BS covering that user. An empty request slot scores 0.
    """
    if cache.bs_count != graph.bs_count or requests.bs_count != graph.bs_count:
        raise StructuralError("cache/requests/graph BS counts differ")
    if not requests.pairs:
        return 0.0
    hits = 0
    for u, f in requests.pairs:
        for b in graph.coverage[u]:
            if f in cache.files_at(b):
                hits += 1
                break
    return hits / len(requests.pairs)


def oracle_best_action(cache, b, requests, peek, graph, horizon, gamma) -> BsAction:
    """Best single-BS action by discounted future-hit gain over ``peek``.

    Each candidate swap is scored by the change it causes to cooperative
    hits over the next ``horizon`` frozen request slots, holding the other
    BS rows fixed. Only users covered by this BS whose requested file is
    the inserted or evicted one can flip, so the score reduces to weighted
    per-file gain/loss tallies. The no-op scores exactly zero; a swap wins
    only when strictly better, and ties between swaps resolve to the
    smallest (slot, file_in).
    """
    if horizon < 1:
        raise StructuralError("horizon must be >= 1")
    if len(peek) < horizon:
        raise StructuralError(f"peek holds {len(peek)} slots, horizon needs {horizon}")
    if not cache.is_full(b):
        return NOOP
    cached_here = cache.files_at(b)
    candidates = sorted(requests.admissible[b - 1] - cached_here)
    if not candidates:
        return NOOP
    gain: dict = {}
    loss: dict = {}
    weight = 1.0
    for k in range(horizon):
        slot_requests = peek[k]
        if slot_requests.pairs:
            scale = weight / len(slot_requests.pairs)
            for u, f in slot_requests.pairs:
                covered_here = False
                holders = 0
                for bb in graph.coverage[u]:
                    if bb == b:
                        covered_here = True
                    if f in cache.files_at(bb):
                        holders += 1
                if not covered_here:
                    continue
                if holders == 0:
                    gain[f] = gain.get(f, 0.0) + scale
                elif holders == 1 and f in cached_here:
                    loss[f] = loss.get(f, 0.0) + scale
        weight *= gamma
    winners = [f for f in candidates if gain.get(f, 0.0) > 0.0]
    if not winners:
        return NOOP
    best = NOOP
    best_score = 0.0
    for z, f_out in enumerate(cache.slots[b - 1], start=1):
        lose = loss.get(f_out, 0.0)
        for f_in in winners:
            score = gain[f_in] - lose
            if score > best_score:
                best, best_score = BsAction(z, f_in, f_out), score
    assert best_score >= 0.0  # the no-op floor: never worse than keeping the cache
    return best


def apply(cache: CacheState, action: JointAction, requests: RequestSlot) -> CacheState:
    """Execute a valid joint action, enforcing the three feasibility rules.

    The inserted file must be requested at that BS this slot, must not
    already sit in that BS cache, and the named slot must currently hold
    the named eviction target. Invalid joint actions are rejected here;
    callers route them to the no-update path instead.
    """
    if not action.is_valid:
        raise StructuralError("the invalid joint action cannot be applied")
    if len(action.actions) != cache.bs_count or requests.bs_count != cache.bs_count:
        raise StructuralError("joint action/cache/requests BS counts differ")
    rows = list(cache.slots)
    for b, act in enumerate(action.actions, start=1):
        if act.is_noop:
            continue
        if act.file_in not in requests.admissible[b - 1]:
            raise FeasibilityError(
                b, RULE_ADMISSIBILITY, f"file {act.file_in} not requested this slot"
            )
        if act.file_in in cache.files_at(b):
            raise FeasibilityError(
                b, RULE_DUPLICATION, f"file {act.file_in} already cached"
            )
        row = rows[b - 1]
        if not 1 <= act.slot <= len(row) or row[act.slot - 1] != act.file_out:
            raise FeasibilityError(
                b, RULE_CONSISTENCY, f"slot {act.slot} does not hold file {act.file_out}"
            )
        new_row = list(row)
        new_row[act.slot - 1] = act.file_in
        rows[b - 1] = tuple(new_row)
    return CacheState(tuple(rows))


def feasible_actions(cache: CacheState, b: int, requests: RequestSlot) -> list[BsAction]:
    """No-op plus every feasible single-slot swap for BS ``b``.

    Swaps exist only once the BS cache is full; before that the only legal
    move through this interface is the no-op (inserts into empty slots are
    the warm-up prefill's job). Candidates are the requested files not
    already cached, enumerated in ascending (slot, file_in) order.
    """
    actions = [NOOP]
    if not cache.is_full(b):
        return actions
    candidates = sorted(requests.admissible[b - 1] - cache.files_at(b))
    if not candidates:
        return actions
    for z, f_out in enumerate(cache.slots[b - 1], start=1):
        for f_in in candidates:
            actions.append(BsAction(z, f_in, f_out))
    return actions


def action_space_counts(cache: CacheState, b: int, requests: RequestSlot) -> tuple[int, int]:
    """(feasible count, nominal count) for one BS.

    The nominal count is capacity * |request pool| + 1, which skips the
    non-duplication exclusion; the feasible count honors it.
    """
    feasible = len(feasible_actions(cache, b, requests))
    nominal = cache.capacity(b) * len(requests.admissible[b - 1]) + 1
    return feasible, nominal


def check_transition(prev: CacheState, next_state: CacheState) -> bool:
    """True iff every BS changed by at most one swap and capacity holds.

    Per BS the occupancy vectors of consecutive states may differ in at
    most two positions (one eviction plus one insertion).
    """
    if prev.bs_count != next_state.bs_count or any(
        prev.capacity(b) != next_state.capacity(b)
        for b in range(1, prev.bs_count + 1)
    ):
        raise StructuralError("cache states have different dimensions")
    for b in range(1, prev.bs_count + 1):
        if len(next_state.files_at(b)) > next_state.capacity(b):
            return False
        if len(prev.files_at(b) ^ next_state.files_at(b)) > 2:
            return False
    return True
