"""Core domain types and constraint checks for multi-BS cooperative caching.

File ids are dense 1-based integers; cache slot indices are 1-based. A slot
holding ``EMPTY_SLOT`` is unoccupied. The single-swap action interface can
only replace occupied slots; empty slots are filled by the warm-up prefill
path in :mod:`coopcache.traffic`, never through a swap action.

All types here are immutable values and all operations are pure functions,
so they are safe to share across threads. The exceptions touch the file
system: :func:`atomic_write` and :func:`read_json`, through which every
artifact is written and every input read, :func:`check_out_file` and
:func:`check_out_dir`, which stat output paths, and :func:`make_out_dir`.

Each kind of number a caller passes in has one rule here, with one refusal
text: :func:`check_count`, :func:`check_horizon`, :func:`check_finite`,
:func:`check_positive` and :func:`check_gamma`. Every config and entry point
asks them; the per-call checks, such as :func:`check_peek`, compare plainly.
A number written as text is read first by :func:`integer` or :func:`real`.

The per-slot actions, :class:`BsAction` and :class:`JointAction`, are
tuple-backed: each is the tuple of its fields, so building one costs no
per-field ``object.__setattr__``. They are still immutable, and
``BsAction`` still checks every value it is built from.
"""

from __future__ import annotations

import errno
import json
import math
import os
import stat
import sys
from collections import _count_elements
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from numbers import Integral, Real
from operator import itemgetter, mul

import numpy as np

EMPTY_SLOT = 0

#: The demonstration expert's look-ahead depth and discount: the default of
#: the reward config, the warm-up oracle, the expert walk and oracle specs.
EXPERT_HORIZON = 10
EXPERT_GAMMA = 0.9

RULE_ADMISSIBILITY = "admissibility"
RULE_DUPLICATION = "duplication"
RULE_CONSISTENCY = "consistency"


def canonical_json(obj) -> str:
    """The byte form of every deterministic JSON artifact: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def atomic_write(path):
    """Open ``path`` for UTF-8 text writing; it changes only once complete.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` when the block ends and is removed if the block raises. A crash
    mid-write thus leaves the previous file, not a truncated one. A path
    that cannot be written raises a StructuralError naming ``path``; one
    :func:`check_out_file` refuses raises on entry, before any write, so a
    caller's other files stay too.
    """
    path = check_out_file(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="")
    except OSError as exc:  # a missing directory, say: name the path, not the temporary
        raise StructuralError(f"{path}: cannot write: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # ``path`` is a directory, say
            raise StructuralError(f"{path}: cannot write: {exc.strerror}") from None
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class StructuralError(ValueError):
    """Malformed or dimensionally inconsistent inputs."""


class ConfigurationError(StructuralError):
    """Parameters that cannot produce a usable instance, topology or scorer."""


def read_json(path, parse):
    """``parse`` of the JSON in ``path``; any read, JSON or parse error raises naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and StructuralError
        raise StructuralError(f"{path}: {exc}") from None


def check_out_file(path) -> str:
    """``path`` as a string, unless it cannot name a file to write: an empty
    path, a directory, or one whose parent is missing or no directory raises
    a StructuralError naming it (an empty path as ``''``). Nothing is made."""
    path = os.fspath(path)
    reason = errno.ENOENT if not path else errno.EISDIR if os.path.isdir(path) else None
    if reason is None:
        try:
            if not stat.S_ISDIR(os.stat(os.path.dirname(path) or os.curdir).st_mode):
                reason = errno.ENOTDIR
        except OSError as exc:
            reason = exc.errno
    if reason is not None:
        raise StructuralError(f"{path or repr(path)}: cannot write: {os.strerror(reason)}")
    return path


def check_out_dir(path) -> None:
    """Raise a StructuralError naming ``path`` unless it is a directory or
    could be made as one; nothing is made. An empty path, a file and a path
    under a file are refused."""
    path = os.fspath(path)
    if not path:
        reason = errno.ENOENT
    else:
        probe = os.path.abspath(path)
        while not os.path.exists(probe):  # ends at the root, which exists
            probe = os.path.dirname(probe)
        if os.path.isdir(probe):
            return
        reason = errno.ENOTDIR
    raise StructuralError(f"cannot make output directory {path!r}: {os.strerror(reason)}")


def make_out_dir(path) -> None:
    """Make the output directory ``path`` and its parents, unless it exists;
    a path :func:`check_out_dir` refuses, or any other failure, raises a
    StructuralError naming ``path``."""
    check_out_dir(path)
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise StructuralError(f"cannot make output directory {path!r}: {exc.strerror}") from None


def whole(value) -> int:
    """A JSON integer: an int, but not a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, not {value!r}")
    return value


def integer(value) -> int:
    """Decimal text, ASCII digits after an optional minus sign, or a JSON integer."""
    if not isinstance(value, str):
        return whole(value)
    if not (value.isascii() and value.removeprefix("-").isdigit()):
        raise ValueError(f"expected decimal digits, not {value!r}")
    return int(value)


def real(value) -> float:
    """ASCII text that ``float`` reads, with no leading plus, no underscore and no
    surrounding space; or a JSON integer or float, but not a bool."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    if isinstance(value, str) and not (value.isascii() and value == value.strip()
                                       and "_" not in value and not value.startswith("+")):
        raise ValueError(f"expected decimal text, not {value!r}")
    return float(value)


def finite(value) -> float:
    """A finite JSON number: an int or a float, but not a bool, NaN or an infinity."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise TypeError(f"expected a finite number, not {value!r}")
    return float(value)


def check_count(name: str, value, floor: int = 0) -> int:
    """``value`` as an int: an integer, not a bool, a float or text, at or above
    ``floor``; numpy integers pass. Anything else raises naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < floor:
        raise ConfigurationError(f"{name} must be an integer >= {floor}, not {value!r}")
    return int(value)


def check_horizon(value) -> int:
    """The look-ahead horizon: a :func:`check_count` of at least 1."""
    return check_count("horizon", value, 1)


def check_finite(name: str, value) -> float:
    """``value`` as a float: a number, not a bool or text, and neither NaN nor an
    infinity; numpy numbers pass. Anything else raises naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def check_positive(name: str, value) -> float:
    """A :func:`check_finite` number above 0, as a float."""
    number = check_finite(name, value)
    if number <= 0:
        raise ConfigurationError(f"{name} must be > 0, not {value!r}")
    return number


def check_gamma(value) -> float:
    """The look-ahead discount: a :func:`check_finite` number in (0, 1], as a float."""
    gamma = check_finite("gamma", value)
    if not 0.0 < gamma <= 1.0:
        raise ConfigurationError("gamma must be in (0, 1]")
    return gamma


def key_reader(payload: dict, what: str):
    """``key(name, parse=whole)`` returns ``parse(payload[name])``; a missing
    key or a value of the wrong type or shape raises a StructuralError naming it,
    as does a ``payload`` that is not a JSON object."""
    if not isinstance(payload, dict):
        raise StructuralError(f"{what}s must sit in a JSON object, not a {type(payload).__name__}")

    def key(name, parse=whole):
        if name not in payload:
            raise StructuralError(f"{what} {name!r} is missing")
        try:
            return parse(payload[name])
        except (TypeError, ValueError) as exc:
            raise StructuralError(f"{what} {name!r}: {exc}") from None

    return key


class FeasibilityError(Exception):
    """A per-BS action violated one of the three feasibility rules."""

    def __init__(self, bs: int, rule: str, detail: str) -> None:
        super().__init__(f"BS {bs}: {rule}: {detail}")
        self.bs = bs
        self.rule = rule


_tuple_new = tuple.__new__


class BsAction(tuple):
    """Decision of one BS: keep the cache as-is, or swap a single slot.

    ``slot == 0`` encodes the no-op. A swap names the 1-based slot index,
    the file to insert and the file expected to be evicted from that slot.
    The value is the tuple ``(slot, file_in, file_out)``. Every way of
    building one, pickle and copy included, passes the checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, slot: int = 0, file_in: int = 0, file_out: int = 0) -> "BsAction":
        if slot == 0:
            if file_in or file_out:
                raise StructuralError("no-op action must not name files")
        else:
            if slot < 1 or file_in < 1 or file_out < 1:
                raise StructuralError("swap needs slot >= 1 and file ids >= 1")
            if file_in == file_out:
                raise StructuralError("swap must change the slot content")
        return _tuple_new(cls, (slot, file_in, file_out))

    def __reduce__(self):
        # tuple's own reduction would rebuild the value without __new__
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"BsAction(slot={self[0]!r}, file_in={self[1]!r}, file_out={self[2]!r})"

    slot = property(itemgetter(0))
    file_in = property(itemgetter(1))
    file_out = property(itemgetter(2))

    @property
    def is_noop(self) -> bool:
        return self[0] == 0


NOOP = BsAction()

class JointAction(tuple):
    """One action per BS (valid), or the distinguished invalid value.

    The value is the tuple ``(actions, reason)``: a tuple of BsActions and
    None, or None and the reason the completion was invalid.
    """

    __slots__ = ()

    def __new__(cls, actions: tuple[BsAction, ...] | None,
                reason: str | None = None) -> "JointAction":
        return _tuple_new(cls, (actions, reason))

    def __reduce__(self):
        return type(self), tuple(self)

    def __repr__(self) -> str:
        return f"JointAction(actions={self[0]!r}, reason={self[1]!r})"

    @classmethod
    def valid(cls, actions) -> "JointAction":
        return _tuple_new(cls, (tuple(actions), None))

    @classmethod
    @lru_cache(maxsize=None)
    def invalid(cls, reason: str) -> "JointAction":
        """The invalid value for ``reason``: one shared value per reason, as a value never changes."""
        return _tuple_new(cls, (None, reason))

    actions = property(itemgetter(0))
    reason = property(itemgetter(1))

    @property
    def is_valid(self) -> bool:
        return self[0] is not None

    @property
    def is_all_noop(self) -> bool:
        return self[0] is not None and all(a.is_noop for a in self[0])


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

    @classmethod
    def _trusted(cls, slots, sets) -> "CacheState":
        """A state from rows and their file sets that the caller has already checked."""
        state = object.__new__(cls)
        fields = state.__dict__  # written directly: the frozen __setattr__ is per field and slow
        fields["slots"] = slots
        fields["_sets"] = sets
        return state

    @property
    def bs_count(self) -> int:
        return len(self.slots)

    def files_at(self, b: int) -> frozenset[int]:
        return self._sets[b - 1]

    def is_full(self, b: int) -> bool:
        return EMPTY_SLOT not in self.slots[b - 1]

    def insert(self, b: int, z: int, file_in: int, file_out: int = EMPTY_SLOT) -> "CacheState":
        """The warm-up's insert: a copy with ``file_in`` in slot ``z`` of BS ``b``
        (1-based), which must hold ``file_out``, EMPTY_SLOT for a fill. ``file_in``
        must not be cached there. Only that row and its file set are rebuilt."""
        row, held = self.slots[b - 1], self._sets[b - 1]
        if file_in < 1 or file_in in held or not 1 <= z <= len(row) or row[z - 1] != file_out:
            raise StructuralError(f"BS {b}: cannot insert {file_in} over {file_out} at slot {z}")
        rows, sets = list(self.slots), list(self._sets)
        rows[b - 1] = row[: z - 1] + (file_in,) + row[z:]
        sets[b - 1] = held.difference((file_out,)).union((file_in,))
        return CacheState._trusted(tuple(rows), tuple(sets))


@dataclass(frozen=True)
class RequestSlot:
    """One slot of user requests plus per-BS views derived from coverage.

    ``row[u]`` is the file user u requests, 0 for a user who made no
    request; the row is the slot's one store of its requests. ``size``, the
    number of requests, and ``pairs``, the ``(user, file)`` pairs in user
    order, are derived from it.

    ``counts[b-1]`` maps file id to the number of covered users requesting
    it this slot, so its keys are the deduplicated insertion pool of BS b:
    ``in`` and iteration read the dict, set algebra ``counts[b-1].keys()``.
    Treat the dicts as read-only.

    ``covered[b-1]`` holds the file of each user in ``graph.columns[b-1]``,
    in that order, with 0 for a user who made no request. It copies ``row``
    on purpose, per BS, for the look-ahead oracle: reading ``row[u]``
    through ``graph.columns`` instead makes each oracle call about 11%
    slower. A slot built without a graph (a decoded prompt's) has an empty
    row and leaves ``covered`` empty.

    Only :func:`slot_from_row` builds a slot: one getter of
    ``graph.column_getters`` reads ``covered[b-1]`` from the row, and one
    pass counts it into ``counts[b-1]``. Every trace, drawn or loaded, reaches
    it through ``traffic._trace``, and loose (user, file) pairs through
    :func:`request_slot`, which reads them into a row with :func:`request_row`:
    ids must be integers, so a bool, a float or text is refused.
    """

    row: tuple[int, ...]
    counts: tuple[dict, ...] = field(compare=False, repr=False)
    covered: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def size(self) -> int:
        """The number of requests: the row's nonzero entries. Counted once, then kept."""
        return len(self.row) - self.row.count(0)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The ``(user, file)`` request pairs in user order, built on each read."""
        return tuple([(u, f) for u, f in enumerate(self.row) if f])

    @cached_property
    def covered_row(self) -> np.ndarray:
        """``covered`` concatenated in BS order, as an int64 array: one entry
        per entry of ``graph.column_masks``. Built on first use, then kept."""
        return np.fromiter(chain.from_iterable(self.covered), np.int64)


def request_slot(pairs, graph) -> RequestSlot:
    """The RequestSlot of (user, file) pairs: :func:`slot_from_row` of their :func:`request_row`."""
    return slot_from_row(request_row(pairs, graph.user_count), graph)


def request_row(pairs, user_count: int) -> list[int]:
    """The row of (user, file) pairs, ``row[u]`` user u's file, 0 for none. Every id
    must be an integer (numpy integers pass; a bool, a float or text does not);
    the first id in the order given that is not one is refused, the file before
    the user. The pairs are then checked in user order, the first to break a rule
    deciding: one request per user, a file id >= 1, a user in ``0..user_count-1``."""
    checked = []
    for u, f in pairs:
        if type(u) is not int or type(f) is not int:
            for name, value in (("file", f), ("user", u)):
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise StructuralError(f"{name} ids must be integers, not {value!r}")
            u, f = int(u), int(f)
        checked.append((u, f))
    row = [0] * user_count
    last = None
    for u, f in sorted(checked):
        if u == last:  # sorted, so one user's requests sit side by side
            raise StructuralError("one request per user per slot")
        last = u
        if f < 1:
            raise StructuralError("file ids must be >= 1")
        if not 0 <= u < user_count:
            raise StructuralError(f"user {u} is not in the association graph")
        row[u] = f
    return row


def slot_from_row(row, graph) -> RequestSlot:
    """The RequestSlot of a checked row: ``row[u]`` is user u's file, 0 for none.
    The row becomes a tuple once; ``graph.column_getters[b-1]`` reads BS b's
    ``covered`` files from it in one gather, and one C-level pass
    (``collections._count_elements``, which ``Counter`` counts with) counts
    them into a plain dict, so its keys keep user order. The slot keeps the
    row's own int objects, so a caller that hands in one object per file id
    shares it across the trace."""
    row = tuple(row)
    covered = tuple([get(row) for get in graph.column_getters])
    counts = []
    for files in covered:
        d = {}
        _count_elements(d, files)
        d.pop(0, None)  # an absent user; the other keys keep their order
        counts.append(d)
    return RequestSlot(row, tuple(counts), covered)


def hit_rate(cache: CacheState, requests: RequestSlot, graph) -> float:
    """Fraction of this slot's requests served by some covering BS cache.

    A request counts as a hit when the file sits in the cache of at least
    one BS covering that user. An empty request slot scores 0.
    """
    bs_count = len(graph.bs_xy)
    if len(cache.slots) != bs_count or len(requests.counts) != bs_count:
        raise StructuralError("cache/requests/graph BS counts differ")
    size = requests.size
    if not size:
        return 0.0
    sets = cache._sets
    hits = 0
    for f, cov in zip(requests.row, graph.coverage):  # an absent user's 0 is in no set
        for b in cov:
            if f in sets[b - 1]:
                hits += 1
                break
    return hits / size


def check_peek(peek, horizon: int) -> None:
    """Raise unless ``horizon`` is at least 1 and ``peek`` holds that many slots."""
    if horizon < 1:
        raise StructuralError("horizon must be >= 1")
    if len(peek) < horizon:
        raise StructuralError(f"peek holds {len(peek)} slots, horizon needs {horizon}")


def oracle_best_action(cache, b, requests, peek, graph, horizon, gamma) -> BsAction:
    """Best single-BS action by discounted future-hit gain over ``peek``.

    Each candidate swap is scored by the change it causes to cooperative
    hits over the next ``horizon`` frozen request slots, holding the other
    BS rows fixed. Only users covered by this BS whose requested file is
    the inserted or evicted one can flip, so the score reduces to weighted
    per-file gain/loss tallies. The no-op scores exactly zero; a swap wins
    only when strictly better, and ties between swaps resolve to the
    smallest (slot, file_in).

    Each peek slot's ``covered[b-1]`` lists just the files of the users
    this BS covers, zipped with their other covering BSs from
    ``graph.columns[b-1]``, so no other request is visited. Only candidate
    files (requested here, not cached here) and files cached here are
    tallied: no other file's tally is ever read, and an absent user's 0 is
    neither. A covered request counts when none of its other covering BSs
    holds its file: as a gain for a candidate, as a loss for a cached file.
    Each tally takes its additions in peek order, and each slot's weight is
    divided by its full request count.
    """
    check_peek(peek, horizon)
    if not cache.is_full(b):
        return NOOP
    sets = cache._sets
    cached_here = sets[b - 1]
    wanted = requests.counts[b - 1].keys() - cached_here
    if not wanted:
        return NOOP
    others = graph.columns[b - 1][1]
    gain: dict = {}
    loss: dict = {}
    weight = 1.0
    for k in range(horizon):
        slot_requests = peek[k]
        if slot_requests.size:
            scale = weight / slot_requests.size
            for f, other_bs in zip(slot_requests.covered[b - 1], others):
                if f in wanted:
                    tally = gain
                elif f in cached_here:
                    tally = loss
                else:
                    continue
                for bb in other_bs:
                    if f in sets[bb - 1]:
                        break
                else:
                    tally[f] = tally.get(f, 0.0) + scale
        weight *= gamma
    winners = sorted(f for f, g in gain.items() if g > 0.0)
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
    return best


#: The joint oracle answers a question in one numpy pass (:func:`oracle_batched`)
#: when its peek block, ``horizon`` slots of every BS's covered users, holds at
#: least this many entries, and by one :func:`oracle_best_action` call per BS
#: below it. Measured per joint call on 2 CPUs (Python 3.11, numpy 2.4) on
#: seed 4 with libraries of 100 and 1,100 files: on 5 BSs and 40 users (76
#: entries a slot) the loop took 28-29 us at H=1 and 144-153 us at H=10, the
#: pass 44-59 us and 89-97 us; at H=5 (380 entries) the pass was 0-22% faster.
#: On 2 BSs at H=10 (260 entries) it tied or lost (54 against 55 us, 63
#: against 52 us).
ORACLE_BATCH_MIN = 512
#: The pass sums one bit per BS into a float64 per file, exact for up to 53
#: BSs; a graph with more BSs takes the per-BS loop.
ORACLE_MASK_BSS = 53
_BS_BITS = np.ldexp(1.0, np.arange(ORACLE_MASK_BSS))


def oracle_joint_action(cache, requests, peek, graph, horizon, gamma) -> JointAction:
    """Every BS's :func:`oracle_best_action` on the same ``cache``, as one joint action.

    The path is chosen by the size of the peek slice to read: with at most
    ORACLE_MASK_BSS BSs and ``horizon`` times the entries of
    ``graph.column_masks`` at least ORACLE_BATCH_MIN, :func:`oracle_batched`
    scores all BSs at once; otherwise each BS is asked in turn, which is
    faster for a short horizon or few covered users. Both give the same
    action, bit for bit.
    """
    if not cache.bs_count == len(requests.counts) == graph.bs_count:
        raise StructuralError("cache/requests/graph BS counts differ")
    if (graph.bs_count <= ORACLE_MASK_BSS
            and horizon * len(graph.column_masks[0]) >= ORACLE_BATCH_MIN):
        return oracle_batched(cache, requests, peek, graph, horizon, gamma)
    return JointAction.valid([oracle_best_action(cache, b, requests, peek, graph, horizon, gamma)
                              for b in range(1, cache.bs_count + 1)])


def oracle_batched(cache, requests, peek, graph, horizon, gamma) -> JointAction:
    """:func:`oracle_joint_action` by one numpy pass over the peek block, for
    up to ORACLE_MASK_BSS BSs; equal to the per-BS loop at any size.

    The block stacks the ``covered_row`` of each of the ``horizon`` peek
    slots, so an entry is a (peek slot, column of ``graph.column_masks``)
    pair: one covered user of one BS. Each file gets the bit mask of the
    BSs holding it and of the BSs whose users ask for it now. An entry
    counts, as in oracle_best_action, when its BS holds or asks for its
    file and none of the user's other covering BSs holds it. Its slot's
    scale is then added to the tally of its (BS, file) by one weighted
    bincount, in (peek slot, column) order, the loop's own order of
    additions, so each tally rounds as the loop's does. A tally is a gain
    where the BS lacks the file and a loss where it holds it, and the
    loop's scoring runs on them. File 0, an absent user, is held and asked
    for by no BS, so it is never tallied.
    """
    check_peek(peek, horizon)
    rows, counts = cache.slots, requests.counts
    n = len(rows)
    if n > ORACLE_MASK_BSS:
        raise StructuralError(f"the batched oracle takes at most {ORACLE_MASK_BSS} BSs, not {n}")
    bs_of, bits, others = graph.column_masks
    slots = peek[:horizon]
    block = np.stack([s.covered_row for s in slots])
    top = int(block.max(initial=EMPTY_SLOT))
    held = np.bincount(np.fromiter(chain.from_iterable(rows), np.int64),
                       np.repeat(_BS_BITS[:n], list(map(len, rows))), top + 1).astype(np.int64)
    held[EMPTY_SLOT] = 0
    asked = np.bincount(np.fromiter(chain.from_iterable(counts), np.int64),
                        np.repeat(_BS_BITS[:n], list(map(len, counts))), top + 1).astype(np.int64)
    held_at = held[block]
    live = (((held_at | asked[block]) & bits) != 0) & ((held_at & others) == 0)
    weights = accumulate(repeat(gamma, horizon - 1), mul, initial=1.0)  # products, not g**k
    scales = [w / s.size if s.size else 0.0 for w, s in zip(weights, slots)]
    tally = np.bincount((block * n + bs_of)[live], np.repeat(scales, len(bs_of))[live.ravel()])
    keys = np.flatnonzero(tally)
    tallies = dict(zip(keys.tolist(), tally[keys].tolist()))  # f * n + (b-1) -> tally, ascending
    sets = cache._sets
    gains = [[] for _ in rows]  # per BS, (file, gain) by file, ascending
    for key, value in tallies.items():
        f, b = divmod(key, n)
        if value > 0.0 and f not in sets[b]:
            gains[b].append((f, value))
    actions = []
    for b, (row, winners) in enumerate(zip(rows, gains)):
        best = NOOP
        if winners and EMPTY_SLOT not in row:
            best_score = 0.0
            for z, f_out in enumerate(row, start=1):
                lose = tallies.get(f_out * n + b, 0.0)
                for f_in, gain in winners:
                    score = gain - lose
                    if score > best_score:
                        best, best_score = BsAction(z, f_in, f_out), score
        actions.append(best)
    return JointAction.valid(actions)


def swap_fault(row, held, pool, z: int, f_in: int, f_out: int) -> str | None:
    """The first rule a swap at one BS breaks, or None: ``f_in`` must be in the BS's
    insertion ``pool`` and not in ``held``, its file set, and slot ``z`` of its
    ``row`` must hold ``f_out``. The parser and :func:`apply` both ask here."""
    if f_in not in pool:
        return RULE_ADMISSIBILITY
    if f_in in held:
        return RULE_DUPLICATION
    if not 1 <= z <= len(row) or row[z - 1] != f_out:
        return RULE_CONSISTENCY
    return None


def apply(cache: CacheState, action: JointAction, requests: RequestSlot) -> CacheState:
    """Execute a valid joint action, enforcing the three feasibility rules.

    The inserted file must be requested at that BS this slot, must not
    already sit in that BS cache, and the named slot must currently hold
    the named eviction target. Invalid joint actions are rejected here;
    callers route them to the no-update path instead.

    Once the rules pass, only the swapped rows and their file sets are
    rebuilt; every untouched row and set is the input's own object, and an
    all-no-op action returns ``cache`` itself.
    """
    actions = action.actions
    if actions is None:
        raise StructuralError("the invalid joint action cannot be applied")
    slots, sets = cache.slots, cache._sets
    if len(actions) != len(slots) or len(requests.counts) != len(slots):
        raise StructuralError("joint action/cache/requests BS counts differ")
    counts = requests.counts
    new_rows = None
    for b, (z, f_in, f_out) in enumerate(actions, start=1):
        if not z:
            continue
        row = slots[b - 1]
        rule = swap_fault(row, sets[b - 1], counts[b - 1], z, f_in, f_out)
        if rule is not None:
            raise FeasibilityError(b, rule, f"SWAP slot={z} out={f_out} in={f_in}")
        if new_rows is None:
            new_rows, new_sets = list(slots), list(sets)
        new_rows[b - 1] = row[: z - 1] + (f_in,) + row[z:]
        new_sets[b - 1] = sets[b - 1].difference((f_out,)).union((f_in,))
    if new_rows is None:
        return cache
    return CacheState._trusted(tuple(new_rows), tuple(new_sets))


def hottest_uncached(cache: CacheState, b: int, requests: RequestSlot) -> int | None:
    """The most requested file at BS ``b`` not cached there (ties to the lower id), or None."""
    cached = cache._sets[b - 1]
    best = top = None
    for f, c in requests.counts[b - 1].items():
        if f not in cached and (best is None or c > top or c == top and f < best):
            best, top = f, c
    return best


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
    candidates = sorted(requests.counts[b - 1].keys() - cache.files_at(b))
    for z, f_out in enumerate(cache.slots[b - 1], start=1):
        for f_in in candidates:
            actions.append(BsAction(z, f_in, f_out))
    return actions


def check_transition(prev: CacheState, next_state: CacheState) -> bool:
    """True iff every BS changed by at most one swap and capacity holds.

    Per BS the occupancy vectors of consecutive states may differ in at
    most two positions (one eviction plus one insertion). A row that is the
    very same tuple object in both states, as :func:`apply` leaves an
    untouched row, is equal and skipped; every other row is checked in full.
    """
    prev_rows, next_rows = prev.slots, next_state.slots
    if list(map(len, prev_rows)) != list(map(len, next_rows)):
        raise StructuralError("cache states have different dimensions")
    for p, n, p_set, n_set in zip(prev_rows, next_rows, prev._sets, next_state._sets):
        if p is n:
            continue
        if len(p_set ^ n_set) > 2:
            return False
    return True
