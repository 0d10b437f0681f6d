"""Frozen task instances.

An :class:`Instance` bundles a geometric coverage topology, grouped
heavy-tail demand tables and the full pre-drawn request trace, so every
controller evaluated against it consumes bit-identical inputs. Generation
is a pure function of (config, seed): four named PCG64 substreams drive
user placement, group assignment, per-group popularity rankings and the
trace draws, which keeps traces reproducible across machines.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .core import (
    EMPTY_SLOT,
    EXPERT_GAMMA,
    EXPERT_HORIZON,
    CacheState,
    ConfigurationError,
    RequestSlot,
    StructuralError,
    atomic_write,
    canonical_json,
    check_count,
    check_finite,
    check_gamma,
    check_horizon,
    check_positive,
    hottest_uncached,
    key_reader,
    oracle_best_action,
    read_json,
    real,
    request_slot,
    slot_from_row,
    whole,
)
from .interface import SlotObservation

INSTANCE_SCHEMA = "coopcache.instance.v1"

_STREAM_TOPOLOGY = 0
_STREAM_GROUPS = 1
_STREAM_PERMUTATIONS = 2
_STREAM_TRACE = 3

_USER_DRAW_LIMIT = 1024
_OVERLAP_ROUNDS = 64

# (BS coordinates on the unit square, coverage radius) per supported size.
DEFAULT_LAYOUTS = {
    2: (((0.35, 0.5), (0.65, 0.5)), 0.40),
    5: (((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75), (0.5, 0.5)), 0.38),
}


def _stream(seed: int, index: int) -> np.random.Generator:
    """Named substream; independent of the other streams for this seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))


@dataclass(frozen=True)
class AssociationGraph:
    """Fixed user-BS coverage: a user talks to every BS within the radius."""

    bs_xy: tuple[tuple[float, float], ...]
    user_xy: tuple[tuple[float, float], ...]
    radius: float
    coverage: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, bs_xy, user_xy, radius) -> "AssociationGraph":
        r2 = radius * radius
        coverage = tuple(
            tuple(
                b + 1
                for b, (bx, by) in enumerate(bs_xy)
                if (x - bx) ** 2 + (y - by) ** 2 <= r2
            )
            for x, y in user_xy
        )
        return cls(tuple(bs_xy), tuple(user_xy), radius, coverage)

    @property
    def bs_count(self) -> int:
        return len(self.bs_xy)

    @property
    def user_count(self) -> int:
        return len(self.user_xy)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
        """``columns[b-1]``: the users BS b covers, ascending, and each one's other
        covering BSs; computed once, then kept."""
        return tuple(
            (tuple(u for u, cov in enumerate(self.coverage) if b in cov),
             tuple(tuple(bb for bb in cov if bb != b) for cov in self.coverage if b in cov))
            for b in range(1, self.bs_count + 1)
        )

    @cached_property
    def column_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per entry of ``columns``, all BSs' entries in turn: its 0-based BS,
        that BS's bit ``1 << (b-1)``, and the bit mask of the user's other
        covering BSs; int64 arrays, computed once, then kept."""
        bs_of = np.array([b for b, (users, _) in enumerate(self.columns) for _ in users],
                         np.int64)
        others = np.array([sum(1 << (bb - 1) for bb in other)
                           for _, column in self.columns for other in column], np.int64)
        return bs_of, np.left_shift(1, bs_of), others


@dataclass(frozen=True)
class DemandModel:
    """Grouped heavy-tail demand: one permuted popularity ranking per group.

    ``rank_to_file[g][r-1]`` is the file a rank-r draw maps to for group g;
    each row is a bijection on the library.
    """

    rank_to_file: tuple[tuple[int, ...], ...]
    user_group: tuple[int, ...]


def zipf_pmf(library: int, alpha: float) -> np.ndarray:
    """Rank probabilities proportional to rank**(-alpha), ranks 1..library."""
    library = check_count("library", library, 1)
    # Python float powers, not numpy's float64 ``power``: numpy sends that to
    # SIMD code chosen by the CPU, which may round a weight differently.
    exponent = -check_positive("alpha", alpha)
    weights = np.array([float(r) ** exponent for r in range(1, library + 1)])
    return weights / weights.sum()


#: The ``InstanceConfig`` fields that hold one count each, and the least each may be.
_COUNT_FLOORS = {"bs_count": 1, "users": 1, "library": 1, "groups": 1, "warm_slots": 0,
                 "rollout_slots": 0, "horizon_reserve": 0}


@dataclass(frozen=True)
class InstanceConfig:
    """Frozen parameter set; layout defaults resolve to explicit values.

    ``cache_size`` accepts one int for all BSs or a per-BS tuple. Leaving
    ``bs_xy``/``radius`` unset picks the built-in layout for 2 or 5 BSs;
    other sizes need explicit coordinates.
    """

    bs_count: int = 2
    users: int = 20
    library: int = 100
    cache_size: tuple[int, ...] | int = 10
    groups: int = 3
    alpha: float = 1.2
    windows: tuple[int, ...] = (10, 100, 1000)
    radius: float | None = None
    bs_xy: tuple[tuple[float, float], ...] | None = None
    warm_slots: int = 100
    rollout_slots: int = 300
    horizon_reserve: int = 10

    def __post_init__(self) -> None:
        for name, floor in _COUNT_FLOORS.items():
            object.__setattr__(self, name, check_count(name, getattr(self, name), floor))
        alpha = check_positive("alpha", self.alpha)  # cast: 2 and 2.0 write one instance file
        cache = self.cache_size
        if isinstance(cache, str) or not isinstance(cache, Iterable):
            cache = (cache,) * self.bs_count
        cache = tuple(check_count("cache_size", c, 1) for c in cache)
        if len(cache) != self.bs_count:
            raise ConfigurationError("cache_size needs one entry per BS")
        if self.library <= max(cache):
            raise ConfigurationError("library must exceed every cache size")
        given = [check_count("windows", w, 1) for w in self.windows]
        windows = tuple(sorted(given))
        if not windows:
            raise ConfigurationError("need at least one window")
        if len(set(windows)) < len(windows):  # each would print its FREQ line twice
            raise ConfigurationError(f"windows repeat: {given}")
        bs_xy, radius = self.bs_xy, self.radius
        if bs_xy is None or radius is None:
            layout = DEFAULT_LAYOUTS.get(self.bs_count)
            if layout is None:
                raise ConfigurationError(
                    f"no default layout for {self.bs_count} BSs; set bs_xy and radius"
                )
            if bs_xy is None:
                bs_xy = layout[0]
            if radius is None:
                radius = layout[1]
        bs_xy = tuple((check_finite("bs_xy", x), check_finite("bs_xy", y)) for x, y in bs_xy)
        if len(bs_xy) != self.bs_count:
            raise ConfigurationError("bs_xy needs one coordinate pair per BS")
        radius = check_positive("radius", radius)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "cache_size", cache)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "bs_xy", bs_xy)
        object.__setattr__(self, "radius", radius)

    @property
    def trace_slots(self) -> int:
        return self.warm_slots + self.rollout_slots + self.horizon_reserve

    def check_warmup_fits(self, oracle_horizon: int) -> None:
        """Raise unless ``oracle_horizon`` passes :func:`check_horizon` and the
        warm-up and its look-ahead fit in the trace."""
        check_horizon(oracle_horizon)
        if self.warm_slots + oracle_horizon > self.trace_slots:
            raise StructuralError(f"warm-up {self.warm_slots} + oracle horizon {oracle_horizon} "
                                  f"exceeds the {self.trace_slots}-slot trace")

    @classmethod
    def from_dict(cls, payload: dict) -> "InstanceConfig":
        key = key_reader(payload, "instance config key")
        return cls(**{f.name: key(f.name, _CONFIG_PARSERS.get(f.name, whole)) for f in fields(cls)})


@dataclass(frozen=True)
class Instance:
    """A frozen task: topology, demand tables and the full pre-drawn trace."""

    config: InstanceConfig
    seed: int
    graph: AssociationGraph
    demand: DemandModel
    trace: tuple[RequestSlot, ...] = field(repr=False)

    @property
    def trace_len(self) -> int:
        return len(self.trace)

    def request_slot(self, t: int) -> RequestSlot:
        """The request slot at 1-based trace index ``t``."""
        if not 1 <= t <= self.trace_len:
            raise StructuralError(f"slot {t} outside trace of length {self.trace_len}")
        return self.trace[t - 1]

    def peek(self, t: int, horizon: int) -> tuple[RequestSlot, ...]:
        """The frozen slots t+1 .. t+horizon."""
        if t + horizon > self.trace_len:
            raise StructuralError(
                f"peek past trace end: slot {t} + horizon {horizon} > {self.trace_len}"
            )
        return self.trace[t : t + horizon]

    def to_canonical_json(self) -> str:
        """``canonical_json`` of the payload, with the trace formatted by :func:`slots_json`."""
        parts = {"schema": INSTANCE_SCHEMA, "seed": self.seed, "config": asdict(self.config),
                 "user_xy": self.graph.user_xy, "user_group": self.demand.user_group,
                 "rank_to_file": self.demand.rank_to_file}
        parts = {key: canonical_json(value) for key, value in parts.items()}
        parts["trace"] = slots_json(self.trace)
        return "{" + ",".join(f'"{key}":{parts[key]}' for key in sorted(parts)) + "}\n"

    def sha256(self) -> str:
        """Digest of the canonical JSON; computed on the first call, then kept."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode("utf-8")).hexdigest()


def slot_json(slot: RequestSlot) -> str:
    """``canonical_json`` of one slot's request pairs, ``[[u,f],...]``, formatted
    directly from its row: the ids are ints, which ``%d`` writes as ``json`` does."""
    return "[" + ",".join(["[%d,%d]" % (u, f) for u, f in enumerate(slot.row) if f]) + "]"


def slots_json(slots) -> str:
    """``canonical_json`` of a run of slots: :func:`slot_json`'s text of each."""
    return "[" + ",".join(map(slot_json, slots)) + "]"


def _wholes(values) -> tuple[int, ...]:
    return tuple(map(whole, values))


def _points(values) -> tuple[tuple[float, float], ...]:
    """[x, y] pairs of finite JSON numbers: ints or floats, not bools or text."""
    for p in values:
        if not isinstance(p, list) or len(p) != 2 or any(
            type(v) not in (int, float) or not abs(v) <= sys.float_info.max for v in p
        ):
            raise TypeError(f"expected an [x, y] pair of finite numbers, not {p!r}")
    return tuple((float(x), float(y)) for x, y in values)


#: ``InstanceConfig.from_dict``'s parser of each field that is not read by ``whole``.
_CONFIG_PARSERS = {"cache_size": _wholes, "alpha": real, "windows": _wholes,
                   "radius": real, "bs_xy": _points}


def check_seeds(seeds) -> None:
    """Raise unless ``seeds`` holds at least one seed, each a count, none twice."""
    if not seeds:
        raise ConfigurationError("need at least one seed")
    for seed in seeds:
        check_count("seed", seed)
    if len(set(seeds)) < len(seeds):
        raise ConfigurationError(f"seeds repeat: {list(seeds)}")


def draw_graph(config: InstanceConfig, seed: int) -> AssociationGraph:
    """The coverage :func:`build_instance` draws for (config, seed).

    Users are drawn uniformly over the unit square; a draw landing outside
    all coverage disks is re-drawn per user, and with two or more BSs the
    whole user set is re-drawn (bounded rounds) until some user sits in an
    overlap region, so cooperative coupling is never vacuous.
    """
    check_seeds((seed,))
    rng_top = _stream(seed, _STREAM_TOPOLOGY)
    bs_xy, radius = config.bs_xy, config.radius
    r2 = radius * radius
    for _round in range(_OVERLAP_ROUNDS):
        coords = []
        for _u in range(config.users):
            for _try in range(_USER_DRAW_LIMIT):
                x, y = rng_top.random(2)
                if any((x - bx) ** 2 + (y - by) ** 2 <= r2 for bx, by in bs_xy):
                    coords.append((float(x), float(y)))
                    break
            else:
                raise ConfigurationError(
                    "cannot place a covered user; grow the radius or move the BSs"
                )
        graph = AssociationGraph.build(bs_xy, coords, radius)
        if config.bs_count < 2 or any(len(c) >= 2 for c in graph.coverage):
            return graph
    raise ConfigurationError("no overlapping coverage after bounded resampling")


def build_instance(config: InstanceConfig, seed: int) -> Instance:
    """Deterministic instance from (config, seed) on the :func:`draw_graph` coverage."""
    graph = draw_graph(config, seed)
    user_group = tuple(
        int(g) for g in _stream(seed, _STREAM_GROUPS).integers(0, config.groups, size=config.users)
    )
    rng_perm = _stream(seed, _STREAM_PERMUTATIONS)
    rank_to_file = tuple(
        tuple(int(f) + 1 for f in rng_perm.permutation(config.library))
        for _ in range(config.groups)
    )
    demand = DemandModel(rank_to_file, user_group)

    cdf = np.cumsum(zipf_pmf(config.library, config.alpha))
    length = config.trace_slots
    uniforms = _stream(seed, _STREAM_TRACE).random((length, config.users))
    files = np.zeros((length, config.users), dtype=np.int64)
    for g in range(config.groups):
        members = [u for u in range(config.users) if user_group[u] == g]
        if not members:
            continue
        ranks = np.searchsorted(cdf, uniforms[:, members], side="right")
        np.clip(ranks, 0, config.library - 1, out=ranks)
        perm = np.asarray(rank_to_file[g], dtype=np.int64)
        files[:, members] = perm[ranks]
    # One int object per file id, shared by every slot's row, counts and covered.
    ids = np.array(range(config.library + 1), dtype=object)
    trace = tuple(slot_from_row(row, graph) for row in ids[files].tolist())
    return Instance(config, int(seed), graph, demand, trace)


def _graph(config: InstanceConfig, user_xy) -> AssociationGraph:
    """The coverage of ``user_xy``, refused unless :func:`draw_graph` could
    draw it: one point per user, each covered, some covered twice given two BSs."""
    if len(user_xy) != config.users:
        raise ValueError(f"expected {config.users} points, not {len(user_xy)}")
    graph = AssociationGraph.build(config.bs_xy, user_xy, config.radius)
    uncovered = [u for u, cov in enumerate(graph.coverage) if not cov]
    if uncovered:
        raise ValueError(f"no BS covers user {uncovered[0]}")
    if config.bs_count >= 2 and all(len(cov) < 2 for cov in graph.coverage):
        raise ValueError("no user is covered by two BSs")
    return graph


def _rankings(config: InstanceConfig, rows) -> tuple[tuple[int, ...], ...]:
    library = list(range(1, config.library + 1))
    if len(rows) != config.groups or any(sorted(row) != library for row in rows):
        raise ValueError(f"expected {config.groups} permutations of 1..{config.library}")
    return rows


def _groups(config: InstanceConfig, groups) -> tuple[int, ...]:
    if len(groups) != config.users or not all(0 <= g < config.groups for g in groups):
        raise ValueError(f"expected {config.users} groups in 0..{config.groups - 1}")
    return groups


def _full_slot(t: int, pairs, graph, ids: dict) -> RequestSlot:
    """Checked trace slot ``t``; each user requests a file, as :func:`build_instance`
    draws. Each file id is replaced by its object in ``ids``, which the first
    slot to name that id sets, so the whole trace shares one object per id."""
    requests = request_slot([(u, ids.setdefault(f, f)) for u, f in pairs], graph)
    if requests.size < graph.user_count:
        raise ValueError(f"slot {t} holds {requests.size} requests, not one per user")
    return requests


def instance_from_payload(payload: dict) -> Instance:
    key = key_reader(payload, "instance key")
    if payload.get("schema") != INSTANCE_SCHEMA:
        raise StructuralError(f"unsupported instance schema: {payload.get('schema')!r}")
    config = InstanceConfig.from_dict(key("config", lambda c: c))
    graph = key("user_xy", lambda points: _graph(config, _points(points)))
    demand = DemandModel(
        key("rank_to_file", lambda rows: _rankings(config, tuple(map(_wholes, rows)))),
        key("user_group", lambda groups: _groups(config, _wholes(groups))),
    )
    ids: dict = {}
    trace = key("trace", lambda slots: tuple(
        _full_slot(t, tuple((whole(u), whole(f)) for u, f in slot), graph, ids)
        for t, slot in enumerate(slots, start=1)
    ))
    if len(trace) != config.trace_slots:
        raise StructuralError(
            f"instance trace holds {len(trace)} slots, its config needs {config.trace_slots}"
        )
    outside = sorted({f for slot in trace for f in slot.row if f > config.library})
    if outside:
        raise StructuralError(
            f"instance trace requests file ids outside 1..{config.library}: {outside[:5]}"
        )
    return Instance(config, key("seed", whole), graph, demand, trace)


def save_instance(instance: Instance, path) -> None:
    with atomic_write(path) as fh:
        fh.write(instance.to_canonical_json())


def load_instance(path) -> Instance:
    """Read an instance file; a missing file, bad JSON or a bad payload raises naming ``path``."""
    return read_json(path, instance_from_payload)


def load_seeded_instance(path, asked, command: str) -> Instance:
    """:func:`load_instance`, refused unless ``asked`` (a seed, a seed list or None) is its seed."""
    instance = load_instance(path)
    if asked in (None, instance.seed, [instance.seed]):
        return instance
    raise StructuralError(f"instance file holds seed {instance.seed}, {command} asked for {asked}")


@dataclass(frozen=True)
class FrequencyTracker:
    """Sliding-window appearance rates of files in per-BS request pools.

    A read-only view of the frozen ``trace`` after its first ``t =
    slots_seen`` slots. The rate of file f at BS b over window w is the
    share of the last min(w, t) slots whose request pool at BS b contained
    f; ``window_counts`` gives the integer counts behind the rates.

    The counts are kept running in ``index``, one cell shared by every view
    of the same tracker (``advance_tracker`` copies it by reference). A read
    moves the cell's counts forward to its view one trace slot at a time;
    a read at an earlier slot than the cell's restarts them from slot 0, so
    views read in ascending slot order count each slot once. Views that
    render no prompt count nothing. A cell is plain mutable state: one
    thread reads it at a time, and no coopcache code reads one from two
    threads. Views are equal, and hash equal, when their ``windows`` and
    ``slots_seen`` are.
    """

    windows: tuple[int, ...]
    trace: tuple[RequestSlot, ...] = field(repr=False, compare=False)
    slots_seen: int = 0
    # One cell: None before the first read, then [at, lagged]. For each lag
    # of (0, *windows), lagged[i][b-1] maps a file to the number of slots
    # 1..at-lag whose pool at BS b held it: lag 0 counts every slot read,
    # lag w the slots that window w has left behind.
    index: list = field(default_factory=lambda: [None], repr=False, compare=False)

    def window_counts(self, b: int, files) -> list:
        """Per window of ``self.windows`` (ascending), the count for each of
        ``files`` of the last min(w, t) slots whose pool at BS b held it.

        Windows that reach back to slot 1 share one list; do not mutate it.
        """
        windows, trace = self.windows, self.trace
        t = self.slots_seen
        state = self.index[0]
        if state is None or state[0] > t:
            bs_ids = range(len(trace[0].counts))
            state = self.index[0] = [0, [[{} for _ in bs_ids] for _ in range(len(windows) + 1)]]
        at, lagged = state
        for tau in range(at, t):  # slot tau + 1 enters; slot tau + 1 - w leaves window w
            for lag, per_bs in zip((0, *windows), lagged):
                if lag > tau:
                    continue
                for counts, pool in zip(per_bs, trace[tau - lag].counts):
                    for f in pool:
                        counts[f] = counts.get(f, 0) + 1
        state[0] = t
        total, *gone = [per_bs[b - 1] for per_bs in lagged]
        ends = [total.get(f, 0) for f in files]
        return [[end - left.get(f, 0) for f, end in zip(files, ends)] if w < t else ends
                for w, left in zip(windows, gone)]


def advance_tracker(tracker: FrequencyTracker, requests: RequestSlot) -> FrequencyTracker:
    """The view one slot on; ``requests`` must be the trace's next slot."""
    t = tracker.slots_seen
    if t >= len(tracker.trace):
        raise StructuralError(f"tracker trace exhausted after {t} slots")
    expected = tracker.trace[t]
    if requests is not expected and requests != expected:
        raise StructuralError(f"requests are not trace slot {t + 1}")
    # a copy of the fields: the frozen dataclass __init__ pays a setattr per field
    view = object.__new__(FrequencyTracker)
    fields = view.__dict__
    fields.update(tracker.__dict__)
    fields["slots_seen"] = t + 1
    return view


def observe(slot: int, cache: CacheState, requests: RequestSlot,
            tracker: FrequencyTracker) -> SlotObservation:
    """Assemble the policy-facing snapshot for one decision slot.

    Nothing is computed: the prompt renderer reads the rates from ``tracker``.
    """
    return SlotObservation(slot, cache, requests, tracker)


@dataclass
class WarmState:
    """Everything a controller inherits at rollout start. ``inserted_at[b-1]``
    maps each file cached at BS b to the warm-up slot it entered."""

    cache: CacheState
    tracker: FrequencyTracker
    inserted_at: tuple[dict, ...]


def warm_start(instance: Instance, oracle_horizon: int = EXPERT_HORIZON,
               oracle_gamma: float = EXPERT_GAMMA) -> WarmState:
    """Run the prefill policy and return the shared starting state.

    Per slot, a BS with spare capacity inserts the most requested uncached
    file into its lowest empty slot (ties to the lower file id); a full BS
    runs the look-ahead oracle. Each insertion records its slot.
    """
    config = instance.config
    config.check_warmup_fits(oracle_horizon)
    oracle_gamma = check_gamma(oracle_gamma)
    cache = CacheState.empty(config.cache_size)
    inserted_at = tuple({} for _ in range(config.bs_count))
    for t in range(1, config.warm_slots + 1):
        requests = instance.request_slot(t)
        peek = instance.peek(t, oracle_horizon)
        for b in range(1, config.bs_count + 1):
            if not cache.is_full(b):
                file_in = hottest_uncached(cache, b, requests)
                if file_in is None:
                    continue
                cache = cache.insert(b, cache.slots[b - 1].index(EMPTY_SLOT) + 1, file_in)
            else:
                act = oracle_best_action(cache, b, requests, peek, instance.graph,
                                         oracle_horizon, oracle_gamma)
                if act.is_noop:
                    continue
                z, file_in, file_out = act
                cache = cache.insert(b, z, file_in, file_out)
                inserted_at[b - 1].pop(file_out, None)
            inserted_at[b - 1][file_in] = t
    return WarmState(cache, FrequencyTracker(config.windows, instance.trace, config.warm_slots),
                     inserted_at)


#: Robustness sweep axes: axis name -> (InstanceConfig field, value parser).
SWEEP_AXES = {
    "cache_capacity": ("cache_size", int),
    "library_size": ("library", int),
    "zipf_alpha": ("alpha", float),
    "users": ("users", int),
}


def sweep_config(config: InstanceConfig, axis: str, value) -> InstanceConfig:
    """Vary one generation parameter along a :data:`SWEEP_AXES` axis."""
    if axis not in SWEEP_AXES:
        raise StructuralError(
            f"unknown sweep axis {axis!r}; expected one of {', '.join(SWEEP_AXES)}")
    name, parse = SWEEP_AXES[axis]
    return replace(config, **{name: parse(value)})
