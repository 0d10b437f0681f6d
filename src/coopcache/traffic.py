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
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import (
    CacheState,
    RequestSlot,
    StructuralError,
    canonical_json,
    oracle_best_action,
    request_slot,
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


class ConfigurationError(StructuralError):
    """Instance parameters cannot produce a usable topology."""


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
        return cls(
            tuple((float(x), float(y)) for x, y in bs_xy),
            tuple((float(x), float(y)) for x, y in user_xy),
            float(radius),
            coverage,
        )

    @classmethod
    def synthetic(cls, coverage, bs_count: int) -> "AssociationGraph":
        """Coverage given directly; coordinates are placeholders."""
        cov = tuple(tuple(sorted(set(c))) for c in coverage)
        return cls(((0.0, 0.0),) * bs_count, ((0.0, 0.0),) * len(cov), 0.0, cov)

    @property
    def bs_count(self) -> int:
        return len(self.bs_xy)

    @property
    def user_count(self) -> int:
        return len(self.user_xy)


@dataclass(frozen=True)
class DemandModel:
    """Grouped heavy-tail demand: one permuted popularity ranking per group.

    ``rank_to_file[g][r-1]`` is the file a rank-r draw maps to for group g;
    each row is a bijection on the library.
    """

    alpha: float
    rank_to_file: tuple[tuple[int, ...], ...]
    user_group: tuple[int, ...]


def zipf_pmf(library: int, alpha: float) -> np.ndarray:
    """Rank probabilities proportional to rank**(-alpha), ranks 1..library."""
    if library < 1:
        raise StructuralError("library size must be >= 1")
    if alpha <= 0:
        raise StructuralError("alpha must be > 0")
    ranks = np.arange(1, library + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


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
        if self.bs_count < 1 or self.users < 1 or self.groups < 1:
            raise ConfigurationError("bs_count, users and groups must be >= 1")
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be > 0")
        cache = self.cache_size
        if isinstance(cache, int):
            cache = (cache,) * self.bs_count
        cache = tuple(int(c) for c in cache)
        if len(cache) != self.bs_count or any(c < 1 for c in cache):
            raise ConfigurationError("cache_size needs one positive entry per BS")
        if self.library <= max(cache):
            raise ConfigurationError("library must exceed every cache size")
        windows = tuple(sorted(int(w) for w in self.windows))
        if not windows or any(w < 1 for w in windows):
            raise ConfigurationError("windows must be positive")
        if min(self.warm_slots, self.rollout_slots, self.horizon_reserve) < 0:
            raise ConfigurationError("slot counts must be >= 0")
        bs_xy, radius = self.bs_xy, self.radius
        if bs_xy is None or radius is None:
            layout = DEFAULT_LAYOUTS.get(self.bs_count)
            if layout is None and (bs_xy is None or radius is None):
                raise ConfigurationError(
                    f"no default layout for {self.bs_count} BSs; set bs_xy and radius"
                )
            if bs_xy is None:
                bs_xy = layout[0]
            if radius is None:
                radius = layout[1]
        bs_xy = tuple((float(x), float(y)) for x, y in bs_xy)
        if len(bs_xy) != self.bs_count:
            raise ConfigurationError("bs_xy needs one coordinate pair per BS")
        object.__setattr__(self, "cache_size", cache)
        object.__setattr__(self, "windows", windows)
        object.__setattr__(self, "bs_xy", bs_xy)
        object.__setattr__(self, "radius", float(radius))

    @property
    def trace_slots(self) -> int:
        return self.warm_slots + self.rollout_slots + self.horizon_reserve

    @classmethod
    def from_dict(cls, payload: dict) -> "InstanceConfig":
        return cls(
            bs_count=int(payload["bs_count"]),
            users=int(payload["users"]),
            library=int(payload["library"]),
            cache_size=tuple(payload["cache_size"]),
            groups=int(payload["groups"]),
            alpha=float(payload["alpha"]),
            windows=tuple(payload["windows"]),
            radius=float(payload["radius"]),
            bs_xy=tuple(tuple(p) for p in payload["bs_xy"]),
            warm_slots=int(payload["warm_slots"]),
            rollout_slots=int(payload["rollout_slots"]),
            horizon_reserve=int(payload["horizon_reserve"]),
        )


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
        payload = {
            "schema": INSTANCE_SCHEMA,
            "seed": self.seed,
            "config": asdict(self.config),
            "user_xy": [list(p) for p in self.graph.user_xy],
            "user_group": list(self.demand.user_group),
            "rank_to_file": [list(row) for row in self.demand.rank_to_file],
            "trace": [[list(p) for p in slot.pairs] for slot in self.trace],
        }
        return canonical_json(payload) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode("utf-8")).hexdigest()


def build_instance(config: InstanceConfig, seed: int) -> Instance:
    """Deterministic instance from (config, seed).

    Users are drawn uniformly over the unit square; a draw landing outside
    all coverage disks is re-drawn per user, and with two or more BSs the
    whole user set is re-drawn (bounded rounds) until some user sits in an
    overlap region, so cooperative coupling is never vacuous.
    """
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    rng_top = _stream(seed, _STREAM_TOPOLOGY)
    bs_xy, radius = config.bs_xy, config.radius
    r2 = radius * radius
    graph = None
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
        candidate = AssociationGraph.build(bs_xy, coords, radius)
        if config.bs_count < 2 or any(len(c) >= 2 for c in candidate.coverage):
            graph = candidate
            break
    if graph is None:
        raise ConfigurationError("no overlapping coverage after bounded resampling")

    user_group = tuple(
        int(g) for g in _stream(seed, _STREAM_GROUPS).integers(0, config.groups, size=config.users)
    )
    rng_perm = _stream(seed, _STREAM_PERMUTATIONS)
    rank_to_file = tuple(
        tuple(int(f) + 1 for f in rng_perm.permutation(config.library))
        for _ in range(config.groups)
    )
    demand = DemandModel(config.alpha, rank_to_file, user_group)

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
    trace = tuple(
        request_slot(tuple((u, int(files[i, u])) for u in range(config.users)), graph)
        for i in range(length)
    )
    return Instance(config, int(seed), graph, demand, trace)


def instance_from_payload(payload: dict) -> Instance:
    if payload.get("schema") != INSTANCE_SCHEMA:
        raise StructuralError(f"unsupported instance schema: {payload.get('schema')!r}")
    config = InstanceConfig.from_dict(payload["config"])
    graph = AssociationGraph.build(
        config.bs_xy,
        tuple(tuple(p) for p in payload["user_xy"]),
        config.radius,
    )
    demand = DemandModel(
        config.alpha,
        tuple(tuple(int(f) for f in row) for row in payload["rank_to_file"]),
        tuple(int(g) for g in payload["user_group"]),
    )
    trace = tuple(
        request_slot(tuple((int(u), int(f)) for u, f in slot), graph)
        for slot in payload["trace"]
    )
    if len(trace) != config.trace_slots:
        raise StructuralError(
            f"instance trace holds {len(trace)} slots, its config needs {config.trace_slots}"
        )
    outside = sorted({f for slot in trace for _, f in slot.pairs if f > config.library})
    if outside:
        raise StructuralError(
            f"instance trace requests file ids outside 1..{config.library}: {outside[:5]}"
        )
    return Instance(config, int(payload["seed"]), graph, demand, trace)


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(instance.to_canonical_json())


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_payload(json.load(fh))


@dataclass(frozen=True)
class FrequencyTracker:
    """Sliding-window appearance rates of files in per-BS request pools.

    ``counts[wi][b-1]`` maps a file to the number of the last min(w, t)
    slots whose request pool at BS b contained it; ``history`` keeps the
    newest max(window) pools so expired slots can be subtracted. Advancing
    returns a fresh tracker; the dicts are never mutated in place.
    """

    windows: tuple[int, ...]
    slots_seen: int
    history: tuple[tuple[frozenset, ...], ...] = field(repr=False)
    counts: tuple[tuple[dict, ...], ...] = field(repr=False)

    @classmethod
    def fresh(cls, windows, bs_count: int) -> "FrequencyTracker":
        windows = tuple(sorted(int(w) for w in windows))
        return cls(
            windows,
            0,
            (),
            tuple(tuple({} for _ in range(bs_count)) for _ in windows),
        )

    @property
    def bs_count(self) -> int:
        return len(self.counts[0])

    def rate(self, b: int, f: int, w: int) -> float:
        if self.slots_seen == 0:
            return 0.0
        wi = self.windows.index(w)
        return self.counts[wi][b - 1].get(f, 0) / min(w, self.slots_seen)


def advance_tracker(tracker: FrequencyTracker, requests: RequestSlot) -> FrequencyTracker:
    """Fold one slot's request pools into the window statistics."""
    if requests.bs_count != tracker.bs_count:
        raise StructuralError("tracker and requests BS counts differ")
    depth = len(tracker.history)
    new_counts = []
    for wi, w in enumerate(tracker.windows):
        per_bs = []
        for b in range(tracker.bs_count):
            d = dict(tracker.counts[wi][b])
            if depth >= w:
                for f in tracker.history[depth - w][b]:
                    left = d[f] - 1
                    if left:
                        d[f] = left
                    else:
                        del d[f]
            for f in requests.admissible[b]:
                d[f] = d.get(f, 0) + 1
            per_bs.append(d)
        new_counts.append(tuple(per_bs))
    keep = max(tracker.windows)
    history = (tracker.history + (tuple(requests.admissible),))[-keep:]
    return FrequencyTracker(
        tracker.windows, tracker.slots_seen + 1, history, tuple(new_counts)
    )


def observe(slot: int, cache: CacheState, requests: RequestSlot,
            tracker: FrequencyTracker) -> SlotObservation:
    """Assemble the policy-facing snapshot for one decision slot.

    Nothing is computed: the prompt renderer reads the rates from ``tracker``.
    """
    return SlotObservation(slot, cache, requests, tracker)


@dataclass
class HeuristicBooks:
    """Per-BS bookkeeping the eviction heuristics run on.

    ``last_request`` holds the most recent slot each file was requested,
    ``request_totals`` the cumulative request counts, and ``inserted_at``
    the slot each cached file entered the cache. Updated once per slot.
    """

    last_request: list[dict]
    request_totals: list[dict]
    inserted_at: list[dict]

    @classmethod
    def empty(cls, bs_count: int) -> "HeuristicBooks":
        return cls(
            [{} for _ in range(bs_count)],
            [{} for _ in range(bs_count)],
            [{} for _ in range(bs_count)],
        )

    def copy(self) -> "HeuristicBooks":
        return HeuristicBooks(
            [dict(d) for d in self.last_request],
            [dict(d) for d in self.request_totals],
            [dict(d) for d in self.inserted_at],
        )

    def record_requests(self, slot, requests) -> None:
        for b, counts in enumerate(requests.counts):
            for f, c in counts.items():
                self.last_request[b][f] = slot
                self.request_totals[b][f] = self.request_totals[b].get(f, 0) + c

    def record_swap(self, b, file_in, file_out, slot) -> None:
        self.inserted_at[b - 1].pop(file_out, None)
        self.inserted_at[b - 1][file_in] = slot

    def record_fill(self, b, file_in, slot) -> None:
        self.inserted_at[b - 1][file_in] = slot


@dataclass
class WarmState:
    """Everything a controller inherits at rollout start."""

    cache: CacheState
    tracker: FrequencyTracker
    books: HeuristicBooks


def warm_start(instance: Instance, oracle_horizon: int = 10,
               oracle_gamma: float = 0.9) -> WarmState:
    """Run the prefill policy and return the shared starting state.

    Per slot, a BS with spare capacity inserts the most requested uncached
    file into its lowest empty slot (ties to the lower file id); a full BS
    runs the look-ahead oracle. Recency/frequency/insertion books are
    populated along the way so eviction heuristics start with the same
    history every other controller saw.
    """
    config = instance.config
    if config.warm_slots + oracle_horizon > instance.trace_len:
        raise StructuralError("warm-up must leave room for the oracle horizon")
    cache = CacheState.empty(config.cache_size)
    tracker = FrequencyTracker.fresh(config.windows, config.bs_count)
    books = HeuristicBooks.empty(config.bs_count)
    for t in range(1, config.warm_slots + 1):
        requests = instance.request_slot(t)
        tracker = advance_tracker(tracker, requests)
        books.record_requests(t, requests)
        for b in range(1, config.bs_count + 1):
            if not cache.is_full(b):
                pool = requests.admissible[b - 1] - cache.files_at(b)
                if not pool:
                    continue
                counts = requests.counts[b - 1]
                file_in = min(pool, key=lambda f: (-counts[f], f))
                z = cache.slots[b - 1].index(0) + 1
                cache = cache.with_slot(b, z, file_in)
                books.record_fill(b, file_in, t)
            else:
                act = oracle_best_action(
                    cache, b, requests, instance.peek(t, oracle_horizon),
                    instance.graph, oracle_horizon, oracle_gamma,
                )
                if not act.is_noop:
                    cache = cache.with_slot(b, act.slot, act.file_in)
                    books.record_swap(b, act.file_in, act.file_out, t)
    return WarmState(cache, tracker, books)


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
        raise StructuralError(f"unknown sweep axis {axis!r}")
    name, parse = SWEEP_AXES[axis]
    return replace(config, **{name: parse(value)})
