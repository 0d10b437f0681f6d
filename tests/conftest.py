"""Shared fixtures and scenario builders."""

from __future__ import annotations

import collections
import functools
import os
import random
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from coopcache import cli, episode, harness, traffic, verification
from coopcache.core import EMPTY_SLOT, CacheState, RequestSlot, StructuralError, request_slot
from coopcache.interface import SlotObservation
from coopcache.traffic import (
    AssociationGraph,
    FrequencyTracker,
    InstanceConfig,
    build_instance,
)

# Adapter children of the extern tests import coopcache from this checkout
# too, also when pytest alone put src/ on the path (pyproject's pythonpath).
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# The same examples on every run, so a tier-1 result never depends on luck;
# each test still sets its own max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def small_config(**overrides) -> InstanceConfig:
    """A tiny two-BS setup that keeps unit tests fast."""
    base = dict(
        bs_count=2,
        users=6,
        library=12,
        cache_size=3,
        groups=2,
        alpha=1.2,
        windows=(5, 10),
        warm_slots=12,
        rollout_slots=30,
        horizon_reserve=4,
    )
    base.update(overrides)
    return InstanceConfig(**base)


def synthetic_graph(coverage, bs_count: int) -> AssociationGraph:
    """A graph with the coverage given directly; coordinates are placeholders."""
    cov = tuple(tuple(sorted(set(c))) for c in coverage)
    return AssociationGraph(((0.0, 0.0),) * bs_count, ((0.0, 0.0),) * len(cov), 0.0, cov)


def reference_request_slot(pairs, graph) -> RequestSlot:
    """The per-pair build ``request_slot`` made before slots came from a file
    row, kept as a reference: sort the pairs, check each in user order, then
    count each request at every BS covering its user. ``covered[b-1]`` lists
    the file of every user BS b covers, ascending, 0 where the user is absent;
    the slot stores the row the pairs fill, 0 where the user is absent."""
    ordered = tuple(sorted((int(u), int(f)) for u, f in pairs))
    counts = [{} for _ in range(graph.bs_count)]
    row = [0] * graph.user_count
    last = None
    for u, f in ordered:
        if u == last:
            raise StructuralError("one request per user per slot")
        last = u
        if f < 1:
            raise StructuralError("file ids must be >= 1")
        if not 0 <= u < graph.user_count:
            raise StructuralError(f"user {u} is not in the association graph")
        row[u] = f
        for b in graph.coverage[u]:
            counts[b - 1][f] = counts[b - 1].get(f, 0) + 1
    covered = tuple(
        tuple(f for f, cov in zip(row, graph.coverage) if b in cov)
        for b in range(1, graph.bs_count + 1)
    )
    return RequestSlot(tuple(row), tuple(counts), covered)


def assert_same_slot(slot: RequestSlot, reference: RequestSlot) -> None:
    """Equal rows, pairs and covered files, and equal counts with the same key order."""
    assert slot.row == reference.row
    assert slot.pairs == reference.pairs
    assert slot.covered == reference.covered
    assert [list(d.items()) for d in slot.counts] == [list(d.items()) for d in reference.counts]


def random_scenario(rng: random.Random, max_bs=3, max_files=10, max_users=8):
    """A random (cache, graph, requests) triple for oracle-style checks.

    Caches are full so the swap interface is live.
    """
    bs_count = rng.randint(1, max_bs)
    library = rng.randint(4, max_files)
    users = rng.randint(1, max_users)
    capacity = rng.randint(1, max(1, library // 2))
    coverage = []
    for _ in range(users):
        k = rng.randint(1, bs_count)
        coverage.append(tuple(sorted(rng.sample(range(1, bs_count + 1), k))))
    graph = synthetic_graph(coverage, bs_count)
    rows = tuple(
        tuple(rng.sample(range(1, library + 1), capacity)) for _ in range(bs_count)
    )
    cache = CacheState(rows)
    pairs = tuple((u, rng.randint(1, library)) for u in range(users))
    requests = request_slot(pairs, graph)
    return cache, graph, requests


def _bits(mask: int) -> list[int]:
    """The 0-based positions of the set bits of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def scenarios(draw, peek_max=10, holes=False, uncovered=False):
    """A (cache, graph, requests, peek) quadruple of random small shape.

    1-4 BSs of unequal capacities over a library barely larger than the
    biggest cache, so several BSs often hold the same file; each user is
    covered by 1-3 BSs (0-3 with ``uncovered``), and any user may be absent
    from a slot, so slots can be empty. ``peek`` holds 1..``peek_max`` slots
    (none when 0). With ``holes`` cache slots may be empty; without, every
    cache is full. Subsets are drawn as bit masks, which keeps generation cheap.
    """
    bs_count = draw(st.integers(1, 4))
    capacities = draw(st.lists(st.integers(1, 4), min_size=bs_count, max_size=bs_count))
    library = max(capacities) + draw(st.integers(1, 5))
    users = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0 if uncovered else 1, 2**bs_count - 1),
                          min_size=users, max_size=users))
    graph = synthetic_graph(
        [[b + 1 for b in _bits(m)][:3] for m in masks], bs_count
    )
    rows = []
    for cap in capacities:
        row = draw(st.lists(st.integers(1, library), min_size=cap, max_size=cap, unique=True))
        if holes:
            empty = _bits(draw(st.integers(0, 2**cap - 1)))
            row = [EMPTY_SLOT if z in empty else f for z, f in enumerate(row)]
        rows.append(tuple(row))
    files = st.lists(st.integers(1, library), min_size=users, max_size=users)

    def slot():
        absent = _bits(draw(st.integers(0, 2**users - 1)))
        return request_slot([(u, f) for u, f in enumerate(draw(files)) if u not in absent], graph)

    requests = slot()
    peek = tuple(slot() for _ in range(draw(st.integers(1, peek_max)) if peek_max else 0))
    return CacheState(tuple(rows)), graph, requests, peek


def observation(cache, requests) -> SlotObservation:
    """A slot-1 observation whose tracker has seen no slot; every rate is 0."""
    return SlotObservation(1, cache, requests, FrequencyTracker((1,), (requests,)))


_GOLDEN_GRAPH = synthetic_graph(((1,), (1, 2), (1,), (2,)), bs_count=2)

# user -> (file, slots) over the golden 100-slot trace. User 1, the only one
# both BSs cover, carries the shared 5; users 0 and 2 fill BS 1, user 3 BS 2.
_GOLDEN_PLAN = {
    0: ((7, range(1, 28)), (9, range(28, 37)), (5, (37,)), (7, range(91, 99))),
    1: ((5, (100,)),),
    2: ((9, range(98, 101)),),
    3: ((2, (1, 2, 3, 91, 92)), (9, range(4, 20)), (9, range(93, 97))),
}


@functools.cache
def _golden_trace():
    pairs = [[] for _ in range(100)]
    for user, plan in _GOLDEN_PLAN.items():
        for f, slots in plan:
            for t in slots:
                pairs[t - 1].append((user, f))
    return tuple(request_slot(p, _GOLDEN_GRAPH) for p in pairs)


def golden_observation() -> SlotObservation:
    """The fixed two-BS observation behind the golden prompt file.

    The tracker has seen 100 trace slots, so each window's rate is its count
    over the window length. At BS 1 file 7 sits in 8 of the last 10 pools
    (0.8) and in 35 of 100 (0.35); the plan above gives every other count.
    """
    cache = CacheState(((4, 7, 9), (2, 5, 0)))
    requests = request_slot(((0, 5), (1, 5), (2, 7), (3, 9)), _GOLDEN_GRAPH)
    tracker = FrequencyTracker((10, 100), _golden_trace(), 100)
    return SlotObservation(101, cache, requests, tracker)


@pytest.fixture(scope="session")
def small_instance():
    return build_instance(small_config(), 1)


@pytest.fixture(scope="session")
def golden_obs():
    return golden_observation()


#: The calls that do a command's work: an instance ``run`` or ``sweep``
#: builds, a rollout, a walk's slot (rollouts, expert walks, the shaping
#: audit), a warm-up slot's pick at a BS, a verify suite, and an instance
#: another command builds or walks.
_WORK = {
    harness: ("build_instance", "rollout"),
    episode.Episode: ("advance",),
    traffic: ("hottest_uncached", "oracle_best_action"),
    verification: ("build_instance", "fuzz_parser", "verify_pbrs"),
    cli: ("build_instance", "generate_sft"),
}


@pytest.fixture
def work(monkeypatch):
    """A Counter of the calls made to each ``_WORK`` function, by ``owner.name``."""
    calls = collections.Counter()

    def counted(name, real):
        return lambda *args, **kwargs: calls.update((name,)) or real(*args, **kwargs)

    for owner, names in _WORK.items():
        prefix = owner.__name__.rpartition(".")[2]
        for name in names:
            monkeypatch.setattr(owner, name, counted(f"{prefix}.{name}", getattr(owner, name)))
    return calls
